package campaign

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// drawOp makes one draw of the kind op selects — one of the methods
// the simulators call — and folds its result into a uint64, so two
// generators can be compared draw by draw.
func drawOp(r *rand.Rand, op byte, buf []byte) uint64 {
	switch op % 7 {
	case 0:
		return math.Float64bits(r.Float64())
	case 1:
		return math.Float64bits(r.ExpFloat64())
	case 2:
		return uint64(r.Intn(int(op)*131 + 1))
	case 3:
		return uint64(r.Int63n(int64(op)<<33 + 7))
	case 4:
		return r.Uint64()
	case 5:
		h := uint64(0)
		for _, v := range r.Perm(int(op) % 23) {
			h = h*31 + uint64(v)
		}
		return h
	default:
		n, _ := r.Read(buf[:int(op)%len(buf)])
		h := uint64(n)
		for _, b := range buf[:n] {
			h = h*257 + uint64(b)
		}
		return h
	}
}

// compareDraws makes n draws from both generators, cycling through
// ops (Uint64 only when ops is empty), and reports the first mismatch.
func compareDraws(want, got *rand.Rand, n int, ops []byte) error {
	var wbuf, gbuf [13]byte
	for i := 0; i < n; i++ {
		op := byte(4)
		if len(ops) > 0 {
			op = ops[i%len(ops)]
		}
		if w, g := drawOp(want, op, wbuf[:]), drawOp(got, op, gbuf[:]); w != g {
			return fmt.Errorf("draw %d (op %d): math/rand %#x, trial source %#x", i, op, w, g)
		}
	}
	return nil
}

// lawSeeds are the seeds the trial source must reproduce math/rand
// for: math/rand's normalization edges (zero, the sign, the modulus
// and its multiples, the value zero is replaced by, the int64
// extremes) and the per-trial seeds the simulators actually use.
func lawSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, math.MinInt64, math.MaxInt64,
		int32max, -int32max, 12345 * int32max, int32max + 1, 89482311,
	}
	for _, base := range []int64{1, 13, -7} {
		for i := 0; i < 100; i++ {
			seeds = append(seeds, TrialSeed(base, i*977))
		}
	}
	return seeds
}

// mixedOps cycles every method the simulators call, with varying
// arguments.
var mixedOps = []byte{0, 1, 2, 3, 4, 5, 6, 9, 16, 30, 45, 100, 200, 255, 7, 14, 21, 28}

// TestTrialRandMatchesMathRand is the byte-identity law of the trial
// source: for every seed, and after reseeding at each boundary of
// the lazy phase (draws 273 and 334) and past a full register turn,
// it makes the same draws as rand.New(rand.NewSource(seed)).
func TestTrialRandMatchesMathRand(t *testing.T) {
	for _, seed := range lawSeeds() {
		want := rand.New(rand.NewSource(seed))
		got := NewTrialRand(seed)
		if err := compareDraws(want, got, 2000, mixedOps); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, after := range []int{0, 1, 272, 273, 333, 334, 606, 607, 2000} {
			reseed := seed ^ int64(after)<<20
			want.Seed(reseed)
			got.Seed(reseed)
			if err := compareDraws(want, got, after, nil); err != nil {
				t.Fatalf("seed %d: before reseed after %d draws: %v", seed, after, err)
			}
			reseed = TrialSeed(seed, after)
			want.Seed(reseed)
			got.Seed(reseed)
			if err := compareDraws(want, got, 2000, mixedOps); err != nil {
				t.Fatalf("seed %d reseeded after %d draws: %v", seed, after, err)
			}
		}
	}
}

// TestTrialRandZeroAllocs gates the per-trial cost: a reseed and the
// draws after it never touch the heap.
func TestTrialRandZeroAllocs(t *testing.T) {
	r := NewTrialRand(1)
	trial := 0
	allocs := testing.AllocsPerRun(100, func() {
		r.Seed(TrialSeed(7, trial))
		trial++
		for i := 0; i < 500; i++ {
			_ = r.Float64()
			_ = r.ExpFloat64()
			_ = r.Intn(256)
		}
	})
	if allocs != 0 {
		t.Errorf("Seed plus draws: %.1f allocs/op, want 0", allocs)
	}
}

// FuzzTrialRand compares the trial source with math/rand over n
// draws after seed, the draw kinds cycling through ops.
func FuzzTrialRand(f *testing.F) {
	f.Add(int64(1), uint16(400), []byte{4})
	f.Add(int64(0), uint16(1000), mixedOps)
	f.Add(int64(math.MinInt64), uint16(335), []byte{1, 5, 6})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, ops []byte) {
		if err := compareDraws(rand.New(rand.NewSource(seed)), NewTrialRand(seed), int(n), ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// BenchmarkTrialRand times one trial's RNG cost — a reseed plus 1, 40
// or 400 Float64 draws — for math/rand and for the trial source.
func BenchmarkTrialRand(b *testing.B) {
	sources := []struct {
		name string
		r    *rand.Rand
	}{
		{"math-rand", rand.New(rand.NewSource(1))},
		{"trial", NewTrialRand(1)},
	}
	for _, src := range sources {
		for _, draws := range []int{1, 40, 400} {
			b.Run(fmt.Sprintf("%s/draws=%d", src.name, draws), func(b *testing.B) {
				r := src.r
				b.ReportAllocs()
				sum := 0.0
				for i := 0; i < b.N; i++ {
					r.Seed(TrialSeed(1, i))
					for j := 0; j < draws; j++ {
						sum += r.Float64()
					}
				}
				benchSink = sum
			})
		}
	}
}

var benchSink float64
