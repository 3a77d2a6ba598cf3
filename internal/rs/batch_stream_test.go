package rs

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gf"
)

// batchOutcome snapshots everything observable about one DecodeAll
// call: the per-word results (copied out of the workspace), the
// tallies, and the corrected arena bytes.
type batchOutcome struct {
	words    []WordResult
	clean    int
	corr     int
	failed   int
	arena    []gf.Elem
	decodeOK bool
}

func runBatch(t *testing.T, bd *Decoder, pristine []gf.Elem, stride, count int, erasures [][]int) batchOutcome {
	t.Helper()
	arena := append([]gf.Elem(nil), pristine...)
	res, err := bd.DecodeAll(Batch{Words: arena, Stride: stride, Count: count}, erasures)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	return batchOutcome{
		words:    append([]WordResult(nil), res.Words...),
		clean:    res.Clean,
		corr:     res.Corrected,
		failed:   res.Failed,
		arena:    arena,
		decodeOK: true,
	}
}

// TestDecodeAllWorkersDeterministic pins the cache half of the
// equivalence law: for randomized mixed arenas (clean, sparse errors,
// erasures with shared and distinct lists, invalid symbols,
// beyond-capability words), a repeated call on the same warm
// Decoder must reproduce the cold-cache outcome exactly —
// bit-identical arena, identical per-word results (including error
// values) and identical tallies — and both must match a per-word
// Decoder.Decode loop.
func TestDecodeAllWorkersDeterministic(t *testing.T) {
	shapes := []struct{ n, k int }{{18, 16}, {36, 16}, {255, 223}}
	for _, s := range shapes {
		c := MustNew(f8, s.n, s.k)
		rng := rand.New(rand.NewSource(int64(900 + s.n)))
		for trial := 0; trial < 6; trial++ {
			count := 1 + rng.Intn(32)
			stride := s.n + rng.Intn(4)
			b, erasures, _ := buildArena(t, rng, c, count, stride)
			pristine := append([]gf.Elem(nil), b.Words...)

			bd := c.NewDecoder()
			ref := runBatch(t, bd, pristine, stride, count, erasures)
			warm := runBatch(t, bd, pristine, stride, count, erasures)
			if !equalElems(warm.arena, ref.arena) {
				t.Fatalf("n=%d trial=%d: warm arena differs from cold", s.n, trial)
			}
			if !reflect.DeepEqual(warm.words, ref.words) {
				t.Fatalf("n=%d trial=%d: warm word results differ from cold\n got %+v\nwant %+v",
					s.n, trial, warm.words, ref.words)
			}
			if warm.clean != ref.clean || warm.corr != ref.corr || warm.failed != ref.failed {
				t.Fatalf("n=%d trial=%d: warm tallies (%d,%d,%d) != cold (%d,%d,%d)",
					s.n, trial, warm.clean, warm.corr, warm.failed, ref.clean, ref.corr, ref.failed)
			}

			// Ground truth: the per-word Decoder.Decode loop over the
			// pristine received words must match the reference outcome
			// word for word — same classification, same corrections,
			// failed words untouched.
			dec := c.NewDecoder()
			for w := 0; w < count; w++ {
				word := pristine[w*stride : w*stride+s.n]
				var ers []int
				if erasures != nil {
					ers = erasures[w]
				}
				got, err := dec.Decode(word, ers)
				wr := ref.words[w]
				if (err != nil) != (wr.Err != nil) {
					t.Fatalf("n=%d trial=%d word %d: batch err %v, per-word err %v", s.n, trial, w, wr.Err, err)
				}
				arenaWord := ref.arena[w*stride : w*stride+s.n]
				if err != nil {
					if err.Error() != wr.Err.Error() {
						t.Fatalf("n=%d trial=%d word %d: batch err %q, per-word err %q", s.n, trial, w, wr.Err, err)
					}
					if errors.Is(err, ErrUncorrectable) != errors.Is(wr.Err, ErrUncorrectable) {
						t.Fatalf("n=%d trial=%d word %d: classification differs: batch %v, per-word %v", s.n, trial, w, wr.Err, err)
					}
					if !equalElems(arenaWord, word) {
						t.Fatalf("n=%d trial=%d word %d: failed word modified in arena", s.n, trial, w)
					}
					continue
				}
				if !equalElems(arenaWord, got.Codeword) {
					t.Fatalf("n=%d trial=%d word %d: batch corrected word differs from Decoder.Decode", s.n, trial, w)
				}
				if wr.Corrections != got.Corrections {
					t.Fatalf("n=%d trial=%d word %d: batch corrections %d, per-word %d", s.n, trial, w, wr.Corrections, got.Corrections)
				}
			}
		}
	}
}

// TestDecodeAllChunksMatchWholeArena checks that decoding an arena
// chunk by chunk through one warm Decoder — the way a simulator
// reuses its workspace for scrub passes of varying size, for chunk
// sizes that do and do not divide the word count — produces exactly
// the whole-arena DecodeAll outcome: same corrected bytes, same
// per-word results in arena order, same tallies.
func TestDecodeAllChunksMatchWholeArena(t *testing.T) {
	shapes := []struct{ n, k int }{{36, 16}, {255, 223}}
	for _, s := range shapes {
		c := MustNew(f8, s.n, s.k)
		rng := rand.New(rand.NewSource(int64(1700 + s.n)))
		const count = 24
		stride := s.n + 2
		b, erasures, _ := buildArena(t, rng, c, count, stride)
		pristine := append([]gf.Elem(nil), b.Words...)

		ref := runBatch(t, c.NewDecoder(), pristine, stride, count, erasures)

		for _, chunk := range []int{1, 5, 8, count} {
			arena := append([]gf.Elem(nil), pristine...)
			bd := c.NewDecoder()
			var words []WordResult
			clean, corr, failed := 0, 0, 0
			for next := 0; next < count; next += chunk {
				cnt := min(chunk, count-next)
				sub := Batch{
					Words:  arena[next*stride : (next+cnt-1)*stride+s.n],
					Stride: stride,
					Count:  cnt,
				}
				var ers [][]int
				if erasures != nil {
					ers = erasures[next : next+cnt]
				}
				res, err := bd.DecodeAll(sub, ers)
				if err != nil {
					t.Fatalf("chunk=%d: DecodeAll at word %d: %v", chunk, next, err)
				}
				if len(res.Words) != cnt {
					t.Fatalf("chunk=%d: %d word results for a %d-word chunk", chunk, len(res.Words), cnt)
				}
				words = append(words, res.Words...)
				clean += res.Clean
				corr += res.Corrected
				failed += res.Failed
			}
			if clean != ref.clean || corr != ref.corr || failed != ref.failed {
				t.Fatalf("chunk=%d: chunked tallies (%d,%d,%d) != whole arena (%d,%d,%d)",
					chunk, clean, corr, failed, ref.clean, ref.corr, ref.failed)
			}
			if !reflect.DeepEqual(words, ref.words) {
				t.Fatalf("chunk=%d: chunked word results differ from whole-arena DecodeAll", chunk)
			}
			if !equalElems(arena, ref.arena) {
				t.Fatalf("chunk=%d: chunked arena differs from whole-arena DecodeAll", chunk)
			}
		}
	}
}

// TestBatchErasureSteadyStateZeroAllocs pins the zero-allocation
// steady state of the cached-erasure paths: an arena-wide shared list
// (memo hit per word) and per-word distinct lists (content hit per
// word), each re-corrupted and re-decoded per run after one warming
// call.
func TestBatchErasureSteadyStateZeroAllocs(t *testing.T) {
	c := MustNew(f8, 36, 16)
	const count = 16
	rng := rand.New(rand.NewSource(61))
	arena := make([]gf.Elem, count*36)
	for w := 0; w < count; w++ {
		if err := c.EncodeTo(arena[w*36:(w+1)*36], randData(rng, c)); err != nil {
			t.Fatal(err)
		}
	}
	b := Batch{Words: arena, Stride: 36, Count: count}

	shared := rng.Perm(36)[:8:8]
	sharedErs := make([][]int, count)
	distinctErs := make([][]int, count)
	for w := 0; w < count; w++ {
		sharedErs[w] = shared
		distinctErs[w] = rng.Perm(36)[:6:6]
	}
	type flip struct {
		pos int
		val gf.Elem
	}
	flipsFor := func(ers [][]int) []flip {
		var fl []flip
		for w, list := range ers {
			for _, p := range list {
				fl = append(fl, flip{w*36 + p, gf.Elem(1 + rng.Intn(255))})
			}
		}
		return fl
	}
	cases := []struct {
		name  string
		ers   [][]int
		flips []flip
	}{
		{"shared-list", sharedErs, flipsFor(sharedErs)},
		{"distinct-lists", distinctErs, flipsFor(distinctErs)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bd := c.NewDecoder()
			if _, err := bd.DecodeAll(b, tc.ers); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				for _, f := range tc.flips {
					arena[f.pos] ^= f.val
				}
				res, err := bd.DecodeAll(b, tc.ers)
				if err != nil {
					t.Fatal(err)
				}
				if res.Corrected != count {
					t.Fatalf("%d corrected, want %d", res.Corrected, count)
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state DecodeAll allocates %.1f per run, want 0", allocs)
			}
		})
	}
}
