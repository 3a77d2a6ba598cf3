package interleave

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gf"
	"repro/internal/rs"
)

// The arena path is how pagesim and mbusim run a page: the data drawn
// in data-index order through Addr, each stripe encoded in place in a
// stripe-major arena, faults sent through Addr, and the arena decoded
// in place by rs.Decoder.DecodeAll. These tests hold it to the
// physical-layout oracle, Page.Encode and Page.Decode.

// encodeArena lays a page payload into a fresh stripe-major arena
// through Addr and encodes every stripe in place.
func encodeArena(t testing.TB, p *Page, data []gf.Elem) []gf.Elem {
	t.Helper()
	n, k := p.Code().N(), p.Code().K()
	arena := make([]gf.Elem, p.StoredSymbols())
	for i, v := range data {
		s, j := p.Addr(i)
		arena[s*n+j] = v
	}
	for s := 0; s < p.Depth(); s++ {
		word := arena[s*n : (s+1)*n]
		if err := p.Code().EncodeTo(word, word[:k]); err != nil {
			t.Fatal(err)
		}
	}
	return arena
}

// toPhysical returns the arena in the physical, interleaved order.
func toPhysical(p *Page, arena []gf.Elem) []gf.Elem {
	n := p.Code().N()
	phys := make([]gf.Elem, len(arena))
	for i := range phys {
		s, j := p.Addr(i)
		phys[i] = arena[s*n+j]
	}
	return phys
}

// toArena copies a physical-order page into the arena.
func toArena(p *Page, arena, phys []gf.Elem) {
	n := p.Code().N()
	for i, v := range phys {
		s, j := p.Addr(i)
		arena[s*n+j] = v
	}
}

// arenaErasures splits physical erasure positions into per-stripe
// position lists through Addr, reusing lists's backing arrays.
func arenaErasures(p *Page, lists [][]int, erasures []int) [][]int {
	if lists == nil {
		lists = make([][]int, p.Depth())
	}
	for s := range lists {
		lists[s] = lists[s][:0]
	}
	for _, e := range erasures {
		s, j := p.Addr(e)
		lists[s] = append(lists[s], j)
	}
	return lists
}

// checkArenaMatch decodes the arena in place and compares the outcome,
// read back through Addr, with the oracle's decode of the same
// physical page: the failed stripes, the corrected-symbol total and
// every data symbol, including the received data of failed stripes.
// It returns the arena decode for further checks.
func checkArenaMatch(t *testing.T, label string, p *Page, dec *rs.Decoder, arena []gf.Elem, lists [][]int, want *pageResult) *rs.BatchResult {
	t.Helper()
	n := p.Code().N()
	bres, err := dec.DecodeAll(rs.Batch{Words: arena, Stride: n, Count: p.Depth()}, lists)
	if err != nil {
		t.Fatal(err)
	}
	var failed []int
	corrected := 0
	for s, r := range bres.Words {
		corrected += r.Corrections
		if r.Err != nil {
			failed = append(failed, s)
		}
	}
	if corrected != want.CorrectedSymbols {
		t.Fatalf("%s: corrected %d, want %d", label, corrected, want.CorrectedSymbols)
	}
	if len(failed) != len(want.FailedStripes) {
		t.Fatalf("%s: failed stripes %v, want %v", label, failed, want.FailedStripes)
	}
	for i := range failed {
		if failed[i] != want.FailedStripes[i] {
			t.Fatalf("%s: failed stripes %v, want %v", label, failed, want.FailedStripes)
		}
	}
	for i, v := range want.Data {
		if s, j := p.Addr(i); arena[s*n+j] != v {
			t.Fatalf("%s: data differs at %d", label, i)
		}
	}
	return bres
}

// outcomes tallies decoded stripes by outcome.
type outcomes struct{ clean, corrected, failed, miscorrected int }

// require fails the test unless every outcome occurred, so the faults
// drawn reach failure and miscorrection as well as correction.
func (o *outcomes) require(t *testing.T, label string) {
	t.Helper()
	if o.clean == 0 || o.corrected == 0 || o.failed == 0 || o.miscorrected == 0 {
		t.Errorf("%s: %d clean, %d corrected, %d failed, %d miscorrected stripes",
			label, o.clean, o.corrected, o.failed, o.miscorrected)
	}
}

// checkStripes holds every stripe of a decoded arena to the
// corrected-stripe contract a pagesim scrub relies on: a stripe the
// decode accepted is left as a codeword, the encode of its own data,
// so the scrub may keep it as the rewrite; a failed stripe is left
// exactly as received. It tallies the outcomes into o, counting an
// accepted stripe that differs from truth as miscorrected.
func checkStripes(t *testing.T, label string, cd *rs.Code, bres *rs.BatchResult, arena, received, truth []gf.Elem, o *outcomes) {
	t.Helper()
	n, k := cd.N(), cd.K()
	reenc := make([]gf.Elem, n)
	for s, r := range bres.Words {
		word := arena[s*n : (s+1)*n]
		switch {
		case r.Err != nil:
			o.failed++
			if !slices.Equal(word, received[s*n:(s+1)*n]) {
				t.Fatalf("%s stripe %d: a failed stripe was modified", label, s)
			}
			continue
		case r.Corrections == 0:
			o.clean++
		default:
			o.corrected++
		}
		if err := cd.EncodeTo(reenc, word[:k]); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(word, reenc) {
			t.Fatalf("%s stripe %d: decoded stripe is not the encode of its data", label, s)
		}
		if !slices.Equal(word, truth[s*n:(s+1)*n]) {
			o.miscorrected++
		}
	}
}

// TestCodecMatchesPage: the page codec as pagesim runs it — the arena
// path — reproduces Page.Encode and Page.Decode exactly at depths 1 to
// 8: clean pages, bursts, erasures with random errors, and stripes
// overloaded past the code into failure or miscorrection. Every
// decoded arena also keeps the corrected-stripe contract.
func TestCodecMatchesPage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, cd := range []*rs.Code{code, rs.MustNew(f8, 20, 16)} {
		n, k := cd.N(), cd.K()
		dec := cd.NewDecoder()
		var o outcomes
		for depth := 1; depth <= 8; depth++ {
			p, err := New(cd, depth)
			if err != nil {
				t.Fatal(err)
			}
			var lists [][]int
			for trial := 0; trial < 60; trial++ {
				data := randPage(rng, p)
				stored, err := p.Encode(data)
				if err != nil {
					t.Fatal(err)
				}
				arena := encodeArena(t, p, data)
				truth := append([]gf.Elem(nil), arena...)
				var erasures []int
				switch trial % 4 {
				case 1: // a burst of up to two symbols per stripe
					burst := 1 + rng.Intn(2*depth)
					start := rng.Intn(p.StoredSymbols() - burst + 1)
					for i := start; i < start+burst; i++ {
						stored[i] ^= gf.Elem(1 + rng.Intn(255))
					}
				case 2: // located columns, some keeping their value, and an error
					for _, e := range rng.Perm(p.StoredSymbols())[:1+rng.Intn(depth*cd.Redundancy())] {
						if rng.Intn(2) == 0 {
							stored[e] = gf.Elem(rng.Intn(256))
						}
						erasures = append(erasures, e)
					}
					stored[rng.Intn(p.StoredSymbols())] ^= gf.Elem(1 + rng.Intn(255))
				case 3: // one stripe past its capability
					s := rng.Intn(depth)
					for _, j := range rng.Perm(n)[:cd.T()+1+rng.Intn(2)] {
						stored[j*depth+s] ^= gf.Elem(1 + rng.Intn(255))
					}
				}
				toArena(p, arena, stored)
				received := append([]gf.Elem(nil), arena...)
				want, err := p.Decode(stored, erasures)
				if err != nil {
					t.Fatal(err)
				}
				lists = arenaErasures(p, lists, erasures)
				label := fmt.Sprintf("RS(%d,%d) depth %d trial %d", n, k, depth, trial)
				bres := checkArenaMatch(t, label, p, dec, arena, lists, want)
				checkStripes(t, label, cd, bres, arena, received, truth, &o)
			}
		}
		o.require(t, fmt.Sprintf("RS(%d,%d)", n, k))
	}
}

// TestCorrectedStripeContract gives every stripe of a page up to n-k
// erasures, some keeping their value, and up to t+2 errors at other
// positions, sends them into the arena through Addr and decodes the
// arena in place. Each stripe must come out as an independent
// rs.Decoder.Decode of its received word and list says, and keep the
// corrected-stripe contract; a decode refused as malformed must leave
// every stripe as it was.
func TestCorrectedStripeContract(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, cd := range []*rs.Code{code, rs.MustNew(f8, 20, 16)} {
		n, k := cd.N(), cd.K()
		dec, refDec := cd.NewDecoder(), cd.NewDecoder()
		for _, depth := range []int{1, 3, 4} {
			p, err := New(cd, depth)
			if err != nil {
				t.Fatal(err)
			}
			var lists [][]int
			var o outcomes
			var arena, received []gf.Elem
			for trial := 0; trial < 200; trial++ {
				arena = encodeArena(t, p, randPage(rng, p))
				truth := append([]gf.Elem(nil), arena...)
				stored := toPhysical(p, arena)
				var erasures []int
				perStripe := make([][]int, depth)
				for s := 0; s < depth; s++ {
					pos := rng.Perm(n)
					ne, nerr := rng.Intn(cd.Redundancy()+1), rng.Intn(cd.T()+3)
					for _, j := range pos[:ne] {
						if rng.Intn(2) == 0 {
							stored[j*depth+s] = gf.Elem(rng.Intn(256))
						}
						erasures = append(erasures, j*depth+s)
						perStripe[s] = append(perStripe[s], j)
					}
					for _, j := range pos[ne : ne+nerr] {
						stored[j*depth+s] ^= gf.Elem(1 + rng.Intn(255))
					}
				}
				toArena(p, arena, stored)
				received = append(received[:0], arena...)
				lists = arenaErasures(p, lists, erasures)
				bres, err := dec.DecodeAll(rs.Batch{Words: arena, Stride: n, Count: depth}, lists)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("RS(%d,%d) depth %d trial %d", n, k, depth, trial)
				checkStripes(t, label, cd, bres, arena, received, truth, &o)
				for s, r := range bres.Words {
					ref, refErr := refDec.Decode(received[s*n:(s+1)*n], perStripe[s])
					if (r.Err == nil) != (refErr == nil) {
						t.Fatalf("%s stripe %d: arena decode error %v, word decode error %v", label, s, r.Err, refErr)
					}
					if refErr != nil {
						continue
					}
					if r.Corrections != ref.Corrections {
						t.Fatalf("%s stripe %d: %d corrections, word decode made %d", label, s, r.Corrections, ref.Corrections)
					}
					if !slices.Equal(arena[s*n:(s+1)*n], ref.Codeword) {
						t.Fatalf("%s stripe %d: stripe differs from the word decode's codeword", label, s)
					}
				}
			}
			o.require(t, fmt.Sprintf("RS(%d,%d) depth %d", n, k, depth))
			copy(arena, received)
			if _, err := dec.DecodeAll(rs.Batch{Words: arena, Stride: n, Count: depth}, lists[:depth-1]); err == nil {
				t.Fatal("a batch with one erasure list too few was accepted")
			}
			if !slices.Equal(arena, received) {
				t.Fatal("a refused decode modified the arena")
			}
		}
	}
}

// TestArenaErasureMemoAcrossLists drives one decoder over the arena
// through a sequence of erasure lists designed to trip any state kept
// from one decode to the next — list A, a different same-length list
// B, A again, no list, then A mutated in place — comparing every
// decode against Page.Decode on the same inputs. Reusing a per-stripe
// list or an rs erasure-set entry keyed on anything weaker than list
// content (pointer, length) fails this.
func TestArenaErasureMemoAcrossLists(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p, err := New(code36, 4) // RS(36,16): d=20 erasures per stripe
	if err != nil {
		t.Fatal(err)
	}
	dec := p.Code().NewDecoder()
	listA := []int{3, 17, 40, 71, 90}
	listB := []int{5, 17, 41, 70, 91} // same length, different content
	mutated := append([]int(nil), listA...)
	steps := []struct {
		name string
		ers  []int
	}{
		{"A", listA},
		{"A-again", listA},
		{"B-same-length", listB},
		{"A-back", listA},
		{"none", nil},
		{"mutated-in-place", mutated},
	}
	var lists [][]int
	arena := make([]gf.Elem, p.StoredSymbols())
	for round := 0; round < 3; round++ {
		for _, step := range steps {
			if step.name == "mutated-in-place" {
				// Same backing array as the previous round's pass, new
				// contents: the decode must see the new list.
				for i := range mutated {
					mutated[i] = rng.Intn(p.StoredSymbols())
				}
				seen := map[int]bool{}
				for i := range mutated {
					for seen[mutated[i]] {
						mutated[i] = (mutated[i] + 1) % p.StoredSymbols()
					}
					seen[mutated[i]] = true
				}
			}
			stored, err := p.Encode(randPage(rng, p))
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range step.ers {
				stored[e] = gf.Elem(rng.Intn(256))
			}
			stored[rng.Intn(p.StoredSymbols())] ^= gf.Elem(1 + rng.Intn(255))
			want, err := p.Decode(stored, step.ers)
			if err != nil {
				t.Fatal(err)
			}
			toArena(p, arena, stored)
			lists = arenaErasures(p, lists, step.ers)
			checkArenaMatch(t, step.name, p, dec, arena, lists, want)
		}
	}
}

// BenchmarkArenaEncodePageDepth8 / BenchmarkArenaDecodePageDepth8Burst
// track the page path the pagesim campaigns run on: a payload laid
// into the stripe-major arena through Addr and encoded in place, and
// the arena decoded in place; both are gated by BENCH_baseline.json in
// CI.
func BenchmarkArenaEncodePageDepth8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p, _ := New(code, 8)
	n, k := p.Code().N(), p.Code().K()
	data := randPage(rng, p)
	arena := make([]gf.Elem, p.StoredSymbols())
	b.ReportAllocs()
	b.SetBytes(int64(p.StoredSymbols()))
	for i := 0; i < b.N; i++ {
		for d, v := range data {
			s, j := p.Addr(d)
			arena[s*n+j] = v
		}
		for s := 0; s < p.Depth(); s++ {
			word := arena[s*n : (s+1)*n]
			if err := p.Code().EncodeTo(word, word[:k]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkArenaDecodePageDepth8Burst(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	p, _ := New(code, 8)
	n := p.Code().N()
	arena := encodeArena(b, p, randPage(rng, p))
	for i := 30; i < 38; i++ {
		s, j := p.Addr(i)
		arena[s*n+j] ^= 0x3C
	}
	dec := p.Code().NewDecoder()
	work := make([]gf.Elem, len(arena))
	b.ReportAllocs()
	b.SetBytes(int64(p.StoredSymbols()))
	for i := 0; i < b.N; i++ {
		copy(work, arena)
		if _, err := dec.DecodeAll(rs.Batch{Words: work, Stride: n, Count: p.Depth()}, nil); err != nil {
			b.Fatal(err)
		}
	}
}
