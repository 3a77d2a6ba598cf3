package rs

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gf"
)

// buildArena fills a count-word arena (with the given stride) with
// random codewords, then corrupts each word according to a randomly
// chosen class — clean, random errors, erasures (distinct lists),
// mixed, beyond-capability, invalid symbols — and sometimes overlays a
// *shared* erasure list (one slice, many words, the stuck-column
// shape), returning the per-word erasure lists and a pristine copy of
// each received word for post-decode comparison.
func buildArena(t *testing.T, rng *rand.Rand, c *Code, count, stride int) (Batch, [][]int, [][]gf.Elem) {
	t.Helper()
	n, d := c.N(), c.Redundancy()
	arena := make([]gf.Elem, (count-1)*stride+n)
	erasures := make([][]int, count)
	received := make([][]gf.Elem, count)
	for w := 0; w < count; w++ {
		word := arena[w*stride : w*stride+n]
		data := randData(rng, c)
		if err := c.EncodeTo(word, data); err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(6) {
		case 0: // clean
		case 1: // correctable random errors
			corruptInPlace(rng, word, rng.Intn(c.T()+1))
		case 2: // correctable erasures (some corrupted, some consistent)
			ec := rng.Intn(d + 1)
			positions := rng.Perm(n)[:ec:ec]
			for _, p := range positions {
				if rng.Intn(4) > 0 {
					word[p] ^= gf.Elem(1 + rng.Intn(c.Field().Size()-1))
				}
			}
			erasures[w] = positions
		case 3: // mixed errors and erasures within capability
			ec := rng.Intn(d + 1)
			positions := rng.Perm(n)[:ec:ec]
			for _, p := range positions {
				word[p] ^= gf.Elem(1 + rng.Intn(c.Field().Size()-1))
			}
			erasures[w] = positions[:rng.Intn(ec+1)]
		case 4: // invalid symbol (out of field range)
			word[rng.Intn(n)] = gf.Elem(c.Field().Size() + rng.Intn(64))
			if rng.Intn(2) == 0 {
				erasures[w] = []int{rng.Intn(n)}
			}
		default: // beyond capability (often — bounded-distance may still accept)
			corruptInPlace(rng, word, c.T()+1+rng.Intn(d))
		}
	}
	if count > 1 && rng.Intn(2) == 0 {
		// Shared-list overlay: one located-column set, one slice,
		// assigned to a contiguous run of words (the arena-wide-shared
		// shape the erasure-set cache is keyed for).
		ec := 1 + rng.Intn(d)
		shared := rng.Perm(n)[:ec:ec]
		lo := rng.Intn(count)
		hi := lo + 1 + rng.Intn(count-lo)
		for w := lo; w < hi; w++ {
			word := arena[w*stride : w*stride+n]
			erasures[w] = shared
			for _, p := range shared {
				if rng.Intn(4) > 0 && int(word[p]) < c.Field().Size() {
					word[p] ^= gf.Elem(1 + rng.Intn(c.Field().Size()-1))
				}
			}
		}
	}
	for w := 0; w < count; w++ {
		received[w] = append([]gf.Elem(nil), arena[w*stride:w*stride+n]...)
	}
	return Batch{Words: arena, Stride: stride, Count: count}, erasures, received
}

// corruptInPlace flips errs distinct symbols of word.
func corruptInPlace(rng *rand.Rand, word []gf.Elem, errs int) {
	for _, p := range rng.Perm(len(word))[:errs] {
		word[p] ^= gf.Elem(1 + rng.Intn(255))
	}
}

// TestDecodeAllMatchesPerWord is the batch/per-word equivalence law:
// over randomized arenas mixing clean words, correctable errors,
// correctable erasures and beyond-capability words, DecodeAll must
// match a per-word Decoder.Decode loop result-for-result — the same
// accept/reject decision, the same error text, the same corrected word
// and correction count, and failed words left exactly as received.
// Both sides end in the same correction tail, so each per-word outcome
// is also checked against the oracle: its codeword on success, its
// class of failure otherwise. The n-k = 2 codes run the closed-form
// solve: RS(18,16) at three first consecutive roots, and a shortened
// RS(10,8) whose single-error locators mostly fall outside the word.
func TestDecodeAllMatchesPerWord(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, params := range []struct{ n, k, fcr int }{
		{18, 16, 1}, {18, 16, 0}, {18, 16, 2}, {10, 8, 1}, {36, 16, 1}, {255, 223, 1},
	} {
		c, err := NewWithFCR(f8, params.n, params.k, params.fcr)
		if err != nil {
			t.Fatal(err)
		}
		bd := c.NewDecoder()
		dec := c.NewDecoder()
		rounds := 40
		if params.n == 255 {
			rounds = 8
		}
		for round := 0; round < rounds; round++ {
			count := 1 + rng.Intn(24)
			stride := c.N() + rng.Intn(3)
			batch, erasures, received := buildArena(t, rng, c, count, stride)
			if rng.Intn(4) == 0 {
				for w := range erasures { // all-nil lists == nil erasures
					if erasures[w] != nil {
						goto keep
					}
				}
				erasures = nil
			}
		keep:
			bres, err := bd.DecodeAll(batch, erasures)
			if err != nil {
				t.Fatal(err)
			}
			if len(bres.Words) != count {
				t.Fatalf("RS(%d,%d): %d word results, want %d", c.N(), c.K(), len(bres.Words), count)
			}
			clean, corrected, failed := 0, 0, 0
			for w := 0; w < count; w++ {
				got := bres.Words[w]
				var ers []int
				if erasures != nil {
					ers = erasures[w]
				}
				want, wantErr := dec.Decode(received[w], ers)
				var wantWord []gf.Elem
				if wantErr == nil {
					wantWord = want.Codeword
				}
				if m := oracleMismatch(c, received[w], ers, wantWord, wantErr); m != "" {
					t.Fatalf("%v word %d: %s", c, w, m)
				}
				arenaWord := batch.Words[w*stride : w*stride+c.N()]
				if (got.Err != nil) != (wantErr != nil) {
					t.Fatalf("word %d: batch err=%v, per-word err=%v", w, got.Err, wantErr)
				}
				if wantErr != nil {
					failed++
					if got.Err.Error() != wantErr.Error() || errors.Is(got.Err, ErrUncorrectable) != errors.Is(wantErr, ErrUncorrectable) {
						t.Fatalf("%v word %d: error differs: batch %v, per-word %v", c, w, got.Err, wantErr)
					}
					if !equalElems(arenaWord, received[w]) {
						t.Fatalf("word %d: failed word was modified in the arena", w)
					}
					continue
				}
				if got.Corrections != want.Corrections {
					t.Fatalf("word %d: %d corrections, per-word %d", w, got.Corrections, want.Corrections)
				}
				if !equalElems(arenaWord, want.Codeword) {
					t.Fatalf("word %d: corrected arena word differs from per-word codeword", w)
				}
				if want.Corrections > 0 {
					corrected++
				} else {
					clean++
				}
			}
			if bres.Clean != clean || bres.Corrected != corrected || bres.Failed != failed {
				t.Fatalf("tallies %d/%d/%d, want %d/%d/%d",
					bres.Clean, bres.Corrected, bres.Failed, clean, corrected, failed)
			}
		}
	}
}

func equalElems(a, b []gf.Elem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDecodeAllLargeField checks both entry points on codes without
// the packed syndrome table — the Horner front half — against the
// oracle: RS(40,32) over GF(2^12), whose field has no multiplication
// table, and RS(255,125) over GF(2^8), whose table would need
// 255*256*17*8 bytes (about 8.9 MB), over maxBatchTableBytes. The
// arenas mix clean words, errors, erasures, beyond-capability words
// and out-of-field symbols, and three words carry an invalid list:
// out of range, repeated, and longer than n-k.
func TestDecodeAllLargeField(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, c := range []*Code{MustNew(gf.MustField(12), 40, 32), MustNew(f8, 255, 125)} {
		n := c.N()
		dec, bd := c.NewDecoder(), c.NewDecoder()
		for round := 0; round < 4; round++ {
			batch, erasures, received := buildArena(t, rng, c, 12, n)
			erasures[0] = []int{1, n}
			erasures[1] = []int{3, 7, 3}
			erasures[2] = rng.Perm(n)[:c.Redundancy()+1]
			bres, err := bd.DecodeAll(batch, erasures)
			if err != nil {
				t.Fatal(err)
			}
			for w, got := range bres.Words {
				var arenaWord []gf.Elem
				if got.Err == nil {
					arenaWord = batch.Words[w*n : (w+1)*n]
				} else if !equalElems(batch.Words[w*n:(w+1)*n], received[w]) {
					t.Fatalf("%v word %d: failed word was modified in the arena", c, w)
				}
				if m := oracleMismatch(c, received[w], erasures[w], arenaWord, got.Err); m != "" {
					t.Fatalf("%v DecodeAll word %d: %s", c, w, m)
				}
				res, err := dec.Decode(received[w], erasures[w])
				var codeword []gf.Elem
				if err == nil {
					codeword = res.Codeword
				}
				if m := oracleMismatch(c, received[w], erasures[w], codeword, err); m != "" {
					t.Fatalf("%v Decode word %d: %s", c, w, m)
				}
			}
		}
		if bt := c.batchSyndromeTable(); bt.tab != nil {
			t.Fatalf("%v built a packed syndrome table", c)
		}
	}
}

// TestDecodeAllValidation covers the arena-shape error paths and the
// per-word validation errors (invalid symbols, bad erasure lists) that
// must classify exactly like Decoder.Decode.
func TestDecodeAllValidation(t *testing.T) {
	c := MustNew(f8, 18, 16)
	bd := c.NewDecoder()
	arena := make([]gf.Elem, 3*18)

	if _, err := bd.DecodeAll(Batch{Words: arena, Stride: 17, Count: 1}, nil); err == nil {
		t.Error("stride below n accepted")
	}
	if _, err := bd.DecodeAll(Batch{Words: arena, Stride: 18, Count: -1}, nil); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := bd.DecodeAll(Batch{Words: arena, Stride: 18, Count: 4}, nil); err == nil {
		t.Error("short arena accepted")
	}
	if _, err := bd.DecodeAll(Batch{Words: arena, Stride: 18, Count: 3}, make([][]int, 2)); err == nil {
		t.Error("erasure list count mismatch accepted")
	}
	res, err := bd.DecodeAll(Batch{Words: arena, Stride: 18, Count: 0}, nil)
	if err != nil || len(res.Words) != 0 {
		t.Errorf("empty batch: res=%+v err=%v", res, err)
	}

	// Per-word validation errors surface in WordResult.Err, not as a
	// batch-level error, and are NOT ErrUncorrectable.
	arena[5] = 0x100 // invalid symbol in word 0 (otherwise a clean codeword)
	res, err = bd.DecodeAll(Batch{Words: arena, Stride: 18, Count: 3},
		[][]int{nil, {2, 2}, {99}})
	if err != nil {
		t.Fatal(err)
	}
	for w, wantSub := range []string{"out of range", "duplicate erasure", "erasure position"} {
		if res.Words[w].Err == nil {
			t.Fatalf("word %d: expected validation error", w)
		}
		if errors.Is(res.Words[w].Err, ErrUncorrectable) {
			t.Errorf("word %d: validation error misclassified as uncorrectable: %v", w, res.Words[w].Err)
		}
		if got := res.Words[w].Err.Error(); !contains(got, wantSub) {
			t.Errorf("word %d: error %q does not mention %q", w, got, wantSub)
		}
	}
	if res.Failed != 3 {
		t.Errorf("Failed=%d, want 3", res.Failed)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestBatchSteadyStateZeroAllocs: repeated DecodeAll calls over clean,
// sparse-error and erasure-bearing arenas of a fixed shape must not
// allocate — the scrub steady state. Neither may an RS(18,16) arena
// whose failed words reach each failure of the closed-form n-k = 2
// solve: two errors with S0 = 0, with S1 = 0, with a locator outside
// the word, and one error beside one erasure.
func TestBatchSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	const count = 16
	encodeArena := func(c *Code) []gf.Elem {
		n := c.N()
		arena := make([]gf.Elem, count*n)
		for w := 0; w < count; w++ {
			if err := c.EncodeTo(arena[w*n:(w+1)*n], randData(rng, c)); err != nil {
				t.Fatal(err)
			}
		}
		return arena
	}
	c := MustNew(f8, 36, 16)
	n := c.N()
	clean := encodeArena(c)
	sparse := append([]gf.Elem(nil), clean...)
	corruptInPlace(rng, sparse[3*n:4*n], 2)
	erased := append([]gf.Elem(nil), clean...)
	erasures := make([][]int, count)
	erasures[5] = []int{1, 7}
	erased[5*n+1] ^= 0x40

	c18 := MustNew(f8, 18, 16)
	failing := encodeArena(c18)
	failingErs := make([][]int, count)
	for w, mags := range [][2]gf.Elem{{1, 2}, {1, 4}, {1, 1}} {
		failing[w*18] ^= mags[0]
		failing[w*18+1] ^= mags[1]
	}
	failing[3*18+7] ^= 0x11
	failingErs[3] = []int{5}

	cases := []struct {
		name   string
		c      *Code
		arena  []gf.Elem
		ers    [][]int
		failed int
	}{
		{"clean", c, clean, nil, 0},
		{"sparse", c, sparse, nil, 0},
		{"erasures", c, erased, erasures, 0},
		{"rs1816-failed", c18, failing, failingErs, 4},
	}
	for _, tc := range cases {
		bd := tc.c.NewDecoder()
		batch := Batch{Words: tc.arena, Stride: tc.c.N(), Count: count}
		run := func() {
			res, err := bd.DecodeAll(batch, tc.ers)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != tc.failed {
				t.Fatalf("%s: %d failed words, want %d", tc.name, res.Failed, tc.failed)
			}
		}
		run() // warm the workspace (and re-corrupt nothing: corrections persist in the arena)
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestBatchStrideHeadroomUntouched: symbols between n and Stride are
// neither read nor written.
func TestBatchStrideHeadroomUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	c := MustNew(f8, 18, 16)
	bd := c.NewDecoder()
	n, stride, count := c.N(), c.N()+4, 5
	arena := make([]gf.Elem, (count-1)*stride+n)
	for i := range arena {
		arena[i] = 0x1234 // invalid sentinel everywhere, including headroom
	}
	for w := 0; w < count; w++ {
		if err := c.EncodeTo(arena[w*stride:w*stride+n], randData(rng, c)); err != nil {
			t.Fatal(err)
		}
	}
	corruptInPlace(rng, arena[2*stride:2*stride+n], 1)
	res, err := bd.DecodeAll(Batch{Words: arena, Stride: stride, Count: count}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean != 4 || res.Corrected != 1 || res.Failed != 0 {
		t.Fatalf("tallies %d/%d/%d, want 4/1/0", res.Clean, res.Corrected, res.Failed)
	}
	for w := 0; w < count-1; w++ {
		for _, v := range arena[w*stride+n : (w+1)*stride] {
			if v != 0x1234 {
				t.Fatalf("headroom of word %d modified", w)
			}
		}
	}
}
