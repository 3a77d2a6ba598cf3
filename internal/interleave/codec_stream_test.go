package interleave

import (
	"math/rand"
	"testing"

	"repro/internal/gf"
)

// checkDecodeMatch compares a codec decode result against the
// allocation-per-call Page.Decode ground truth.
func checkDecodeMatch(t *testing.T, label string, want *DecodeResult, got *DecodeResult) {
	t.Helper()
	if want.CorrectedSymbols != got.CorrectedSymbols {
		t.Fatalf("%s: corrected %d, want %d", label, got.CorrectedSymbols, want.CorrectedSymbols)
	}
	if len(want.FailedStripes) != len(got.FailedStripes) {
		t.Fatalf("%s: failed stripes %v, want %v", label, got.FailedStripes, want.FailedStripes)
	}
	for i := range want.FailedStripes {
		if want.FailedStripes[i] != got.FailedStripes[i] {
			t.Fatalf("%s: failed stripes %v, want %v", label, got.FailedStripes, want.FailedStripes)
		}
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: data differs at %d", label, i)
		}
	}
}

// TestCodecErasureMemoAcrossLists drives one codec through a sequence
// of erasure lists designed to trip any state kept from one decode to
// the next — list A, a different same-length list B, A again, no list,
// then A mutated in place — comparing every decode against Page.Decode
// on the same inputs. Reusing a split or an rs erasure-set entry keyed
// on anything weaker than list content (pointer, length) fails this.
func TestCodecErasureMemoAcrossLists(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p, err := New(code36, 4) // RS(36,16): d=20 erasures per stripe
	if err != nil {
		t.Fatal(err)
	}
	c := p.NewCodec()
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
	var res DecodeResult
	stored2 := make([]gf.Elem, p.StoredSymbols())
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
			data := randPage(rng, p)
			stored, err := p.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range step.ers {
				stored[e] = gf.Elem(rng.Intn(256))
			}
			stored[rng.Intn(p.StoredSymbols())] ^= gf.Elem(1 + rng.Intn(255))
			copy(stored2, stored)
			want, err := p.Decode(stored, step.ers)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.DecodeTo(&res, stored2, step.ers); err != nil {
				t.Fatal(err)
			}
			checkDecodeMatch(t, step.name, want, &res)
		}
	}

	// An invalid list must still be rejected after valid ones, and a
	// valid decode must still work after the rejection.
	if err := c.DecodeTo(&res, stored2, []int{p.StoredSymbols()}); err == nil {
		t.Fatal("out-of-range erasure accepted after memoized split")
	}
	data := randPage(rng, p)
	stored, _ := p.Encode(data)
	if err := c.DecodeTo(&res, stored, listA); err != nil {
		t.Fatal(err)
	}
}
