package rs

import (
	"testing"

	"repro/internal/gf"
)

// TestBoundarySweepExhaustive decodes every error-and-erasure pattern
// near the correction bound on the zero codeword of three small codes
// over GF(8) and requires Decoder.Decode to agree with oracleDecode on
// each word, and every success to stay within the bound. A pattern has
// v erasures (each holding any stored value, 0 included) and e errors
// (nonzero values) with n-k-1 <= 2e+v <= n-k+1 and v <= n-k. The words
// with 2e+v = n-k+1 lie one past the bound, where a decoder whose
// capability test is off by one accepts a word it must reject; random
// words seldom land there.
func TestBoundarySweepExhaustive(t *testing.T) {
	f3 := gf.MustField(3)
	for _, tc := range []struct {
		n, k, fcr int
		words     int
	}{
		{7, 3, 0, 754621},
		{7, 3, 1, 754621},
		{6, 2, 0, 339535}, // shortened
	} {
		c, err := NewWithFCR(f3, tc.n, tc.k, tc.fcr)
		if err != nil {
			t.Fatal(err)
		}
		d := c.Redundancy()
		dec := c.NewDecoder()
		word := make([]gf.Elem, tc.n)
		role := make([]int, tc.n) // 0 clean, 1 erased, 2 in error
		var ers, errs []int
		words := 0
		combos := 1
		for range tc.n {
			combos *= 3
		}
		for r := 0; r < combos; r++ {
			ers, errs = ers[:0], errs[:0]
			for i, x := 0, r; i < tc.n; i, x = i+1, x/3 {
				role[i] = x % 3
				switch role[i] {
				case 1:
					ers = append(ers, i)
				case 2:
					errs = append(errs, i)
				}
			}
			if w := 2*len(errs) + len(ers); w < d-1 || w > d+1 || len(ers) > d {
				continue
			}
			clear(word)
			for _, p := range errs {
				word[p] = 1
			}
			for {
				words++
				res, err := dec.Decode(word, ers)
				var got []gf.Elem
				if err == nil {
					got = res.Codeword
				}
				if m := oracleMismatch(c, word, ers, got, err); m != "" {
					t.Fatalf("RS(%d,%d) fcr %d: word %v with erasures %v: %s", tc.n, tc.k, tc.fcr, word, ers, m)
				}
				if err == nil {
					checkBounded(t, c, word, got, ers)
				}
				if !nextPattern(word, role) {
					break
				}
			}
		}
		if words != tc.words {
			t.Errorf("RS(%d,%d) fcr %d: swept %d words, want %d", tc.n, tc.k, tc.fcr, words, tc.words)
		}
	}
}

// nextPattern steps word to the next value assignment of its erased
// (any of 0..7) and erroneous (1..7) positions, like an odometer over
// GF(8). It reports false once every assignment was visited.
func nextPattern(word []gf.Elem, role []int) bool {
	for i, rl := range role {
		if rl == 0 {
			continue
		}
		if word[i] < 7 {
			word[i]++
			return true
		}
		word[i] = 0
		if rl == 2 {
			word[i] = 1
		}
	}
	return false
}
