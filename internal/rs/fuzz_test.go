package rs

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/gf"
)

// maxFuzzWords caps the arena a FuzzDecode input fills.
const maxFuzzWords = 8

// FuzzDecode is the decoder differential over the paper's two codes:
// wide selects RS(36,16) over RS(18,16), words is split into n-symbol
// received words (zero-padded, at most maxFuzzWords) and each byte of
// erasures names a position in [-1, n] — out-of-range and duplicate
// positions included. Decoder.Decode, BatchDecoder at 1 and 4 workers
// (one arena, one shared erasure list) must agree on every word: the
// same corrected codeword or the same error text. DecodeEuclidean must
// give the same codeword or validation error, and fail exactly where
// Decode finds the word uncorrectable. A word reported as corrected
// must be a codeword within 2e+v <= n-k of the received word.
func FuzzDecode(f *testing.F) {
	codes := map[bool]*Code{false: MustNew(f8, 18, 16), true: MustNew(f8, 36, 16)}
	type workspace struct {
		dec      *Decoder
		bd1, bd4 *BatchDecoder
	}
	spaces := make(map[bool]workspace)
	for wide, c := range codes {
		spaces[wide] = workspace{c.NewDecoder(), c.NewBatchDecoder(), c.NewBatchDecoder().SetWorkers(4)}
	}
	for _, wide := range []bool{false, true} {
		c := codes[wide]
		cw, err := c.Encode(make([]gf.Elem, c.K()))
		if err != nil {
			f.Fatal(err)
		}
		word := make([]byte, len(cw))
		for i, s := range cw {
			word[i] = byte(s)
		}
		f.Add(wide, word, []byte(nil))
		word[3] ^= 0x5a
		f.Add(wide, word, []byte(nil))
		word[9] ^= 0x11
		f.Add(wide, word, []byte{4, 10})
		f.Add(wide, append(word, word...), []byte{1, 1})
		f.Add(wide, word, []byte{0, byte(c.N() + 1), 2})
	}
	f.Fuzz(func(t *testing.T, wide bool, words, erasures []byte) {
		c := codes[wide]
		ws := spaces[wide]
		n := c.N()
		count := min(max((len(words)+n-1)/n, 1), maxFuzzWords)
		arena := make([]gf.Elem, count*n)
		for i := range arena {
			if i < len(words) {
				arena[i] = gf.Elem(words[i])
			}
		}
		ers := make([]int, len(erasures))
		for i, b := range erasures {
			ers[i] = int(b)%(n+2) - 1
		}
		lists := make([][]int, count)
		for w := range lists {
			lists[w] = ers
		}

		batch := map[string][]string{}
		for name, bd := range map[string]*BatchDecoder{"batch/1": ws.bd1, "batch/4": ws.bd4} {
			out := append([]gf.Elem(nil), arena...)
			res, err := bd.DecodeAll(Batch{Words: out, Stride: n, Count: count}, lists)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for w, r := range res.Words {
				word := out[w*n : (w+1)*n]
				if r.Err != nil && !equalElems(word, arena[w*n:(w+1)*n]) {
					t.Fatalf("%s word %d: failed word was modified", name, w)
				}
				batch[name] = append(batch[name], outcome(word, r.Err))
			}
		}
		for w := 0; w < count; w++ {
			received := arena[w*n : (w+1)*n]
			res, err := ws.dec.Decode(received, ers)
			var got []gf.Elem
			if err == nil {
				got = res.Codeword
				checkBounded(t, c, received, got, ers)
			}
			want := outcome(got, err)
			for _, name := range []string{"batch/1", "batch/4"} {
				if batch[name][w] != want {
					t.Fatalf("word %d: Decode %s, %s %s", w, want, name, batch[name][w])
				}
			}
			// The two key-equation solvers can detect one failure at
			// different steps, so on uncorrectable words only the
			// class must match.
			res, err2 := ws.dec.DecodeEuclidean(received, ers)
			got = nil
			if err2 == nil {
				got = res.Codeword
			}
			e := outcome(got, err2)
			if errors.Is(err, ErrUncorrectable) && errors.Is(err2, ErrUncorrectable) {
				continue
			}
			if e != want {
				t.Fatalf("word %d: Decode %s, DecodeEuclidean %s", w, want, e)
			}
		}
	})
}

// outcome renders a decode result for comparison: the corrected
// codeword, or the error's text.
func outcome(codeword []gf.Elem, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	return fmt.Sprintf("corrected %x", codeword)
}

// checkBounded fails unless codeword has zero syndromes and differs
// from received in e non-erased positions with 2e+v <= n-k, v being
// the number of erasures.
func checkBounded(t *testing.T, c *Code, received, codeword []gf.Elem, ers []int) {
	t.Helper()
	if !c.IsCodeword(codeword) {
		t.Fatalf("corrected word %x has nonzero syndromes", codeword)
	}
	erased := make([]bool, c.N())
	for _, p := range ers {
		erased[p] = true
	}
	e := 0
	for i := range received {
		if received[i] != codeword[i] && !erased[i] {
			e++
		}
	}
	if 2*e+len(ers) > c.Redundancy() {
		t.Fatalf("corrected %d errors with %d erasures, beyond n-k=%d", e, len(ers), c.Redundancy())
	}
}
