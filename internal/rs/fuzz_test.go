package rs

import (
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
// positions included. Decode and DecodeAll (one arena, one shared
// erasure list, on a second Decoder) must agree on every word: the
// same corrected codeword or the same error text. Both run the same
// front half and correction tail, so the independent check is the
// oracle (oracle_test.go): it must give the same codeword, and fail
// where Decode fails with the same class, uncorrectable or invalid
// input. On RS(18,16) that checks
// the closed-form n-k = 2 solve, whose seven branches the committed
// corpus reaches; on RS(36,16), Berlekamp-Massey and the Chien/Forney
// sweep. A word reported as corrected must be a codeword within
// 2e+v <= n-k of the received word.
func FuzzDecode(f *testing.F) {
	codes := map[bool]*Code{false: MustNew(f8, 18, 16), true: MustNew(f8, 36, 16)}
	type workspace struct{ dec, bd *Decoder }
	spaces := make(map[bool]workspace)
	for wide, c := range codes {
		spaces[wide] = workspace{c.NewDecoder(), c.NewDecoder()}
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

		var batch []string
		out := append([]gf.Elem(nil), arena...)
		bres, err := ws.bd.DecodeAll(Batch{Words: out, Stride: n, Count: count}, lists)
		if err != nil {
			t.Fatalf("batch: %v", err)
		}
		for w, r := range bres.Words {
			word := out[w*n : (w+1)*n]
			if r.Err != nil && !equalElems(word, arena[w*n:(w+1)*n]) {
				t.Fatalf("batch word %d: failed word was modified", w)
			}
			batch = append(batch, outcome(word, r.Err))
		}
		for w := 0; w < count; w++ {
			received := arena[w*n : (w+1)*n]
			res, err := ws.dec.Decode(received, ers)
			var got []gf.Elem
			if err == nil {
				got = res.Codeword
				checkBounded(t, c, received, got, ers)
			}
			if want := outcome(got, err); batch[w] != want {
				t.Fatalf("word %d: Decode %s, batch %s", w, want, batch[w])
			}
			if m := oracleMismatch(c, received, ers, got, err); m != "" {
				t.Fatalf("word %d: %s", w, m)
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
	if !isCodeword(c, codeword) {
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
	if !canCorrect(c, len(ers), e) {
		t.Fatalf("corrected %d errors with %d erasures, beyond n-k=%d", e, len(ers), c.Redundancy())
	}
}
