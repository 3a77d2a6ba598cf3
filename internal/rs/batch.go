package rs

import (
	"fmt"

	"repro/internal/gf"
)

// This file holds the packed syndrome table and the screen that folds
// a word's syndromes from it — the front half of both entry points for
// every code that has the table — and the arena entry point DecodeAll.
// The overwhelmingly common word in a scrub pass has no errors at all,
// and for it the only work a decoder truly owes is the syndrome check;
// only words whose syndromes come back nonzero reach the correction
// tail (Decoder.correct).
//
// The screen runs on a precomputed contribution table, the
// CRC slicing-by-8 trick transplanted to GF(2^m): the contribution of
// symbol value s at codeword position i to syndrome j is
// s * alpha^((fcr+j)*(n-1-i)), a pure function of (i, s, j), so the
// code precomputes for every (i, s) the whole d-vector of syndrome
// contributions packed eight 8-bit symbols per uint64 (the table only
// exists for fields with multiplication tables, i.e. m <= 8, so every
// contribution fits a byte lane, and XOR never carries across lanes).
// Folding one word's syndromes is then n table-row fetches XORed into
// ceil(d/8) uint64 accumulators — 4 wide XORs per symbol for
// RS(255,223) instead of 32 serially dependent multiplication-table
// lookups — and symbol validation rides along as a bitwise OR of the
// word. The rows for one (i, *) are independent across positions, so
// the loads pipeline instead of chaining like Horner evaluation does.

// maxBatchTableBytes caps the packed syndrome-contribution table. The
// table costs n * 2^m * ceil(d/8) * 8 bytes — 2.1 MiB for RS(255,223),
// 36 KiB for RS(18,16) — and codes whose table would exceed the cap
// (or whose field has no multiplication table) validate and compute
// Horner syndromes for every word instead.
const maxBatchTableBytes = 8 << 20

// batchTable lazily carries the packed syndrome-contribution rows of
// one Code (shared by every Decoder of that code).
type batchTable struct {
	tab []uint64 // nil when the fast path is unavailable
	pw  int      // packed uint64 words per row, ceil(d/8)
}

// batchSyndromeTable builds (once, on the code's first decode) and
// returns the packed table.
func (c *Code) batchSyndromeTable() *batchTable {
	c.batchOnce.Do(func() {
		f := c.f
		d := c.n - c.k
		pw := (d + 7) / 8
		if f.MulRow(1) == nil {
			return // no multiplication table: Horner syndromes instead
		}
		if bytes := c.n * f.Size() * pw * 8; bytes > maxBatchTableBytes {
			return
		}
		tab := make([]uint64, c.n*f.Size()*pw)
		for i := 0; i < c.n; i++ {
			p := c.n - 1 - i
			base := i * f.Size() * pw
			for j := 0; j < d; j++ {
				mult := f.Exp((c.fcr + j) * p)
				row := f.MulRow(mult)
				word, shift := j>>3, uint(8*(j&7))
				for s := 0; s < f.Size(); s++ {
					tab[base+s*pw+word] |= uint64(row[s]) << shift
				}
			}
		}
		c.batchTab = batchTable{tab: tab, pw: pw}
	})
	return &c.batchTab
}

// Batch describes a contiguous word arena: Count codewords of n
// symbols each, word w occupying Words[w*Stride : w*Stride+n]. A
// Stride larger than n leaves per-word headroom (page metadata,
// alignment padding) that decoding never reads or writes; Stride == n
// is the dense layout.
//
// List-sharing contract: the erasure lists passed to DecodeAll
// alongside a Batch may be nil, distinct, or the very same slice
// shared by many words — sharing is encouraged, it is what the
// erasure-set cache is built for. The lists must not be
// mutated while the call runs, and a caller that reuses a list's
// backing array across calls may change its *contents* freely between
// calls: the cache keys on content, never on pointer identity across
// calls.
type Batch struct {
	Words  []gf.Elem
	Stride int
	Count  int
}

// WordResult reports one arena word's decode outcome. Err is nil on
// success (the word was corrected in place; Corrections symbols were
// changed, so the paper's arbiter flag is Corrections > 0) and a
// wrapped ErrUncorrectable — or a validation error, exactly as
// Decoder.Decode classifies them — on failure, in which case the word
// is left unmodified.
type WordResult struct {
	Corrections int
	Err         error
}

// BatchResult aggregates one DecodeAll call. Words and the counters
// alias the Decoder workspace and are valid only until the next call
// on the same Decoder.
type BatchResult struct {
	// Words holds one entry per arena word, in arena order.
	Words []WordResult
	// Clean counts words decoded with zero corrections (most of them
	// never leaving the syndrome screen), Corrected words repaired in
	// place, Failed words whose Err is non-nil.
	Clean, Corrected, Failed int
}

// DecodeAll decodes every word of the arena, correcting successful
// words in place (a failed word is left exactly as received, like a
// scrub controller that has nothing better to write back). erasures is
// nil, or holds one erasure-position list per word (entries may be nil
// or shared between words — see the list-sharing contract on Batch);
// each word's outcome — corrected symbols, acceptance, error
// classification — is identical to what Decode would have produced for
// that word and its list.
//
// Every word runs Decode's front half, so a clean word costs only the
// syndrome screen and never pays for a Result; dirty words go through
// the correction tail. An arena sharing one located-column set builds
// its erasure-locator setup once. The returned BatchResult aliases the
// workspace; the steady state of repeated same-shape calls performs no
// heap allocation (failed words aside, see the package doc).
func (dec *Decoder) DecodeAll(b Batch, erasures [][]int) (*BatchResult, error) {
	c := dec.c
	n := c.n
	switch {
	case b.Count < 0:
		return nil, fmt.Errorf("rs: negative batch count %d", b.Count)
	case b.Stride < n:
		return nil, fmt.Errorf("rs: batch stride %d below codeword length n=%d", b.Stride, n)
	case b.Count > 0 && len(b.Words) < (b.Count-1)*b.Stride+n:
		return nil, fmt.Errorf("rs: batch arena has %d symbols, want at least %d for %d words of stride %d",
			len(b.Words), (b.Count-1)*b.Stride+n, b.Count, b.Stride)
	case erasures != nil && len(erasures) != b.Count:
		return nil, fmt.Errorf("rs: batch has %d erasure lists, want %d (or nil)", len(erasures), b.Count)
	}

	res := &dec.bres
	if cap(res.Words) < b.Count {
		res.Words = make([]WordResult, b.Count)
	} else {
		res.Words = res.Words[:b.Count]
	}
	res.Clean, res.Corrected, res.Failed = 0, 0, 0
	bt := c.batchSyndromeTable()
	dec.cache.resetMemo()
	for w := 0; w < b.Count; w++ {
		word := b.Words[w*b.Stride : w*b.Stride+n : w*b.Stride+n]
		var ers []int
		if erasures != nil {
			ers = erasures[w]
		}
		var r WordResult
		dirty, ent, err := dec.front(bt, word, ers)
		if err == nil && dirty {
			var dres *Result
			if dres, err = dec.correct(word, ers, ent); err == nil {
				copy(word, dres.Codeword)
				r.Corrections = dres.Corrections
			}
		}
		r.Err = err
		res.Words[w] = r
		switch {
		case err != nil:
			res.Failed++
		case r.Corrections > 0:
			res.Corrected++
		default:
			res.Clean++
		}
	}
	return res, nil
}

// screen folds the word's packed syndrome contributions into dec.acc
// and OR-validates its symbols in one pass. dirty reports nonzero
// syndromes (dec.acc then holds the packed lanes, ready to unpack);
// valid reports every symbol in field range. An invalid word folds
// garbage through the masked table index — harmlessly, because front
// rejects a !valid word with checkSymbols' error before anything reads
// the lanes.
func (dec *Decoder) screen(bt *batchTable, word []gf.Elem) (dirty, valid bool) {
	size := dec.c.f.Size()
	mask := gf.Elem(size - 1)
	var or gf.Elem
	switch bt.pw {
	case 1: // d <= 8: RS(18,16), RS(20,16)
		var a0 uint64
		tab, base := bt.tab, 0
		for _, s := range word {
			or |= s
			a0 ^= tab[base+int(s&mask)]
			base += size
		}
		dec.acc[0] = a0
		dirty = a0 != 0
	case 4: // 25 <= d <= 32: RS(255,223)
		var a0, a1, a2, a3 uint64
		tab, base := bt.tab, 0
		for _, s := range word {
			or |= s
			off := base + int(s&mask)*4
			row := tab[off : off+4 : off+4]
			a0 ^= row[0]
			a1 ^= row[1]
			a2 ^= row[2]
			a3 ^= row[3]
			base += size * 4
		}
		dec.acc[0], dec.acc[1], dec.acc[2], dec.acc[3] = a0, a1, a2, a3
		dirty = a0|a1|a2|a3 != 0
	default:
		acc := dec.acc[:bt.pw]
		for q := range acc {
			acc[q] = 0
		}
		tab, pw, base := bt.tab, bt.pw, 0
		for _, s := range word {
			or |= s
			row := tab[base+int(s&mask)*pw:]
			for q := range acc {
				acc[q] ^= row[q]
			}
			base += size * pw
		}
		for _, a := range acc {
			if a != 0 {
				dirty = true
				break
			}
		}
	}
	return dirty, int(or) < size
}
