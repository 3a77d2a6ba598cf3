package rs

import (
	"fmt"

	"repro/internal/gf"
)

// This file implements the batch (arena) decode layer: a syndrome-first
// throughput path for scrub-scale workloads that decode every stored
// word each pass. The overwhelmingly common case in a scrub pass is a
// word with no errors at all, and for those the only work a decoder
// truly owes is the syndrome check — so DecodeAll screens the whole
// arena with a packed syndrome fold and hands only the words whose
// syndromes come back nonzero to the correction tail Decoder.Decode
// ends in (Decoder.correct): the closed form for n-k = 2, otherwise
// Berlekamp-Massey and Chien/Forney. The erasure lists resolve through
// a cache of validated erasure-set setups (ecache.go).
//
// The syndrome screen runs on a precomputed contribution table, the
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
// (or whose field has no multiplication table) fall back to the
// per-word pipeline for every arena word, keeping DecodeAll correct
// for every code the package supports.
const maxBatchTableBytes = 8 << 20

// batchTable lazily carries the packed syndrome-contribution rows of
// one Code (shared by every BatchDecoder of that code).
type batchTable struct {
	tab []uint64 // nil when the fast path is unavailable
	pw  int      // packed uint64 words per row, ceil(d/8)
}

// batchSyndromeTable builds (once) and returns the packed table.
func (c *Code) batchSyndromeTable() *batchTable {
	c.batchOnce.Do(func() {
		f := c.f
		d := c.n - c.k
		pw := (d + 7) / 8
		if f.MulRow(1) == nil {
			return // no multiplication table: stay on the per-word pipeline
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
// alias the BatchDecoder workspace and are valid only until the next
// call on the same BatchDecoder.
type BatchResult struct {
	// Words holds one entry per arena word, in arena order.
	Words []WordResult
	// Clean counts words decoded with zero corrections (most of them
	// never leaving the syndrome screen), Corrected words repaired in
	// place, Failed words whose Err is non-nil.
	Clean, Corrected, Failed int
}

// batchLane is the BatchDecoder's decode workspace: a Decoder, the
// packed-syndrome accumulator the screen writes and an erasure-set
// cache.
type batchLane struct {
	dec   *Decoder
	acc   []uint64 // generic-width syndrome accumulator
	cache erasureCache
}

// BatchDecoder is a reusable workspace for decoding whole word arenas.
// Like Decoder it is NOT safe for concurrent use (hold one per
// goroutine) and its BatchResult is valid only until the next call.
// The packed syndrome table it screens with lives on the Code and is
// shared by every BatchDecoder of that code.
type BatchDecoder struct {
	c    *Code
	lane batchLane
	res  BatchResult
}

// NewBatchDecoder returns a fresh arena-decoding workspace for c,
// building the code's packed syndrome table on first use.
func (c *Code) NewBatchDecoder() *BatchDecoder {
	bt := c.batchSyndromeTable()
	return &BatchDecoder{
		c: c,
		lane: batchLane{
			dec:   c.NewDecoder(),
			acc:   make([]uint64, bt.pw),
			cache: newErasureCache(c),
		},
	}
}

// DecodeAll decodes every word of the arena, correcting successful
// words in place (a failed word is left exactly as received, like a
// scrub controller that has nothing better to write back). erasures is
// nil, or holds one erasure-position list per word (entries may be nil
// or shared between words — see the list-sharing contract on Batch);
// each word's outcome — corrected symbols, acceptance, error
// classification — is identical to what Decoder.Decode would have
// produced for that word and its list.
//
// DecodeAll screens every word with the packed syndrome fold; clean
// words never leave the screen, and dirty words hand the folded
// syndromes straight to the per-word pipeline instead of recomputing
// them (the screen's byte lanes *are* the syndromes). Words with
// erasures additionally resolve their position set through a small
// cache of erasure-locator setups, so an arena sharing one
// located-column set pays the polynomial construction once. The
// returned BatchResult aliases the workspace; the steady state of
// repeated same-shape calls performs no heap allocation. The
// exceptions are failed words: erasure-list errors are built once per
// cached erasure set, and a word that Berlekamp-Massey or the Chien
// sweep rejects allocates its error value. An n-k = 2 code's closed
// form returns shared error values and allocates nothing.
func (bd *BatchDecoder) DecodeAll(b Batch, erasures [][]int) (*BatchResult, error) {
	c := bd.c
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

	res := &bd.res
	if cap(res.Words) < b.Count {
		res.Words = make([]WordResult, b.Count)
	} else {
		res.Words = res.Words[:b.Count]
	}
	res.Clean, res.Corrected, res.Failed = 0, 0, 0
	bt := c.batchSyndromeTable()
	l := &bd.lane
	l.cache.resetMemo()
	for w := 0; w < b.Count; w++ {
		word := b.Words[w*b.Stride : w*b.Stride+n : w*b.Stride+n]
		var ers []int
		if erasures != nil {
			ers = erasures[w]
		}
		r := l.decodeWord(bt, word, ers)
		res.Words[w] = r
		switch {
		case r.Err != nil:
			res.Failed++
		case r.Corrections > 0:
			res.Corrected++
		default:
			res.Clean++
		}
	}
	return res, nil
}

// decodeWord decodes one arena word, correcting it in place on
// success. The routing preserves Decoder.Decode's classification
// order exactly: invalid symbols (caught by the screen's OR check)
// are reported before erasure-list errors, which precede any
// syndrome-dependent outcome.
func (l *batchLane) decodeWord(bt *batchTable, word []gf.Elem, ers []int) WordResult {
	if bt.tab == nil {
		// No packed table (m > 8 or the table outgrew its cap): the
		// per-word pipeline owns everything.
		return l.fullDecode(word, ers)
	}
	dirty, valid := l.screen(bt, word)
	if !valid {
		// Out-of-range symbol: route the whole word to the per-word
		// pipeline, which rejects it with the exact Decoder.Decode
		// error before looking at the erasure list.
		return l.fullDecode(word, ers)
	}
	var ent *erasureEntry
	if len(ers) > 0 {
		ent = l.cache.get(ers)
		if ent.err != nil {
			return WordResult{Err: ent.err}
		}
	}
	if !dirty {
		return WordResult{}
	}
	// Syndrome handoff: the screen's byte lanes are the word's packed
	// syndromes; unpack them into the decoder register so the pipeline
	// never recomputes the O(n*d) Horner pass it just paid for.
	syn := l.dec.syn
	for j := range syn {
		syn[j] = gf.Elem(l.acc[j>>3] >> (8 * (j & 7)) & 0xff)
	}
	dres, err := l.dec.correct(word, ers, ent)
	if err != nil {
		return WordResult{Err: err}
	}
	copy(word, dres.Codeword)
	return WordResult{Corrections: dres.Corrections}
}

// fullDecode runs the unabridged per-word pipeline (validation,
// Horner syndromes and all) and applies the correction in place.
func (l *batchLane) fullDecode(word []gf.Elem, ers []int) WordResult {
	dres, err := l.dec.Decode(word, ers)
	if err != nil {
		return WordResult{Err: err}
	}
	copy(word, dres.Codeword)
	return WordResult{Corrections: dres.Corrections}
}

// screen folds the word's packed syndrome contributions into the lane
// accumulator and OR-validates its symbols in one pass. dirty reports
// nonzero syndromes (l.acc then holds the packed lanes, ready to
// unpack); valid reports every symbol in field range. An invalid word
// folds garbage through the masked table index — harmlessly, because
// the caller routes !valid words to the per-word path, which rejects
// them with the exact Decoder.Decode error.
func (l *batchLane) screen(bt *batchTable, word []gf.Elem) (dirty, valid bool) {
	size := l.dec.c.f.Size()
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
		l.acc[0] = a0
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
		l.acc[0], l.acc[1], l.acc[2], l.acc[3] = a0, a1, a2, a3
		dirty = a0|a1|a2|a3 != 0
	default:
		acc := l.acc[:bt.pw]
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
