// Package rs implements systematic Reed-Solomon codes over GF(2^m)
// with full errors-and-erasures decoding.
//
// An RS(n,k) code over GF(2^m) (n <= 2^m - 1, shortened codes allowed)
// encodes k data symbols into n codeword symbols and corrects any
// pattern of er erasures and re random errors with
//
//	2*re + er <= n - k.
//
// In the memory systems of the DATE'05 paper reproduced here,
// permanent faults located by self-checking hardware are erasures and
// SEU bit flips are random errors, so both decoding modes matter. The
// decoder reports whether it applied a correction (the "flag" consumed
// by the duplex arbiter of internal/arbiter) and distinguishes
// detected decoding failures from successes; mis-corrections (decoding
// to a wrong but valid codeword when the error pattern exceeds the
// code's capability) are possible by the nature of bounded-distance
// decoding and are exercised explicitly in the tests and the Monte
// Carlo simulator.
//
// The implementation is textbook Blahut — syndromes, erasure-locator
// initialized Berlekamp-Massey, Chien search and the Forney algorithm
// — organized as streaming kernels: encoding is a parity LFSR over the
// generator taps writing directly into the destination, and decoding
// runs through a reusable Decoder workspace so the steady state of a
// simulation campaign performs no heap allocation.
//
// # Zero-allocation contract
//
// EncodeTo and SyndromesInto never allocate. A Decoder obtained from
// Code.NewDecoder owns every scratch buffer decoding needs (syndromes,
// locator/evaluator registers, erasure bitset, corrected word) and its
// Decode method is allocation-free on every successful path — clean
// words, random errors, erasures — returning a Result whose slices
// alias the workspace and stay valid only until the next call on that
// Decoder. Prefer Decoder.Decode in hot loops (one Decoder per
// goroutine; a Decoder is not safe for concurrent use). The
// Code.Decode / Code.DecodeEuclidean wrappers keep the original
// callers working: they borrow a pooled Decoder for the heavy scratch
// and return an independent Result the caller may retain, at the cost
// of the Result's own slices being freshly allocated.
//
// # Batch decode: arenas, strides and the clean-word fast path
//
// Scrub-scale workloads decode every resident word each pass, and
// almost all of those words are still valid codewords. The batch
// layer (Batch, BatchDecoder, DecodeAll) is built around that skew: a
// Batch describes a contiguous arena of Count words laid out at a
// fixed Stride (word w occupies Words[w*Stride : w*Stride+n]; Stride
// >= n, with any per-word headroom between n and Stride left
// untouched), and DecodeAll screens each erasure-free word with a
// packed syndrome fold over a precomputed contribution table — CRC
// slicing-by-8 transplanted to GF(2^m), four 16-bit syndrome symbols
// per uint64 row — accepting clean words without ever entering the
// Berlekamp-Massey/Chien pipeline. The screen folds syndromes for
// every word, erasures included, and a dirty word's folded syndromes
// are handed straight to the per-word pipeline (the byte lanes unpack
// into the Decoder's syndrome registers), so no word ever recomputes
// the O(n·d) Horner syndromes the screen already paid for. Dirty
// words are corrected in place in the arena, and every word's outcome
// (corrected symbols, acceptance, error classification) is identical
// to a per-word Decoder.Decode loop — just much faster when the arena
// is mostly clean.
//
// Erasure-carrying words lean on a per-BatchDecoder erasure-set
// cache: the erasure locator Γ(x) and its Chien/Forney setup depend
// only on the position set, which scrub workloads repeat heavily (one
// located-column list for a whole page arena), so the cache keys on
// the list's content and an erasure-only word — syndromes explained
// by Γ alone — completes by evaluating the cached roots, with no
// Berlekamp-Massey iteration and no Chien sweep. The lists passed to
// DecodeAll must not be mutated during the call and may be shared
// between words (see Batch); sharing one list arena-wide is the fast
// path.
//
// DecodeAll is serial by default; BatchDecoder.SetWorkers shards the
// arena into contiguous word ranges decoded by a persistent worker
// pool, with results bit-identical for every worker count. For stores
// larger than memory, BatchDecoder.DecodeStream scrubs an unbounded
// word sequence chunk by chunk through caller fill/emit callbacks,
// reusing one sub-arena (see its chunk contract).
//
// A BatchDecoder from Code.NewBatchDecoder owns its scratch like a
// Decoder does (one per goroutine, results valid until the next call)
// and its steady state allocates nothing; the contribution table
// itself lives on the Code, built once and shared. Codes whose table
// would be too large (or whose field has no multiplication table)
// transparently fall back to the per-word pipeline for every word.
package rs

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/gf"
	"repro/internal/gfpoly"
)

// Code is a Reed-Solomon code RS(n,k) over a fixed GF(2^m).
// It is immutable after construction and safe for concurrent use.
type Code struct {
	f    *gf.Field
	ring *gfpoly.Ring
	n    int // codeword length in symbols
	k    int // dataword length in symbols
	fcr  int // power of alpha of the first consecutive generator root
	gen  gfpoly.Poly

	// genRev[j] = gen[d-1-j]: the LFSR feedback taps in shift-register
	// order (tap 0 multiplies into the highest-degree parity slot).
	genRev []gf.Elem
	// synX[j] = alpha^(fcr+j): the syndrome evaluation points.
	synX []gf.Elem
	// chienInit[j] = alpha^(-(n-1)*j) and chienStep[j] = alpha^j seed
	// and advance the term registers of the incremental Chien search.
	chienInit []gf.Elem
	chienStep []gf.Elem
	// chienRow[j] is the multiplication-table row of chienStep[j]
	// (nil for fields without row tables): one load per register
	// advance instead of a general multiply.
	chienRow [][]gf.Elem

	// decPool recycles Decoder workspaces for the allocating
	// Decode/DecodeEuclidean wrappers.
	decPool sync.Pool

	// batchOnce/batchTab lazily build and hold the packed
	// syndrome-contribution table behind the batch decode fast path
	// (see batch.go); the table is shared by every BatchDecoder of
	// this code.
	batchOnce sync.Once
	batchTab  batchTable
}

// ErrUncorrectable is returned (wrapped) by Decode when the received
// word is recognized as beyond the code's correction capability.
// Bounded-distance decoding cannot detect every such pattern; the
// undetected remainder surfaces as mis-correction.
var ErrUncorrectable = errors.New("rs: uncorrectable word")

// uncorrectableError is a detected decoding failure: it wraps
// ErrUncorrectable and keeps its detail as a format and up to three
// ints, formatted only when Error is called. Scrub loops meet a failed
// word in many trials and read only whether the error is nil, so the
// failure path must not pay for fmt.
type uncorrectableError struct {
	format string
	args   [3]int
	nargs  int
}

// uncorrectable returns the failure whose Error text is
// "rs: uncorrectable word: " followed by format applied to args.
func uncorrectable(format string, args ...int) error {
	e := &uncorrectableError{format: format, nargs: len(args)}
	copy(e.args[:], args)
	return e
}

func (e *uncorrectableError) Error() string {
	args := make([]any, e.nargs)
	for i := range args {
		args[i] = e.args[i]
	}
	return ErrUncorrectable.Error() + ": " + fmt.Sprintf(e.format, args...)
}

func (e *uncorrectableError) Unwrap() error { return ErrUncorrectable }

// New returns the code RS(n,k) over the field f with the conventional
// first consecutive root alpha^1.
func New(f *gf.Field, n, k int) (*Code, error) { return NewWithFCR(f, n, k, 1) }

// MustNew is New for static configuration; it panics on error.
func MustNew(f *gf.Field, n, k int) *Code {
	c, err := New(f, n, k)
	if err != nil {
		panic(err)
	}
	return c
}

// NewWithFCR returns RS(n,k) over f with generator roots
// alpha^fcr .. alpha^(fcr+n-k-1).
func NewWithFCR(f *gf.Field, n, k, fcr int) (*Code, error) {
	switch {
	case f == nil:
		return nil, errors.New("rs: nil field")
	case n <= 0 || k <= 0:
		return nil, fmt.Errorf("rs: nonpositive parameters n=%d k=%d", n, k)
	case k >= n:
		return nil, fmt.Errorf("rs: k=%d must be less than n=%d", k, n)
	case n > f.N():
		return nil, fmt.Errorf("rs: n=%d exceeds field limit 2^m-1=%d", n, f.N())
	case fcr < 0:
		return nil, fmt.Errorf("rs: negative fcr=%d", fcr)
	}
	c := &Code{f: f, ring: gfpoly.NewRing(f), n: n, k: k, fcr: fcr}
	g := gfpoly.One()
	for j := 0; j < n-k; j++ {
		g = c.ring.Mul(g, gfpoly.Poly{f.Exp(fcr + j), 1})
	}
	c.gen = g

	d := n - k
	c.genRev = make([]gf.Elem, d)
	c.synX = make([]gf.Elem, d)
	for j := 0; j < d; j++ {
		c.genRev[j] = g.Coeff(d - 1 - j)
		c.synX[j] = f.Exp(fcr + j)
	}
	c.chienInit = make([]gf.Elem, d+1)
	c.chienStep = make([]gf.Elem, d+1)
	c.chienRow = make([][]gf.Elem, d+1)
	for j := 0; j <= d; j++ {
		c.chienInit[j] = f.Exp(-(n - 1) * j)
		c.chienStep[j] = f.Exp(j)
		c.chienRow[j] = f.MulRow(c.chienStep[j])
	}
	c.decPool.New = func() any { return c.NewDecoder() }
	return c, nil
}

// Field returns the underlying finite field.
func (c *Code) Field() *gf.Field { return c.f }

// N returns the codeword length in symbols.
func (c *Code) N() int { return c.n }

// K returns the dataword length in symbols.
func (c *Code) K() int { return c.k }

// Redundancy returns n-k, the number of check symbols.
func (c *Code) Redundancy() int { return c.n - c.k }

// T returns the random-error correction capability floor((n-k)/2).
func (c *Code) T() int { return (c.n - c.k) / 2 }

// FCR returns the power of alpha of the first consecutive root.
func (c *Code) FCR() int { return c.fcr }

// Generator returns a copy of the generator polynomial.
func (c *Code) Generator() gfpoly.Poly { return c.gen.Clone() }

// CanCorrect reports whether a pattern of the given erasure and random
// error counts is within the guaranteed correction capability:
// 2*errors + erasures <= n-k.
func (c *Code) CanCorrect(erasures, randomErrors int) bool {
	return erasures >= 0 && randomErrors >= 0 && 2*randomErrors+erasures <= c.n-c.k
}

// String identifies the code, e.g. "RS(18,16) over GF(2^8, poly=0x11d)".
func (c *Code) String() string {
	return fmt.Sprintf("RS(%d,%d) over %v", c.n, c.k, c.f)
}

// checkSymbols verifies every symbol of w is a valid field element.
// It is the single validation point of the public boundary: internal
// kernels index multiplication tables by symbol value and rely on it.
func (c *Code) checkSymbols(w []gf.Elem) error {
	for i, s := range w {
		if !c.f.Valid(s) {
			return fmt.Errorf("rs: symbol %d (=%d) out of range for %v", i, s, c.f)
		}
	}
	return nil
}

// Encode systematically encodes k data symbols into a fresh n-symbol
// codeword laid out as data followed by check symbols.
func (c *Code) Encode(data []gf.Elem) ([]gf.Elem, error) {
	cw := make([]gf.Elem, c.n)
	if err := c.EncodeTo(cw, data); err != nil {
		return nil, err
	}
	return cw, nil
}

// EncodeTo encodes data into dst, which must have length n. dst and
// data may overlap only if dst[:k] aliases data exactly. EncodeTo
// performs no allocation: the check symbols are produced by a parity
// LFSR clocked once per data symbol, using dst[k:] itself as the
// shift register.
func (c *Code) EncodeTo(dst, data []gf.Elem) error {
	if len(data) != c.k {
		return fmt.Errorf("rs: dataword has %d symbols, want k=%d", len(data), c.k)
	}
	if len(dst) != c.n {
		return fmt.Errorf("rs: destination has %d symbols, want n=%d", len(dst), c.n)
	}
	if err := c.checkSymbols(data); err != nil {
		return err
	}
	// Codeword symbol i is the coefficient of x^(n-1-i): the message
	// occupies the high-degree end, the remainder of M(x)*x^(n-k)
	// modulo g(x) fills the check positions. The remainder is computed
	// by the classic LFSR recurrence: with the monic generator
	// g(x) = x^d + gLow(x), feeding symbol s updates the register to
	// r <- r*x ^ fb*gLow where fb = s ^ r[top].
	copy(dst, data)
	d := c.n - c.k
	par := dst[c.k:] // par[j] holds the coefficient of x^(d-1-j)
	for i := range par {
		par[i] = 0
	}
	f := c.f
	for _, s := range data {
		fb := s ^ par[0]
		if fb == 0 {
			copy(par, par[1:])
			par[d-1] = 0
			continue
		}
		if row := f.MulRow(fb); row != nil {
			for j := 0; j < d-1; j++ {
				par[j] = par[j+1] ^ row[c.genRev[j]]
			}
			par[d-1] = row[c.genRev[d-1]]
		} else {
			for j := 0; j < d-1; j++ {
				par[j] = par[j+1] ^ f.Mul(fb, c.genRev[j])
			}
			par[d-1] = f.Mul(fb, c.genRev[d-1])
		}
	}
	return nil
}

// syndromes computes the n-k syndromes of word into dst without
// validating symbols; callers must have validated word at the public
// boundary (or produced it themselves).
func (c *Code) syndromes(dst []gf.Elem, word []gf.Elem) {
	f := c.f
	// Four syndromes per pass: each Horner recurrence is a serial chain
	// of dependent table lookups, so interleaving independent chains
	// lets the pipeline overlap the load latencies.
	j := 0
	for ; j+3 < len(c.synX); j += 4 {
		x0, x1, x2, x3 := c.synX[j], c.synX[j+1], c.synX[j+2], c.synX[j+3]
		var a0, a1, a2, a3 gf.Elem
		if row0 := f.MulRow(x0); row0 != nil {
			row1, row2, row3 := f.MulRow(x1), f.MulRow(x2), f.MulRow(x3)
			for _, s := range word {
				a0 = row0[a0] ^ s
				a1 = row1[a1] ^ s
				a2 = row2[a2] ^ s
				a3 = row3[a3] ^ s
			}
		} else {
			for _, s := range word {
				a0 = f.Mul(a0, x0) ^ s
				a1 = f.Mul(a1, x1) ^ s
				a2 = f.Mul(a2, x2) ^ s
				a3 = f.Mul(a3, x3) ^ s
			}
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = a0, a1, a2, a3
	}
	for ; j < len(c.synX); j++ {
		x := c.synX[j]
		var acc gf.Elem
		if row := f.MulRow(x); row != nil {
			for _, s := range word {
				acc = row[acc] ^ s
			}
		} else {
			for _, s := range word {
				acc = f.Mul(acc, x) ^ s
			}
		}
		dst[j] = acc
	}
}

func allZero(p []gf.Elem) bool {
	for _, v := range p {
		if v != 0 {
			return false
		}
	}
	return true
}

// Syndromes returns the n-k syndrome values of the word:
// S_j = W(alpha^(fcr+j)), j = 0..n-k-1, where W is the word polynomial
// with symbol i as the coefficient of x^(n-1-i). The word is a
// codeword iff all syndromes vanish.
func (c *Code) Syndromes(word []gf.Elem) (gfpoly.Poly, error) {
	syn := make(gfpoly.Poly, c.n-c.k)
	if err := c.SyndromesInto(syn, word); err != nil {
		return nil, err
	}
	return syn, nil
}

// SyndromesInto computes the n-k syndromes of word into dst, which
// must have length n-k. It performs no allocation.
func (c *Code) SyndromesInto(dst []gf.Elem, word []gf.Elem) error {
	if len(dst) != c.n-c.k {
		return fmt.Errorf("rs: syndrome destination has %d symbols, want n-k=%d", len(dst), c.n-c.k)
	}
	if len(word) != c.n {
		return fmt.Errorf("rs: word has %d symbols, want n=%d", len(word), c.n)
	}
	if err := c.checkSymbols(word); err != nil {
		return err
	}
	c.syndromes(dst, word)
	return nil
}

// IsCodeword reports whether word is a valid codeword of c.
func (c *Code) IsCodeword(word []gf.Elem) bool {
	syn, err := c.Syndromes(word)
	if err != nil {
		return false
	}
	return syn.IsZero()
}

// Result reports the outcome of a successful Decode.
type Result struct {
	// Codeword is the corrected n-symbol codeword.
	Codeword []gf.Elem
	// Data is the corrected k-symbol dataword (aliases Codeword[:k]).
	Data []gf.Elem
	// Corrections is the number of symbols whose value was changed.
	// Erased positions whose stored value happened to be right do not
	// count.
	Corrections int
	// Flag is the paper's arbiter flag: set when any correction was
	// performed and completed.
	Flag bool
	// ErrorPositions lists the symbol indices that were changed,
	// in increasing order.
	ErrorPositions []int
}

// Decoder is a reusable decoding workspace for one Code. It owns every
// scratch buffer the decoding pipeline needs, so steady-state decoding
// through it performs no heap allocation.
//
// A Decoder is NOT safe for concurrent use; create one per goroutine
// with Code.NewDecoder. The Result returned by its methods (and every
// slice inside it) aliases the workspace and is valid only until the
// next call on the same Decoder — callers that need to retain it must
// copy, or use the allocating Code.Decode wrapper.
type Decoder struct {
	c *Code

	syn    []gf.Elem // n-k syndrome register
	gamma  []gf.Elem // erasure locator, zero-padded to d+1
	psi    []gf.Elem // errata locator Psi = Lambda*Gamma, zero-padded
	bprev  []gf.Elem // BM last length-change locator
	tmp    []gf.Elem // BM update scratch
	omega  []gf.Elem // errata evaluator Omega = S*Psi mod x^d
	cpsi   []gf.Elem // Chien term registers for Psi
	psiDeg int       // degree of psi after the key-equation solve

	erased []bool    // erasure bitset over codeword positions
	word   []gf.Elem // corrected word
	errPos []int     // ErrorPositions backing store
	res    Result

	// bmPure records whether the last berlekampMassey run saw every
	// discrepancy vanish — i.e. the syndromes are fully explained by
	// the erasure locator and Psi == Gamma. The batch layer's
	// erasure-only fast path keys on it.
	bmPure bool
}

// NewDecoder returns a fresh decoding workspace for c.
func (c *Code) NewDecoder() *Decoder {
	d := c.n - c.k
	return &Decoder{
		c:      c,
		syn:    make([]gf.Elem, d),
		gamma:  make([]gf.Elem, d+1),
		psi:    make([]gf.Elem, d+1),
		bprev:  make([]gf.Elem, d+1),
		tmp:    make([]gf.Elem, d+1),
		omega:  make([]gf.Elem, d),
		cpsi:   make([]gf.Elem, d+1),
		erased: make([]bool, c.n),
		word:   make([]gf.Elem, c.n),
		errPos: make([]int, 0, c.n),
	}
}

// Code returns the code this workspace decodes.
func (dec *Decoder) Code() *Code { return dec.c }

// Decode corrects the received word into the workspace, treating the
// listed positions (codeword indices, 0-based) as erasures, solving
// the key equation with erasure-initialized Berlekamp-Massey. See
// Code.Decode for the decoding semantics and the Decoder type for the
// aliasing contract of the returned Result.
func (dec *Decoder) Decode(received []gf.Elem, erasures []int) (*Result, error) {
	return dec.decode(received, erasures, false)
}

// DecodeEuclidean is Decoder.Decode with the key equation solved by
// the Sugiyama extended-Euclidean algorithm. Unlike the BM path it
// allocates during the solve (it is the audit implementation, not the
// hot one); the rest of the pipeline still runs in the workspace.
func (dec *Decoder) DecodeEuclidean(received []gf.Elem, erasures []int) (*Result, error) {
	return dec.decode(received, erasures, true)
}

// Decode corrects the received word in place of a copy, treating the
// listed positions (codeword indices, 0-based) as erasures. It returns
// a Result on success and a wrapped ErrUncorrectable on a *detected*
// decoding failure. An undetected failure — mis-correction to a valid
// but wrong codeword — returns success by construction of
// bounded-distance decoding; callers that know the ground truth (the
// simulator, the tests) can compare Codeword against it.
//
// Decode solves the key equation with erasure-initialized
// Berlekamp-Massey; DecodeEuclidean is the independent Sugiyama
// implementation with identical input/output behavior. Both borrow a
// pooled Decoder for scratch and return an independent Result; hot
// loops should hold their own Decoder and call its methods instead.
func (c *Code) Decode(received []gf.Elem, erasures []int) (*Result, error) {
	return c.decodePooled(received, erasures, false)
}

// DecodeEuclidean is Decode with the key equation solved by the
// Sugiyama extended-Euclidean algorithm instead of Berlekamp-Massey.
// Both are bounded-distance decoders of the same code, so they accept
// and reject exactly the same received words and produce identical
// codewords — a property the tests enforce; production use can pick
// either (BM allocates less, Euclid is easier to audit).
func (c *Code) DecodeEuclidean(received []gf.Elem, erasures []int) (*Result, error) {
	return c.decodePooled(received, erasures, true)
}

// decodePooled runs a workspace decode on a pooled Decoder and copies
// the Result out so the caller may retain it.
func (c *Code) decodePooled(received []gf.Elem, erasures []int, euclid bool) (*Result, error) {
	dec := c.decPool.Get().(*Decoder)
	res, err := dec.decode(received, erasures, euclid)
	if err != nil {
		c.decPool.Put(dec)
		return nil, err
	}
	out := &Result{
		Codeword:    append([]gf.Elem(nil), res.Codeword...),
		Corrections: res.Corrections,
		Flag:        res.Flag,
	}
	out.Data = out.Codeword[:c.k]
	if len(res.ErrorPositions) > 0 {
		out.ErrorPositions = append([]int(nil), res.ErrorPositions...)
	}
	c.decPool.Put(dec)
	return out, nil
}

// decode runs the decoding pipeline in the workspace: validate once at
// the public boundary, syndromes, erasure locator, key-equation solve,
// evaluator, fused incremental Chien/Forney sweep, and the final
// syndrome re-check on the (self-produced, hence unvalidated)
// corrected word.
func (dec *Decoder) decode(received []gf.Elem, erasures []int, euclid bool) (*Result, error) {
	c := dec.c
	d := c.n - c.k
	if len(received) != c.n {
		return nil, fmt.Errorf("rs: word has %d symbols, want n=%d", len(received), c.n)
	}
	if err := c.checkSymbols(received); err != nil {
		return nil, err
	}
	for i := range dec.erased {
		dec.erased[i] = false
	}
	for _, p := range erasures {
		if p < 0 || p >= c.n {
			return nil, fmt.Errorf("rs: erasure position %d out of range [0,%d)", p, c.n)
		}
		if dec.erased[p] {
			return nil, fmt.Errorf("rs: duplicate erasure position %d", p)
		}
		dec.erased[p] = true
	}
	rho := len(erasures)
	if rho > d {
		return nil, uncorrectable("%d erasures exceed n-k=%d", rho, d)
	}

	c.syndromes(dec.syn, received)
	copy(dec.word, received)
	if allZero(dec.syn) {
		// Already a codeword. Erased positions hold consistent values.
		return dec.buildResult(received), nil
	}

	// Erasure locator Gamma(x) = prod (1 - x*alpha^(n-1-i)), built by
	// in-place multiplication with one linear factor per erasure.
	gamma := dec.gamma
	for i := range gamma {
		gamma[i] = 0
	}
	gamma[0] = 1
	for deg, p := range erasures {
		a := c.f.Exp(c.n - 1 - p)
		for j := deg + 1; j >= 1; j-- {
			gamma[j] ^= c.f.Mul(gamma[j-1], a)
		}
	}

	var err error
	if euclid {
		err = dec.euclidSolve(rho)
	} else {
		err = dec.berlekampMassey(rho)
	}
	if err != nil {
		return nil, err
	}

	// Errata evaluator Omega(x) = S(x)*Psi(x) mod x^(n-k).
	omega := dec.omega
	for i := range omega {
		omega[i] = 0
	}
	for j := 0; j <= dec.psiDeg && j < d; j++ {
		c.f.AddMulSlice(omega[j:], dec.syn[:d-j], dec.psi[j])
	}

	nroots, err := dec.chienForney()
	if err != nil {
		return nil, err
	}
	if nroots != dec.psiDeg {
		// Some locator roots fall outside the (possibly shortened)
		// codeword: the error pattern exceeded the capability.
		return nil, uncorrectable("errata locator has %d roots in word, degree %d", nroots, dec.psiDeg)
	}
	// Re-check: a successful bounded-distance decode must land on a
	// codeword; anything else is a detected failure. The sweep folded
	// every correction into the syndrome register, so the register now
	// holds the corrected word's syndromes without re-scanning it.
	if !allZero(dec.syn) {
		return nil, uncorrectable("residual syndromes after correction")
	}
	return dec.buildResult(received), nil
}

// buildResult assembles the workspace Result by diffing the corrected
// word against the received one.
func (dec *Decoder) buildResult(received []gf.Elem) *Result {
	res := &dec.res
	res.Codeword = dec.word
	res.Data = dec.word[:dec.c.k]
	res.Corrections = 0
	res.ErrorPositions = dec.errPos[:0]
	for i, w := range dec.word {
		if w != received[i] {
			res.Corrections++
			res.ErrorPositions = append(res.ErrorPositions, i)
		}
	}
	res.Flag = res.Corrections > 0
	return res
}

// decodeWithSyndromes runs the decoding pipeline on a word whose n-k
// syndromes already sit in dec.syn — the batch screen's handoff, which
// folded them as packed byte lanes — skipping symbol validation (the
// screen's OR check proved validity), erasure-list validation (the
// caller resolved it through the erasure-set cache and ent.err was
// nil) and the O(n*d) Horner syndrome pass. ent carries the word's
// cached erasure-set setup, or is nil for an erasure-free word. The
// outcome is identical to decode(received, ent.positions, false).
//
// When the erasure-set entry supports it and Berlekamp-Massey saw
// every discrepancy vanish (Psi == Gamma: the syndromes are fully
// explained by the erasures), the correction applies directly at the
// entry's precomputed locator roots and the O(n*deg) Chien sweep is
// skipped entirely.
func (dec *Decoder) decodeWithSyndromes(received []gf.Elem, ent *erasureEntry) (*Result, error) {
	c := dec.c
	d := c.n - c.k
	copy(dec.word, received)
	if allZero(dec.syn) {
		return dec.buildResult(received), nil
	}

	rho := 0
	gamma := dec.gamma
	if ent != nil {
		rho = len(ent.positions)
		copy(gamma, ent.gamma)
	} else {
		for i := range gamma {
			gamma[i] = 0
		}
		gamma[0] = 1
	}

	if err := dec.berlekampMassey(rho); err != nil {
		return nil, err
	}

	omega := dec.omega
	for i := range omega {
		omega[i] = 0
	}
	for j := 0; j <= dec.psiDeg && j < d; j++ {
		c.f.AddMulSlice(omega[j:], dec.syn[:d-j], dec.psi[j])
	}

	if ent != nil && rho > 0 && ent.fastOK && dec.bmPure {
		dec.forneyAtRoots(ent)
	} else {
		nroots, err := dec.chienForney()
		if err != nil {
			return nil, err
		}
		if nroots != dec.psiDeg {
			return nil, uncorrectable("errata locator has %d roots in word, degree %d", nroots, dec.psiDeg)
		}
	}
	if !allZero(dec.syn) {
		return nil, uncorrectable("residual syndromes after correction")
	}
	return dec.buildResult(received), nil
}

// forneyAtRoots applies the Forney correction at the precomputed roots
// of the erasure locator — the erasure-only fast path taken when
// Psi == Gamma, so the errata positions are exactly the erasure set
// and the Chien search would rediscover what the cache already knows.
// The arithmetic is the root-hit body of chienForney verbatim (same
// magnitudes, same syndrome folding), minus the O(n*deg) sweep; the
// caller's residual-syndrome check still stands guard behind it.
func (dec *Decoder) forneyAtRoots(ent *erasureEntry) {
	f := dec.c.f
	omega := dec.omega
	omegaDeg := len(omega) - 1
	for omegaDeg >= 0 && omega[omegaDeg] == 0 {
		omegaDeg--
	}
	fcr1 := dec.c.fcr == 1
	syn := dec.syn
	if f.MulRow(1) != nil {
		// Row-view form: the Horner numerator and the syndrome fold are
		// serial chains of one-constant multiplies, so each runs on a
		// single L1-resident table row instead of log/exp round trips —
		// and two roots' chains are independent, so they interleave to
		// overlap the load latencies (the syndrome folds of a pair XOR
		// into the same register, which is the same GF sum).
		roots := ent.roots
		i := 0
		for ; i+1 < len(roots); i += 2 {
			r0, r1 := &roots[i], &roots[i+1]
			row0, row1 := f.MulRow(r0.xInv), f.MulRow(r1.xInv)
			var n0, n1 gf.Elem
			for j := omegaDeg; j >= 0; j-- {
				w := omega[j]
				n0 = row0[n0] ^ w
				n1 = row1[n1] ^ w
			}
			mag0 := f.Mul(n0, r0.invDenom)
			mag1 := f.Mul(n1, r1.invDenom)
			if !fcr1 {
				mag0 = f.Mul(mag0, r0.fcrAdj)
				mag1 = f.Mul(mag1, r1.fcrAdj)
			}
			dec.word[r0.pos] ^= mag0
			dec.word[r1.pos] ^= mag1
			rx0, rx1 := f.MulRow(r0.x), f.MulRow(r1.x)
			t0 := f.Mul(mag0, r0.synBase)
			t1 := f.Mul(mag1, r1.synBase)
			for j := range syn {
				syn[j] ^= t0 ^ t1
				t0 = rx0[t0]
				t1 = rx1[t1]
			}
		}
		for ; i < len(roots); i++ {
			r := &roots[i]
			rowXInv := f.MulRow(r.xInv)
			var num gf.Elem
			for j := omegaDeg; j >= 0; j-- {
				num = rowXInv[num] ^ omega[j]
			}
			mag := f.Mul(num, r.invDenom)
			if !fcr1 {
				mag = f.Mul(mag, r.fcrAdj)
			}
			dec.word[r.pos] ^= mag
			rowX := f.MulRow(r.x)
			t := f.Mul(mag, r.synBase)
			for j := range syn {
				syn[j] ^= t
				t = rowX[t]
			}
		}
		return
	}
	for _, r := range ent.roots {
		var num gf.Elem
		for j := omegaDeg; j >= 0; j-- {
			num = f.Mul(num, r.xInv) ^ omega[j]
		}
		mag := f.Mul(num, r.invDenom)
		if !fcr1 {
			mag = f.Mul(mag, r.fcrAdj)
		}
		dec.word[r.pos] ^= mag
		t := f.Mul(mag, r.synBase)
		for j := range syn {
			syn[j] ^= t
			t = f.Mul(t, r.x)
		}
	}
}

// chienForney sweeps the codeword positions with the incremental form
// of the Chien search: term register j holds Psi_j * x^j at the
// current evaluation point x = alpha^-(n-1-i) and advances by one
// constant multiply (alpha^j) per position — no polynomial evaluation
// from scratch anywhere in the sweep. The Forney magnitude is fused
// into the same sweep: at a root hit the derivative comes for free
// from the odd-index partial sum (in characteristic 2,
// x*Psi'(x) = sum over odd j of Psi_j x^j), the evaluator numerator is
// a short Horner over Omega's true degree, and dec.word is corrected
// immediately. Returns the number of locator roots found.
func (dec *Decoder) chienForney() (int, error) {
	c, f := dec.c, dec.c.f
	deg := dec.psiDeg
	omega := dec.omega
	omegaDeg := len(omega) - 1
	for omegaDeg >= 0 && omega[omegaDeg] == 0 {
		omegaDeg--
	}
	tp := dec.cpsi
	for j := 0; j <= deg; j++ {
		tp[j] = f.Mul(dec.psi[j], c.chienInit[j])
	}
	nroots := 0
	for i := 0; i < c.n && nroots < deg; i++ {
		// Psi(xInv) splits into even/odd partial sums; their XOR is the
		// full evaluation and the odd half carries the derivative.
		var even, odd gf.Elem
		for j := 0; j <= deg; j += 2 {
			even ^= tp[j]
		}
		for j := 1; j <= deg; j += 2 {
			odd ^= tp[j]
		}
		if even == odd {
			// Position i (coefficient power p = n-1-i) is an errata
			// location: Psi(alpha^-p) = 0.
			nroots++
			if odd == 0 {
				return 0, uncorrectable("repeated errata locator root")
			}
			p := c.n - 1 - i
			xInv := f.Exp(-p)
			var num gf.Elem
			for j := omegaDeg; j >= 0; j-- {
				num = f.Mul(num, xInv) ^ omega[j]
			}
			x := f.Exp(p)
			// odd = xInv * Psi'(xInv), so the derivative is odd * x.
			mag := f.Div(num, f.Mul(odd, x))
			if c.fcr != 1 {
				// General Forney: Y = X^(1-fcr) * Omega(1/X) / Psi'(1/X).
				mag = f.Mul(mag, f.Pow(x, 1-c.fcr))
			}
			dec.word[i] ^= mag
			// Fold the correction into the syndrome register by
			// linearity: S_j of a single errata of magnitude mag at
			// coefficient power p is mag * alpha^((fcr+j)*p). After the
			// sweep the register holds the syndromes of the corrected
			// word, making the final codeword check O(d * roots)
			// instead of a full O(n*d) re-scan.
			t := f.Mul(mag, f.Exp(c.fcr*p))
			for j := range dec.syn {
				dec.syn[j] ^= t
				t = f.Mul(t, x)
			}
		}
		if rows := c.chienRow; rows[0] != nil {
			for j := 1; j <= deg; j++ {
				tp[j] = rows[j][tp[j]]
			}
		} else {
			for j := 1; j <= deg; j++ {
				tp[j] = f.Mul(tp[j], c.chienStep[j])
			}
		}
	}
	return nroots, nil
}

// berlekampMassey runs the erasure-initialized Berlekamp-Massey
// algorithm over the workspace syndromes and leaves the errata locator
// Psi = Lambda * Gamma in dec.psi (rho is the erasure count; dec.gamma
// holds the erasure locator). A detected capability overflow returns
// ErrUncorrectable. The solve is allocation-free: the three locator
// registers rotate among the workspace buffers instead of being
// reallocated per length change.
//
// This is the canonical Massey formulation with an explicit register
// length L (initialized to rho) rather than polynomial degrees, which
// is essential at full capability where degree bookkeeping and
// register length diverge.
func (dec *Decoder) berlekampMassey(rho int) error {
	c, f := dec.c, dec.c.f
	d := c.n - c.k
	lambda, bprev, tmp := dec.psi, dec.bprev, dec.tmp
	copy(lambda, dec.gamma)
	copy(bprev, dec.gamma)
	bdelta := gf.Elem(1) // discrepancy at last length change
	shift := 1           // x-power accumulated since last length change
	length := rho        // current errata register length
	dec.bmPure = true

	for k := rho; k < d; k++ {
		// Discrepancy delta = sum_j Lambda_j * S_(k-j).
		var delta gf.Elem
		hi := k
		if hi > d {
			hi = d
		}
		for j := 0; j <= hi; j++ {
			delta ^= f.Mul(lambda[j], dec.syn[k-j])
		}
		if delta == 0 {
			shift++
			continue
		}
		dec.bmPure = false
		// tmp = lambda + (delta/bdelta) * x^shift * bprev.
		copy(tmp, lambda)
		if shift <= d {
			f.AddMulSlice(tmp[shift:], bprev[:d+1-shift], f.Div(delta, bdelta))
		}
		if 2*length <= k+rho {
			// Length change: the old lambda becomes the reference
			// register; the old reference buffer becomes scratch.
			lambda, bprev, tmp = tmp, lambda, bprev
			bdelta = delta
			length = k + 1 + rho - length
			shift = 1
		} else {
			lambda, tmp = tmp, lambda
			shift++
		}
	}
	dec.psi, dec.bprev, dec.tmp = lambda, bprev, tmp
	deg := -1
	for j := d; j >= 0; j-- {
		if lambda[j] != 0 {
			deg = j
			break
		}
	}
	errs := length - rho
	if errs < 0 || 2*errs+rho > d || deg != length {
		return uncorrectable("%d errors with %d erasures exceed n-k=%d", errs, rho, d)
	}
	dec.psiDeg = deg
	return nil
}

// euclidSolve solves the key equation by the Sugiyama
// extended-Euclidean algorithm: run Euclid on (x^d, Xi) where
// Xi = S*Gamma mod x^d are the modified syndromes, stopping when the
// remainder degree drops below (d+rho)/2; the accumulated multiplier
// is the error locator Lambda, and Psi = Lambda * Gamma is left in
// dec.psi. Unlike the BM path it allocates (gfpoly arithmetic): it is
// the independently-auditable reference solver, not the hot one.
func (dec *Decoder) euclidSolve(rho int) error {
	c := dec.c
	d := c.n - c.k
	ring := c.ring
	g := gfpoly.Poly(dec.gamma).Clone()
	xi := ring.ModXPow(ring.Mul(gfpoly.Poly(dec.syn), g), d)
	if xi.IsZero() {
		// All errata sit in erased positions: Lambda = 1.
		return dec.setPsi(g)
	}
	rPrev := gfpoly.Monomial(d, 1)
	rCur := xi
	tPrev := gfpoly.Zero()
	tCur := gfpoly.One()
	stop := (d + rho) / 2
	for rCur.Degree() >= stop {
		quo, rem := ring.DivMod(rPrev, rCur)
		rPrev, rCur = rCur, rem
		tPrev, tCur = tCur, ring.Add(tPrev, ring.Mul(quo, tCur))
		if rCur.IsZero() {
			break
		}
	}
	lambda := tCur
	l0 := lambda.Coeff(0)
	if l0 == 0 {
		return uncorrectable("euclid locator has zero constant term")
	}
	lambda = ring.Scale(lambda, c.f.Inv(l0))
	errs := lambda.Degree()
	if 2*errs+rho > d {
		return uncorrectable("%d errors with %d erasures exceed n-k=%d", errs, rho, d)
	}
	return dec.setPsi(ring.Mul(lambda, g))
}

// setPsi copies a solver-produced errata locator into the workspace.
func (dec *Decoder) setPsi(psi gfpoly.Poly) error {
	d := dec.c.n - dec.c.k
	deg := psi.Degree()
	if deg > d {
		return uncorrectable("errata locator degree %d exceeds n-k=%d", deg, d)
	}
	for i := range dec.psi {
		dec.psi[i] = psi.Coeff(i)
	}
	dec.psiDeg = deg
	return nil
}
