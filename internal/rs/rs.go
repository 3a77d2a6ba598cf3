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
// # One Decoder for a word and an arena
//
// A Decoder from Code.NewDecoder owns every scratch buffer decoding
// needs: syndromes, locator/evaluator registers, the erasure bitset
// and cache, the corrected word. Decode decodes one word into the
// workspace. DecodeAll decodes a Batch — a contiguous arena of words
// at a fixed stride — in place, giving every word the outcome Decode
// gives it and leaving a failed word as received. Both run one front
// half, which validates the word and its erasure list and finds its
// syndromes, and both hand only dirty words (some syndrome nonzero)
// to one correction tail. A Decoder is not safe for concurrent use;
// the simulators hold one per worker goroutine. The Result and
// BatchResult its methods return alias the workspace and stay valid
// only until the next call on that Decoder.
//
// # Zero-allocation contract
//
// EncodeTo and SyndromesInto never allocate, and a warm Decoder
// allocates nothing on every successful path — clean words, random
// errors, erasures. Failed words are the exception: an erasure list's
// validation error is built once per cached erasure set, and a word
// that Berlekamp-Massey or the Chien sweep rejects allocates its error
// value.
//
// # The syndrome screen
//
// Scrub-scale workloads decode every resident word each pass, and
// almost all of those words are still valid codewords. The front half
// is built around that skew: it folds a word's syndromes from a packed
// contribution table — CRC slicing-by-8 transplanted to GF(2^m), eight
// 8-bit syndrome lanes per uint64 — with ceil((n-k)/8) wide XORs per
// symbol, and validates the symbols with an OR on the way. A clean
// word is done at that point; a dirty word's lanes unpack into the
// syndrome registers, so no word recomputes the O(n·(n-k)) Horner
// syndromes the screen already paid for. The table lives on the Code,
// built on the code's first decode and shared by every Decoder of that
// code; since codes are shared too, it is built once per process. A
// code whose field has no multiplication table (m > 8), or whose table
// would exceed 8 MiB, validates the word and computes Horner syndromes
// instead, with the same outcome.
//
// With the table, erasure lists resolve through a per-Decoder
// erasure-set cache: the erasure locator Γ(x) and its Chien/Forney
// setup depend only on the position set, which scrub workloads repeat
// heavily (one located-column list for a whole page arena), so the
// cache keys on the list's content and an erasure-only word —
// syndromes explained by Γ alone — completes by evaluating the cached
// roots, with no Berlekamp-Massey iteration and no Chien sweep. The
// lists passed to DecodeAll may be shared between words (see Batch);
// sharing one list arena-wide is the fast path.
//
// # The correction tail
//
// A code with n-k = 2, such as the paper's RS(18,16), leaves the
// Berlekamp-Massey/Chien pipeline out altogether. With two syndromes
// S0 and S1, one error sits at the locator S1/S0; one erasure either
// explains the syndromes alone or leaves the word beyond capability;
// two erasures solve a 2x2 Forney system. The closed form reaches the
// codeword, or the error text, that Berlekamp-Massey and the
// Chien/Forney sweep reach, and its failures are shared error values,
// so a failed word allocates nothing.
//
// The reference the decoder is tested against is a separate decoder
// in the package's tests (Sugiyama's algorithm over plain polynomials,
// an exhaustive Chien search and a syndrome re-check) that shares no
// stage with this pipeline.
package rs

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"weak"

	"repro/internal/gf"
)

// Code is a Reed-Solomon code RS(n,k) over a fixed GF(2^m).
// It is immutable after construction and safe for concurrent use, and
// New and NewWithFCR share one Code per field and parameter set, so a
// code's packed syndrome table is built once per process.
type Code struct {
	f   *gf.Field
	n   int // codeword length in symbols
	k   int // dataword length in symbols
	fcr int // power of alpha of the first consecutive generator root

	// genRev[j] is the coefficient of x^(d-1-j) in the monic generator
	// g(x) of degree d = n-k: the LFSR feedback taps in shift-register
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

	// batchOnce/batchTab build, on the code's first decode, and hold the
	// packed syndrome-contribution table behind the syndrome screen (see
	// batch.go); the table is shared by every Decoder of this code.
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

// The failures of an n-k = 2 word have constant detail, so the closed
// form returns these shared values and a failed word allocates nothing.
// Their texts are the ones Berlekamp-Massey and the Chien sweep report
// for the same words.
var (
	errTwoErrors          = uncorrectable("%d errors with %d erasures exceed n-k=%d", 2, 0, 2)
	errOneError           = uncorrectable("%d errors with %d erasures exceed n-k=%d", 1, 0, 2)
	errOneErrorOneErasure = uncorrectable("%d errors with %d erasures exceed n-k=%d", 1, 1, 2)
	errRootOutsideWord    = uncorrectable("errata locator has %d roots in word, degree %d", 0, 1)
)

// New returns the code RS(n,k) over the field f with the conventional
// first consecutive root alpha^1. Like NewWithFCR, it returns the
// process-shared code for those parameters.
func New(f *gf.Field, n, k int) (*Code, error) { return NewWithFCR(f, n, k, 1) }

// MustNew is New for static configuration; it panics on error.
func MustNew(f *gf.Field, n, k int) *Code {
	c, err := New(f, n, k)
	if err != nil {
		panic(err)
	}
	return c
}

// codeKey identifies a code in the process-wide memo.
type codeKey struct {
	f         *gf.Field
	n, k, fcr int
}

// codes memoizes NewWithFCR, so each distinct code — its generator and
// its packed syndrome table — exists once per process however many
// spec entries, simulators and fabric jobs use it. The memo holds weak
// pointers: the parameters come from submitted specs, and a
// long-running service must not pin a code, up to 2.1 MiB of table for
// RS(255,223), after the last job using it is gone.
var codes = struct {
	sync.Mutex
	m map[codeKey]weak.Pointer[Code]
}{m: make(map[codeKey]weak.Pointer[Code])}

// NewWithFCR returns RS(n,k) over f with generator roots
// alpha^fcr .. alpha^(fcr+n-k-1). The code is shared: while any caller
// holds it, every call with the same field and parameters returns the
// same immutable *Code.
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
	key := codeKey{f: f, n: n, k: k, fcr: fcr}
	codes.Lock()
	defer codes.Unlock()
	if c := codes.m[key].Value(); c != nil {
		return c, nil
	}
	c := &Code{f: f, n: n, k: k, fcr: fcr}
	d := n - k
	// g(x) = prod (x + alpha^(fcr+j)), built in place with g[i] the
	// coefficient of x^(d-i): in that order each linear factor
	// multiplies in like one of the erasure locator's.
	g := make([]gf.Elem, d+1)
	g[0] = 1
	c.synX = make([]gf.Elem, d)
	for j := 0; j < d; j++ {
		c.synX[j] = f.Exp(fcr + j)
		for i := j + 1; i >= 1; i-- {
			g[i] ^= f.Mul(g[i-1], c.synX[j])
		}
	}
	c.genRev = g[1:]
	c.chienInit = make([]gf.Elem, d+1)
	c.chienStep = make([]gf.Elem, d+1)
	c.chienRow = make([][]gf.Elem, d+1)
	for j := 0; j <= d; j++ {
		c.chienInit[j] = f.Exp(-(n - 1) * j)
		c.chienStep[j] = f.Exp(j)
		c.chienRow[j] = f.MulRow(c.chienStep[j])
	}
	codes.m[key] = weak.Make(c)
	runtime.AddCleanup(c, forgetCode, key)
	return c, nil
}

// forgetCode drops key's memo entry once its code has been collected.
// A later NewWithFCR may already have stored a live successor under
// the key, which stays.
func forgetCode(key codeKey) {
	codes.Lock()
	defer codes.Unlock()
	if codes.m[key].Value() == nil {
		delete(codes.m, key)
	}
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

// SyndromesInto computes the n-k syndrome values of word into dst,
// which must have length n-k: S_j = W(alpha^(fcr+j)), j = 0..n-k-1,
// where W is the word polynomial with symbol i as the coefficient of
// x^(n-1-i). The word is a codeword iff all syndromes vanish.
// SyndromesInto performs no allocation.
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

// Decoder is a reusable decoding workspace for one Code, for single
// words (Decode) and word arenas (DecodeAll). It owns every scratch
// buffer the decoding pipeline needs, so steady-state decoding through
// it performs no heap allocation.
//
// A Decoder is NOT safe for concurrent use; create one per goroutine
// with Code.NewDecoder. The Result and BatchResult returned by its
// methods (and every slice inside them) alias the workspace and are
// valid only until the next call on the same Decoder — callers that
// need to retain them must copy.
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

	erased []bool    // checkErasures bitset, all false between calls
	word   []gf.Elem // corrected word
	errPos []int     // ErrorPositions backing store
	res    Result

	acc   []uint64     // the screen's packed syndrome lanes
	cache erasureCache // validated erasure-set setups (ecache.go)
	bres  BatchResult  // DecodeAll's result

	// bmPure records whether the last berlekampMassey run saw every
	// discrepancy vanish — i.e. the syndromes are fully explained by
	// the erasure locator and Psi == Gamma. correct's erasure-only
	// fast path keys on it.
	bmPure bool
}

// NewDecoder returns a fresh decoding workspace for c. It builds no
// table: the code's packed syndrome table is built on its first
// decode.
func (c *Code) NewDecoder() *Decoder {
	d := c.n - c.k
	erased := make([]bool, c.n)
	return &Decoder{
		c:      c,
		syn:    make([]gf.Elem, d),
		gamma:  make([]gf.Elem, d+1),
		psi:    make([]gf.Elem, d+1),
		bprev:  make([]gf.Elem, d+1),
		tmp:    make([]gf.Elem, d+1),
		omega:  make([]gf.Elem, d),
		cpsi:   make([]gf.Elem, d+1),
		erased: erased,
		word:   make([]gf.Elem, c.n),
		errPos: make([]int, 0, c.n),
		acc:    make([]uint64, (d+7)/8),
		cache:  erasureCache{c: c, erased: erased},
	}
}

// Decode corrects the received word into the workspace, treating the
// listed positions (codeword indices, 0-based) as erasures. It returns
// a Result on success and a wrapped ErrUncorrectable on a *detected*
// decoding failure; a word of the wrong length, an out-of-range symbol
// or a malformed erasure list is rejected with an error that does not
// wrap it. An undetected failure — mis-correction to a valid but wrong
// codeword — returns success by construction of bounded-distance
// decoding; callers that know the ground truth (the simulator, the
// tests) can compare Codeword against it. The received word is not
// modified; see the Decoder type for the aliasing contract of the
// returned Result.
func (dec *Decoder) Decode(received []gf.Elem, erasures []int) (*Result, error) {
	c := dec.c
	if len(received) != c.n {
		return nil, fmt.Errorf("rs: word has %d symbols, want n=%d", len(received), c.n)
	}
	// The cache's pointer memo holds only within one call: callers
	// reuse list backing arrays between calls.
	dec.cache.resetMemo()
	dirty, ent, err := dec.front(c.batchSyndromeTable(), received, erasures)
	if err != nil {
		return nil, err
	}
	if !dirty {
		// Already a codeword. Erased positions hold consistent values.
		copy(dec.word, received)
		return dec.buildResult(received), nil
	}
	return dec.correct(received, erasures, ent)
}

// front is the front half of both entry points. It validates a word of
// length n — its symbols, then the erasure list — and reports whether
// the word is dirty, leaving a dirty word's n-k syndromes in dec.syn;
// ent is the list's cached erasure-set entry, nil for an empty list or
// a code without the packed table. With the table, the screen folds the
// syndromes and OR-checks the symbols in one pass (checkSymbols names
// an out-of-range symbol), and the cache entry carries checkErasures'
// outcome; without it (m > 8, or a table over maxBatchTableBytes), the
// symbols and the list are checked directly and Horner's rule runs.
func (dec *Decoder) front(bt *batchTable, word []gf.Elem, ers []int) (dirty bool, ent *erasureEntry, err error) {
	c := dec.c
	if bt.tab == nil {
		if err := c.checkSymbols(word); err != nil {
			return false, nil, err
		}
		if err := c.checkErasures(dec.erased, ers); err != nil {
			return false, nil, err
		}
		c.syndromes(dec.syn, word)
		return !allZero(dec.syn), nil, nil
	}
	dirty, valid := dec.screen(bt, word)
	if !valid {
		return false, nil, c.checkSymbols(word)
	}
	if len(ers) > 0 {
		if ent = dec.cache.get(ers); ent.err != nil {
			return false, nil, ent.err
		}
	}
	if dirty {
		// Syndrome handoff: the screen's byte lanes are the word's
		// packed syndromes.
		for j := range dec.syn {
			dec.syn[j] = gf.Elem(dec.acc[j>>3] >> (8 * (j & 7)) & 0xff)
		}
	}
	return dirty, ent, nil
}

// checkErasures validates an erasure list in list order, range before
// duplicate at each position, and then its length against n-k. seen is
// an n-entry bitset that is all false on entry and again on return.
func (c *Code) checkErasures(seen []bool, ers []int) error {
	for i, p := range ers {
		var err error
		if p < 0 || p >= c.n {
			err = fmt.Errorf("rs: erasure position %d out of range [0,%d)", p, c.n)
		} else if seen[p] {
			err = fmt.Errorf("rs: duplicate erasure position %d", p)
		} else {
			seen[p] = true
			continue
		}
		for _, q := range ers[:i] {
			seen[q] = false
		}
		return err
	}
	for _, p := range ers {
		seen[p] = false
	}
	if d := c.n - c.k; len(ers) > d {
		return uncorrectable("%d erasures exceed n-k=%d", len(ers), d)
	}
	return nil
}

// erasureLocator writes Gamma(x) = prod (1 - x*alpha^(n-1-p)) over the
// erasure positions into gamma (ascending coefficients, zero-padded to
// its length), multiplying in one linear factor per erasure.
func (c *Code) erasureLocator(gamma []gf.Elem, ers []int) {
	for i := range gamma {
		gamma[i] = 0
	}
	gamma[0] = 1
	for deg, p := range ers {
		a := c.f.Exp(c.n - 1 - p)
		for j := deg + 1; j >= 1; j-- {
			gamma[j] ^= c.f.Mul(gamma[j-1], a)
		}
	}
}

// correct is the correction tail of both entry points. front has
// validated the word and ers, left the word's n-k syndromes (not all
// zero) in dec.syn and returned ent, the list's cached erasure-set
// entry or nil.
//
// A code with n-k = 2 solves in closed form (solve2). Otherwise the
// erasure locator seeds Berlekamp-Massey, the evaluator follows, and
// the fused Chien/Forney sweep corrects the word. When the entry
// supports it and Berlekamp-Massey saw every discrepancy vanish
// (Psi == Gamma: the syndromes are fully explained by the erasures),
// the correction applies directly at the entry's precomputed locator
// roots and the O(n*deg) sweep is skipped. The final syndrome re-check
// guards the (self-produced, hence unvalidated) corrected word.
func (dec *Decoder) correct(received []gf.Elem, ers []int, ent *erasureEntry) (*Result, error) {
	c := dec.c
	d := c.n - c.k
	copy(dec.word, received)
	if d == 2 {
		if err := dec.solve2(ers); err != nil {
			return nil, err
		}
		return dec.buildResult(received), nil
	}

	if ent != nil {
		copy(dec.gamma, ent.gamma)
	} else {
		c.erasureLocator(dec.gamma, ers)
	}
	if err := dec.berlekampMassey(len(ers)); err != nil {
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

	if ent != nil && ent.fastOK && dec.bmPure {
		dec.forneyAtRoots(ent)
	} else {
		nroots, err := dec.chienForney()
		if err != nil {
			return nil, err
		}
		if nroots != dec.psiDeg {
			// Some locator roots fall outside the (possibly shortened)
			// codeword: the error pattern exceeded the capability.
			return nil, uncorrectable("errata locator has %d roots in word, degree %d", nroots, dec.psiDeg)
		}
	}
	// Re-check: a successful bounded-distance decode must land on a
	// codeword; anything else is a detected failure. The correction
	// folded every change into the syndrome register, so the register
	// now holds the corrected word's syndromes without re-scanning it.
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

// solve2 corrects dec.word in closed form for a code with n-k = 2,
// nonzero syndromes S0, S1 and the validated erasure list ers. An
// errata of magnitude e at coefficient power p (position n-1-p) has
// locator X = alpha^p and adds e*X^fcr to S0 and e*X^(fcr+1) to S1, so:
//
//   - no erasures: the one error has X = S1/S0 and e = S0/X^fcr; a zero
//     S0 or S1, or an X beyond the word, is uncorrectable;
//   - one erasure with locator a: it explains the syndromes alone iff
//     S1 = a*S0, and then e = S0/a^fcr; any other word needs one more
//     error than n-k = 2 affords;
//   - two erasures a1, a2: E_i = e_i*a_i^fcr solve S0 = E1 + E2 and
//     S1 = a1*E1 + a2*E2, so E1 = (S1 + a2*S0)/(a1 + a2), E2 = S0 + E1.
//
// Each branch reaches the codeword, or the error text, that
// Berlekamp-Massey plus the Chien/Forney sweep reach for the same word.
// The corrected word's syndromes vanish by construction, so there is no
// residual check.
func (dec *Decoder) solve2(ers []int) error {
	c, f := dec.c, dec.c.f
	s0, s1 := dec.syn[0], dec.syn[1]
	switch len(ers) {
	case 0:
		switch {
		case s0 == 0:
			return errTwoErrors
		case s1 == 0:
			return errOneError
		}
		p := f.Log(s1) - f.Log(s0)
		if p < 0 {
			p += f.N()
		}
		if p >= c.n {
			return errRootOutsideWord
		}
		dec.word[c.n-1-p] ^= f.Exp(f.Log(s0) - c.fcr*p)
	case 1:
		p := c.n - 1 - ers[0]
		if s1 != f.Mul(f.Exp(p), s0) {
			return errOneErrorOneErasure
		}
		dec.word[ers[0]] ^= f.Exp(f.Log(s0) - c.fcr*p)
	default: // two erasures; checkErasures rejects more
		p1, p2 := c.n-1-ers[0], c.n-1-ers[1]
		a1, a2 := f.Exp(p1), f.Exp(p2)
		e1 := f.Div(s1^f.Mul(a2, s0), a1^a2)
		if e1 != 0 {
			dec.word[ers[0]] ^= f.Exp(f.Log(e1) - c.fcr*p1)
		}
		if e2 := s0 ^ e1; e2 != 0 {
			dec.word[ers[1]] ^= f.Exp(f.Log(e2) - c.fcr*p2)
		}
	}
	return nil
}

// forneyAtRoots applies the Forney correction at the precomputed roots
// of the erasure locator — the erasure-only fast path taken when
// Psi == Gamma, so the errata positions are exactly the erasure set
// and the Chien search would rediscover what the cache already knows.
// The arithmetic is the root-hit body of chienForney verbatim (same
// magnitudes, same syndrome folding), minus the O(n*deg) sweep; the
// caller's residual-syndrome check still stands guard behind it. Only
// codes with the packed syndrome table reach it (the cache entry comes
// from there), and the table exists just for fields with
// multiplication tables, so every MulRow below is a table row.
func (dec *Decoder) forneyAtRoots(ent *erasureEntry) {
	f := dec.c.f
	omega := dec.omega
	omegaDeg := len(omega) - 1
	for omegaDeg >= 0 && omega[omegaDeg] == 0 {
		omegaDeg--
	}
	fcr1 := dec.c.fcr == 1
	syn := dec.syn
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
