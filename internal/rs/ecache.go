package rs

import (
	"fmt"

	"repro/internal/gf"
)

// This file implements the erasure-set locator cache behind the batch
// decode layer. The erasure locator Gamma(x) and its Chien/Forney
// setup depend only on the *set* of erased positions — not on the word
// being decoded — and the scrub workloads this package serves repeat
// position sets heavily: pagesim passes one located-column set for a
// whole page arena, memsim's duplex pair shares one list, interleave's
// per-stripe split is stable across scrub passes. Caching that setup
// per position set turns the per-word erasure cost from "rebuild
// Gamma, run Berlekamp-Massey, sweep Chien over n positions" into
// "evaluate Omega at rho precomputed roots".
//
// The cache keys on the *content* of the erasure list (hash plus
// element-wise verify, in list order). Pointer identity is
// deliberately not trusted across calls: callers reuse backing arrays
// (append into the same slice every trial), so the same pointer+length
// can carry different positions on the next call. Within a single
// DecodeAll call the lists are immutable by contract (see Batch), so a
// one-entry pointer memo short-circuits the common
// arena-wide-shared-list case to a single pointer compare per word.
//
// The table is direct-mapped: each set hashes to one bucket and a
// colliding set simply rebuilds over it. There is no LRU bookkeeping
// to touch on the hot path, lookups are one compare, and the worst
// case (every word a distinct set, all colliding) degrades to the
// build-per-word cost, never worse than uncached.

// erasureCacheBuckets sizes the per-lane direct-mapped table (power of
// two). Scrub arenas carry from one shared set up to one set per word;
// 512 buckets keeps an arena of 64 distinct sets essentially
// collision-free (expected colliding pairs ~2) while bounding the
// lane's memory — entries are built lazily, so unused buckets cost one
// nil pointer each.
const erasureCacheBuckets = 512

// erasureRoot precomputes the fused Chien/Forney state at one root of
// the erasure locator: position, evaluation points, the inverted
// Forney denominator 1/(x*Gamma_odd(1/x)) (defined for every simple
// root), the general-fcr adjustment x^(1-fcr), and the first
// syndrome-fold multiplier alpha^(fcr*p).
type erasureRoot struct {
	pos      int
	x        gf.Elem
	xInv     gf.Elem
	invDenom gf.Elem
	fcrAdj   gf.Elem
	synBase  gf.Elem
}

// erasureEntry caches everything about one erasure position set that
// Decoder.Decode would otherwise recompute per word: the validation
// outcome (err non-nil reproduces the exact Decode error for every
// word sharing an invalid list), the locator Gamma zero-padded to d+1
// coefficients, and the per-root Forney setup. fastOK guards the
// no-Chien fast path; it is false in the degenerate case of a
// vanishing Forney denominator, which the general sweep classifies.
type erasureEntry struct {
	key       uint64
	positions []int
	err       error
	gamma     []gf.Elem
	roots     []erasureRoot
	fastOK    bool
}

// erasureCache is the per-lane (hence single-goroutine) direct-mapped
// cache of erasure-set entries.
type erasureCache struct {
	c       *Code
	buckets [erasureCacheBuckets]*erasureEntry
	erased  []bool // validation bitset, kept all-false between builds

	// One-entry pointer memo, valid only within a single DecodeAll
	// call (reset at every range start): lists shared across an
	// arena's words resolve with one pointer compare.
	memoSrc *int
	memoLen int
	memoEnt *erasureEntry
}

func newErasureCache(c *Code) erasureCache {
	return erasureCache{c: c, erased: make([]bool, c.n)}
}

// resetMemo invalidates the intra-call pointer memo; the content-keyed
// entries stay warm across calls.
func (ec *erasureCache) resetMemo() {
	ec.memoSrc = nil
	ec.memoLen = 0
	ec.memoEnt = nil
}

// hashInts is FNV-1a over the list elements, order-sensitive like the
// content compare it fronts.
func hashInts(a []int) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range a {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// get returns the cache entry for the erasure list, building it on a
// miss. ers must be non-empty (erasure-free words never reach the
// cache).
func (ec *erasureCache) get(ers []int) *erasureEntry {
	if ec.memoEnt != nil && ec.memoLen == len(ers) && ec.memoSrc == &ers[0] {
		return ec.memoEnt
	}
	h := hashInts(ers)
	slot := &ec.buckets[h&(erasureCacheBuckets-1)]
	e := *slot
	if e != nil && e.key == h && intsEqual(e.positions, ers) {
		ec.memoSrc, ec.memoLen, ec.memoEnt = &ers[0], len(ers), e
		return e
	}
	if e == nil {
		e = &erasureEntry{}
		*slot = e
	}
	e.key = h
	ec.build(e, ers)
	ec.memoSrc, ec.memoLen, ec.memoEnt = &ers[0], len(ers), e
	return e
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// build fills the entry for the erasure list: validation replicating
// Decoder.decode exactly (same order, same messages), then Gamma and
// the per-root Forney setup.
func (ec *erasureCache) build(e *erasureEntry, ers []int) {
	c := ec.c
	f := c.f
	d := c.n - c.k
	e.positions = append(e.positions[:0], ers...)
	e.err = nil
	e.gamma = e.gamma[:0]
	e.roots = e.roots[:0]
	e.fastOK = false

	// Validation in list order, range before duplicate per position,
	// exactly as decode reports it. The bitset is kept all-false
	// between builds by clearing only the positions set here.
	for i, p := range ers {
		if p < 0 || p >= c.n {
			e.err = fmt.Errorf("rs: erasure position %d out of range [0,%d)", p, c.n)
		} else if ec.erased[p] {
			e.err = fmt.Errorf("rs: duplicate erasure position %d", p)
		} else {
			ec.erased[p] = true
			continue
		}
		for _, q := range ers[:i] {
			ec.erased[q] = false
		}
		return
	}
	for _, p := range ers {
		ec.erased[p] = false
	}
	rho := len(ers)
	if rho > d {
		e.err = uncorrectable("%d erasures exceed n-k=%d", rho, d)
		return
	}

	// Gamma(x) = prod (1 - x*alpha^(n-1-p)), built exactly as decode
	// builds it, zero-padded to d+1 coefficients. Each linear factor
	// multiplies through one row view when the field carries tables.
	for len(e.gamma) <= d {
		e.gamma = append(e.gamma, 0)
	}
	for i := range e.gamma {
		e.gamma[i] = 0
	}
	e.gamma[0] = 1
	for deg, p := range ers {
		a := f.Exp(c.n - 1 - p)
		if row := f.MulRow(a); row != nil {
			for j := deg + 1; j >= 1; j-- {
				e.gamma[j] ^= row[e.gamma[j-1]]
			}
		} else {
			for j := deg + 1; j >= 1; j-- {
				e.gamma[j] ^= f.Mul(e.gamma[j-1], a)
			}
		}
	}

	// oddTop is the highest odd index with rho coefficients in play.
	oddTop := rho
	if oddTop%2 == 0 {
		oddTop--
	}
	e.fastOK = true
	for _, pos := range ers {
		p := c.n - 1 - pos
		x := f.Exp(p)
		xInv := f.Exp(-p)
		// Odd-index partial sum of Gamma at xInv — in characteristic 2
		// this is xInv*Gamma'(xInv), the fused-Forney derivative term —
		// evaluated as a Horner chain in xInv^2 over the odd
		// coefficients, scaled by xInv.
		xi2 := f.Mul(xInv, xInv)
		var odd gf.Elem
		if row := f.MulRow(xi2); row != nil {
			for j := oddTop; j >= 1; j -= 2 {
				odd = row[odd] ^ e.gamma[j]
			}
		} else {
			for j := oddTop; j >= 1; j -= 2 {
				odd = f.Mul(odd, xi2) ^ e.gamma[j]
			}
		}
		odd = f.Mul(odd, xInv)
		if odd == 0 {
			// Distinct valid erasures make every root simple, so this
			// is unreachable; routed to the general Chien/Forney sweep
			// defensively rather than dividing by zero.
			e.fastOK = false
			e.roots = e.roots[:0]
			return
		}
		fcrAdj := gf.Elem(1)
		if c.fcr != 1 {
			fcrAdj = f.Pow(x, 1-c.fcr)
		}
		e.roots = append(e.roots, erasureRoot{
			pos:      pos,
			x:        x,
			xInv:     xInv,
			invDenom: f.Inv(f.Mul(odd, x)),
			fcrAdj:   fcrAdj,
			synBase:  f.Exp(c.fcr * p),
		})
	}
}
