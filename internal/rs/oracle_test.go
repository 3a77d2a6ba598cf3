package rs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gf"
)

// This file holds the reference decoder that Decoder.Decode and
// Decoder.DecodeAll are checked against. It shares no stage with them: it
// recomputes syndromes by Horner's rule, builds the erasure locator as
// a product of polynomials, solves the key equation with Sugiyama's
// extended Euclidean algorithm instead of Berlekamp-Massey, finds the
// errata by evaluating the locator at every position of the word, and
// re-checks the corrected word's syndromes from scratch. It reads only
// the code's field, n, k and fcr, and works on plain coefficient
// slices (index i holds the coefficient of x^i) with gf.Field
// arithmetic.

// errOracleInvalid is the oracle's answer to malformed input: a word of
// the wrong length, a symbol outside the field, or an erasure position
// out of range or repeated. Decode rejects the same inputs with errors
// that do not wrap ErrUncorrectable.
var errOracleInvalid = errors.New("oracle: invalid input")

// oracleDecode decodes received with the listed erasures and returns
// the corrected codeword, errOracleInvalid, or an error wrapping
// ErrUncorrectable. A success is a codeword that differs from received
// in e non-erased positions with 2e+v <= n-k (v erasures); there is at
// most one such codeword, so every correct bounded-distance decoder
// accepts and rejects the same words and returns the same codeword.
func oracleDecode(c *Code, received []gf.Elem, erasures []int) ([]gf.Elem, error) {
	f, n, d := c.f, c.n, c.n-c.k
	if len(received) != n {
		return nil, errOracleInvalid
	}
	for _, s := range received {
		if !f.Valid(s) {
			return nil, errOracleInvalid
		}
	}
	seen := make(map[int]bool)
	for _, p := range erasures {
		if p < 0 || p >= n || seen[p] {
			return nil, errOracleInvalid
		}
		seen[p] = true
	}
	rho := len(erasures)
	if rho > d {
		return nil, oracleFail("%d erasures exceed n-k=%d", rho, d)
	}

	// 1. Syndromes.
	syn := oracleSyndromes(c, received)
	word := append([]gf.Elem(nil), received...)
	if pdeg(syn) < 0 {
		return word, nil
	}

	// 2. Erasure locator Gamma(x) = prod (1 + alpha^(n-1-p) x).
	gamma := []gf.Elem{1}
	for _, p := range erasures {
		gamma = pmul(f, gamma, []gf.Elem{1, f.Exp(n - 1 - p)})
	}

	// 3. Sugiyama: Euclid on x^d and the modified syndromes
	// Xi = S*Gamma mod x^d, stopping once the remainder's degree drops
	// below (d+rho)/2. The multiplier t of Xi that produced the
	// remainder is the error locator up to a constant.
	xi := pmul(f, syn, gamma)[:d]
	rPrev := make([]gf.Elem, d+1)
	rPrev[d] = 1
	rCur := xi
	var tPrev []gf.Elem
	tCur := []gf.Elem{1}
	for pdeg(rCur) >= (d+rho)/2 {
		q, r := pdivmod(f, rPrev, rCur)
		rPrev, rCur = rCur, r
		tPrev, tCur = tCur, padd(tPrev, pmul(f, q, tCur))
	}
	if tCur[0] == 0 {
		return nil, oracleFail("error locator has a zero constant term")
	}
	lambda := pmul(f, tCur, []gf.Elem{f.Inv(tCur[0])})
	if e := pdeg(lambda); 2*e+rho > d {
		return nil, oracleFail("%d errors with %d erasures exceed n-k=%d", e, rho, d)
	}
	psi := pmul(f, lambda, gamma)
	omega := pmul(f, syn, psi)[:d]
	// In characteristic 2 the formal derivative keeps the odd terms.
	dpsi := make([]gf.Elem, len(psi)-1)
	for j := 1; j < len(psi); j += 2 {
		dpsi[j-1] = psi[j]
	}

	// 4. Chien search over all n positions; 5. Forney at each root:
	// the errata at coefficient power p has locator X = alpha^p and
	// magnitude X^(1-fcr) * Omega(1/X) / Psi'(1/X).
	roots := 0
	for i := range word {
		p := n - 1 - i
		xInv := f.Exp(-p)
		if peval(f, psi, xInv) != 0 {
			continue
		}
		roots++
		den := peval(f, dpsi, xInv)
		if den == 0 {
			return nil, oracleFail("repeated errata locator root")
		}
		mag := f.Div(peval(f, omega, xInv), den)
		word[i] ^= f.Mul(mag, f.Pow(f.Exp(p), 1-c.fcr))
	}
	if deg := pdeg(psi); roots != deg {
		return nil, oracleFail("errata locator has %d roots in word, degree %d", roots, deg)
	}

	// 6. The corrected word must be a codeword.
	if pdeg(oracleSyndromes(c, word)) >= 0 {
		return nil, oracleFail("residual syndromes after correction")
	}
	return word, nil
}

func oracleFail(format string, args ...any) error {
	return fmt.Errorf("%w: oracle: %s", ErrUncorrectable, fmt.Sprintf(format, args...))
}

// oracleSyndromes returns S_j = W(alpha^(fcr+j)), j < n-k, for the word
// polynomial W with symbol i the coefficient of x^(n-1-i).
func oracleSyndromes(c *Code, word []gf.Elem) []gf.Elem {
	syn := make([]gf.Elem, c.n-c.k)
	for j := range syn {
		x := c.f.Exp(c.fcr + j)
		for _, s := range word {
			syn[j] = c.f.Mul(syn[j], x) ^ s
		}
	}
	return syn
}

// pdeg returns the degree of p, -1 for the zero polynomial.
func pdeg(p []gf.Elem) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// padd returns p + q.
func padd(p, q []gf.Elem) []gf.Elem {
	if len(p) < len(q) {
		p, q = q, p
	}
	out := append([]gf.Elem(nil), p...)
	for i, v := range q {
		out[i] ^= v
	}
	return out
}

// pmul returns p * q with len(p)+len(q)-1 coefficients.
func pmul(f *gf.Field, p, q []gf.Elem) []gf.Elem {
	if len(p) == 0 || len(q) == 0 {
		return nil
	}
	out := make([]gf.Elem, len(p)+len(q)-1)
	for i, a := range p {
		for j, b := range q {
			out[i+j] ^= f.Mul(a, b)
		}
	}
	return out
}

// pdivmod divides p by the nonzero polynomial q.
func pdivmod(f *gf.Field, p, q []gf.Elem) (quo, rem []gf.Elem) {
	dq := pdeg(q)
	rem = append([]gf.Elem(nil), p...)
	quo = make([]gf.Elem, max(pdeg(p)-dq+1, 0))
	inv := f.Inv(q[dq])
	for dr := pdeg(rem); dr >= dq; dr = pdeg(rem) {
		m := f.Mul(rem[dr], inv)
		quo[dr-dq] = m
		for j := 0; j <= dq; j++ {
			rem[dr-dq+j] ^= f.Mul(m, q[j])
		}
	}
	return quo, rem
}

// peval evaluates p at x by Horner's rule.
func peval(f *gf.Field, p []gf.Elem, x gf.Elem) gf.Elem {
	var acc gf.Elem
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Mul(acc, x) ^ p[i]
	}
	return acc
}

// oracleMismatch compares one decode outcome (codeword on success)
// with the oracle's on the same input. They agree on the same codeword,
// or on the same class of failure: uncorrectable, or invalid input.
// Two solvers can reject one word at different steps, so failure texts
// are not compared. It returns "" when they agree.
func oracleMismatch(c *Code, received []gf.Elem, ers []int, codeword []gf.Elem, err error) string {
	want, wantErr := oracleDecode(c, received, ers)
	switch {
	case err == nil && wantErr == nil && equalElems(codeword, want):
		return ""
	case err != nil && wantErr != nil && errors.Is(err, ErrUncorrectable) == errors.Is(wantErr, ErrUncorrectable):
		return ""
	}
	return fmt.Sprintf("decoder %s, oracle %s", outcome(codeword, err), outcome(want, wantErr))
}

// TestOracleWithinCapability checks the oracle against ground truth:
// every pattern of v erasures and e errors with 2e+v <= n-k decodes to
// the encoded codeword.
func TestOracleWithinCapability(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, params := range []struct{ n, k, fcr int }{
		{18, 16, 1}, {18, 16, 0}, {36, 16, 1}, {255, 223, 0}, {15, 9, 3}, {10, 8, 2},
	} {
		c, err := NewWithFCR(f8, params.n, params.k, params.fcr)
		if err != nil {
			t.Fatal(err)
		}
		d := c.Redundancy()
		for trial := 0; trial < 200; trial++ {
			er := rng.Intn(d + 1)
			re := rng.Intn((d-er)/2 + 1)
			cw, _ := c.Encode(randData(rng, c))
			positions := rng.Perm(c.N())[: er+re : er+re]
			bad := append([]gf.Elem(nil), cw...)
			for _, p := range positions {
				bad[p] ^= gf.Elem(1 + rng.Intn(c.Field().Size()-1))
			}
			got, err := oracleDecode(c, bad, positions[:er])
			if err != nil {
				t.Fatalf("%v fcr=%d er=%d re=%d: %v", c, params.fcr, er, re, err)
			}
			if !equalElems(got, cw) {
				t.Fatalf("%v fcr=%d er=%d re=%d: wrong codeword", c, params.fcr, er, re)
			}
		}
	}
}

// TestOracleErasuresOnly fills RS(36,16) to its erasure capacity, and
// one erasure past it.
func TestOracleErasuresOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := MustNew(f8, 36, 16)
	cw, _ := c.Encode(randData(rng, c))
	bad := append([]gf.Elem(nil), cw...)
	positions := rng.Perm(36)[:21:21]
	for _, p := range positions[:20] {
		bad[p] ^= gf.Elem(1 + rng.Intn(255))
	}
	got, err := oracleDecode(c, bad, positions[:20])
	if err != nil {
		t.Fatalf("full erasure load failed: %v", err)
	}
	if !equalElems(got, cw) {
		t.Fatal("wrong codeword")
	}
	if _, err := oracleDecode(c, bad, positions); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("21 erasures: err = %v, want ErrUncorrectable", err)
	}
	for _, ers := range [][]int{{-1}, {36}, {4, 4}} {
		if _, err := oracleDecode(c, bad, ers); !errors.Is(err, errOracleInvalid) {
			t.Errorf("erasures %v: err = %v, want errOracleInvalid", ers, err)
		}
	}
}
