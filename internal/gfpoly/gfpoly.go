// Package gfpoly provides univariate polynomial algebra over the
// finite fields GF(2^m) of internal/gf.
//
// Polynomials are slices of coefficients in ascending degree order:
// index i holds the coefficient of x^i. The zero polynomial is the
// empty (or all-zero) slice; operations normalize results so the
// highest-index coefficient of a nonzero polynomial is nonzero.
//
// All operations are methods on Ring, which binds a field: sums,
// scalings, products, division with remainder, truncation and
// evaluation, with allocation-light implementations built on the gf
// batch kernels.
//
// No package imports gfpoly. internal/rs builds its generator and
// locators with gf operations on fixed workspace buffers, and the
// reference decoder in its tests carries its own polynomial helpers.
// The package and its tests are due for deletion (see ROADMAP.md).
package gfpoly

import (
	"fmt"
	"strings"

	"repro/internal/gf"
)

// Poly is a polynomial over some GF(2^m); index i is the coefficient
// of x^i. A nil or empty Poly is the zero polynomial.
type Poly []gf.Elem

// Ring performs polynomial arithmetic over a fixed field.
type Ring struct {
	F *gf.Field
}

// NewRing returns a polynomial ring over the given field.
func NewRing(f *gf.Field) *Ring { return &Ring{F: f} }

// Zero returns the zero polynomial.
func Zero() Poly { return nil }

// One returns the constant polynomial 1.
func One() Poly { return Poly{1} }

// Monomial returns c*x^deg.
func Monomial(deg int, c gf.Elem) Poly {
	if c == 0 {
		return nil
	}
	p := make(Poly, deg+1)
	p[deg] = c
	return p
}

// trim removes trailing zero coefficients so Degree is well defined.
func trim(p Poly) Poly {
	i := len(p)
	for i > 0 && p[i-1] == 0 {
		i--
	}
	return p[:i]
}

// Degree returns the degree of p, with -1 for the zero polynomial.
func (p Poly) Degree() int { return len(trim(p)) - 1 }

// IsZero reports whether p is the zero polynomial.
func (p Poly) IsZero() bool { return len(trim(p)) == 0 }

// Clone returns an independent copy of p.
func (p Poly) Clone() Poly {
	if len(p) == 0 {
		return nil
	}
	q := make(Poly, len(p))
	copy(q, p)
	return q
}

// Coeff returns the coefficient of x^i, 0 when i exceeds the degree.
func (p Poly) Coeff(i int) gf.Elem {
	if i < 0 || i >= len(p) {
		return 0
	}
	return p[i]
}

// Equal reports whether p and q represent the same polynomial,
// ignoring trailing zeros.
func (p Poly) Equal(q Poly) bool {
	a, b := trim(p), trim(q)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// String renders p like "x^3 + 5x + 1" with coefficients in decimal.
func (p Poly) String() string {
	q := trim(p)
	if len(q) == 0 {
		return "0"
	}
	var terms []string
	for i := len(q) - 1; i >= 0; i-- {
		c := q[i]
		if c == 0 {
			continue
		}
		switch {
		case i == 0:
			terms = append(terms, fmt.Sprintf("%d", c))
		case i == 1 && c == 1:
			terms = append(terms, "x")
		case i == 1:
			terms = append(terms, fmt.Sprintf("%dx", c))
		case c == 1:
			terms = append(terms, fmt.Sprintf("x^%d", i))
		default:
			terms = append(terms, fmt.Sprintf("%dx^%d", c, i))
		}
	}
	return strings.Join(terms, " + ")
}

// Add returns p + q (which is also p - q in characteristic 2).
func (r *Ring) Add(p, q Poly) Poly {
	if len(q) > len(p) {
		p, q = q, p
	}
	out := make(Poly, len(p))
	copy(out, p)
	for i, c := range q {
		out[i] ^= c
	}
	return trim(out)
}

// Scale returns c*p.
func (r *Ring) Scale(p Poly, c gf.Elem) Poly {
	if c == 0 || len(trim(p)) == 0 {
		return nil
	}
	out := make(Poly, len(p))
	r.F.MulSlice(out, p, c)
	return trim(out)
}

// Mul returns the product p*q.
func (r *Ring) Mul(p, q Poly) Poly {
	p, q = trim(p), trim(q)
	if len(p) == 0 || len(q) == 0 {
		return nil
	}
	out := make(Poly, len(p)+len(q)-1)
	for i, pc := range p {
		if pc == 0 {
			continue
		}
		r.F.AddMulSlice(out[i:], q, pc)
	}
	return trim(out)
}

// DivMod returns the quotient and remainder of p divided by d.
// It panics when d is the zero polynomial.
func (r *Ring) DivMod(p, d Poly) (quo, rem Poly) {
	d = trim(d)
	if len(d) == 0 {
		panic("gfpoly: division by zero polynomial")
	}
	rem = p.Clone()
	rem = trim(rem)
	dd := len(d) - 1
	lcInv := r.F.Inv(d[dd])
	if len(rem)-1 < dd {
		return nil, rem
	}
	quo = make(Poly, len(rem)-dd)
	for len(rem)-1 >= dd {
		shift := len(rem) - 1 - dd
		factor := r.F.Mul(rem[len(rem)-1], lcInv)
		quo[shift] = factor
		r.F.AddMulSlice(rem[shift:], d, factor)
		rem = trim(rem)
		if len(rem) == 0 {
			break
		}
	}
	return trim(quo), rem
}

// ModXPow returns p mod x^k, i.e. p truncated to degree < k.
func (r *Ring) ModXPow(p Poly, k int) Poly {
	if len(p) <= k {
		return trim(p)
	}
	return trim(p[:k].Clone())
}

// Eval evaluates p at x using Horner's method.
func (r *Ring) Eval(p Poly, x gf.Elem) gf.Elem {
	var acc gf.Elem
	for i := len(p) - 1; i >= 0; i-- {
		acc = r.F.Mul(acc, x) ^ p[i]
	}
	return acc
}
