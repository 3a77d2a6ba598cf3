package gfpoly

import "repro/internal/gf"

// The constructions below are test fixtures: production code needs
// none of them, and the tests use them to exercise Mul, Add and Eval
// against polynomials with known roots, derivatives and shifts.

// MulXPow returns p * x^k, shifting coefficients up by k (k >= 0).
func (r *Ring) MulXPow(p Poly, k int) Poly {
	p = trim(p)
	if len(p) == 0 {
		return nil
	}
	out := make(Poly, len(p)+k)
	copy(out[k:], p)
	return out
}

// Deriv returns the formal derivative of p. In characteristic 2 the
// even-power terms vanish: d/dx sum(c_i x^i) = sum over odd i of
// c_i x^(i-1).
func (r *Ring) Deriv(p Poly) Poly {
	if len(p) <= 1 {
		return nil
	}
	out := make(Poly, len(p)-1)
	for i := 1; i < len(p); i += 2 {
		out[i-1] = p[i]
	}
	return trim(out)
}

// FromRoots returns the monic polynomial with the given roots:
// prod_i (x - roots[i]).
func (r *Ring) FromRoots(roots []gf.Elem) Poly {
	p := One()
	for _, root := range roots {
		// (x + root) in characteristic 2.
		p = r.Mul(p, Poly{root, 1})
	}
	return p
}

// LocatorFromPositions returns the classic locator polynomial
// prod_i (1 - x*alpha^pos_i), whose roots are alpha^(-pos_i). It is
// used for Reed-Solomon erasure locators.
func (r *Ring) LocatorFromPositions(positions []int) Poly {
	p := One()
	for _, pos := range positions {
		p = r.Mul(p, Poly{1, r.F.Exp(pos)})
	}
	return p
}

// Roots exhaustively finds the roots of p among all field elements
// (Chien-search style over the full field). Returned in increasing
// element order. The zero polynomial has every element as a root and
// returns nil to signal the degenerate case.
func (r *Ring) Roots(p Poly) []gf.Elem {
	if p.IsZero() {
		return nil
	}
	var roots []gf.Elem
	for e := 0; e < r.F.Size(); e++ {
		if r.Eval(p, gf.Elem(e)) == 0 {
			roots = append(roots, gf.Elem(e))
		}
	}
	return roots
}
