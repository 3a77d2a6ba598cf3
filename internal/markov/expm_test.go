package markov

import "math"

// The dense reference that the sparse uniformization solver
// (Transient) is checked against on small chains.

// generator returns the dense generator (infinitesimal rate) matrix Q
// of c, with Q[i][j] = rate i->j and Q[i][i] = -exit(i).
func generator(c *Chain) [][]float64 {
	q := make([][]float64, c.n)
	for i := range q {
		q[i] = make([]float64, c.n)
		for _, tr := range c.trans[i] {
			q[i][tr.To] += tr.Rate
		}
		q[i][i] = -c.exit[i]
	}
	return q
}

// denseExpm computes exp(Q*t) for a dense square matrix Q by
// scaling-and-squaring with a truncated Taylor series. It is O(n^3).
func denseExpm(q [][]float64, t float64) [][]float64 {
	n := len(q)
	a := make([][]float64, n)
	norm := 0.0
	for i := range a {
		a[i] = make([]float64, n)
		rowSum := 0.0
		for j := range a[i] {
			a[i][j] = q[i][j] * t
			rowSum += math.Abs(a[i][j])
		}
		if rowSum > norm {
			norm = rowSum
		}
	}
	// Scale so the Taylor series converges fast: ||A/2^s|| <= 0.5.
	s := 0
	for norm > 0.5 {
		norm /= 2
		s++
	}
	scale := math.Ldexp(1, -s)
	for i := range a {
		for j := range a[i] {
			a[i][j] *= scale
		}
	}

	// exp(A) by Taylor to machine precision at ||A|| <= 0.5.
	result := identity(n)
	term := identity(n)
	for k := 1; k <= 24; k++ {
		term = matMul(term, a)
		inv := 1 / float64(k)
		for i := range term {
			for j := range term[i] {
				term[i][j] *= inv
				result[i][j] += term[i][j]
			}
		}
	}
	for ; s > 0; s-- {
		result = matMul(result, result)
	}
	return result
}

func identity(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	return m
}

func matMul(a, b [][]float64) [][]float64 {
	n := len(a)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for l := 0; l < n; l++ {
			v := a[i][l]
			if v == 0 {
				continue
			}
			row := b[l]
			for j := range row {
				out[i][j] += v * row[j]
			}
		}
	}
	return out
}

// vecMatMul returns v * m for a row vector v.
func vecMatMul(v []float64, m [][]float64) []float64 {
	out := make([]float64, len(m[0]))
	for i, x := range v {
		if x == 0 {
			continue
		}
		for j, mij := range m[i] {
			out[j] += x * mij
		}
	}
	return out
}
