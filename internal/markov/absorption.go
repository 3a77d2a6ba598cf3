package markov

import (
	"fmt"
	"math"
)

// MeanTimeToAbsorption returns, for each state, the expected time
// until the chain first enters any absorbing state, starting from that
// state. Absorbing states have mean time 0. States that cannot reach
// an absorbing state have +Inf (they never absorb).
//
// For the memory models this is the mean time to data loss (MTTDL)
// when started from the Good state — a figure of merit the paper's
// BER(t) curves imply but never print, useful for mission planning.
//
// The computation solves the standard first-step equations
//
//	t_i = 1/q_i + sum_j P(i->j) t_j
//
// by Gaussian elimination with partial pivoting over the transient
// states (the chains here have at most a few thousand states, so the
// dense O(n^3) solve is immaterial next to transient solution).
func (c *Chain) MeanTimeToAbsorption() ([]float64, error) {
	absorbing := make([]bool, c.n)
	anyAbsorbing := false
	for i := 0; i < c.n; i++ {
		if c.IsAbsorbing(i) {
			absorbing[i] = true
			anyAbsorbing = true
		}
	}
	out := make([]float64, c.n)
	if !anyAbsorbing {
		for i := range out {
			out[i] = math.Inf(1)
		}
		return out, nil
	}

	// Identify transient states that can reach an absorbing state;
	// others have infinite expected time and must be excluded from
	// the linear system (it would be singular).
	reach := c.reachesAbsorbing(absorbing)

	var transient []int
	index := make([]int, c.n)
	for i := range index {
		index[i] = -1
	}
	for i := 0; i < c.n; i++ {
		if !absorbing[i] && reach[i] {
			index[i] = len(transient)
			transient = append(transient, i)
		}
	}
	m := len(transient)
	if m == 0 {
		for i := 0; i < c.n; i++ {
			if !absorbing[i] {
				out[i] = math.Inf(1)
			}
		}
		return out, nil
	}

	// Build A t = b with A = diag(q_i) - rates among transient states,
	// b_i = 1 (time accrues at unit rate). Rows for transitions into
	// non-reaching states keep their exit-rate contribution in q_i,
	// which is correct: sojourn ends either way. But a transition into
	// a never-absorbing state means infinite expected time, so such
	// states were excluded from `reach` already (a reaching state
	// cannot transition into a non-reaching one and still be
	// reaching... it can — with probability < 1. Expected time is then
	// infinite.) Guard: any reaching state with an arc into a
	// non-reaching transient state gets +Inf directly.
	for _, i := range transient {
		for _, tr := range c.trans[i] {
			if !absorbing[tr.To] && !reach[tr.To] {
				return nil, fmt.Errorf("markov: state %d reaches absorption only with probability < 1; mean time undefined", i)
			}
		}
	}

	a := make([][]float64, m)
	b := make([]float64, m)
	for r, i := range transient {
		a[r] = make([]float64, m)
		a[r][r] = c.exit[i]
		b[r] = 1
		for _, tr := range c.trans[i] {
			if j := index[tr.To]; j >= 0 {
				a[r][j] -= tr.Rate
			}
		}
	}
	t, err := solveDense(a, b)
	if err != nil {
		return nil, err
	}
	for i := 0; i < c.n; i++ {
		switch {
		case absorbing[i]:
			out[i] = 0
		case index[i] >= 0:
			out[i] = t[index[i]]
		default:
			out[i] = math.Inf(1)
		}
	}
	return out, nil
}

// reachesAbsorbing marks states from which some absorbing state is
// reachable (reverse BFS over the transition graph).
func (c *Chain) reachesAbsorbing(absorbing []bool) []bool {
	// Build reverse adjacency.
	radj := make([][]int, c.n)
	for i := 0; i < c.n; i++ {
		for _, tr := range c.trans[i] {
			radj[tr.To] = append(radj[tr.To], i)
		}
	}
	reach := make([]bool, c.n)
	var queue []int
	for i := 0; i < c.n; i++ {
		if absorbing[i] {
			reach[i] = true
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, p := range radj[s] {
			if !reach[p] {
				reach[p] = true
				queue = append(queue, p)
			}
		}
	}
	return reach
}

// solveDense solves a*x = b by Gaussian elimination with partial
// pivoting, destroying a and b.
func solveDense(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if a[pivot][col] == 0 {
			return nil, fmt.Errorf("markov: singular first-step system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for k := r + 1; k < n; k++ {
			sum -= a[r][k] * x[k]
		}
		x[r] = sum / a[r][r]
	}
	return x, nil
}
