// Package markov provides a continuous-time Markov chain (CTMC)
// engine: sparse chain construction, automated state-space exploration
// from a model description, and transient solution by uniformization.
//
// It is the stand-in for NASA's SURE solver used by the DATE'05 paper:
// the memory-system models in internal/simplex and internal/duplex
// describe their states and transition rates through the Model
// interface, this package explores the reachable state space, builds
// the generator matrix and computes time-dependent state probabilities
// BER evaluation needs.
//
// Numerical note: uniformization (Jensen's method) expresses the
// transient distribution as a Poisson-weighted sum of powers of a
// sub-stochastic matrix. Every term is nonnegative, so probabilities
// that are astronomically small — the paper's Figures 9 and 10 reach
// 1e-60 .. 1e-200 — are computed without catastrophic cancellation,
// limited only by float64 underflow near 1e-308.
package markov

import (
	"fmt"
	"math"
	"sort"
)

// Transition is one outgoing CTMC transition: to a target state with
// an exponential rate (per unit time).
type Transition struct {
	To   int
	Rate float64
}

// Chain is a finite-state CTMC with states 0..N-1. Build one directly
// with NewChain/AddTransition or through Build and a Model.
type Chain struct {
	n     int
	trans [][]Transition // trans[i] = outgoing transitions of state i
	exit  []float64      // exit[i] = total outgoing rate of state i
}

// NewChain returns an empty chain with n states and no transitions.
func NewChain(n int) (*Chain, error) {
	if n <= 0 {
		return nil, fmt.Errorf("markov: chain needs at least one state, got %d", n)
	}
	return &Chain{
		n:     n,
		trans: make([][]Transition, n),
		exit:  make([]float64, n),
	}, nil
}

// NumStates returns the number of states.
func (c *Chain) NumStates() int { return c.n }

// AddTransition adds a transition from state i to state j at the given
// rate. Multiple transitions between the same pair accumulate.
// Self-loops are rejected: they are meaningless in a CTMC generator.
func (c *Chain) AddTransition(i, j int, rate float64) error {
	switch {
	case i < 0 || i >= c.n:
		return fmt.Errorf("markov: source state %d out of range [0,%d)", i, c.n)
	case j < 0 || j >= c.n:
		return fmt.Errorf("markov: target state %d out of range [0,%d)", j, c.n)
	case i == j:
		return fmt.Errorf("markov: self-loop on state %d", i)
	case rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0):
		return fmt.Errorf("markov: invalid rate %v from %d to %d", rate, i, j)
	}
	if rate == 0 {
		return nil // zero-rate transitions never fire; drop them
	}
	for idx := range c.trans[i] {
		if c.trans[i][idx].To == j {
			c.trans[i][idx].Rate += rate
			c.exit[i] += rate
			return nil
		}
	}
	c.trans[i] = append(c.trans[i], Transition{To: j, Rate: rate})
	c.exit[i] += rate
	return nil
}

// Transitions returns the outgoing transitions of state i sorted by
// target. The returned slice is a copy.
func (c *Chain) Transitions(i int) []Transition {
	out := make([]Transition, len(c.trans[i]))
	copy(out, c.trans[i])
	sort.Slice(out, func(a, b int) bool { return out[a].To < out[b].To })
	return out
}

// IsAbsorbing reports whether state i has no outgoing transitions.
func (c *Chain) IsAbsorbing(i int) bool { return len(c.trans[i]) == 0 }

// MaxExitRate returns the largest total exit rate over all states —
// the uniformization constant lower bound.
func (c *Chain) MaxExitRate() float64 {
	var q float64
	for _, e := range c.exit {
		if e > q {
			q = e
		}
	}
	return q
}
