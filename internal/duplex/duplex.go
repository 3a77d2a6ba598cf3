// Package duplex implements the continuous-time Markov chain model of
// the paper's duplex memory arrangement: two replicated RS(n,k)-coded
// modules behind an erasure-masking, flag-comparing arbiter (paper
// Sections 3-5, Figures 3-4).
//
// Each state is the 6-tuple (X, Y, b, e1, e2, ec) of Figure 3,
// classifying the n symbol positions of the replicated word pair:
//
//	X  — erasures on the same symbol of both words (unmaskable);
//	Y  — erasure on one word only, the twin symbol error-free
//	     (maskable by the arbiter's erasure-recovery step);
//	b  — erasure on one word and a random error on the twin symbol;
//	e1 — random error in word 1 only;
//	e2 — random error in word 2 only;
//	ec — random errors in corresponding symbols of both words.
//
// After erasure recovery masks the Y positions, word w must satisfy
//
//	X + 2*b + 2*ec + 2*e_w <= n - k
//
// to decode. Following the paper ("the ability of the system to
// provide a correct output ... is limited on each module by the
// condition"), the pair is unrecoverable (absorbing Fail state) as
// soon as either word violates its condition: once one module's word
// mis-corrects, the arbiter sees two flagged, differing words and
// cannot discriminate, so it provides no output. This is what makes
// the duplex BER under pure SEU match the simplex range (paper
// Figures 5 vs 6) while the arbiter's Y-masking still gives the
// duplex its large advantage under permanent faults (Figures 8 vs 9).
// Scrubbing rewrites corrected
// data at rate 1/Tsc, clearing transient errors while permanent
// faults persist: (X, Y, b, e1, e2, ec) -> (X, Y+b, 0, 0, 0, 0).
package duplex

import (
	"fmt"

	"repro/internal/markov"
)

// State is one Markov state of the duplex model; the zero value is
// the initial Good state (all positions clean in both words).
type State struct {
	X    int  // double erasures (same position, both words)
	Y    int  // single erasures (twin symbol clean)
	B    int  // erasure on one word + random error on the twin
	E1   int  // random errors only in word 1
	E2   int  // random errors only in word 2
	Ec   int  // random errors in both words at the same position
	Fail bool // absorbing unrecoverable state
}

// String renders the state in the paper's 6-tuple notation.
func (s State) String() string {
	if s.Fail {
		return "FAIL"
	}
	return fmt.Sprintf("(%d,%d,%d,%d,%d,%d)", s.X, s.Y, s.B, s.E1, s.E2, s.Ec)
}

var fail = State{Fail: true}

// Options selects between paper-faithful transition rates and
// dimensionally consistent variants for the two spots where the paper
// text is ambiguous — the b->X rate and the single-counted erasure
// rates — and between the paper's arbiter and an idealized one.
// BenchmarkAblationPaperBRate, BenchmarkAblationDoubleSidedErasures
// and BenchmarkAblationDuplexFailSemantics in the repository root
// measure each. The SEU side has no variant: the paper models the two
// words with separate e1/e2 transitions, so it is not ambiguous.
type Options struct {
	// BRateUsesY reproduces the paper's literal rate "lambda_e * Y"
	// for the transition converting a b position into an X position
	// (state B of Figure 4). The default (false) uses lambda_e * b,
	// the dimensionally consistent reading.
	BRateUsesY bool
	// DoubleSidedErasures doubles the erasure rates of events that
	// can strike either of the two module symbols at a position
	// (clean->Y and ec->b), which the paper counts once. Off by
	// default for paper fidelity; exposed for the ablation bench.
	DoubleSidedErasures bool
	// EitherWordSuffices relaxes the fail condition so the system
	// survives while at least ONE word decodes (an idealized arbiter
	// that always knows which correction to trust). The paper's
	// arbiter cannot discriminate two flagged, differing words, so
	// the default (false) fails as soon as either word exceeds its
	// capability. The ablation bench quantifies the gap.
	EitherWordSuffices bool
}

// Params configures the duplex model. All rates are per hour; use
// internal/reliability to convert from the paper's per-day figures.
type Params struct {
	N int // codeword symbols per module
	K int // dataword symbols
	M int // bits per symbol

	Lambda    float64 // SEU rate per bit per hour (per module)
	LambdaE   float64 // erasure rate per symbol per hour (per module)
	ScrubRate float64 // scrub rate 1/Tsc per hour; 0 disables scrubbing

	Opts Options
}

// Validate checks structural and rate sanity.
func (p Params) Validate() error {
	switch {
	case p.N <= 0 || p.K <= 0 || p.K >= p.N:
		return fmt.Errorf("duplex: invalid code RS(%d,%d)", p.N, p.K)
	case p.M <= 0 || p.M > 16:
		return fmt.Errorf("duplex: invalid symbol width m=%d", p.M)
	case p.N > 1<<uint(p.M)-1:
		return fmt.Errorf("duplex: n=%d exceeds 2^%d-1", p.N, p.M)
	case p.Lambda < 0 || p.LambdaE < 0 || p.ScrubRate < 0:
		return fmt.Errorf("duplex: negative rate (lambda=%g lambdaE=%g scrub=%g)",
			p.Lambda, p.LambdaE, p.ScrubRate)
	}
	return nil
}

// WordRecoverable reports whether word w (1 or 2) satisfies its
// post-masking capability condition X + 2b + 2ec + 2e_w <= n-k.
func (p Params) WordRecoverable(s State, w int) bool {
	e := s.E1
	if w == 2 {
		e = s.E2
	}
	return s.X+2*s.B+2*s.Ec+2*e <= p.N-p.K
}

// Recoverable reports whether the arbiter can still produce a correct
// output. By default both words must decode (see the package comment);
// with Opts.EitherWordSuffices one surviving word is enough.
func (p Params) Recoverable(s State) bool {
	if p.Opts.EitherWordSuffices {
		return p.WordRecoverable(s, 1) || p.WordRecoverable(s, 2)
	}
	return p.WordRecoverable(s, 1) && p.WordRecoverable(s, 2)
}

// occupied returns the number of positions carrying any fault class.
func (s State) occupied() int { return s.X + s.Y + s.B + s.E1 + s.E2 + s.Ec }

// guard maps a candidate successor to itself when still recoverable
// and to the absorbing Fail state otherwise.
func (p Params) guard(s State) State {
	if s.Fail || !p.Recoverable(s) {
		return fail
	}
	return s
}

// Transitions returns the outgoing arcs of a state: the erasure events
// A-H and the random-error events I, L, M, N, O of paper Figure 4,
// plus scrubbing. Events on already-erased module symbols and second
// bit flips within one symbol leave the state unchanged and are
// omitted (self-loops are meaningless in a CTMC).
func (p Params) Transitions(s State) []markov.Arc[State] {
	if s.Fail {
		return nil
	}
	free := p.N - s.occupied()
	seu := float64(p.M) * p.Lambda // per module-symbol SEU rate
	side := 1.0
	if p.Opts.DoubleSidedErasures {
		side = 2
	}

	arcs := make([]markov.Arc[State], 0, 14)
	add := func(to State, rate float64) {
		if rate > 0 {
			arcs = append(arcs, markov.Arc[State]{To: p.guard(to), Rate: rate})
		}
	}

	if p.LambdaE > 0 {
		// A: erasure on the clean twin of a Y position -> X.
		if s.Y > 0 {
			add(State{X: s.X + 1, Y: s.Y - 1, B: s.B, E1: s.E1, E2: s.E2, Ec: s.Ec},
				p.LambdaE*float64(s.Y))
		}
		// B: erasure on the errored side of a b position -> X (the
		// located fault subsumes the random error). The paper prints
		// rate lambda_e*Y here; lambda_e*b is the consistent reading.
		if s.B > 0 {
			mult := float64(s.B)
			if p.Opts.BRateUsesY {
				mult = float64(s.Y)
			}
			add(State{X: s.X + 1, Y: s.Y, B: s.B - 1, E1: s.E1, E2: s.E2, Ec: s.Ec},
				p.LambdaE*mult)
		}
		// C: erasure on a fully clean position -> Y.
		if free > 0 {
			add(State{X: s.X, Y: s.Y + 1, B: s.B, E1: s.E1, E2: s.E2, Ec: s.Ec},
				side*p.LambdaE*float64(free))
		}
		// D/E: erasure overtaking the errored word of an e1/e2
		// position (twin clean) -> Y.
		if s.E1 > 0 {
			add(State{X: s.X, Y: s.Y + 1, B: s.B, E1: s.E1 - 1, E2: s.E2, Ec: s.Ec},
				p.LambdaE*float64(s.E1))
		}
		if s.E2 > 0 {
			add(State{X: s.X, Y: s.Y + 1, B: s.B, E1: s.E1, E2: s.E2 - 1, Ec: s.Ec},
				p.LambdaE*float64(s.E2))
		}
		// F: erasure on one side of an ec position -> b.
		if s.Ec > 0 {
			add(State{X: s.X, Y: s.Y, B: s.B + 1, E1: s.E1, E2: s.E2, Ec: s.Ec - 1},
				side*p.LambdaE*float64(s.Ec))
		}
		// G/H: erasure on the clean twin of an e1/e2 position -> b.
		if s.E1 > 0 {
			add(State{X: s.X, Y: s.Y, B: s.B + 1, E1: s.E1 - 1, E2: s.E2, Ec: s.Ec},
				p.LambdaE*float64(s.E1))
		}
		if s.E2 > 0 {
			add(State{X: s.X, Y: s.Y, B: s.B + 1, E1: s.E1, E2: s.E2 - 1, Ec: s.Ec},
				p.LambdaE*float64(s.E2))
		}
	}

	if p.Lambda > 0 {
		// I: SEU on the clean twin of a Y position -> b.
		if s.Y > 0 {
			add(State{X: s.X, Y: s.Y - 1, B: s.B + 1, E1: s.E1, E2: s.E2, Ec: s.Ec},
				seu*float64(s.Y))
		}
		// L/M: SEU on a clean position, word 1 or word 2.
		if free > 0 {
			add(State{X: s.X, Y: s.Y, B: s.B, E1: s.E1 + 1, E2: s.E2, Ec: s.Ec},
				seu*float64(free))
			add(State{X: s.X, Y: s.Y, B: s.B, E1: s.E1, E2: s.E2 + 1, Ec: s.Ec},
				seu*float64(free))
		}
		// N/O: SEU on the clean twin of an e1/e2 position -> ec.
		if s.E1 > 0 {
			add(State{X: s.X, Y: s.Y, B: s.B, E1: s.E1 - 1, E2: s.E2, Ec: s.Ec + 1},
				seu*float64(s.E1))
		}
		if s.E2 > 0 {
			add(State{X: s.X, Y: s.Y, B: s.B, E1: s.E1, E2: s.E2 - 1, Ec: s.Ec + 1},
				seu*float64(s.E2))
		}
	}

	// Scrubbing: transient errors cleared, permanent faults persist.
	// A b position keeps its single-word erasure and becomes Y.
	if p.ScrubRate > 0 {
		scrubbed := State{X: s.X, Y: s.Y + s.B}
		if scrubbed != s {
			add(scrubbed, p.ScrubRate)
		}
	}
	return arcs
}

// MaxStates is the default exploration bound. The duplex space for
// RS(18,16) has a few thousand reachable states; wider codes grow
// combinatorially, so Build takes an explicit budget.
const MaxStates = 300000

// Build explores the model's state space and returns the CTMC. The
// initial state (index 0) is the all-clean Good state.
func Build(p Params) (*markov.Explored[State], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return markov.Build(State{}, p.Transitions, MaxStates)
}

// FailProbabilities solves the chain transiently and returns the Fail
// state probability at each time (hours, nondecreasing).
func FailProbabilities(p Params, times []float64) ([]float64, error) {
	ex, err := Build(p)
	if err != nil {
		return nil, err
	}
	series, err := ex.Chain.TransientSeries(ex.InitialVector(), times)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(times))
	for i, dist := range series {
		out[i] = ex.ProbabilityOf(dist, func(s State) bool { return s.Fail })
	}
	return out, nil
}
