// Package scrub provides scrubbing schedules for the memory
// simulator. Scrubbing — periodically reading a codeword, correcting
// it and rewriting it — is the paper's mechanism against accumulation
// of transient errors (Section 2, ref [2]).
//
// Two schedules are provided: the deterministic periodic schedule real
// memory controllers implement, and the exponential schedule that
// matches the Markov models' rate-1/Tsc treatment exactly. Comparing
// the two quantifies the modeling error of the exponential
// approximation (an ablation bench in the repository root). Clock
// interleaves a schedule with the Poisson fault arrivals of one
// simulated trial, optionally tilted for importance sampling, and
// returns the trial's likelihood ratio.
package scrub

import (
	"math"
	"math/rand"
)

// Scheduler yields successive scrub instants. Implementations are
// stateless with respect to Next: the next scrub time is derived from
// the query time, so callers may skip forward freely.
type Scheduler interface {
	// Next returns the first scrub instant strictly after t, or
	// +Inf when no scrub will ever happen.
	Next(t float64) float64
}

// Never is the no-scrubbing schedule.
type Never struct{}

// Next always returns +Inf.
func (Never) Next(float64) float64 { return math.Inf(1) }

// Periodic scrubs at the multiples i*Period (all integers i), the
// deterministic schedule of a real memory controller, with the
// mission clock starting on a scrub boundary; Next returns the first
// boundary strictly after the query time.
type Periodic struct {
	Period float64 // hours between scrubs, > 0
}

// Next returns the first multiple of Period strictly after t. A
// non-finite query time (a simulator that ran off the end of its
// horizon, or a NaN from an upstream computation) has no boundary
// strictly after it, so Next returns +Inf instead of looping on
// Inf <= Inf forever.
func (p Periodic) Next(t float64) float64 {
	if p.Period <= 0 {
		return math.Inf(1)
	}
	if math.IsInf(t, 0) || math.IsNaN(t) {
		return math.Inf(1)
	}
	k := math.Floor(t / p.Period)
	next := (k + 1) * p.Period
	for next <= t { // guard against floating-point landing at or before t
		stepped := next + p.Period
		if stepped == next {
			// Period is below the float spacing at |t|'s magnitude, so
			// stepping cannot reach past t and the pre-fix code would
			// loop forever. Give up with +Inf: for the simulators'
			// forward-running clocks (t >= 0) this regime means the
			// schedule has out-lived float resolution and scrubbing is
			// over; a large-magnitude *negative* t also lands here
			// even though later boundaries exist, an accepted
			// imprecision for a query no in-repo caller can make.
			return math.Inf(1)
		}
		next = stepped
	}
	return next
}

// Exponential scrubs after exponentially distributed intervals with
// mean Period — the memoryless schedule assumed by the CTMC models.
type Exponential struct {
	Period float64 // mean hours between scrubs, > 0
	Rng    *rand.Rand
}

// Next samples the next scrub instant after t. Memorylessness makes
// sampling from the query time exact regardless of history. As with
// Periodic, a non-finite query time has no instant strictly after it,
// so Next returns +Inf (rather than -Inf/NaN arithmetic that would
// hang or silently disable a caller's scheduling loop).
func (e *Exponential) Next(t float64) float64 {
	if math.IsInf(t, 0) || math.IsNaN(t) {
		return math.Inf(1)
	}
	next := t + e.Rng.ExpFloat64()*e.Period
	if next == t {
		// The sampled interval is below the float spacing at this
		// magnitude. Handing t back would wedge the caller's event
		// loop at one instant, and +Inf would end scrubbing for the
		// rest of the trial, so round up to the next representable
		// instant.
		return math.Nextafter(t, math.Inf(1))
	}
	return next
}
