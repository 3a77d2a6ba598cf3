package scrub

import (
	"math"
	"math/rand"
)

// New returns the schedule a simulator configuration selects: Never
// unless period > 0, otherwise Exponential (drawing from rng) or
// Periodic.
func New(period float64, exponential bool, rng *rand.Rand) Scheduler {
	switch {
	case period > 0 && exponential:
		return &Exponential{Period: period, Rng: rng}
	case period > 0:
		return Periodic{Period: period}
	}
	return Never{}
}

// Event is what a Clock reports next.
type Event int

const (
	// Fault is a fault arrival: the caller draws its type and location.
	Fault Event = iota
	// Scrub is a scrub instant of the schedule.
	Scrub
	// Done means the next event would fall at or after the horizon.
	Done
)

// Clock is one trial's event source: Poisson fault arrivals at a total
// rate R0, optionally tilted to θ·R0 for importance sampling,
// interleaved with a scrub schedule over [0, horizon). It owns the
// trial's likelihood ratio, so the arrival draw and its correction
// live in one place for every simulator. A worker builds one Clock
// and calls Start once per trial; the Clock shares the worker's
// generator and draws from it in a fixed order: the first scrub
// instant at Start, then one exponential per Next, with the schedule
// stepped only on the call after a Scrub (once the caller has handled
// it).
type Clock struct {
	rng     *rand.Rand
	sched   Scheduler
	tilt    float64
	horizon float64

	rate      float64
	t         float64
	nextScrub float64
	scrubbed  bool
	arrivals  int
}

// NewClock builds a clock over the schedule. A tilt of 0 or 1 leaves
// the arrivals untilted; callers validate tilt >= 1 otherwise.
func NewClock(rng *rand.Rand, sched Scheduler, tilt, horizon float64) *Clock {
	if tilt == 0 {
		tilt = 1
	}
	return &Clock{rng: rng, sched: sched, tilt: tilt, horizon: horizon}
}

// Start begins a trial at t = 0 with the untilted total fault rate R0
// (per hour), drawing the first scrub instant.
func (c *Clock) Start(rate float64) {
	c.rate = rate
	c.t = 0
	c.nextScrub = c.sched.Next(0)
	c.scrubbed = false
	c.arrivals = 0
}

// Next advances to the next event and returns its time. A new arrival
// time is drawn on every call, also after a scrub: the exponential is
// memoryless, so the redraw leaves the arrival process unchanged.
func (c *Clock) Next() (float64, Event) {
	if c.scrubbed {
		c.scrubbed = false
		c.nextScrub = c.sched.Next(c.t)
	}
	tFault := math.Inf(1)
	if c.rate > 0 {
		tFault = c.t + c.rng.ExpFloat64()/(c.rate*c.tilt)
	}
	if c.nextScrub < tFault && c.nextScrub < c.horizon {
		c.t = c.nextScrub
		c.scrubbed = true
		return c.t, Scrub
	}
	if tFault >= c.horizon {
		return c.horizon, Done
	}
	c.t = tFault
	c.arrivals++
	return c.t, Fault
}

// LikelihoodRatio returns the trial's importance-sampling weight once
// Next has reported Done: the density of the untilted over the tilted
// arrival process on [0, horizon), exp((θ-1)·R0·H − k·ln θ) for k
// arrivals. The redraws at scrub instants telescope, so only the
// arrival count and the total exposure enter. It is 1 when untilted.
func (c *Clock) LikelihoodRatio() float64 {
	if c.tilt == 1 {
		return 1
	}
	return math.Exp((c.tilt-1)*c.rate*c.horizon - float64(c.arrivals)*math.Log(c.tilt))
}
