package scrub

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestNeverNext(t *testing.T) {
	var n Never
	if !math.IsInf(n.Next(0), 1) || !math.IsInf(n.Next(1e9), 1) {
		t.Error("Never must return +Inf")
	}
}

func TestNewPeriodicValidation(t *testing.T) {
	if _, err := NewPeriodic(0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewPeriodic(-1); err == nil {
		t.Error("negative period accepted")
	}
	if _, err := NewPeriodic(math.NaN()); err == nil {
		t.Error("NaN period accepted")
	}
	if _, err := NewPeriodic(math.Inf(1)); err == nil {
		t.Error("infinite period accepted")
	}
	p, err := NewPeriodic(0.25)
	if err != nil || p.Period != 0.25 {
		t.Fatalf("NewPeriodic: %v %v", p, err)
	}
}

func TestPeriodicSequence(t *testing.T) {
	p, _ := NewPeriodic(0.25)
	want := []float64{0.25, 0.5, 0.75, 1.0}
	t0 := 0.0
	for _, w := range want {
		next := p.Next(t0)
		if math.Abs(next-w) > 1e-12 {
			t.Fatalf("Next(%v) = %v, want %v", t0, next, w)
		}
		t0 = next
	}
}

func TestPeriodicStrictlyAfter(t *testing.T) {
	p, _ := NewPeriodic(1)
	if got := p.Next(3); got <= 3 {
		t.Errorf("Next(3) = %v, want > 3", got)
	}
	if got := p.Next(3); math.Abs(got-4) > 1e-12 {
		t.Errorf("Next(3) = %v, want 4 (3 is a boundary, next is strictly after)", got)
	}
	if got := p.Next(2.5); math.Abs(got-3) > 1e-12 {
		t.Errorf("Next(2.5) = %v, want 3", got)
	}
}

func TestPeriodicOffset(t *testing.T) {
	p := Periodic{Period: 2, Offset: 0.5}
	if got := p.Next(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Next(0) = %v, want 0.5", got)
	}
	if got := p.Next(0.5); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("Next(0.5) = %v, want 2.5", got)
	}
	if got := p.Next(2.5); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("Next(2.5) = %v, want 4.5", got)
	}
}

// TestNonFiniteQueryTerminates is the regression test for the
// scheduler hang: Periodic.Next(+Inf) used to spin forever in the
// guard loop (next += Period never escapes Inf <= Inf), and
// Exponential.Next propagated -Inf/NaN into its caller's scheduling
// loop. Every scheduler must return +Inf for a non-finite query. The
// calls run in a goroutine under a deadline so a reintroduced hang
// fails the test instead of wedging the suite.
func TestNonFiniteQueryTerminates(t *testing.T) {
	p, _ := NewPeriodic(4)
	e, _ := NewExponential(4, rand.New(rand.NewSource(1)))
	scheds := map[string]Scheduler{"periodic": p, "exponential": e, "never": Never{}}
	for name, s := range scheds {
		// 1e16 exercises the finite variant of the hang: the period is
		// below the float spacing there, so a scheduler that cannot
		// land strictly after t must give up with +Inf rather than
		// spin or return t itself.
		for _, q := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1e16} {
			done := make(chan float64, 1)
			go func() { done <- s.Next(q) }()
			select {
			case got := <-done:
				if math.IsInf(q, 0) || math.IsNaN(q) {
					if !math.IsInf(got, 1) {
						t.Errorf("%s: Next(%v) = %v, want +Inf", name, q, got)
					}
				} else if !(got > q) {
					t.Errorf("%s: Next(%v) = %v, want strictly after", name, q, got)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: Next(%v) did not return within deadline", name, q)
			}
		}
	}
}

func TestPeriodicZeroValueSafe(t *testing.T) {
	var p Periodic
	if !math.IsInf(p.Next(0), 1) {
		t.Error("zero-value Periodic should never scrub")
	}
}

func TestNewExponentialValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewExponential(0, rng); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := NewExponential(1, nil); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := NewExponential(math.NaN(), rng); err == nil {
		t.Error("NaN period accepted")
	}
}

func TestExponentialStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, err := NewExponential(0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	const samples = 200000
	var sum, sumSq float64
	t0 := 0.0
	for i := 0; i < samples; i++ {
		next := e.Next(t0)
		d := next - t0
		if d <= 0 {
			t.Fatal("nonpositive interval")
		}
		sum += d
		sumSq += d * d
		t0 = next
	}
	mean := sum / samples
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean interval %v, want 0.5", mean)
	}
	// Exponential: variance = mean^2.
	variance := sumSq/samples - mean*mean
	if math.Abs(variance-0.25) > 0.02 {
		t.Errorf("variance %v, want 0.25", variance)
	}
}

func TestSchedulerInterfaceCompliance(t *testing.T) {
	var _ Scheduler = Never{}
	var _ Scheduler = Periodic{}
	var _ Scheduler = (*Exponential)(nil)
}

func TestNewSelectsSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, period := range []float64{0, -1, math.NaN()} {
		if _, ok := New(period, true, rng).(Never); !ok {
			t.Errorf("New(%v) did not disable scrubbing", period)
		}
	}
	if p, ok := New(2, false, rng).(Periodic); !ok || p.Period != 2 {
		t.Errorf("New(2, periodic) = %#v", New(2, false, rng))
	}
	if e, ok := New(2, true, rng).(*Exponential); !ok || e.Period != 2 || e.Rng != rng {
		t.Errorf("New(2, exponential) = %#v", New(2, true, rng))
	}
}

// TestClockEvents: scrub instants and arrivals come out in time order,
// Done ends the horizon, and the likelihood ratio is
// exp((θ-1)·R0·H − k·ln θ) over the k reported arrivals.
func TestClockEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewClock(rng, Periodic{Period: 1}, 0, 3.5)
	c.Start(0)
	for _, want := range []float64{1, 2, 3} {
		if at, ev := c.Next(); ev != Scrub || at != want {
			t.Fatalf("got (%v, %v), want a scrub at %v", at, ev, want)
		}
	}
	if _, ev := c.Next(); ev != Done {
		t.Fatalf("got %v after the last scrub, want Done", ev)
	}
	if lr := c.LikelihoodRatio(); lr != 1 {
		t.Errorf("untilted likelihood ratio %v, want 1", lr)
	}

	const rate, tilt, horizon = 0.5, 4.0, 10.0
	c = NewClock(rng, Periodic{Period: 1}, tilt, horizon)
	c.Start(rate)
	last, faults, scrubs := 0.0, 0, 0
	for {
		at, ev := c.Next()
		if ev == Done {
			break
		}
		if at <= last || at >= horizon {
			t.Fatalf("event at %v after %v (horizon %v)", at, last, horizon)
		}
		last = at
		if ev == Fault {
			faults++
		} else {
			scrubs++
		}
	}
	if scrubs != 9 || faults == 0 {
		t.Fatalf("%d scrubs and %d faults, want 9 and some", scrubs, faults)
	}
	want := math.Exp((tilt-1)*rate*horizon - float64(faults)*math.Log(tilt))
	if lr := c.LikelihoodRatio(); lr != want {
		t.Errorf("likelihood ratio %v, want %v", lr, want)
	}
}
