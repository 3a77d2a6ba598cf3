package markov

import (
	"math"
	"testing"
)

func TestMeanTimeToAbsorptionTwoState(t *testing.T) {
	lambda := 0.4
	c, _ := NewChain(2)
	_ = c.AddTransition(0, 1, lambda)
	mtta, err := c.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(mtta[0], 1/lambda, 1e-12) {
		t.Errorf("MTTA from 0 = %v, want %v", mtta[0], 1/lambda)
	}
	if mtta[1] != 0 {
		t.Errorf("MTTA of absorbing state = %v, want 0", mtta[1])
	}
}

func TestMeanTimeToAbsorptionErlang(t *testing.T) {
	// k sequential stages at rate r: MTTA = k/r.
	const k = 6
	r := 2.5
	c, _ := NewChain(k + 1)
	for i := 0; i < k; i++ {
		_ = c.AddTransition(i, i+1, r)
	}
	mtta, err := c.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(mtta[0], float64(k)/r, 1e-10) {
		t.Errorf("MTTA = %v, want %v", mtta[0], float64(k)/r)
	}
	// From stage i, remaining time is (k-i)/r.
	for i := 0; i <= k; i++ {
		want := float64(k-i) / r
		if !relClose(mtta[i], want, 1e-10) {
			t.Errorf("MTTA from %d = %v, want %v", i, mtta[i], want)
		}
	}
}

func TestMeanTimeToAbsorptionWithRepair(t *testing.T) {
	// 0 <-> 1 -> 2(absorbing): birth a, repair b, death d.
	// Standard first-step analysis:
	//   t0 = 1/a + t1
	//   t1 = 1/(b+d) + b/(b+d) * t0
	a, bb, d := 1.0, 3.0, 0.5
	c, _ := NewChain(3)
	_ = c.AddTransition(0, 1, a)
	_ = c.AddTransition(1, 0, bb)
	_ = c.AddTransition(1, 2, d)
	mtta, err := c.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	t1 := (1/(bb+d) + bb/(bb+d)/a) / (1 - bb/(bb+d))
	t0 := 1/a + t1
	if !relClose(mtta[0], t0, 1e-10) || !relClose(mtta[1], t1, 1e-10) {
		t.Errorf("MTTA = %v, want [%v %v 0]", mtta, t0, t1)
	}
}

func TestMeanTimeToAbsorptionNoAbsorbing(t *testing.T) {
	c, _ := NewChain(2)
	_ = c.AddTransition(0, 1, 1)
	_ = c.AddTransition(1, 0, 1)
	mtta, err := c.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(mtta[0], 1) || !math.IsInf(mtta[1], 1) {
		t.Errorf("MTTA without absorbing states = %v, want +Inf", mtta)
	}
}

func TestMeanTimeToAbsorptionUnreachable(t *testing.T) {
	// State 2 is absorbing; state 3 spins with 4 forever and cannot
	// reach it: its MTTA must be +Inf while 0 and 1 are finite.
	c, _ := NewChain(5)
	_ = c.AddTransition(0, 1, 1)
	_ = c.AddTransition(1, 2, 1)
	_ = c.AddTransition(3, 4, 1)
	_ = c.AddTransition(4, 3, 1)
	mtta, err := c.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(mtta[0], 2, 1e-10) {
		t.Errorf("MTTA[0] = %v, want 2", mtta[0])
	}
	if !math.IsInf(mtta[3], 1) || !math.IsInf(mtta[4], 1) {
		t.Errorf("unreachable states should have +Inf, got %v", mtta[3:])
	}
}

func TestMeanTimeToAbsorptionPartialReachRejected(t *testing.T) {
	// From state 0: to absorbing 1, or to sink-cycle 2<->3 that never
	// absorbs. Expected time is infinite; the solver must say so
	// rather than return a finite number.
	c, _ := NewChain(4)
	_ = c.AddTransition(0, 1, 1)
	_ = c.AddTransition(0, 2, 1)
	_ = c.AddTransition(2, 3, 1)
	_ = c.AddTransition(3, 2, 1)
	if _, err := c.MeanTimeToAbsorption(); err == nil {
		t.Error("probability-deficient absorption accepted")
	}
}

func TestMeanTimeMatchesTransientIntegral(t *testing.T) {
	// MTTA = integral of survival probability. Cross-check the linear
	// solve against numerically integrating the transient solution.
	c, _ := NewChain(4)
	_ = c.AddTransition(0, 1, 0.7)
	_ = c.AddTransition(1, 0, 0.2)
	_ = c.AddTransition(1, 2, 0.5)
	_ = c.AddTransition(2, 3, 1.1)
	_ = c.AddTransition(2, 0, 0.1)
	mtta, err := c.MeanTimeToAbsorption()
	if err != nil {
		t.Fatal(err)
	}
	p0 := []float64{1, 0, 0, 0}
	integral := 0.0
	dt := 0.05
	for tt := 0.0; tt < 200; tt += dt {
		p, err := c.Transient(p0, tt+dt/2)
		if err != nil {
			t.Fatal(err)
		}
		integral += (1 - p[3]) * dt
	}
	if math.Abs(integral-mtta[0])/mtta[0] > 0.01 {
		t.Errorf("MTTA = %v but survival integral = %v", mtta[0], integral)
	}
}
