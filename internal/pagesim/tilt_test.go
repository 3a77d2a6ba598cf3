package pagesim

import (
	"math"
	"testing"

	"repro/internal/campaign"
)

// TestTiltUnbiasedPageLoss: pagesim has no analytic chain to
// cross-validate against, so the tilt's unbiasedness is checked
// against the simulator itself — a brute-force untilted run and a
// tilted run at a fraction of the trials must agree on the page_loss
// probability within their combined standard errors, while the tilted
// arm observes far more loss events per trial.
func TestTiltUnbiasedPageLoss(t *testing.T) {
	base := Config{
		Depth:        4,
		LambdaBit:    2e-5,
		LambdaColumn: 5e-7,
		ScrubPeriod:  4,
		Horizon:      24,
		Seed:         9,
	}

	run := func(cfg Config) *campaign.Result {
		t.Helper()
		scn, err := Scenario(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := campaign.Run(scn, campaign.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return cres
	}

	plain := base
	plain.Trials = 150000
	pres := run(plain)
	pEst := pres.WeightedFraction(CounterPageLoss)
	pSE := pres.StdErr(CounterPageLoss)
	if pres.Counter(CounterPageLoss) < 30 {
		t.Fatalf("untilted reference saw only %d losses; regime too rare for a brute-force baseline",
			pres.Counter(CounterPageLoss))
	}
	if pres.Weights != nil {
		t.Error("untilted run must not carry weight moments")
	}

	tilted := base
	tilted.Trials = 15000
	tilted.TiltFactor = 8
	tres := run(tilted)
	tEst := tres.WeightedFraction(CounterPageLoss)
	tSE := tres.StdErr(CounterPageLoss)
	if tSE <= 0 {
		t.Fatal("tilted run has no standard error; no weighted losses recorded")
	}

	// The two estimators target the same probability; 4 combined
	// sigma keeps the fixed-seed check far from the noise floor.
	sigma := math.Sqrt(pSE*pSE + tSE*tSE)
	if diff := math.Abs(tEst - pEst); diff > 4*sigma {
		t.Errorf("tilted estimate %.4e disagrees with untilted %.4e by %.1f sigma (se %.1e / %.1e)",
			tEst, pEst, diff/sigma, tSE, pSE)
	}

	// The point of the tilt: raw loss observations per trial must be
	// boosted by an order of magnitude or the factor is doing nothing.
	plainRate := float64(pres.Counter(CounterPageLoss)) / float64(pres.Trials)
	tiltRate := float64(tres.Counter(CounterPageLoss)) / float64(tres.Trials)
	if tiltRate < 10*plainRate {
		t.Errorf("tilted hit rate %.2e is not >=10x the untilted %.2e; tilt ineffective", tiltRate, plainRate)
	}

	// And the weighted machinery must report a usable effective
	// sample size, not a degenerate handful of dominating weights.
	if ess := tres.EffectiveSamples(CounterPageLoss); ess < 50 {
		t.Errorf("tilted ESS %.1f too small to trust the estimate", ess)
	}
}
