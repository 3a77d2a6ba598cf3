// Example campaign: the declarative spec-file workflow end to end.
//
// spec.json in this directory declares four scenarios — a transient
// BER curve, the accelerated SSMM fault-injection mission with a
// tolerance band, a multi-bit-upset comparison and a design-space
// sweep — all running on the shared internal/campaign engine.
// nightly.json is the drift gate the nightly CI workflow runs;
// matrix.json is the RS(n,k) x depth x scrub sweep; detection.json
// sweeps the stuck-column detection policy (immediate / scrub /
// latency) x scrub period x depth, quantifying how much reliability
// the old located-at-strike assumption overstated; figures.json
// regenerates every registered figure and table of the paper's
// evaluation.
//
// This program loads spec.json, runs one scenario directly (showing
// the programmatic API: Build, EngineConfig, campaign.Run,
// CheckExpectations), then demonstrates early stopping on a
// confidence-interval width. Run with:
//
//	go run ./examples/campaign
//
// The full file runs through the CLI instead:
//
//	go run ./cmd/campaign -spec examples/campaign/spec.json
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/campaign"
	"repro/internal/campaign/spec"
	"repro/internal/gf"
	"repro/internal/memsim"
	"repro/internal/rs"
)

func main() {
	// --- 1. Load and build the declarative spec -------------------
	f, err := spec.Load("examples/campaign/spec.json")
	if err != nil {
		// Allow running from this directory too.
		f, err = spec.Load("spec.json")
	}
	if err != nil {
		log.Fatal(err)
	}
	built, err := f.BuildAll()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spec declares %d scenarios:\n", len(built))
	for _, b := range built {
		fmt.Printf("  %-14s %-9s %5d trials, %d expectation(s)\n",
			b.Entry.Name, b.Entry.Kind, b.Scenario.Trials(), len(b.Entry.Expect))
	}

	// --- 2. Run the gated SSMM mission scenario -------------------
	mission := built[1]
	cres, err := campaign.Run(mission.Scenario, mission.EngineConfig(f))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s: %d trials, capability exceeded in %.4f of them\n",
		mission.Entry.Name, cres.Trials, cres.Fraction(memsim.CounterCapabilityExceeded))
	if errs := mission.CheckExpectations(cres); len(errs) > 0 {
		fmt.Println("tolerance bands VIOLATED:")
		for _, e := range errs {
			fmt.Println(" ", e)
		}
		os.Exit(1)
	}
	fmt.Println("tolerance bands hold — this is the nightly drift gate in miniature")

	// --- 3. Early stopping: resolve a probability to 10% ----------
	field := gf.MustField(8)
	code, err := rs.New(field, 18, 16)
	if err != nil {
		log.Fatal(err)
	}
	cfg := memsim.Config{
		Code: code, LambdaBit: 6e-4, LambdaSymbol: 2e-4,
		Horizon: 48, Trials: 200000, Seed: 4,
	}
	res, engine, err := memsim.RunCampaign(cfg, campaign.Config{
		Stop: &campaign.EarlyStop{
			Counter:      memsim.CounterCapabilityExceeded,
			RelHalfWidth: 0.10,
			MinTrials:    2000,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := memsim.WilsonInterval(res.CapabilityExceeded, res.Trials, 1.96)
	fmt.Printf("\nearly stop: %d of %d requested trials resolved P(fail) = %.4f (95%% CI [%.4f, %.4f])\n",
		engine.Trials, engine.Requested, res.CapabilityExceededFraction(), lo, hi)
}
