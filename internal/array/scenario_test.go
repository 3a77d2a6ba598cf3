package array

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
)

func simBase() SimConfig {
	// Accelerated rates (the xval regime: per-hour 6e-4/bit and
	// 2e-4/symbol) so 48 simulated hours resolve the Fail probability
	// with a few thousand trials.
	m := Memory{
		DataBytes: 1 << 20,
		Word: core.Config{
			Arrangement:         core.Simplex,
			Code:                core.RS1816,
			SEUPerBitDay:        6e-4 * 24,
			ErasurePerSymbolDay: 2e-4 * 24,
		},
	}
	return SimConfig{Memory: m, Hours: 48, Trials: 4000, Seed: 11}
}

func TestSimConfigValidation(t *testing.T) {
	good := simBase()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := simBase()
	bad.Hours = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero observation time accepted")
	}
	bad = simBase()
	bad.Trials = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero trials accepted")
	}
	bad = simBase()
	bad.Memory.DataBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid memory accepted")
	}
}

func TestMemsimConfigMatchesRates(t *testing.T) {
	c := simBase()
	c.Memory.Word.ScrubPeriodSeconds = 7200
	mcfg, err := c.MemsimConfig()
	if err != nil {
		t.Fatal(err)
	}
	if got := mcfg.LambdaBit; math.Abs(got-6e-4) > 1e-12 {
		t.Errorf("LambdaBit = %v, want 6e-4 per hour", got)
	}
	if got := mcfg.LambdaSymbol; math.Abs(got-2e-4) > 1e-12 {
		t.Errorf("LambdaSymbol = %v, want 2e-4 per hour", got)
	}
	if got := mcfg.ScrubPeriod; math.Abs(got-2) > 1e-12 {
		t.Errorf("ScrubPeriod = %v h, want 2", got)
	}
	if !mcfg.ExponentialScrub {
		t.Error("CTMC-matched scrub must be exponential")
	}
	if mcfg.Duplex {
		t.Error("simplex word simulated as duplex")
	}
}

// TestMonteCarloAgreesWithAnalytic is the cross-validation the
// scenario exists for: on a fixed-seed campaign the analytic
// word-fail probability (and hence its memory-level lift) must lie
// inside the Monte Carlo's 95% Wilson band.
func TestMonteCarloAgreesWithAnalytic(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*SimConfig)
	}{
		{"simplex", func(*SimConfig) {}},
		{"simplex-scrubbed", func(c *SimConfig) { c.Memory.Word.ScrubPeriodSeconds = 4 * 3600 }},
		// Scrubbed duplex is deliberately absent: the simulator scrubs
		// both modules at the same instants while the chain treats
		// scrubbing as independent exponential transitions, a ~1%
		// model gap the cross-validation correctly flags (see the
		// SimConfig doc).
		{"duplex", func(c *SimConfig) { c.Memory.Word.Arrangement = core.Duplex }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := simBase()
			tc.edit(&c)
			scn, err := c.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			cres, err := campaign.Run(scn, campaign.Config{})
			if err != nil {
				t.Fatal(err)
			}
			v, err := c.CrossValidate(cres, 0)
			if err != nil {
				t.Fatal(err)
			}
			if cres.Trials != c.Trials {
				t.Fatalf("ran %d trials, want %d", cres.Trials, c.Trials)
			}
			if err := v.Check(); err != nil {
				t.Errorf("cross-validation failed: %v", err)
			}
			// The lift must be consistent at both levels.
			if v.AnyWordFailLo > v.AnyWordFailMC || v.AnyWordFailMC > v.AnyWordFailHi {
				t.Errorf("memory-level point %v outside its own band [%v, %v]",
					v.AnyWordFailMC, v.AnyWordFailLo, v.AnyWordFailHi)
			}
			if v.Words != 65536 {
				t.Errorf("W = %d, want 65536", v.Words)
			}
			if v.WordFailMC > 0 && v.AnyWordFailMC <= v.WordFailMC {
				t.Errorf("lift did not amplify: word %v vs memory %v", v.WordFailMC, v.AnyWordFailMC)
			}
		})
	}
}

// TestScenarioDeterministicAcrossWorkerCounts: the array scenario
// inherits memsim's per-trial reseeding, so the merged result is
// bit-identical for any worker count.
func TestScenarioDeterministicAcrossWorkerCounts(t *testing.T) {
	c := simBase()
	c.Trials = 800
	scn, err := c.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(scn.Name(), "array:W=65536:") {
		t.Errorf("scenario name %q does not encode the capacity", scn.Name())
	}
	var results []*campaign.Result
	for _, workers := range []int{1, 8} {
		cres, err := campaign.Run(scn, campaign.Config{Workers: workers, ShardSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, cres)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("worker count changed results:\n%+v\nvs\n%+v", results[0], results[1])
	}
}

// TestCrossValidateDisagreement: a deliberately mismatched analytic
// model (10x the simulated rate) must be flagged.
func TestCrossValidateDisagreement(t *testing.T) {
	c := simBase()
	scn, err := c.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	cres, err := campaign.Run(scn, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	skewed := c
	skewed.Memory.Word.SEUPerBitDay *= 10
	v, err := skewed.CrossValidate(cres, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Agrees || v.Check() == nil {
		t.Error("10x-skewed analytic model inside the Monte Carlo band")
	}
}
