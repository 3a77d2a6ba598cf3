package array

import (
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/memsim"
	"repro/internal/reliability"
	"repro/internal/rs"
)

// SimConfig parameterizes the whole-memory Monte Carlo that
// cross-validates the analytic lift of Evaluate: every campaign trial
// simulates one protected word through the real codec/scrubber/arbiter
// (internal/memsim) with rates matched to the word-level Markov chain,
// and the observed capability-exceeded fraction — the chains' Fail
// event — is lifted through 1-(1-p)^W to the memory level.
//
// Agreement is exact (within sampling noise) for simplex words,
// scrubbed or not, and for unscrubbed duplex. Scrubbed duplex carries
// a known ~1% model gap the cross-validation flags by design: the
// simulator scrubs both modules at the same instants (one controller,
// one schedule) while the chain models scrubbing as independent
// memoryless transitions, so the joint pair state differs slightly.
type SimConfig struct {
	Memory Memory
	// Hours is the observation instant (the mission storage time).
	Hours  float64
	Trials int
	Seed   int64
}

// Validate checks the configuration.
func (c SimConfig) Validate() error {
	if err := c.Memory.Validate(); err != nil {
		return err
	}
	switch {
	case c.Hours <= 0 || math.IsNaN(c.Hours) || math.IsInf(c.Hours, 0):
		return fmt.Errorf("array: invalid observation time %v", c.Hours)
	case c.Trials <= 0:
		return fmt.Errorf("array: need at least one trial")
	}
	return nil
}

// MemsimConfig converts the word-level description to the simulator's
// units: per-day rates become per-hour, the scrub period becomes its
// mean in hours with exponential intervals (the memoryless schedule
// the CTMC's rate-1/Tsc treatment assumes), and the simulator's
// capability-exceeded event stands in for the chain's Fail state.
func (c SimConfig) MemsimConfig() (memsim.Config, error) {
	if err := c.Validate(); err != nil {
		return memsim.Config{}, err
	}
	word := c.Memory.Word
	field, err := gf.NewField(word.Code.M)
	if err != nil {
		return memsim.Config{}, err
	}
	code, err := rs.New(field, word.Code.N, word.Code.K)
	if err != nil {
		return memsim.Config{}, err
	}
	return memsim.Config{
		Code:             code,
		Duplex:           word.Arrangement == core.Duplex,
		LambdaBit:        reliability.PerDayToPerHour(word.SEUPerBitDay),
		LambdaSymbol:     reliability.PerDayToPerHour(word.ErasurePerSymbolDay),
		ScrubPeriod:      word.ScrubPeriodSeconds / 3600,
		ExponentialScrub: true,
		Horizon:          c.Hours,
		Trials:           c.Trials,
		Seed:             c.Seed,
	}, nil
}

// scenario wraps the word-level simulator scenario under a
// memory-level name, so checkpoints record the capacity being lifted.
type scenario struct {
	inner campaign.Scenario
	words int64
}

// Scenario adapts the configuration to the campaign engine.
func (c SimConfig) Scenario() (campaign.Scenario, error) {
	mcfg, err := c.MemsimConfig()
	if err != nil {
		return nil, err
	}
	inner, err := mcfg.Scenario()
	if err != nil {
		return nil, err
	}
	words, err := c.Memory.Words()
	if err != nil {
		return nil, err
	}
	return &scenario{inner: inner, words: words}, nil
}

// Name implements campaign.Scenario.
func (s *scenario) Name() string { return fmt.Sprintf("array:W=%d:%s", s.words, s.inner.Name()) }

// Trials implements campaign.Scenario.
func (s *scenario) Trials() int { return s.inner.Trials() }

// NewWorker implements campaign.Scenario.
func (s *scenario) NewWorker() (campaign.Worker, error) { return s.inner.NewWorker() }

// CrossValidation reports the Monte Carlo vs. analytic comparison at
// both levels: the per-word Fail probability and its memory-level
// lift, each with the Wilson interval transported through the
// (monotone) lift.
type CrossValidation struct {
	Words  int64
	Hours  float64
	Trials int

	// Word level: observed capability-exceeded fraction vs. the
	// chain's Fail probability.
	WordFails        int64
	WordFailMC       float64
	WordFailLo       float64
	WordFailHi       float64
	WordFailAnalytic float64

	// Memory level: 1-(1-p)^W of each of the above.
	AnyWordFailMC       float64
	AnyWordFailLo       float64
	AnyWordFailHi       float64
	AnyWordFailAnalytic float64

	// Agrees is true when the analytic value lies inside the Wilson
	// band (equivalently at either level; the lift is monotone).
	Agrees bool
}

// CrossValidate compares a campaign result against the analytic
// evaluation at z (0 means 1.96, the 95% interval).
func (c SimConfig) CrossValidate(cres *campaign.Result, z float64) (*CrossValidation, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if z == 0 {
		z = 1.96
	}
	words, err := c.Memory.Words()
	if err != nil {
		return nil, err
	}
	curve, err := c.Memory.Evaluate([]float64{c.Hours})
	if err != nil {
		return nil, err
	}
	if cres.Trials == 0 {
		return nil, fmt.Errorf("array: campaign has no trials")
	}
	fails := cres.Counter(memsim.CounterCapabilityExceeded)
	lo, hi := campaign.Wilson(fails, int64(cres.Trials), z)
	w := float64(words)
	lift := func(p float64) float64 { return -math.Expm1(w * math.Log1p(-p)) }
	v := &CrossValidation{
		Words:  words,
		Hours:  c.Hours,
		Trials: cres.Trials,

		WordFails:        fails,
		WordFailMC:       float64(fails) / float64(cres.Trials),
		WordFailLo:       lo,
		WordFailHi:       hi,
		WordFailAnalytic: curve.WordFail[0],

		AnyWordFailLo:       lift(lo),
		AnyWordFailHi:       lift(hi),
		AnyWordFailAnalytic: curve.AnyWordFail[0],
	}
	v.AnyWordFailMC = lift(v.WordFailMC)
	v.Agrees = v.WordFailAnalytic >= lo && v.WordFailAnalytic <= hi
	return v, nil
}

// Check returns a descriptive error when the analytic evaluation
// falls outside the Monte Carlo band — the pass/fail form used by
// spec expectation checking.
func (v *CrossValidation) Check() error {
	if v.Agrees {
		return nil
	}
	return fmt.Errorf("array: analytic word-fail %.6e outside Wilson band [%.6e, %.6e] (%d/%d trials; memory-level analytic %.6e vs MC band [%.6e, %.6e] over %d words)",
		v.WordFailAnalytic, v.WordFailLo, v.WordFailHi, v.WordFails, v.Trials,
		v.AnyWordFailAnalytic, v.AnyWordFailLo, v.AnyWordFailHi, v.Words)
}
