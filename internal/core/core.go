// Package core is the top-level analysis API of the reproduction: it
// configures a fault-tolerant memory system the way the paper does
// (arrangement x RS code x fault rates x scrubbing), evaluates its
// continuous-time Markov chain transiently, and reports the paper's
// figure of merit
//
//	BER(t) = m * (n-k)/k * P_Fail(t)        (paper Eq. 1)
//
// for any sequence of observation times. The simplex and duplex chain
// structures live in internal/simplex and internal/duplex; unit
// conventions in internal/reliability.
package core

import (
	"fmt"
	"math"

	"repro/internal/duplex"
	"repro/internal/markov"
	"repro/internal/reliability"
	"repro/internal/simplex"
)

// Arrangement selects the memory organization of paper Section 3.
type Arrangement int

const (
	// Simplex is a single RS-coded module.
	Simplex Arrangement = iota
	// Duplex is the paper's replicated arrangement with the
	// erasure-masking, flag-comparing arbiter.
	Duplex
)

// String names the arrangement as in the paper.
func (a Arrangement) String() string {
	switch a {
	case Simplex:
		return "simplex"
	case Duplex:
		return "duplex"
	default:
		return fmt.Sprintf("arrangement(%d)", int(a))
	}
}

// CodeSpec identifies an RS(n,k) code over GF(2^m) symbols.
type CodeSpec struct {
	N int // codeword symbols
	K int // dataword symbols
	M int // bits per symbol
}

// String renders the spec as RS(n,k)/m.
func (c CodeSpec) String() string { return fmt.Sprintf("RS(%d,%d)/m=%d", c.N, c.K, c.M) }

// Validate checks the spec's structural constraints.
func (c CodeSpec) Validate() error {
	switch {
	case c.N <= 0 || c.K <= 0 || c.K >= c.N:
		return fmt.Errorf("core: invalid code RS(%d,%d)", c.N, c.K)
	case c.M <= 0 || c.M > 16:
		return fmt.Errorf("core: invalid symbol width m=%d", c.M)
	case c.N > 1<<uint(c.M)-1:
		return fmt.Errorf("core: n=%d exceeds 2^%d-1", c.N, c.M)
	}
	return nil
}

// RS1816 and RS3616 are the two codes evaluated by the paper, with
// byte symbols.
var (
	RS1816 = CodeSpec{N: 18, K: 16, M: 8}
	RS3616 = CodeSpec{N: 36, K: 16, M: 8}
)

// Config describes one memory system in the paper's own units:
// SEU rate per bit per day, permanent fault (erasure) rate per symbol
// per day, scrubbing period in seconds (0 disables scrubbing).
type Config struct {
	Arrangement Arrangement
	Code        CodeSpec

	SEUPerBitDay        float64
	ErasurePerSymbolDay float64
	ScrubPeriodSeconds  float64
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	if err := cfg.Code.Validate(); err != nil {
		return err
	}
	switch {
	case cfg.Arrangement != Simplex && cfg.Arrangement != Duplex:
		return fmt.Errorf("core: unknown arrangement %d", int(cfg.Arrangement))
	case cfg.SEUPerBitDay < 0:
		return fmt.Errorf("core: negative SEU rate %g", cfg.SEUPerBitDay)
	case cfg.ErasurePerSymbolDay < 0:
		return fmt.Errorf("core: negative erasure rate %g", cfg.ErasurePerSymbolDay)
	case cfg.ScrubPeriodSeconds < 0:
		return fmt.Errorf("core: negative scrub period %g", cfg.ScrubPeriodSeconds)
	}
	return nil
}

// String summarizes the configuration for reports and plots.
func (cfg Config) String() string {
	scrub := "no scrub"
	if cfg.ScrubPeriodSeconds > 0 {
		scrub = fmt.Sprintf("Tsc=%gs", cfg.ScrubPeriodSeconds)
	}
	return fmt.Sprintf("%s %s lambda=%g/bit/day lambdaE=%g/sym/day %s",
		cfg.Arrangement, cfg.Code, cfg.SEUPerBitDay, cfg.ErasurePerSymbolDay, scrub)
}

// BERFromFailProbability applies paper Eq. (1) to one fail-state
// probability.
func BERFromFailProbability(code CodeSpec, pfail float64) float64 {
	return float64(code.M) * float64(code.N-code.K) / float64(code.K) * pfail
}

// Curve is an evaluated BER trajectory.
type Curve struct {
	Config Config
	Hours  []float64 // observation times
	PFail  []float64 // chain fail-state probability at each time
	BER    []float64 // paper Eq. (1) applied to PFail
}

// Evaluate builds the configured system's Markov chain, solves it at
// the given times (hours, nondecreasing) and returns the BER curve.
func Evaluate(cfg Config, hours []float64) (*Curve, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pfail, err := failProbabilities(cfg, hours)
	if err != nil {
		return nil, err
	}
	curve := &Curve{
		Config: cfg,
		Hours:  append([]float64(nil), hours...),
		PFail:  pfail,
		BER:    make([]float64, len(pfail)),
	}
	for i, p := range pfail {
		curve.BER[i] = BERFromFailProbability(cfg.Code, p)
	}
	return curve, nil
}

func failProbabilities(cfg Config, hours []float64) ([]float64, error) {
	lambda := reliability.PerDayToPerHour(cfg.SEUPerBitDay)
	lambdaE := reliability.PerDayToPerHour(cfg.ErasurePerSymbolDay)
	scrub := reliability.ScrubRatePerHour(cfg.ScrubPeriodSeconds)
	switch cfg.Arrangement {
	case Simplex:
		return simplex.FailProbabilities(simplex.Params{
			N: cfg.Code.N, K: cfg.Code.K, M: cfg.Code.M,
			Lambda: lambda, LambdaE: lambdaE, ScrubRate: scrub,
		}, hours)
	case Duplex:
		return duplex.FailProbabilities(duplex.Params{
			N: cfg.Code.N, K: cfg.Code.K, M: cfg.Code.M,
			Lambda: lambda, LambdaE: lambdaE, ScrubRate: scrub,
		}, hours)
	default:
		return nil, fmt.Errorf("core: unknown arrangement %d", int(cfg.Arrangement))
	}
}

// MTTDL returns the mean time to data loss of one protected word in
// hours: the expected first-passage time of the configured chain from
// the Good state into Fail. A system whose chain cannot reach Fail
// (no fault processes configured) returns +Inf.
func MTTDL(cfg Config) (float64, error) {
	chain, canFail, err := buildChain(cfg)
	if err != nil {
		return 0, err
	}
	if !canFail {
		return math.Inf(1), nil
	}
	mtta, err := chain.MeanTimeToAbsorption()
	if err != nil {
		return 0, err
	}
	return mtta[0], nil
}

// buildChain explores the configured system's Markov chain (Good is
// state 0) and reports whether its Fail state is reachable.
func buildChain(cfg Config) (*markov.Chain, bool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, false, err
	}
	lambda := reliability.PerDayToPerHour(cfg.SEUPerBitDay)
	lambdaE := reliability.PerDayToPerHour(cfg.ErasurePerSymbolDay)
	scrub := reliability.ScrubRatePerHour(cfg.ScrubPeriodSeconds)
	if cfg.Arrangement == Simplex {
		ex, err := simplex.Build(simplex.Params{
			N: cfg.Code.N, K: cfg.Code.K, M: cfg.Code.M,
			Lambda: lambda, LambdaE: lambdaE, ScrubRate: scrub,
		})
		if err != nil {
			return nil, false, err
		}
		_, canFail := ex.Index[simplex.State{Fail: true}]
		return ex.Chain, canFail, nil
	}
	ex, err := duplex.Build(duplex.Params{
		N: cfg.Code.N, K: cfg.Code.K, M: cfg.Code.M,
		Lambda: lambda, LambdaE: lambdaE, ScrubRate: scrub,
	})
	if err != nil {
		return nil, false, err
	}
	_, canFail := ex.Index[duplex.State{Fail: true}]
	return ex.Chain, canFail, nil
}
