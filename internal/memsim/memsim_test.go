package memsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/campaign"
	"repro/internal/duplex"
	"repro/internal/gf"
	"repro/internal/rs"
	"repro/internal/simplex"
)

var (
	f8     = gf.MustField(8)
	code   = rs.MustNew(f8, 18, 16)
	code36 = rs.MustNew(f8, 36, 16)
)

func TestValidate(t *testing.T) {
	good := Config{Code: code, LambdaBit: 1e-5, Horizon: 48, Trials: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Code: nil, Horizon: 1, Trials: 1},
		{Code: code, LambdaBit: -1, Horizon: 1, Trials: 1},
		{Code: code, LambdaSymbol: -1, Horizon: 1, Trials: 1},
		{Code: code, ScrubPeriod: -1, Horizon: 1, Trials: 1},
		{Code: code, DetectionLatency: -1, Horizon: 1, Trials: 1},
		{Code: code, Horizon: 0, Trials: 1},
		{Code: code, Horizon: math.NaN(), Trials: 1},
		{Code: code, Horizon: 1, Trials: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestNoFaultsAllCorrect(t *testing.T) {
	res, err := Run(Config{Code: code, Horizon: 1000, Trials: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != 50 || res.WrongOutput != 0 || res.NoOutput != 0 {
		t.Errorf("fault-free run: %+v", res)
	}
	if res.FailFraction() != 0 || res.CapabilityExceededFraction() != 0 {
		t.Error("fail fractions nonzero without faults")
	}
}

func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	base := Config{
		Code: code, Duplex: true,
		LambdaBit: 2e-4, LambdaSymbol: 1e-5,
		ScrubPeriod: 10, Horizon: 48, Trials: 300, Seed: 42,
	}
	var results []*Result
	for _, workers := range []int{1, 4, 7, 8} {
		cfg := base
		cfg.Workers = workers
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.Config = Config{} // worker count must be the only difference
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("worker count changed results:\nbase: %+v\nvariant %d: %+v", results[0], i, results[i])
		}
	}
}

// TestResumedCampaignMatchesUninterrupted interrupts a checkpointed
// fault-injection campaign partway and verifies the resumed run is
// bit-identical to an uninterrupted one — the engine's resumability
// guarantee exercised through the real simulator.
func TestResumedCampaignMatchesUninterrupted(t *testing.T) {
	cfg := Config{
		Code: code, Duplex: true,
		LambdaBit: 3e-4, LambdaSymbol: 2e-5,
		ScrubPeriod: 8, Horizon: 48, Trials: 600, Seed: 77,
	}
	want, _, err := RunCampaign(cfg, campaign.Config{Workers: 4, ShardSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	cp := filepath.Join(t.TempDir(), "memsim.ckpt.json")
	// Interrupted run: a trial budget makes workers fail once ~half
	// the campaign has been dispatched; completed shards land in the
	// checkpoint.
	scn, err := cfg.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	budget := &budgetScenario{Scenario: scn, remaining: 300}
	if _, err := campaign.Run(budget, campaign.Config{Workers: 4, ShardSize: 64, Checkpoint: cp}); err == nil {
		t.Fatal("interrupted campaign reported success")
	}

	res, cres, err := RunCampaign(cfg, campaign.Config{Workers: 4, ShardSize: 64, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if cres.ResumedTrials == 0 {
		t.Fatal("resume recomputed every trial")
	}
	if !reflect.DeepEqual(want, res) {
		t.Errorf("resumed campaign diverged:\nwant %+v\ngot  %+v", want, res)
	}
}

// budgetScenario wraps a scenario so its workers fail after a shared
// number of trials, simulating an interruption mid-campaign.
type budgetScenario struct {
	campaign.Scenario
	remaining int64
}

func (b *budgetScenario) NewWorker() (campaign.Worker, error) {
	w, err := b.Scenario.NewWorker()
	if err != nil {
		return nil, err
	}
	return &budgetWorker{inner: w, budget: &b.remaining}, nil
}

type budgetWorker struct {
	inner  campaign.Worker
	budget *int64
}

func (w *budgetWorker) Trial(trial int, acc *campaign.Acc) error {
	if atomic.AddInt64(w.budget, -1) < 0 {
		return errInterrupted
	}
	return w.inner.Trial(trial, acc)
}

var errInterrupted = errors.New("simulated interruption")

// TestEarlyStopResolvesFailureFraction drives the real simulator with
// a CI-width stopping rule: the campaign must stop before the full
// trial budget while the capability-exceeded estimate is resolved to
// the requested precision.
func TestEarlyStopResolvesFailureFraction(t *testing.T) {
	cfg := Config{
		Code: code, LambdaBit: 6e-4, LambdaSymbol: 2e-4,
		Horizon: 48, Trials: 200000, Seed: 4,
	}
	res, cres, err := RunCampaign(cfg, campaign.Config{
		Workers: 4,
		Stop: &campaign.EarlyStop{
			Counter:      CounterCapabilityExceeded,
			RelHalfWidth: 0.10,
			MinTrials:    2000,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cres.EarlyStopped || res.Trials >= cfg.Trials {
		t.Fatalf("campaign should stop early: ran %d of %d", res.Trials, cfg.Trials)
	}
	p := res.CapabilityExceededFraction()
	lo, hi := WilsonInterval(res.CapabilityExceeded, res.Trials, 1.96)
	if (hi-lo)/2 > 0.10*p {
		t.Errorf("stopped with interval [%v, %v] still wider than 10%% of %v", lo, hi, p)
	}
}

func TestExtremeRatesMostlyFail(t *testing.T) {
	res, err := Run(Config{
		Code: code, LambdaBit: 0.1, Horizon: 48, Trials: 100, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FailFraction() < 0.9 {
		t.Errorf("fail fraction %v under extreme SEU rate, want ~1", res.FailFraction())
	}
	if res.SEUs == 0 {
		t.Error("no SEUs recorded")
	}
}

func TestCountersAccumulate(t *testing.T) {
	res, err := Run(Config{
		Code: code, Duplex: true,
		LambdaBit: 1e-3, LambdaSymbol: 1e-4,
		ScrubPeriod: 12, Horizon: 48, Trials: 50, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SEUs == 0 || res.PermanentFaults == 0 {
		t.Errorf("fault counters empty: %+v", res)
	}
	// 48h horizon / 12h period = 3 interior scrubs (at 12, 24, 36) and
	// one at 48 is the horizon boundary (excluded); allow exactly 4
	// per trial if boundary included — assert the deterministic count.
	wantScrubs := int64(50 * 3)
	if res.ScrubOps != wantScrubs {
		t.Errorf("ScrubOps = %d, want %d", res.ScrubOps, wantScrubs)
	}
	if res.Correct+res.WrongOutput+res.NoOutput != res.Trials {
		t.Error("outcome counts do not partition trials")
	}
}

// TestSimplexMatchesMarkovChain is the cross-validation experiment:
// the observed capability-exceeded fraction must sit inside a wide
// confidence band around the chain's Fail probability.
func TestSimplexMatchesMarkovChain(t *testing.T) {
	// Rates chosen so P_fail ~ 0.1 at 48h: big enough for Monte Carlo,
	// small enough to stay in the paper's regime structurally.
	lambda := 6e-4 // per bit-hour
	lambdaE := 2e-4
	p := simplex.Params{N: 18, K: 16, M: 8, Lambda: lambda, LambdaE: lambdaE}
	want, err := simplex.FailProbabilities(p, []float64{48})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Code: code, LambdaBit: lambda, LambdaSymbol: lambdaE,
		Horizon: 48, Trials: 20000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := WilsonInterval(res.CapabilityExceeded, res.Trials, 4) // ~4 sigma
	if want[0] < lo || want[0] > hi {
		t.Errorf("chain P_fail %v outside Monte Carlo band [%v, %v] (observed %v)",
			want[0], lo, hi, res.CapabilityExceededFraction())
	}
	// For simplex the real decoder fails exactly when the pattern
	// exceeds capability, so outcome-fail and capability-exceeded
	// must coincide.
	if res.CapabilityExceeded != res.WrongOutput+res.NoOutput {
		t.Errorf("simplex: capability-exceeded %d != failures %d",
			res.CapabilityExceeded, res.WrongOutput+res.NoOutput)
	}
}

// TestSimplexScrubbedMatchesMarkovChain repeats cross-validation with
// exponential scrubbing, which the chain models exactly.
func TestSimplexScrubbedMatchesMarkovChain(t *testing.T) {
	lambda := 1.2e-3
	p := simplex.Params{N: 18, K: 16, M: 8, Lambda: lambda, ScrubRate: 0.25}
	want, err := simplex.FailProbabilities(p, []float64{48})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Code: code, LambdaBit: lambda,
		ScrubPeriod: 4, ExponentialScrub: true,
		Horizon: 48, Trials: 20000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := WilsonInterval(res.CapabilityExceeded, res.Trials, 4)
	if want[0] < lo || want[0] > hi {
		t.Errorf("scrubbed chain P_fail %v outside band [%v, %v] (observed %v)",
			want[0], lo, hi, res.CapabilityExceededFraction())
	}
	if res.ScrubOps == 0 {
		t.Error("no scrubs recorded")
	}
}

// TestDuplexMatchesMarkovChain cross-validates the duplex chain and
// verifies the documented conservatism: the chain's Fail state
// (either word exceeds capability) must match the simulator's
// capability-exceeded fraction, while the real arbiter's outcome
// failures are rarer.
func TestDuplexMatchesMarkovChain(t *testing.T) {
	lambda := 6e-4
	lambdaE := 2e-4
	p := duplex.Params{N: 18, K: 16, M: 8, Lambda: lambda, LambdaE: lambdaE}
	want, err := duplex.FailProbabilities(p, []float64{48})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Code: code, Duplex: true,
		LambdaBit: lambda, LambdaSymbol: lambdaE,
		Horizon: 48, Trials: 20000, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := WilsonInterval(res.CapabilityExceeded, res.Trials, 4)
	if want[0] < lo || want[0] > hi {
		t.Errorf("duplex chain P_fail %v outside band [%v, %v] (observed %v)",
			want[0], lo, hi, res.CapabilityExceededFraction())
	}
	if res.FailFraction() > res.CapabilityExceededFraction() {
		t.Errorf("arbiter failures (%v) exceed capability-exceeded (%v); chain should be conservative",
			res.FailFraction(), res.CapabilityExceededFraction())
	}
}

func TestDuplexMasksManySingleSidedErasures(t *testing.T) {
	// Permanent faults only, duplex: single-sided erasures are masked,
	// so even many faults rarely break the pair, unlike simplex.
	lambdaE := 2e-3
	sim, err := Run(Config{
		Code: code, LambdaSymbol: lambdaE,
		Horizon: 100, Trials: 4000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	dup, err := Run(Config{
		Code: code, Duplex: true, LambdaSymbol: lambdaE,
		Horizon: 100, Trials: 4000, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dup.FailFraction() >= sim.FailFraction()/2 {
		t.Errorf("duplex (%v) should beat simplex (%v) clearly under permanent faults",
			dup.FailFraction(), sim.FailFraction())
	}
}

// TestDuplexScrubbedMatchesMarkovChain: with the default (no
// cross-repair) scrub semantics, the absorbing Fail state of the chain
// must agree with the simulator's capability-exceeded fraction even
// under scrubbing — the regression test for the scrub-semantics gap.
func TestDuplexScrubbedMatchesMarkovChain(t *testing.T) {
	lambda := 4e-4
	p := duplex.Params{N: 18, K: 16, M: 8, Lambda: lambda, ScrubRate: 0.25}
	want, err := duplex.FailProbabilities(p, []float64{48})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Code: code, Duplex: true, LambdaBit: lambda,
		ScrubPeriod: 4, ExponentialScrub: true,
		Horizon: 48, Trials: 20000, Seed: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := WilsonInterval(res.CapabilityExceeded, res.Trials, 4)
	if want[0] < lo || want[0] > hi {
		t.Errorf("scrubbed duplex chain P_fail %v outside band [%v, %v] (observed %v)",
			want[0], lo, hi, res.CapabilityExceededFraction())
	}
}

// TestDuplexDoubleSidedErasureRates: the paper's single-sided clean->Y
// rate underestimates double-erasure accumulation by 2 per step; the
// DoubleSidedErasures option must close the gap with the simulator.
func TestDuplexDoubleSidedErasureRates(t *testing.T) {
	lambdaE := 3e-4
	horizon := 200.0
	paper := duplex.Params{N: 18, K: 16, M: 8, LambdaE: lambdaE}
	physical := paper
	physical.Opts.DoubleSidedErasures = true
	paperP, err := duplex.FailProbabilities(paper, []float64{horizon})
	if err != nil {
		t.Fatal(err)
	}
	physP, err := duplex.FailProbabilities(physical, []float64{horizon})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Code: code, Duplex: true, LambdaSymbol: lambdaE,
		Horizon: horizon, Trials: 200000, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := WilsonInterval(res.CapabilityExceeded, res.Trials, 4)
	if physP[0] < lo || physP[0] > hi {
		t.Errorf("double-sided chain %v outside Monte Carlo band [%v, %v]", physP[0], lo, hi)
	}
	// The paper-literal rates must undercount by roughly 2^3 here
	// (X >= 3 is the failure mode, each X arrival undercounted 2x).
	ratio := physP[0] / paperP[0]
	if ratio < 4 || ratio > 16 {
		t.Errorf("double-sided/paper ratio = %v, want ~8", ratio)
	}
}

func TestCrossRepairReducesFailures(t *testing.T) {
	base := Config{
		Code: code, Duplex: true, LambdaBit: 4e-4,
		ScrubPeriod: 4, Horizon: 48, Trials: 10000, Seed: 22,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	repaired := base
	repaired.CrossRepair = true
	rep, err := Run(repaired)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CapabilityExceededFraction() >= plain.CapabilityExceededFraction()/2 {
		t.Errorf("cross-repair should clearly reduce capability exceedance: %v vs %v",
			rep.CapabilityExceededFraction(), plain.CapabilityExceededFraction())
	}
}

func TestScrubbingHelps(t *testing.T) {
	base := Config{
		Code: code, LambdaBit: 3e-4, Horizon: 48, Trials: 6000, Seed: 9,
	}
	bare, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	scrubbed := base
	scrubbed.ScrubPeriod = 2
	s, err := Run(scrubbed)
	if err != nil {
		t.Fatal(err)
	}
	if s.FailFraction() >= bare.FailFraction()/2 {
		t.Errorf("scrubbing did not clearly help: %v vs %v", s.FailFraction(), bare.FailFraction())
	}
}

func TestScrubMiscorrectionEntrenchment(t *testing.T) {
	// At high SEU rates some scrub passes decode beyond capability and
	// entrench a wrong codeword; the counter must observe this.
	res, err := Run(Config{
		Code: code, LambdaBit: 5e-2, ScrubPeriod: 4,
		Horizon: 48, Trials: 2000, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ScrubMiscorrections == 0 {
		t.Error("no scrub mis-corrections observed at extreme rates")
	}
	if res.WrongOutput == 0 {
		t.Error("entrenched mis-corrections should surface as wrong outputs")
	}
}

func TestDetectionLatencyDegradesCorrection(t *testing.T) {
	// With immediate location, permanent faults are erasures
	// (capability n-k); with infinite latency they act as random
	// errors (capability (n-k)/2), so failures must increase.
	base := Config{
		Code: code36, LambdaSymbol: 2e-3, Horizon: 200, Trials: 4000, Seed: 11,
	}
	located, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	blind := base
	blind.DetectionLatency = 1e9
	b, err := Run(blind)
	if err != nil {
		t.Fatal(err)
	}
	if b.FailFraction() <= located.FailFraction() {
		t.Errorf("undetected permanent faults should fail more: blind %v vs located %v",
			b.FailFraction(), located.FailFraction())
	}
}

func TestVerdictTally(t *testing.T) {
	res, err := Run(Config{
		Code: code, Duplex: true, LambdaBit: 2e-4,
		Horizon: 48, Trials: 3000, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Verdicts {
		total += c
	}
	if total != res.Trials {
		t.Errorf("verdicts (%d) do not partition trials (%d)", total, res.Trials)
	}
	if res.Verdicts[arbiter.NoError]+res.Verdicts[arbiter.CorrectedAgree] == 0 {
		t.Error("no clean/corrected verdicts at moderate rates")
	}
}

func TestPaperBERPrefactor(t *testing.T) {
	res := &Result{
		Config: Config{Code: code}, Trials: 100, CapabilityExceeded: 10,
	}
	// RS(18,16)/m=8 prefactor is 1.0.
	if got := res.PaperBER(); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("PaperBER = %v, want 0.1", got)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Error("empty trials should return [0,1]")
	}
	lo, hi = WilsonInterval(50, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval [%v,%v] must contain the point estimate", lo, hi)
	}
	if lo < 0.38 || hi > 0.62 {
		t.Errorf("95%% interval [%v,%v] too wide for n=100, p=0.5", lo, hi)
	}
	lo, hi = WilsonInterval(0, 100, 1.96)
	if lo != 0 {
		t.Errorf("lo = %v, want clamped to 0", lo)
	}
	lo, hi = WilsonInterval(100, 100, 1.96)
	if hi < 1-1e-12 {
		t.Errorf("hi = %v, want ~1 at p-hat = 1", hi)
	}
	if lo > 0.97 {
		t.Errorf("lo = %v, want meaningfully below 1 for n=100", lo)
	}
}

// BenchmarkTrialSimplex times one simplex trial on a warm worker: the
// reseed, the fault and scrub events, the decodes and the counter
// updates, without planning, worker construction or merging.
func BenchmarkTrialSimplex(b *testing.B) {
	benchTrial(b, Config{
		Code: code, LambdaBit: 1e-4, LambdaSymbol: 1e-5,
		ScrubPeriod: 12, Horizon: 48, Trials: 1, Seed: 13, Workers: 1,
	})
}

// BenchmarkTrialDuplex is BenchmarkTrialSimplex for the duplex pair.
func BenchmarkTrialDuplex(b *testing.B) {
	benchTrial(b, Config{
		Code: code, Duplex: true, LambdaBit: 1e-4, LambdaSymbol: 1e-5,
		ScrubPeriod: 12, Horizon: 48, Trials: 1, Seed: 14, Workers: 1,
	})
}

func benchTrial(b *testing.B, cfg Config) {
	scn, err := cfg.Scenario()
	if err != nil {
		b.Fatal(err)
	}
	w, err := scn.NewWorker()
	if err != nil {
		b.Fatal(err)
	}
	acc := campaign.NewAcc()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Trial(i, acc); err != nil {
			b.Fatal(err)
		}
	}
}

// batchGoldenCases are fixed-seed configurations whose complete
// campaign output is pinned across the batch-decode switch: routing
// the scrub and final-read decodes through rs.BatchDecoder.DecodeAll
// must reproduce the per-word decode outcomes byte for byte (decoding
// consumes no randomness, so any divergence is a decode-semantics
// change, not noise).
func batchGoldenCases() []struct {
	name     string
	cfg      Config
	counters map[string]int64
	weights  map[string]campaign.Moments
	digest   string
} {
	return []struct {
		name     string
		cfg      Config
		counters map[string]int64
		weights  map[string]campaign.Moments
		digest   string
	}{
		{
			name: "simplex/scrub+latency",
			cfg: Config{
				Code: code, LambdaBit: 2e-4, LambdaSymbol: 1e-3,
				ScrubPeriod: 6, DetectionLatency: 4,
				Horizon: 48, Trials: 800, Seed: 5,
			},
			counters: map[string]int64{
				"capability_exceeded": 290, "correct": 510, "data_bit_errors": 628,
				"no_output": 212, "permanent_faults": 720, "scrub_miscorrections": 147,
				"scrub_ops": 5600, "seus": 1060, "wrong_output": 78,
			},
			digest: "df0ea5af5e7b60eb421f2f55e9544efaac9c99951c2a25bad85c7c0b7b50efa4",
		},
		{
			name: "duplex/scrub",
			cfg: Config{
				Code: code, Duplex: true, LambdaBit: 3e-4, LambdaSymbol: 8e-4,
				ScrubPeriod: 8, Horizon: 48, Trials: 500, Seed: 9,
			},
			counters: map[string]int64{
				"capability_exceeded": 222, "correct": 454, "data_bit_errors": 44,
				"no_output": 39, "permanent_faults": 693, "scrub_miscorrections": 47,
				"scrub_ops": 2500, "seus": 2151,
				"verdict/both-failed": 33, "verdict/corrected-agree": 133,
				"verdict/differ-no-flags": 6, "verdict/flag-resolved": 10,
				"verdict/no-error": 145, "verdict/one-word-failed": 173,
				"wrong_output": 7,
			},
			digest: "514887c9563b017358e3c6287b4394ba67310f9e520ac185f6d03d02d1cc4273",
		},
		// The tilted cases pin the importance-sampling path: the biased
		// arrival clock interleaved with each scrub schedule, and the
		// per-trial likelihood ratios through their weight moments.
		{
			name: "simplex/tilt+exp-scrub",
			cfg: Config{
				Code: code, LambdaBit: 2e-5, LambdaSymbol: 1e-5,
				ScrubPeriod: 4, ExponentialScrub: true, TiltFactor: 10,
				Horizon: 48, Trials: 800, Seed: 21,
			},
			counters: map[string]int64{
				"capability_exceeded": 113, "correct": 687, "data_bit_errors": 73,
				"no_output": 103, "permanent_faults": 66, "scrub_miscorrections": 27,
				"scrub_ops": 9605, "seus": 1068, "wrong_output": 10,
			},
			weights: map[string]campaign.Moments{
				"capability_exceeded": {WSum: 1.5628969191281556, WSum2: 0.05393700106026028},
				"correct":             {WSum: 850.7446880505075, WSum2: 2798.832533684364},
				"no_output":           {WSum: 1.5092218585524542, WSum2: 0.052473597379063895},
				"wrong_output":        {WSum: 0.05367506057570115, WSum2: 0.0014634036811963858},
			},
			digest: "011aaef1b229c73e9b7eef5f654eeb2db3d91e03f4e3a5b0b93fd24a929bf721",
		},
		{
			name: "duplex/tilt+periodic-scrub",
			cfg: Config{
				Code: code, Duplex: true, LambdaBit: 3e-5, LambdaSymbol: 2e-5,
				ScrubPeriod: 8, TiltFactor: 6,
				Horizon: 48, Trials: 500, Seed: 23,
			},
			counters: map[string]int64{
				"capability_exceeded": 106, "correct": 489, "data_bit_errors": 9,
				"no_output": 9, "permanent_faults": 105, "scrub_miscorrections": 16,
				"scrub_ops": 2500, "seus": 1308,
				"verdict/both-failed": 4, "verdict/corrected-agree": 142,
				"verdict/differ-no-flags": 5, "verdict/flag-resolved": 2,
				"verdict/no-error": 252, "verdict/one-word-failed": 95,
				"wrong_output": 2,
			},
			weights: map[string]campaign.Moments{
				"capability_exceeded":     {WSum: 2.808486915144673, WSum2: 0.5135124534638716},
				"correct":                 {WSum: 510.0087608921951, WSum2: 3585.598454488194},
				"no_output":               {WSum: 0.10279808386145402, WSum2: 0.003937619994254064},
				"verdict/both-failed":     {WSum: 0.0004727901360250838, WSum2: 8.439417317078405e-08},
				"verdict/corrected-agree": {WSum: 32.6523051643004, WSum2: 35.038568414358785},
				"verdict/differ-no-flags": {WSum: 0.10232529372542894, WSum2: 0.003937535600080894},
				"verdict/flag-resolved":   {WSum: 0.3063680081442547, WSum2: 0.07087490178221001},
				"verdict/no-error":        {WSum: 474.6519835807512, WSum2: 3550.050312718404},
				"verdict/one-word-failed": {WSum: 2.399320823138965, WSum2: 0.4386999316874077},
				"wrong_output":            {WSum: 0.0012166841397312192, WSum2: 1.4780393722742866e-06},
			},
			digest: "02d1287f53476de74f206fcf5def28550405ba33a6ebe6b414041dcfdba5c1e6",
		},
	}
}

func TestBatchGoldenOutputs(t *testing.T) {
	for _, tc := range batchGoldenCases() {
		scn, err := tc.cfg.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		cres, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(cres)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got := hex.EncodeToString(sum[:])
		if got != tc.digest || !reflect.DeepEqual(cres.Counters, tc.counters) || !reflect.DeepEqual(cres.Weights, tc.weights) {
			t.Errorf("%s: golden mismatch\ndigest   %q\ncounters %#v\nweights  %#v", tc.name, got, cres.Counters, cres.Weights)
		}
	}
}
