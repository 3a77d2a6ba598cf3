package pagesim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/gf"
	"repro/internal/interleave"
	"repro/internal/rs"
)

// simulate runs cfg on the shared engine, as a spec entry does, and
// reassembles the simulator's Result. The result is deterministic for
// a fixed Config (including Seed), whatever the worker count.
func simulate(cfg Config) (*Result, error) {
	scn, err := Scenario(cfg)
	if err != nil {
		return nil, err
	}
	cres, err := campaign.Run(scn, campaign.Config{})
	if err != nil {
		return nil, err
	}
	return ResultFromCampaign(cfg, cres), nil
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{Depth: 0, Horizon: 1, Trials: 1},
		{Depth: 2, LambdaBit: -1, Horizon: 1, Trials: 1},
		{Depth: 2, BurstPerKilobit: 1, BurstBits: 0, Horizon: 1, Trials: 1},
		{Depth: 2, LambdaColumn: -1, Horizon: 1, Trials: 1},
		{Depth: 2, ScrubPeriod: -1, Horizon: 1, Trials: 1},
		{Depth: 2, Horizon: 0, Trials: 1},
		{Depth: 2, Horizon: math.Inf(1), Trials: 1},
		{Depth: 2, Horizon: 1, Trials: 0},
		// Non-finite rates would spin the event loop forever (tEvent
		// stalls on an Inf rate; NaN falsifies every comparison).
		{Depth: 2, LambdaBit: math.Inf(1), Horizon: 1, Trials: 1},
		{Depth: 2, LambdaBit: math.NaN(), Horizon: 1, Trials: 1},
		{Depth: 2, BurstPerKilobit: math.Inf(1), BurstBits: 4, Horizon: 1, Trials: 1},
		{Depth: 2, LambdaColumn: math.NaN(), Horizon: 1, Trials: 1},
		{Depth: 2, ScrubPeriod: math.Inf(1), Horizon: 1, Trials: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	// Structural rejections surface at Scenario build time.
	if _, err := Scenario(Config{Depth: 2, N: 3, K: 5, Horizon: 1, Trials: 1}); err == nil {
		t.Error("invalid code accepted")
	}
	if _, err := Scenario(Config{Depth: 2, BurstPerKilobit: 1, BurstBits: 10000, Horizon: 1, Trials: 1}); err == nil {
		t.Error("burst longer than the stored page accepted")
	}
	// Finite rates whose expected arrivals per trial overflow (1e307)
	// or exceed the clock's bound (1e300) would never reach the horizon.
	for _, lb := range []float64{1e307, 1e300} {
		if _, err := Scenario(Config{Depth: 2, LambdaBit: lb, Horizon: 48, Trials: 1}); err == nil {
			t.Errorf("lambda_bit %g accepted", lb)
		}
	}
	// So would 4.8e13 scrub instants per trial.
	if _, err := Scenario(Config{Depth: 2, ScrubPeriod: 1e-12, ExponentialScrub: true, Horizon: 48, Trials: 1}); err == nil {
		t.Error("scrub period 1e-12 accepted")
	}
}

// TestScenarioRefusesOversizedPage: a depth whose page exceeds
// interleave.MaxStoredSymbols is refused with an error naming the
// limit, before any worker could allocate a page-sized array.
func TestScenarioRefusesOversizedPage(t *testing.T) {
	for _, depth := range []int{1 << 40, 1 << 30, interleave.MaxStoredSymbols/18 + 1} {
		_, err := Scenario(Config{Depth: depth, LambdaBit: 1e-9, Horizon: 1, Trials: 1})
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(interleave.MaxStoredSymbols)) {
			t.Errorf("depth %d: err %v, want a refusal naming the %d-symbol limit", depth, err, interleave.MaxStoredSymbols)
		}
	}
}

// TestNewPageSharesCode: pages of equal (n, k, m) share one rs.Code,
// and so one packed syndrome table, whatever their depth; a different
// n gets a code of its own.
func TestNewPageSharesCode(t *testing.T) {
	var pages []*interleave.Page
	for _, cfg := range []Config{{Depth: 2}, {N: 18, K: 16, M: 8, Depth: 4}, {N: 20, Depth: 2}} {
		page, err := cfg.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, page)
	}
	if pages[0].Code() != pages[1].Code() {
		t.Error("two RS(18,16) pages built two codes")
	}
	if pages[0].Code() == pages[2].Code() {
		t.Error("an RS(20,16) page shares the RS(18,16) code")
	}
}

func TestNoFaultsNoLoss(t *testing.T) {
	res, err := simulate(Config{Depth: 2, Horizon: 48, Trials: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PageLoss != 0 || res.PageCorrect != 50 {
		t.Errorf("fault-free campaign lost pages: %+v", res)
	}
	if res.SEUs != 0 || res.Bursts != 0 || res.StuckColumns != 0 {
		t.Errorf("fault-free campaign injected faults: %+v", res)
	}
}

// TestCorrectableBurstEmpirical validates interleave.CorrectableBurst
// through the Monte Carlo: with depth 2 and RS(18,16) (t=1) the
// guarantee is 2 stored symbols, i.e. any bit burst of at most
// (2-1)*8+1 = 9 bits touches at most 2 symbols and always corrects —
// so trials whose entire fault history is one such burst must never
// lose the page. A 17-bit burst always spans at least 3 symbols,
// overloading one stripe, so every single-burst trial must lose.
func TestCorrectableBurstEmpirical(t *testing.T) {
	base := Config{
		Depth:           2,
		BurstPerKilobit: 3, // mean ~0.86 events over the horizon
		Horizon:         1,
		Trials:          2000,
		Seed:            3,
	}

	within := base
	within.BurstBits = 9
	res, err := simulate(within)
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleBurstTrials < 200 {
		t.Fatalf("only %d single-burst trials; statistics too weak", res.SingleBurstTrials)
	}
	if res.SingleBurstLosses != 0 {
		t.Errorf("%d of %d single bursts within the guarantee lost the page",
			res.SingleBurstLosses, res.SingleBurstTrials)
	}

	beyond := base
	beyond.BurstBits = 17
	res, err = simulate(beyond)
	if err != nil {
		t.Fatal(err)
	}
	if res.SingleBurstTrials < 200 {
		t.Fatalf("only %d single-burst trials; statistics too weak", res.SingleBurstTrials)
	}
	if res.SingleBurstLosses != res.SingleBurstTrials {
		t.Errorf("a 17-bit burst must overload a depth-2 t=1 page: %d losses of %d single bursts",
			res.SingleBurstLosses, res.SingleBurstTrials)
	}
}

// TestGeometricBurstLengths: the geometric length distribution must
// validate, run deterministically, and keep the guarantee invariant —
// single bursts within CorrectableBurst never lose the page — even
// though the tail of the distribution produces bursts far beyond the
// guarantee (which are excluded from the single-burst counters and
// free to lose pages).
func TestGeometricBurstLengths(t *testing.T) {
	cfg := Config{
		Depth:           2,
		BurstPerKilobit: 3,
		BurstDist:       "geometric",
		BurstMeanBits:   8, // guarantee for depth 2, t=1 is 9 bits; the tail goes far beyond
		Horizon:         1,
		Trials:          3000,
		Seed:            9,
	}
	scn, err := Scenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var results []*campaign.Result
	for _, workers := range []int{1, 4} {
		cres, err := campaign.Run(scn, campaign.Config{Workers: workers, ShardSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, cres)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Error("geometric burst campaign not worker-count deterministic")
	}
	res := ResultFromCampaign(cfg, results[0])
	if res.Bursts == 0 {
		t.Fatal("no bursts injected")
	}
	if res.SingleBurstTrials < 200 {
		t.Fatalf("only %d within-guarantee single-burst trials; statistics too weak", res.SingleBurstTrials)
	}
	if res.SingleBurstLosses != 0 {
		t.Errorf("%d of %d within-guarantee single bursts lost the page",
			res.SingleBurstLosses, res.SingleBurstTrials)
	}
	if res.PageLoss == 0 {
		t.Error("the geometric tail (bursts beyond the guarantee) should lose some pages")
	}

	// The scenario name must distinguish the distribution so
	// checkpoints cannot cross modes.
	if fixedName := mustScenario(t, Config{Depth: 2, BurstPerKilobit: 3, BurstBits: 8,
		Horizon: 1, Trials: 10, Seed: 9}).Name(); fixedName == scn.Name() {
		t.Error("geometric and fixed campaigns share a scenario name")
	}

	bad := cfg
	bad.BurstMeanBits = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("sub-1 geometric mean accepted")
	}
	bad = cfg
	bad.BurstDist = "uniform"
	if err := bad.Validate(); err == nil {
		t.Error("unknown burst distribution accepted")
	}
}

func mustScenario(t *testing.T, cfg Config) campaign.Scenario {
	t.Helper()
	scn, err := Scenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

// TestDeeperInterleavingAbsorbsBursts: under a burst environment rare
// enough that single events dominate, deepening the interleave at the
// same code must cut the page-loss fraction — the trade-off the
// matrix sweeps measure. A 24-bit burst spans 3-4 stored symbols:
// beyond t=2 for a depth-1 RS(20,16) page (every burst kills it), but
// at most one symbol per stripe at depth 4 (only >= 3 coinciding
// bursts can overload a stripe), even though the deeper page honestly
// pays ~4x the event exposure for its footprint.
func TestDeeperInterleavingAbsorbsBursts(t *testing.T) {
	loss := func(depth int) float64 {
		res, err := simulate(Config{
			N: 20, K: 16,
			Depth:           depth,
			BurstPerKilobit: 0.25,
			BurstBits:       24,
			Horizon:         4,
			Trials:          3000,
			Seed:            5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Bursts == 0 {
			t.Fatal("no bursts injected")
		}
		return res.LossFraction()
	}
	shallow, deep := loss(1), loss(4)
	if shallow == 0 {
		t.Fatal("depth-1 page never lost; burst environment too mild")
	}
	if !(deep < shallow/2) {
		t.Errorf("depth 4 loss %v not well below depth 1 loss %v", deep, shallow)
	}
}

// TestScrubbingHelps: periodic scrubbing must cut the loss fraction
// under an SEU-accumulation environment (the paper's Section 2
// mechanism at page level).
func TestScrubbingHelps(t *testing.T) {
	run := func(scrub float64) *Result {
		res, err := simulate(Config{
			Depth:       2,
			LambdaBit:   2e-4,
			ScrubPeriod: scrub,
			Horizon:     48,
			Trials:      1500,
			Seed:        6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unscrubbed, scrubbed := run(0), run(4)
	if scrubbed.ScrubOps == 0 {
		t.Fatal("no scrubs performed")
	}
	if unscrubbed.ScrubOps != 0 {
		t.Fatal("scrub-free campaign scrubbed")
	}
	if !(scrubbed.LossFraction() < unscrubbed.LossFraction()/2) {
		t.Errorf("scrubbing did not help: %v vs %v", scrubbed.LossFraction(), unscrubbed.LossFraction())
	}
}

// TestStuckColumnsAreErasures: located stuck columns consume erasure
// capability; enough of them must eventually produce losses, and the
// counters must see the faults.
func TestStuckColumnsAreErasures(t *testing.T) {
	res, err := simulate(Config{
		Depth:        2,
		LambdaColumn: 5e-3,
		Horizon:      48,
		Trials:       1000,
		Seed:         7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StuckColumns == 0 {
		t.Fatal("no stuck columns injected")
	}
	if res.PageLoss == 0 {
		t.Error("stuck-column saturation never lost a page")
	}
	// Detected losses only: a stuck column is an erasure, and erasure
	// overflow is a detected failure, so silent losses require random
	// errors to conspire — none are injected here.
	if res.SilentLoss != 0 {
		t.Errorf("%d silent losses under erasure-only faults", res.SilentLoss)
	}
}

// mixedConfig is the determinism/resume workhorse: all three fault
// classes plus periodic scrubbing.
func mixedConfig() Config {
	return Config{
		Depth:           4,
		LambdaBit:       1e-4,
		BurstPerKilobit: 0.05,
		BurstBits:       12,
		LambdaColumn:    2e-4,
		ScrubPeriod:     8,
		Horizon:         48,
		Trials:          800,
		Seed:            42,
	}
}

// TestDeterminismAcrossWorkerCounts: per-trial reseeding makes the
// merged campaign result bit-identical for any worker count.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	scn, err := Scenario(mixedConfig())
	if err != nil {
		t.Fatal(err)
	}
	var results []*campaign.Result
	for _, workers := range []int{1, 4, 8} {
		cres, err := campaign.Run(scn, campaign.Config{Workers: workers, ShardSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, cres)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("worker count changed results:\n%+v\nvs\n%+v", results[0], results[i])
		}
	}
}

// TestResumedCampaignMatchesUninterrupted interrupts a checkpointed
// page campaign partway and verifies the resumed run is bit-identical
// to an uninterrupted one.
func TestResumedCampaignMatchesUninterrupted(t *testing.T) {
	cfg := mixedConfig()
	scn, err := Scenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64})
	if err != nil {
		t.Fatal(err)
	}

	cp := filepath.Join(t.TempDir(), "pagesim.ckpt.json")
	budget := &budgetScenario{Scenario: scn, remaining: 400}
	if _, err := campaign.Run(budget, campaign.Config{Workers: 4, ShardSize: 64, Checkpoint: cp}); err == nil {
		t.Fatal("interrupted campaign reported success")
	}

	cres, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	if cres.ResumedTrials == 0 {
		t.Fatal("resume recomputed every trial")
	}
	got := *cres
	got.ResumedTrials = 0 // the only field allowed to differ
	if !reflect.DeepEqual(want, &got) {
		t.Errorf("resumed campaign diverged:\nwant %+v\ngot  %+v", want, &got)
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

// TestResultRoundTrip: ResultFromCampaign must surface every counter.
func TestResultRoundTrip(t *testing.T) {
	cfg := mixedConfig()
	scn, err := Scenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := campaign.Run(scn, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := ResultFromCampaign(cfg, cres)
	if res.Trials != cfg.Trials {
		t.Errorf("trials %d, want %d", res.Trials, cfg.Trials)
	}
	if res.PageCorrect+res.PageLoss != res.Trials {
		t.Errorf("outcomes %d+%d do not partition %d trials", res.PageCorrect, res.PageLoss, res.Trials)
	}
	if res.PageCorrect == 0 || res.PageLoss == 0 {
		t.Errorf("mixed environment should produce both outcomes: %d correct, %d lost", res.PageCorrect, res.PageLoss)
	}
	if res.SEUs == 0 || res.Bursts == 0 || res.StuckColumns == 0 || res.ScrubOps == 0 {
		t.Errorf("missing fault/op counters: %+v", res)
	}
	if res.SilentLoss > res.PageLoss {
		t.Errorf("silent losses %d exceed losses %d", res.SilentLoss, res.PageLoss)
	}
}

func BenchmarkPageCampaign(b *testing.B) {
	cfg := mixedConfig()
	cfg.Trials = 200
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPagesimTrial times one page trial on a warm worker: the
// reseed, the fault and scrub events, the page decodes and scrub
// rewrites and the counter updates, without planning, worker
// construction or merging. The page is the paper's RS(18,16) at depth
// 4 under SEUs, bursts and stuck columns, scrubbed hourly.
func BenchmarkPagesimTrial(b *testing.B) {
	scn, err := Scenario(Config{
		Depth: 4, LambdaBit: 2e-5, BurstPerKilobit: 0.05, BurstBits: 9,
		LambdaColumn: 5e-5, ScrubPeriod: 1, Horizon: 48, Trials: 1, Seed: 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	w, err := scn.NewWorker()
	if err != nil {
		b.Fatal(err)
	}
	acc := campaign.NewAcc()
	if err := w.Trial(0, acc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Trial(i, acc); err != nil {
			b.Fatal(err)
		}
	}
}

// goldenCounters pins the exact campaign counters of the pre-detection
// simulator (captured at the commit introducing detection policies)
// for two fixed-seed configurations. The immediate policy — spelled
// "" or "immediate" — must reproduce them bit for bit: same RNG
// stream, same counter set (no location keys), same scenario name.
func goldenCounters(t *testing.T, cfg Config, wantName string, want map[string]int64) {
	t.Helper()
	for _, detection := range []string{"", DetectImmediate} {
		c := cfg
		c.Detection = detection
		scn := mustScenario(t, c)
		if scn.Name() != wantName {
			t.Fatalf("detection %q renamed the scenario:\ngot  %s\nwant %s", detection, scn.Name(), wantName)
		}
		cres, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cres.Counters, want) {
			t.Errorf("detection %q diverged from the historical outputs:\ngot  %v\nwant %v",
				detection, cres.Counters, want)
		}
		if len(cres.Samples) != 0 {
			t.Errorf("detection %q emitted %d samples; the immediate policy must not", detection, len(cres.Samples))
		}
	}
}

func TestImmediatePolicyMatchesHistoricalOutputs(t *testing.T) {
	goldenCounters(t, mixedConfig(),
		"pagesim:RS(18,16)/m=8:depth=4:lb=0.0001:bpk=0.05:bb=12:lc=0.0002:scrub=8:exp=false:h=48:seed=42",
		map[string]int64{
			"bursts":              1204,
			"corrected_symbols":   736,
			"failed_stripes":      623,
			"page_correct":        347,
			"page_loss":           453,
			"page_silent_loss":    25,
			"scrub_ops":           4000,
			"seus":                2077,
			"single_burst_trials": 14,
			"stuck_columns":       486,
		})
	goldenCounters(t,
		Config{Depth: 2, LambdaColumn: 4e-3, ScrubPeriod: 6, Horizon: 48, Trials: 500, Seed: 7},
		"pagesim:RS(18,16)/m=8:depth=2:lb=0:bpk=0:bb=0:lc=0.004:scrub=6:exp=false:h=48:seed=7",
		map[string]int64{
			"bursts":            0,
			"corrected_symbols": 522,
			"failed_stripes":    649,
			"page_correct":      57,
			"page_loss":         443,
			"scrub_ops":         3500,
			"seus":              0,
			"stuck_columns":     3484,
		})
}

// detectionConfig is the location-model workhorse: a stuck-column
// dominated environment with background SEUs and periodic scrubbing.
func detectionConfig(detection string) Config {
	return Config{
		Depth:            2,
		LambdaBit:        1e-5,
		LambdaColumn:     1.5e-3,
		ScrubPeriod:      6,
		Detection:        detection,
		DetectionLatency: 8,
		Horizon:          48,
		Trials:           1500,
		Seed:             11,
	}
}

// TestDetectionPolicyDeterminism: every policy's merged campaign is
// bit-identical for any worker count.
func TestDetectionPolicyDeterminism(t *testing.T) {
	for _, detection := range []string{DetectImmediate, DetectScrub, DetectLatency} {
		scn := mustScenario(t, detectionConfig(detection))
		var results []*campaign.Result
		for _, workers := range []int{1, 4, 8} {
			cres, err := campaign.Run(scn, campaign.Config{Workers: workers, ShardSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, cres)
		}
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0], results[i]) {
				t.Errorf("detection %q: worker count changed results", detection)
			}
		}
	}
}

// TestDetectionMonotonicity: on a shared seed set, locating stuck
// columns earlier can only help — page loss under immediate location
// must stay below fixed-latency location, which must stay below a
// latency that never elapses (never located). The fault histories are
// identical across policies (location consumes no randomness), so the
// ordering isolates exactly what the free-erasures assumption bought.
func TestDetectionMonotonicity(t *testing.T) {
	loss := func(detection string, latency float64) float64 {
		cfg := detectionConfig(detection)
		cfg.DetectionLatency = latency
		res, err := simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.StuckColumns == 0 {
			t.Fatal("no stuck columns injected")
		}
		return res.LossFraction()
	}
	immediate := loss(DetectImmediate, 0)
	latency := loss(DetectLatency, 8)
	never := loss(DetectLatency, 1e8)
	if !(immediate < latency && latency < never) {
		t.Errorf("page loss not monotone in detection delay: immediate %v, latency %v, never %v",
			immediate, latency, never)
	}
	// A zero latency locates every column before any decode sees it,
	// reproducing the immediate outcomes on the same seeds.
	if zero := loss(DetectLatency, 0); zero != immediate {
		t.Errorf("zero-latency loss %v differs from immediate %v", zero, immediate)
	}
}

// TestScrubDetectionLocates: under the scrub policy, columns become
// located only through scrub observations — never without scrubbing —
// and unlocated columns cost real reliability versus immediate
// location on the same seeds.
func TestScrubDetectionLocates(t *testing.T) {
	cfg := detectionConfig(DetectScrub)
	scn := mustScenario(t, cfg)
	cres, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	res := ResultFromCampaign(cfg, cres)
	if res.LocatedColumns == 0 {
		t.Fatal("scrub observation never located a column")
	}
	if res.LocatedColumns > res.StuckColumns {
		t.Errorf("located %d of %d stuck columns", res.LocatedColumns, res.StuckColumns)
	}
	if res.StuckUnlocatedReads == 0 {
		t.Error("no decode ever saw an unlocated stuck column")
	}
	immediate, err := simulate(detectionConfig(DetectImmediate))
	if err != nil {
		t.Fatal(err)
	}
	if !(res.LossFraction() > immediate.LossFraction()) {
		t.Errorf("scrub-located loss %v not above immediate %v: free erasures cost nothing?",
			res.LossFraction(), immediate.LossFraction())
	}

	// Every location observation is a valid (strike, delay) pair.
	xs, ys := cres.SeriesPoints(SeriesTimeToLocation)
	if int64(len(xs)) != res.LocatedColumns {
		t.Fatalf("%d time_to_location samples for %d located columns", len(xs), res.LocatedColumns)
	}
	for i := range xs {
		if xs[i] < 0 || xs[i] > cfg.Horizon || ys[i] < 0 || xs[i]+ys[i] > cfg.Horizon {
			t.Fatalf("sample %d: strike %v + delay %v outside the mission", i, xs[i], ys[i])
		}
	}

	// Without scrubbing there is no observation channel at all.
	unscrubbed := cfg
	unscrubbed.ScrubPeriod = 0
	noScrub, err := simulate(unscrubbed)
	if err != nil {
		t.Fatal(err)
	}
	if noScrub.LocatedColumns != 0 {
		t.Errorf("%d columns located without any scrub pass", noScrub.LocatedColumns)
	}
}

// TestLatencyDetectionSamples: under the latency policy every located
// column reports exactly the configured strike-to-location delay.
func TestLatencyDetectionSamples(t *testing.T) {
	cfg := detectionConfig(DetectLatency)
	scn := mustScenario(t, cfg)
	cres, err := campaign.Run(scn, campaign.Config{Workers: 4, ShardSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	res := ResultFromCampaign(cfg, cres)
	if res.LocatedColumns == 0 {
		t.Fatal("latency policy never located a column")
	}
	xs, ys := cres.SeriesPoints(SeriesTimeToLocation)
	if int64(len(xs)) != res.LocatedColumns {
		t.Fatalf("%d time_to_location samples for %d located columns", len(xs), res.LocatedColumns)
	}
	for i := range ys {
		if ys[i] != cfg.DetectionLatency {
			t.Fatalf("sample %d: delay %v, want the fixed latency %v", i, ys[i], cfg.DetectionLatency)
		}
		if xs[i]+cfg.DetectionLatency > cfg.Horizon {
			t.Fatalf("sample %d: column located at %v, after the horizon", i, xs[i]+cfg.DetectionLatency)
		}
	}
}

// TestDetectionValidation: unknown policies and bad latencies are
// rejected up front.
func TestDetectionValidation(t *testing.T) {
	base := Config{Depth: 2, Horizon: 1, Trials: 1}
	bad := base
	bad.Detection = "eventually"
	if err := bad.Validate(); err == nil {
		t.Error("unknown detection policy accepted")
	}
	bad = base
	bad.DetectionLatency = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative detection latency accepted")
	}
	bad = base
	bad.Detection = DetectLatency
	bad.DetectionLatency = math.Inf(1)
	if err := bad.Validate(); err == nil {
		t.Error("infinite detection latency accepted")
	}
	ok := base
	ok.Detection = DetectScrub
	if err := ok.Validate(); err != nil {
		t.Errorf("scrub policy rejected: %v", err)
	}
}

// TestScrubDecodeErrorCounted: a scrub pass whose decode fails
// structurally must count scrub_decode_errors and must not count as a
// completed scrub_op (the historical code swallowed the error after
// counting the op). A pass tallies into the worker, and the trial adds
// the tallies to the accumulator when its event loop ends.
func TestScrubDecodeErrorCounted(t *testing.T) {
	scn := mustScenario(t, Config{Depth: 2, LambdaBit: 0.05, ScrubPeriod: 1, Horizon: 2, Trials: 1, Seed: 1})
	cw, err := scn.NewWorker()
	if err != nil {
		t.Fatal(err)
	}
	w := cw.(*worker)
	// A decoder of a longer code makes every decode fail structurally —
	// the only failure class DecodeAll reports as an error (capability
	// overflow lands in a word's result instead).
	w.dec = rs.MustNew(gf.MustField(8), 20, 16).NewDecoder()
	acc := campaign.NewAcc()
	w.doScrub(1, 0, acc) // a new worker's stripes are all unsettled
	if got := w.scrubDecodeErrors; got != 1 {
		t.Errorf("scrub_decode_errors = %d, want 1", got)
	}
	if got := w.scrubOps; got != 0 {
		t.Errorf("abandoned scrub pass counted as %d completed scrub_ops", got)
	}

	// A whole trial with that decoder: SEUs unsettle stripes before each
	// pass, so the passes fail; their tally reaches the accumulator
	// before the final read, and that read's decode then fails the
	// trial.
	acc = campaign.NewAcc()
	if err := w.Trial(0, acc); err == nil {
		t.Error("trial decoded its final read with a decoder of another code")
	}
	if got := acc.Counter(CounterScrubDecodeErrors); got < 1 {
		t.Errorf("trial recorded scrub_decode_errors = %d, want >= 1", got)
	}
	if got := acc.Counter(CounterScrubOps); got != 0 {
		t.Errorf("trial recorded %d completed scrub_ops on a page no pass could decode", got)
	}
}

// writePage writes a random page onto a worker, as Trial does: the
// payload into w.truth's stripes, each encoded in place, and w.words a
// copy of it.
func writePage(t *testing.T, w *worker, rng *rand.Rand) {
	t.Helper()
	code := w.page.Code()
	n, k := code.N(), code.K()
	for s := 0; s < w.page.Depth(); s++ {
		word := w.truth[s*n : (s+1)*n]
		for j := 0; j < k; j++ {
			word[j] = gf.Elem(rng.Intn(code.Field().Size()))
		}
		if err := code.EncodeTo(word, word[:k]); err != nil {
			t.Fatal(err)
		}
	}
	copy(w.words, w.truth)
}

// plantFaults writes a random page onto a fresh worker and corrupts
// it the way a mission can: stuck columns (a random subset already
// located, all of them under the immediate policy) struck at random
// instants before now, SEUs, one burst, and now and then a stripe
// pushed past the code's capability.
func plantFaults(t *testing.T, w *worker, rng *rand.Rand, now float64) {
	t.Helper()
	writePage(t, w, rng)
	code := w.page.Code()
	n, depth, m := code.N(), w.page.Depth(), code.Field().M()
	for i := rng.Intn(depth*code.Redundancy()/2 + 1); i > 0; i-- {
		p := rng.Intn(len(w.words))
		s, j := w.page.Addr(p)
		if w.stuck[s*n+j] {
			continue
		}
		w.strike(p, gf.Elem(rng.Intn(code.Field().Size())), now*rng.Float64())
		if w.policy != detImmediate && rng.Intn(2) == 0 {
			// Located before now, by an earlier pass.
			w.located[s*n+j], w.ersDirty[s] = true, true
			w.unlocated--
		}
	}
	storedBits := len(w.words) * m
	for i := rng.Intn(6); i > 0; i-- {
		w.flipBits(rng.Intn(storedBits), 1)
	}
	length := 1 + rng.Intn(3*m)
	w.flipBits(rng.Intn(storedBits-length+1), length)
	if rng.Intn(3) == 0 {
		s := rng.Intn(depth)
		for i := 0; i <= code.Redundancy(); i++ {
			if idx := s*n + rng.Intn(n); !w.stuck[idx] {
				w.words[idx] ^= gf.Elem(1 + rng.Intn(code.Field().Size()-1))
				w.settled[s] = false
			}
		}
	}
}

// TestCompletedScrubIsFixedPoint pins the invariant behind skipping a
// settled stripe: once a scrub pass has completed, a second pass at the
// same instant — forced to decode every stripe — changes nothing but
// the scrub_ops count. Not the stored page, not the located columns,
// not a counter or a time_to_location sample.
func TestCompletedScrubIsFixedPoint(t *testing.T) {
	const now = 30.0
	for _, detection := range []string{DetectImmediate, DetectScrub, DetectLatency} {
		t.Run(detection, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			var corrected, failed, miscorrected, located int
			ref := map[int]*rs.Decoder{
				18: rs.MustNew(gf.MustField(8), 18, 16).NewDecoder(),
				20: rs.MustNew(gf.MustField(8), 20, 16).NewDecoder(),
			}
			for _, shape := range []struct{ n, depth int }{{18, 4}, {20, 3}} {
				scn := mustScenario(t, Config{
					N: shape.n, Depth: shape.depth, ScrubPeriod: 1, Detection: detection,
					DetectionLatency: now / 2, Horizon: 2 * now, Trials: 1,
				})
				for round := 0; round < 300; round++ {
					cw, err := scn.NewWorker()
					if err != nil {
						t.Fatal(err)
					}
					w := cw.(*worker)
					plantFaults(t, w, rng, now)
					acc := campaign.NewAcc()
					if w.policy == detLatency {
						w.locateByLatency(now, 0, acc) // as the pass starts
					}
					// What a full decode and rewrite of every stripe leaves,
					// from an independent per-word decode.
					n, k := w.page.Code().N(), w.page.Code().K()
					want := slices.Clone(w.words)
					for s := range w.settled {
						var ers []int
						for j, loc := range w.located[s*n : (s+1)*n] {
							if loc {
								ers = append(ers, j)
							}
						}
						res, err := ref[shape.n].Decode(w.words[s*n:(s+1)*n], ers)
						if err != nil {
							failed++
							continue
						}
						if res.Corrections > 0 {
							corrected++
						}
						if !slices.Equal(res.Data, w.truth[s*n:s*n+k]) {
							miscorrected++
						}
						for j, v := range res.Codeword {
							if i := s*n + j; !w.stuck[i] {
								want[i] = v
							}
						}
					}
					w.doScrub(now, 0, acc)
					if !slices.Equal(w.words, want) {
						t.Fatalf("RS(%d,16)x%d round %d: the pass left\n%v\nwant\n%v",
							shape.n, shape.depth, round, w.words, want)
					}
					for s, settled := range w.settled {
						if !settled && !w.ersDirty[s] {
							t.Fatalf("a completed scrub pass left stripe %d unsettled without a location", s)
						}
					}
					if w.trialLocated > 0 {
						located++
					}
					snapshot := func() string {
						return fmt.Sprintf("%v\n%v\nunlocated %d located %d decode errors %d\n%+v",
							w.words, w.located, w.unlocated, w.trialLocated, w.scrubDecodeErrors, *acc)
					}
					before := snapshot()
					ops := w.scrubOps
					for s := range w.settled {
						w.settled[s] = false
					}
					w.doScrub(now, 0, acc)
					if got := w.scrubOps; got != ops+1 {
						t.Fatalf("second pass counted %d scrub_ops, want 1", got-ops)
					}
					if after := snapshot(); after != before {
						t.Fatalf("RS(%d,16)x%d round %d: second pass changed the state\nbefore %s\nafter  %s",
							shape.n, shape.depth, round, before, after)
					}
				}
			}
			if corrected == 0 || failed == 0 || miscorrected == 0 {
				t.Errorf("fault mix too mild: %d stripes corrected, %d failed, %d miscorrected",
					corrected, failed, miscorrected)
			}
			if detection != DetectImmediate && located == 0 {
				t.Error("no first pass located a column")
			}
		})
	}
}

// TestLocationForcesDecode: a location event unsettles its stripe even
// when no fault arrived. Two unlocated stuck columns plus one flipped
// symbol overload an RS(20,16) stripe; once the latency policy locates
// both columns, the next pass must decode again, and the stripe now
// corrects (two erasures and one error fit n-k = 4).
func TestLocationForcesDecode(t *testing.T) {
	scn := mustScenario(t, Config{
		N: 20, Depth: 1, ScrubPeriod: 1, Detection: DetectLatency,
		DetectionLatency: 1, Horizon: 4, Trials: 1,
	})
	cw, err := scn.NewWorker()
	if err != nil {
		t.Fatal(err)
	}
	w := cw.(*worker)
	// A new worker's page is all zeros, the zero codeword.
	for _, p := range []int{2, 9} {
		w.strike(p, 0x5A, 0)
	}
	w.flipBits(8*14, 1)
	acc := campaign.NewAcc()
	w.doScrub(0.5, 0, acc)
	if len(w.fixed) != 0 || w.words[14] == 0 || !w.settled[0] {
		t.Fatalf("first pass: corrected stripes %v, symbol 14 = %#x, settled %t",
			w.fixed, w.words[14], w.settled[0])
	}
	w.doScrub(1.5, 0, acc)
	if w.trialLocated != 2 || len(w.fixed) != 1 || w.words[14] != 0 || w.words[2] != 0x5A || w.words[9] != 0x5A {
		t.Errorf("after location: %d located, corrected stripes %v, symbols 2, 9, 14 = %#x, %#x, %#x",
			w.trialLocated, w.fixed, w.words[2], w.words[9], w.words[14])
	}
}

// settledPage returns a fresh RS(20,16) worker for cfg holding a
// random page with every stripe settled, as Trial leaves it.
func settledPage(t *testing.T, cfg Config, rng *rand.Rand) *worker {
	t.Helper()
	cfg.N, cfg.Trials, cfg.Horizon = 20, 1, 48
	cw, err := mustScenario(t, cfg).NewWorker()
	if err != nil {
		t.Fatal(err)
	}
	w := cw.(*worker)
	writePage(t, w, rng)
	for s := range w.settled {
		w.settled[s] = true
	}
	return w
}

// corruptBehindBack flips one symbol at position pos of every stripe
// without telling the worker, so only a decode of the stripe can undo
// it. It returns the page as corrupted.
func corruptBehindBack(w *worker, pos int) []gf.Elem {
	n := w.page.Code().N()
	for s := range w.settled {
		w.words[s*n+pos] ^= 0x81
	}
	return slices.Clone(w.words)
}

// checkStripes checks that the stripes in decoded hold their truth,
// bar their stuck symbols, and that every other stripe still holds
// what the page held before the pass.
func checkStripes(t *testing.T, w *worker, before []gf.Elem, decoded ...int) {
	t.Helper()
	n := w.page.Code().N()
	for s := range w.settled {
		for i := s * n; i < (s+1)*n; i++ {
			want := before[i]
			switch {
			case !slices.Contains(decoded, s):
			case w.stuck[i]:
				want = w.stuckVal[i]
			default:
				want = w.truth[i]
			}
			if w.words[i] != want {
				t.Errorf("stripe %d position %d = %#x, want %#x (decoded stripes %v)", s, i-s*n, w.words[i], want, decoded)
			}
		}
	}
	if !slices.Equal(w.fixed, decoded) {
		t.Errorf("the pass corrected stripes %v, want %v", w.fixed, decoded)
	}
}

// TestSettledStripeLeftAlone: a pass decodes the stripes a flip or a
// strike touched and leaves every settled stripe's bytes alone — even
// after the test corrupts them behind the worker's back, which a
// decode would undo.
func TestSettledStripeLeftAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := settledPage(t, Config{Depth: 4, ScrubPeriod: 1}, rng)
	n := w.page.Code().N()
	before := corruptBehindBack(w, 5)
	// Stripe 1 takes an SEU at position 7, stripe 2 a stuck column at
	// position 11 that drives a wrong value; stripes 0 and 3 stay
	// settled.
	w.flipBits((7*4+1)*8, 1)
	w.strike(11*4+2, w.truth[2*n+11]^0x3C, 1)
	w.doScrub(1, 0, campaign.NewAcc())
	checkStripes(t, w, before, 1, 2)
}

// TestLocationDecodesOnlyItsStripe: a location unsettles the one
// stripe it changes the erasure list of, and the next pass decodes
// that stripe alone.
func TestLocationDecodesOnlyItsStripe(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := settledPage(t, Config{Depth: 4, ScrubPeriod: 1, Detection: DetectLatency, DetectionLatency: 1}, rng)
	n := w.page.Code().N()
	// An unlocated dead column in stripe 2; the pass at 0.5 h corrects
	// it as an error and settles the page again.
	w.strike(11*4+2, w.truth[2*n+11]^0x3C, 0)
	w.doScrub(0.5, 0, campaign.NewAcc())
	if w.trialLocated != 0 || !slices.Equal(w.fixed, []int{2}) {
		t.Fatalf("first pass: %d located, corrected stripes %v", w.trialLocated, w.fixed)
	}
	before := corruptBehindBack(w, 5)
	w.doScrub(1.5, 0, campaign.NewAcc()) // the latency has elapsed
	if w.trialLocated != 1 {
		t.Fatalf("%d columns located, want 1", w.trialLocated)
	}
	checkStripes(t, w, before, 2)
}

// TestTrialZeroAllocs: a warm worker's trial — page write, faults,
// scrub passes and the final read — allocates nothing.
func TestTrialZeroAllocs(t *testing.T) {
	scn := mustScenario(t, Config{
		Depth: 4, LambdaBit: 2e-5, BurstPerKilobit: 0.05, BurstBits: 9,
		LambdaColumn: 5e-5, ScrubPeriod: 1, Horizon: 48, Trials: 1, Seed: 21,
	})
	w, err := scn.NewWorker()
	if err != nil {
		t.Fatal(err)
	}
	acc := campaign.NewAcc()
	const trials = 64
	for i := 0; i < trials; i++ { // every counter key exists after these
		if err := w.Trial(i, acc); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(trials, func() {
		if err := w.Trial(i, acc); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Errorf("a trial allocates %.1f times", allocs)
	}
}

// batchGoldenCases are the fixed-seed configurations whose complete
// campaign output — counters and serialized result, including the
// time_to_location sample series — is pinned across the batch-decode
// switch: the batch page path must reproduce the per-word decode
// stream byte for byte (decoding consumes no randomness, so any
// divergence is a decode-semantics change, not noise).
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
			name: "mixed/immediate", cfg: mixedConfig(),
			counters: map[string]int64{
				"bursts": 1204, "corrected_symbols": 736, "failed_stripes": 623,
				"page_correct": 347, "page_loss": 453, "page_silent_loss": 25,
				"scrub_ops": 4000, "seus": 2077, "single_burst_trials": 14,
				"stuck_columns": 486,
			},
			digest: "47d948cdf780dedc2e86d4fe8398a28652842bbdfafc39e718b27b6d0b67c6d5",
		},
		{
			name: "detect/scrub", cfg: detectionConfig(DetectScrub),
			counters: map[string]int64{
				"bursts": 0, "corrected_symbols": 1083, "failed_stripes": 1099,
				"located_columns": 1847, "page_correct": 601, "page_loss": 899,
				"page_silent_loss": 11, "scrub_ops": 10500, "seus": 188,
				"stuck_columns": 3905, "stuck_unlocated_reads": 5297,
			},
			digest: "c32c974a8fb8b1ff772829c5f0d85a8c9dc6e0540084ee9b60aff22a083e7300",
		},
		{
			name: "detect/latency", cfg: detectionConfig(DetectLatency),
			counters: map[string]int64{
				"bursts": 0, "corrected_symbols": 2282, "failed_stripes": 506,
				"located_columns": 3147, "page_correct": 928, "page_loss": 572,
				"page_silent_loss": 111, "scrub_ops": 10500, "seus": 188,
				"stuck_columns": 3905, "stuck_unlocated_reads": 3982,
			},
			digest: "3363ef0208864a56d6c3206535570d09b19afdc690b11f956e9b130b6c320ba3",
		},
		{
			// SEUs, bursts and stuck columns under a tilted arrival clock
			// and exponential scrubbing: pins the likelihood ratios
			// through the page_* weight moments.
			name: "mixed/tilt+exp-scrub",
			cfg: Config{
				Depth: 4, LambdaBit: 1e-5, BurstPerKilobit: 0.005, BurstBits: 12,
				LambdaColumn: 2e-5, ScrubPeriod: 8, ExponentialScrub: true,
				TiltFactor: 6, Horizon: 48, Trials: 800, Seed: 42,
			},
			counters: map[string]int64{
				"bursts": 753, "corrected_symbols": 471, "failed_stripes": 384,
				"page_correct": 527, "page_loss": 273, "page_silent_loss": 11,
				"scrub_ops": 4839, "seus": 1273, "single_burst_trials": 45,
				"stuck_columns": 292,
			},
			weights: map[string]campaign.Moments{
				"page_correct":     {WSum: 820.2006767002651, WSum2: 6082.475797793973},
				"page_loss":        {WSum: 8.53555159222269, WSum2: 1.546044405788624},
				"page_silent_loss": {WSum: 0.861261866021952, WSum2: 0.20591181144926923},
			},
			digest: "9578a54daff1866816aef00a9c9ba684e9b7ff0cea1e388221af64665838f93c",
		},
		{
			// Variable-length bursts under scrub-time location on an
			// n-k = 4 code at an odd depth, exponentially scrubbed: the
			// scrub rewrite and its location observations over stripes
			// that each absorb two errors.
			name: "geometric/scrub-detect/RS(20,16)x3",
			cfg: Config{
				N: 20, K: 16, Depth: 3, LambdaBit: 5e-5, BurstPerKilobit: 0.1,
				BurstDist: "geometric", BurstMeanBits: 6, LambdaColumn: 1e-3,
				ScrubPeriod: 6, ExponentialScrub: true, Detection: DetectScrub,
				Horizon: 48, Trials: 800, Seed: 23,
			},
			counters: map[string]int64{
				"bursts": 1801, "corrected_symbols": 1836, "failed_stripes": 387,
				"located_columns": 1621, "page_correct": 496, "page_loss": 304,
				"page_silent_loss": 3, "scrub_ops": 6347, "seus": 905,
				"single_burst_trials": 3, "stuck_columns": 2339,
				"stuck_unlocated_reads": 2359,
			},
			digest: "f92db02a155b454ae2df1d82983de042427143e69b83535a8bbecdca122bafe2",
		},
	}
}

func TestBatchGoldenOutputs(t *testing.T) {
	for _, tc := range batchGoldenCases() {
		scn := mustScenario(t, tc.cfg)
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
