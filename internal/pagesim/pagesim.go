// Package pagesim is a page-level Monte Carlo fault-injection
// simulator for the interleaved memory organization of paper ref [6]
// (internal/interleave): a stored page of depth*n symbols striped
// across depth independent RS codewords, exposed to the mixed fault
// environment of a solid-state mass memory —
//
//   - transient SEUs: Poisson single-bit flips across the stored page;
//   - multi-bit upsets: Poisson burst events flipping a run of
//     adjacent stored bits whose length comes from a configurable
//     distribution (internal/burstlen): fixed at BurstBits, or
//     geometric with mean BurstMeanBits capped at the page size
//     (placement is clamped so every event applies its full sampled
//     length, matching internal/mbusim);
//   - stuck-at columns: permanent whole-symbol failures (a dead
//     physical column) that force the stored symbol to a random value;
//
// with an optional scrub discipline (periodic or exponential, via
// internal/scrub) that decodes, corrects and rewrites the page
// between events. The page is read once at the mission horizon and
// the outcome classified per stripe and per page.
//
// The page is stored in the decoder's layout, stripe s at
// [s*n, (s+1)*n) of one rs.Batch arena, and faults reach it through the
// interleave.Page address map, so each stripe is encoded and decoded in
// place. A scrub pass decodes only the stripes a flip, a strike or a
// location touched since their last decode, and a corrected stripe is
// rewritten in place by its own decode. Both are exact (see doScrub):
// outcomes equal a full decode and re-encode of every stripe per pass.
//
// # Stuck-column detection and location
//
// The paper's central transient-vs-permanent distinction is that a
// located fault is an erasure (RS corrects up to n-k of them) while an
// unlocated one is a random error (only (n-k)/2): permanent faults
// buy the doubled budget only after the controller has detected and
// located them. The simulator therefore keeps two per-column states —
// stuck (physical: the column drives the line) and located (known to
// the controller: passed to the decoder as an erasure) — bridged by a
// configurable detection policy:
//
//   - "immediate" (the default): a column is located the instant it
//     strikes, the historical free-erasures behavior. This policy is
//     bit-identical to earlier releases — same RNG stream, counters
//     and scenario name — so existing determinism tests, nightly
//     tolerance bands and checkpoints are untouched.
//   - "scrub": a column becomes located when a scrub pass observes its
//     symbol deviate from the corrected codeword (the controller's
//     persistence check, abstracted to one observation). Until then
//     the dead column consumes error capability and can contribute to
//     miscorrections — which the scrub rewrite then entrenches.
//   - "latency": a column becomes located a fixed DetectionLatency
//     hours after striking, mirroring memsim.Config.DetectionLatency
//     (the self-checking-hardware model of paper Section 2).
//
// Non-immediate policies additionally report located_columns,
// stuck_unlocated_reads and a time_to_location sample series; the
// immediate policy reports the historical counter set only, keeping
// its campaign artifacts byte-identical.
//
// The simulator empirically validates interleave.Page.CorrectableBurst:
// a trial whose only fault is one MBU burst within the guarantee
// (length <= (depth*t-1)*m+1 stored bits, which can touch at most
// depth*t symbols) must never lose the page, so campaigns report
// single-burst trials and losses as separate counters that tests and
// spec tolerance bands pin to zero. Under the fixed distribution the
// counters keep their historical meaning (every single-burst trial,
// whatever BurstBits is); under a variable-length distribution only
// within-guarantee bursts are counted, since they are the subset the
// invariant speaks about.
//
// Campaigns run on the internal/campaign engine with per-trial
// reseeding, so the aggregate statistics are bit-identical for any
// worker count and inherit checkpointing and early stopping. All
// rates are per hour, matching internal/memsim. As with mbusim, the
// fixed distribution samples its length without consuming randomness,
// so fixed-burst campaigns reproduce the exact pre-distribution RNG
// stream and none of the committed tolerance bands move; geometric
// campaigns draw one extra uniform per event (a new stream by
// construction).
package pagesim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/burstlen"
	"repro/internal/campaign"
	"repro/internal/gf"
	"repro/internal/interleave"
	"repro/internal/rs"
	"repro/internal/scrub"
)

// Config parameterizes a page campaign.
type Config struct {
	// N, K, M describe the per-stripe RS(n,k) code over GF(2^m).
	N, K, M int
	// Depth is the interleaving depth (codewords per page), >= 1.
	Depth int

	// LambdaBit is the SEU rate per stored bit per hour.
	LambdaBit float64
	// BurstPerKilobit is the MBU burst event rate per 1000 stored bits
	// per hour; each event flips a run of adjacent stored bits whose
	// length the burst distribution draws.
	BurstPerKilobit float64
	// BurstBits is the length of each MBU burst in stored bits under
	// the default fixed distribution; required when BurstPerKilobit >
	// 0 and BurstDist is "" or "fixed".
	BurstBits int
	// BurstDist selects the burst-length distribution: "" or "fixed"
	// (every burst is BurstBits long) or "geometric" (lengths drawn
	// with mean BurstMeanBits, capped at the stored page size).
	BurstDist string
	// BurstMeanBits is the geometric mean burst length (>= 1).
	BurstMeanBits float64
	// LambdaColumn is the stuck-at column rate per stored symbol per
	// hour: a struck symbol is permanently forced to a random value.
	// When (and whether) the controller locates it — turning the error
	// into an erasure for every later decode — is the Detection
	// policy's decision.
	LambdaColumn float64

	// Detection selects the stuck-column location policy: "" or
	// DetectImmediate (located at the strike instant, the historical
	// behavior), DetectScrub (located when a scrub pass observes the
	// symbol deviate from the corrected codeword; never located
	// without scrubbing), or DetectLatency (located DetectionLatency
	// hours after striking).
	Detection string
	// DetectionLatency is the strike-to-location delay in hours under
	// DetectLatency, mirroring memsim.Config.DetectionLatency. The
	// other policies ignore it (so a matrix sweep can share one value
	// across detection cells); zero under DetectLatency locates at the
	// next decode, reproducing immediate outcomes.
	DetectionLatency float64

	// ScrubPeriod is the hours between scrub passes (0 disables);
	// ExponentialScrub draws exponential intervals with that mean
	// instead of the deterministic controller schedule.
	ScrubPeriod      float64
	ExponentialScrub bool

	// TiltFactor biases the fault arrival process for importance
	// sampling, exactly as memsim.Config.TiltFactor: all fault rates
	// (SEU, burst and stuck-column) are jointly multiplied by the
	// factor — only the arrival clock changes, never the event-type
	// split — and each trial's page classification carries the
	// exponential-tilt likelihood ratio θ^-k·exp((θ-1)·R0·H) into the
	// engine's weighted counters. 0 or 1 disables tilting with a
	// bit-identical trial stream; values > 1 enable it.
	TiltFactor float64

	Horizon float64 // storage time in hours; the page is read once at the end
	Trials  int
	Seed    int64
}

// weighted reports whether trials carry importance-sampling weights.
func (c Config) weighted() bool { return c.TiltFactor > 1 }

// Detection policy names accepted by Config.Detection.
const (
	DetectImmediate = "immediate"
	DetectScrub     = "scrub"
	DetectLatency   = "latency"
)

// detectPolicy is the parsed form of Config.Detection.
type detectPolicy int

const (
	detImmediate detectPolicy = iota
	detScrub
	detLatency
)

// policy parses Config.Detection ("" selects immediate, the
// historical behavior).
func (c Config) policy() (detectPolicy, error) {
	switch c.Detection {
	case "", DetectImmediate:
		return detImmediate, nil
	case DetectScrub:
		return detScrub, nil
	case DetectLatency:
		return detLatency, nil
	}
	return 0, fmt.Errorf("pagesim: unknown detection policy %q (want %q, %q or %q)",
		c.Detection, DetectImmediate, DetectScrub, DetectLatency)
}

// Validate checks the configuration (code shape is validated when the
// page is built).
func (c Config) Validate() error {
	finite := func(v float64) bool { return v >= 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }
	switch {
	case c.Depth <= 0:
		return fmt.Errorf("pagesim: nonpositive interleaving depth %d", c.Depth)
	case !finite(c.LambdaBit) || !finite(c.BurstPerKilobit) || !finite(c.LambdaColumn):
		// A non-finite rate would make the event loop's tEvent stall at
		// t (Inf rate) or every comparison false (NaN), spinning the
		// trial forever — the same hang class as Periodic.Next(+Inf).
		return fmt.Errorf("pagesim: fault rates must be finite and nonnegative")
	case !finite(c.ScrubPeriod):
		return fmt.Errorf("pagesim: invalid scrub period %v", c.ScrubPeriod)
	case c.Horizon <= 0 || math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0):
		return fmt.Errorf("pagesim: invalid horizon %v", c.Horizon)
	case c.Trials <= 0:
		return fmt.Errorf("pagesim: need at least one trial")
	case c.DetectionLatency < 0 || math.IsNaN(c.DetectionLatency) || math.IsInf(c.DetectionLatency, 1):
		// +Inf would be a legal "never located", but DetectScrub with
		// no scrubbing already expresses that; rejecting non-finite
		// keeps the location instants finite arithmetic.
		return fmt.Errorf("pagesim: invalid detection latency %v", c.DetectionLatency)
	case math.IsNaN(c.TiltFactor) || math.IsInf(c.TiltFactor, 0) || c.TiltFactor < 0:
		return fmt.Errorf("pagesim: invalid tilt factor %v", c.TiltFactor)
	case c.TiltFactor != 0 && c.TiltFactor < 1:
		return fmt.Errorf("pagesim: tilt factor %v must be >= 1 (or 0/1 to disable)", c.TiltFactor)
	}
	if _, err := c.policy(); err != nil {
		return err
	}
	if c.BurstPerKilobit > 0 {
		if err := c.dist().Validate(); err != nil {
			return fmt.Errorf("pagesim: burst rate %g: %w", c.BurstPerKilobit, err)
		}
	}
	return nil
}

// dist assembles the burst-length distribution the config selects.
func (c Config) dist() burstlen.Dist {
	return burstlen.Dist{Kind: c.BurstDist, Bits: c.BurstBits, MeanBits: c.BurstMeanBits}
}

// Counter keys reported into the campaign engine. PageLoss and
// PageCorrect are per-trial (binomial); the rest are totals.
const (
	// CounterPageCorrect / CounterPageLoss classify each trial's final
	// read: the page is lost when any stripe fails to decode or the
	// returned data differs from the stored truth.
	CounterPageCorrect = "page_correct"
	CounterPageLoss    = "page_loss"
	// CounterSilentLoss is the subset of page_loss in which every
	// stripe decoded but the data was wrong (mis-correction).
	CounterSilentLoss = "page_silent_loss"

	// CounterCorrectedSymbols / CounterFailedStripes total the final
	// read's symbol corrections and failed stripes across trials.
	CounterCorrectedSymbols = "corrected_symbols"
	CounterFailedStripes    = "failed_stripes"

	// Fault and operation totals.
	CounterSEUs         = "seus"
	CounterBursts       = "bursts"
	CounterStuckColumns = "stuck_columns"
	CounterScrubOps     = "scrub_ops"

	// CounterSingleBurstTrials / CounterSingleBurstLosses isolate the
	// trials whose entire fault history is exactly one MBU burst; with
	// the burst within the CorrectableBurst guarantee the loss counter
	// must stay zero, which is the empirical validation campaigns and
	// tolerance bands pin. Under the fixed distribution every
	// single-burst trial counts (the historical meaning, including
	// deliberately out-of-guarantee BurstBits); under a variable
	// distribution only within-guarantee bursts count, since they are
	// the subset the guarantee speaks about.
	CounterSingleBurstTrials = "single_burst_trials"
	CounterSingleBurstLosses = "single_burst_losses"

	// Location counters, reported only under a non-immediate detection
	// policy (the immediate policy keeps the historical counter set so
	// its campaign artifacts stay byte-identical).
	// CounterLocatedColumns totals the stuck columns the controller
	// located before the mission ended; CounterStuckUnlocatedReads
	// totals the decodes (scrub passes and final reads) that ran while
	// at least one stuck column was still unlocated — every one of
	// them paid error-decoding rates for a fault erasure decoding
	// would have absorbed.
	CounterLocatedColumns      = "located_columns"
	CounterStuckUnlocatedReads = "stuck_unlocated_reads"

	// CounterScrubDecodeErrors counts scrub passes abandoned because
	// the page decode failed structurally.
	// Such failures are impossible for a validated configuration, so
	// the counter is normally absent; a nonzero value is surfaced by
	// cmd/campaign instead of being silently swallowed (the abandoned
	// pass is excluded from scrub_ops).
	CounterScrubDecodeErrors = "scrub_decode_errors"
)

// SeriesTimeToLocation labels the per-column location samples emitted
// under non-immediate detection policies: x is the strike instant in
// hours, y the hours the column stayed unlocated.
const SeriesTimeToLocation = "time_to_location"

// Result aggregates a campaign.
type Result struct {
	Config Config
	Trials int

	PageCorrect int
	PageLoss    int
	SilentLoss  int

	CorrectedSymbols int64
	FailedStripes    int64

	SEUs         int64
	Bursts       int64
	StuckColumns int64
	ScrubOps     int64

	SingleBurstTrials int64
	SingleBurstLosses int64

	// Location statistics (zero under the immediate policy, where
	// every stuck column is located at its strike instant).
	LocatedColumns      int64
	StuckUnlocatedReads int64
	ScrubDecodeErrors   int64
}

// LossFraction is the observed page-loss probability.
func (r *Result) LossFraction() float64 {
	return float64(r.PageLoss) / float64(r.Trials)
}

// scenario adapts a validated Config to the campaign engine.
type scenario struct {
	cfg    Config
	dist   burstlen.Dist
	policy detectPolicy
	page   *interleave.Page
}

// NewPage builds the interleaved page layout the configuration
// describes (defaults: the paper's RS(18,16) over GF(2^8)).
func (c Config) NewPage() (*interleave.Page, error) {
	n, k, m := c.N, c.K, c.M
	if n == 0 {
		n = 18
	}
	if k == 0 {
		k = 16
	}
	if m == 0 {
		m = 8
	}
	field, err := gf.NewField(m)
	if err != nil {
		return nil, err
	}
	code, err := rs.New(field, n, k)
	if err != nil {
		return nil, err
	}
	return interleave.New(code, c.Depth)
}

// Scenario adapts the configuration to the campaign engine's
// Scenario interface (validating it first).
func Scenario(cfg Config) (campaign.Scenario, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	page, err := cfg.NewPage()
	if err != nil {
		return nil, fmt.Errorf("pagesim: %w", err)
	}
	dist := cfg.dist()
	storedBits := page.StoredSymbols() * page.Code().Field().M()
	if cfg.BurstPerKilobit > 0 && dist.IsFixed() && cfg.BurstBits > storedBits {
		// A fixed burst longer than the page has no untruncated
		// placement; geometric lengths are capped at the page by
		// construction.
		return nil, fmt.Errorf("pagesim: burst of %d bits exceeds the %d-bit stored page", cfg.BurstBits, storedBits)
	}
	policy, err := cfg.policy()
	if err != nil {
		return nil, err
	}
	_, _, total := cfg.rates(page)
	if err := scrub.CheckArrivals(total, cfg.TiltFactor, cfg.Horizon, cfg.ScrubPeriod); err != nil {
		return nil, fmt.Errorf("pagesim: %w", err)
	}
	return &scenario{cfg: cfg, dist: dist, policy: policy, page: page}, nil
}

// rates returns the page's SEU and burst event rates and the untilted
// total with stuck columns (per hour): the rate each trial's clock
// starts with, and the one Scenario bounds.
func (c Config) rates(page *interleave.Page) (seu, burst, total float64) {
	storedSymbols := page.StoredSymbols()
	storedBits := storedSymbols * page.Code().Field().M()
	seu = c.LambdaBit * float64(storedBits)
	burst = c.BurstPerKilobit * float64(storedBits) / 1000
	col := c.LambdaColumn * float64(storedSymbols)
	return seu, burst, seu + burst + col
}

// Name encodes the full configuration so checkpoints from a different
// campaign are rejected rather than silently merged. Fixed-length
// bursts keep the historical "bb=<bits>" form, and the immediate
// detection policy omits its suffix entirely, so pre-existing
// checkpoints stay resumable.
func (s *scenario) Name() string {
	c := s.cfg
	code := s.page.Code()
	name := fmt.Sprintf("pagesim:RS(%d,%d)/m=%d:depth=%d:lb=%g:bpk=%g:bb=%s:lc=%g:scrub=%g:exp=%t:h=%g:seed=%d",
		code.N(), code.K(), code.Field().M(), s.page.Depth(),
		c.LambdaBit, c.BurstPerKilobit, s.dist, c.LambdaColumn,
		c.ScrubPeriod, c.ExponentialScrub, c.Horizon, c.Seed)
	switch s.policy {
	case detScrub:
		name += ":det=scrub"
	case detLatency:
		name += fmt.Sprintf(":det=latency/%g", c.DetectionLatency)
	}
	if c.weighted() {
		// Tilted and untilted artifacts must never merge: their trial
		// streams sample different measures.
		name += fmt.Sprintf(":tilt=%g", c.TiltFactor)
	}
	return name
}

// Trials implements campaign.Scenario.
func (s *scenario) Trials() int { return s.cfg.Trials }

// Weighted implements campaign.WeightedScenario: a tilted campaign
// records per-trial likelihood ratios and its artifacts carry weight
// moments.
func (s *scenario) Weighted() bool { return s.cfg.weighted() }

// NewWorker implements campaign.Scenario.
func (s *scenario) NewWorker() (campaign.Worker, error) {
	return newWorker(s.cfg, s.dist, s.policy, s.page), nil
}

// worker owns the per-goroutine state of a page campaign: the RNG
// (reseeded per trial), one rs.Decoder, the stored page and its
// per-symbol and per-stripe bookkeeping, so the steady state performs
// no per-trial heap allocation.
//
// The page is held in the decoder's layout: stripe s occupies
// [s*n, (s+1)*n) of words, the arena rs.Decoder.DecodeAll takes, and
// every per-symbol slice below is indexed the same way. Faults address
// physical stored symbols, the interleaved order a burst sees, and
// reach the arena through interleave.Page.Addr.
type worker struct {
	cfg    Config
	dist   burstlen.Dist
	policy detectPolicy
	// guaranteeBits is the longest bit burst CorrectableBurst
	// guarantees against: (depth*t-1)*m+1 stored bits touch at most
	// depth*t symbols.
	guaranteeBits int
	page          *interleave.Page
	dec           *rs.Decoder
	rng           *rand.Rand
	clock         *scrub.Clock // fault arrivals, scrub instants, likelihood ratio

	truth []gf.Elem // the page as written
	words []gf.Elem // the page as stored now; decodes correct it in place

	stuck    []bool    // whole-symbol stuck-at flags (physical)
	stuckVal []gf.Elem // the value each stuck symbol drives
	located  []bool    // stuck columns known to the controller
	strikeT  []float64 // strike instant per stuck column (hours)

	// erasures[s] lists stripe s's located positions in ascending order,
	// the list every decode of the stripe is handed. It is rebuilt only
	// when a location sets ersDirty[s], so between locations the rs
	// erasure-set cache, keyed on list content, resolves the stripe
	// without rebuilding locator state.
	erasures [][]int
	ersDirty []bool
	// settled[s] reports that neither stripe s's word nor its erasure
	// list has changed since its last decode, or since Trial wrote the
	// page; a scrub pass skips such a stripe (see doScrub). A new
	// worker's stripes are unsettled.
	settled []bool
	fixed   []int // stripes the current scrub pass corrected, ascending

	// Per-trial location bookkeeping (reset by Trial).
	unlocated    int // stuck columns the controller has not located yet
	trialLocated int // columns located during this trial
	unlocReads   int // decodes that saw >= 1 unlocated stuck column

	// The trial's tallies of the per-pass scrub counters, added to the
	// accumulator when the event loop ends.
	scrubOps, scrubDecodeErrors int64
}

func newWorker(cfg Config, dist burstlen.Dist, policy detectPolicy, page *interleave.Page) *worker {
	code := page.Code()
	n, depth, stored := code.N(), page.Depth(), page.StoredSymbols()
	w := &worker{
		cfg:           cfg,
		dist:          dist,
		policy:        policy,
		guaranteeBits: (page.CorrectableBurst()-1)*code.Field().M() + 1,
		page:          page,
		dec:           code.NewDecoder(),
		rng:           campaign.NewTrialRand(cfg.Seed),
		truth:         make([]gf.Elem, stored),
		words:         make([]gf.Elem, stored),
		stuck:         make([]bool, stored),
		stuckVal:      make([]gf.Elem, stored),
		located:       make([]bool, stored),
		strikeT:       make([]float64, stored),
		erasures:      make([][]int, depth),
		ersDirty:      make([]bool, depth),
		settled:       make([]bool, depth),
		fixed:         make([]int, 0, depth),
	}
	lists := make([]int, stored)
	for s := range w.erasures {
		w.erasures[s] = lists[s*n : s*n : (s+1)*n]
	}
	w.clock = scrub.NewClock(w.rng, scrub.New(cfg.ScrubPeriod, cfg.ExponentialScrub, w.rng), cfg.TiltFactor, cfg.Horizon)
	return w
}

// Trial implements campaign.Worker: one stored page from write to
// final read, reproducible from the trial index alone.
func (w *worker) Trial(trial int, acc *campaign.Acc) error {
	w.rng.Seed(campaign.TrialSeed(w.cfg.Seed, trial))
	rng := w.rng
	page := w.page
	code := page.Code()
	n, k, depth := code.N(), code.K(), page.Depth()
	size := code.Field().Size()
	storedSymbols := page.StoredSymbols()
	storedBits := storedSymbols * code.Field().M()

	// The payload is drawn in data-index order, index j*depth+s being
	// position j of stripe s, straight into the arena; then each stripe
	// is encoded in place.
	for j := 0; j < k; j++ {
		for s := 0; s < depth; s++ {
			w.truth[s*n+j] = gf.Elem(rng.Intn(size))
		}
	}
	for s := 0; s < depth; s++ {
		word := w.truth[s*n : (s+1)*n]
		if err := code.EncodeTo(word, word[:k]); err != nil {
			return fmt.Errorf("pagesim: encode: %w", err)
		}
	}
	copy(w.words, w.truth)
	clear(w.stuck)
	clear(w.located)
	for s := range w.settled {
		w.erasures[s] = w.erasures[s][:0]
		w.ersDirty[s] = false
		// A freshly written stripe is a codeword without erasures, which
		// a decode leaves as it is.
		w.settled[s] = true
	}
	w.unlocated, w.trialLocated, w.unlocReads = 0, 0, 0
	w.scrubOps, w.scrubDecodeErrors = 0, 0

	// Per-page event rates (per hour). Importance sampling tilts only
	// the arrival clock — all rates jointly — so the event-type split
	// below keeps its untilted distribution; the clock's likelihood
	// ratio corrects the estimator.
	seuRate, burstRate, totalRate := w.cfg.rates(page)
	w.clock.Start(totalRate)

	seus, bursts, cols := 0, 0, 0
	lastBurstLen := 0
	for {
		t, ev := w.clock.Next()
		if ev == scrub.Done {
			break
		}
		if ev == scrub.Scrub {
			w.doScrub(t, trial, acc)
			continue
		}
		switch u := rng.Float64() * totalRate; {
		case u < seuRate:
			w.flipBits(rng.Intn(storedBits), 1)
			seus++
		case u < seuRate+burstRate:
			start, length := w.dist.Place(rng, storedBits)
			w.flipBits(start, length)
			lastBurstLen = length
			bursts++
		default:
			p := rng.Intn(storedSymbols)
			// The stuck value is drawn even on a re-strike of an
			// already-dead column, preserving the historical RNG stream.
			w.strike(p, gf.Elem(rng.Intn(size)), t)
			cols++
		}
	}
	// A scrub counter is added only when non-zero, so a shard carries
	// exactly the keys that per-pass adds would have created.
	if w.scrubOps != 0 {
		acc.Add(CounterScrubOps, w.scrubOps)
	}
	if w.scrubDecodeErrors != 0 {
		acc.Add(CounterScrubDecodeErrors, w.scrubDecodeErrors)
	}

	acc.Add(CounterSEUs, int64(seus))
	acc.Add(CounterBursts, int64(bursts))
	acc.Add(CounterStuckColumns, int64(cols))

	// classify records outcome counters weighted by the trial's
	// likelihood ratio.
	weighted := w.cfg.weighted()
	lr := w.clock.LikelihoodRatio()
	classify := func(counter string) {
		if weighted {
			acc.AddWeighted(counter, lr)
		} else {
			acc.Add(counter, 1)
		}
	}

	// Final read at the horizon. It decodes every stripe, settled or
	// not, because each stripe's corrections count again.
	if w.policy == detLatency {
		w.locateByLatency(w.cfg.Horizon, trial, acc)
	}
	w.noteUnlocatedRead()
	for s := range w.erasures {
		w.refreshErasures(s)
	}
	res, err := w.dec.DecodeAll(rs.Batch{Words: w.words, Stride: n, Count: depth}, w.erasures)
	if err != nil {
		return fmt.Errorf("pagesim: decode: %w", err)
	}
	corrected := 0
	for _, r := range res.Words {
		corrected += r.Corrections
	}
	acc.Add(CounterCorrectedSymbols, int64(corrected))
	acc.Add(CounterFailedStripes, int64(res.Failed))
	lost := res.Failed > 0
	silent := false
	if !lost {
		for s := 0; s < depth; s++ {
			if !slices.Equal(w.words[s*n:s*n+k], w.truth[s*n:s*n+k]) {
				lost, silent = true, true
				break
			}
		}
	}
	// Under a variable-length distribution, only within-guarantee
	// bursts feed the single-burst counters (see the counter docs);
	// the fixed distribution keeps the historical any-length meaning.
	singleBurst := bursts == 1 && seus == 0 && cols == 0 &&
		(w.dist.IsFixed() || lastBurstLen <= w.guaranteeBits)
	if singleBurst {
		acc.Add(CounterSingleBurstTrials, 1)
	}
	switch {
	case lost:
		classify(CounterPageLoss)
		if silent {
			classify(CounterSilentLoss)
		}
		if singleBurst {
			acc.Add(CounterSingleBurstLosses, 1)
		}
	default:
		classify(CounterPageCorrect)
	}
	if w.policy != detImmediate {
		// Reported unconditionally (including zeros) so every
		// non-immediate campaign carries the keys; the immediate policy
		// omits them to keep its artifacts byte-identical to earlier
		// releases.
		acc.Add(CounterLocatedColumns, int64(w.trialLocated))
		acc.Add(CounterStuckUnlocatedReads, int64(w.unlocReads))
	}
	return nil
}

// locate marks stuck column i (an arena index) as known to the
// controller after it spent delay hours unlocated, unsettles its
// stripe and records the (strike, delay) time-to-location sample.
// Taking the delay (not the location instant) lets the latency policy
// report its exact configured value instead of a strike+L-strike float
// roundoff.
func (w *worker) locate(i int, delay float64, trial int, acc *campaign.Acc) {
	s := i / w.page.Code().N()
	w.located[i] = true
	w.ersDirty[s] = true
	w.settled[s] = false
	w.unlocated--
	w.trialLocated++
	acc.Sample(trial, SeriesTimeToLocation, w.strikeT[i], delay)
}

// locateByLatency promotes every stuck column whose fixed detection
// latency has elapsed by time t (DetectLatency policy). Location only
// matters at decode instants, so promotion runs lazily before each
// decode instead of as explicit events in the fault loop. Columns are
// visited in ascending physical index, j*depth+s, which fixes the
// order of the location samples.
func (w *worker) locateByLatency(t float64, trial int, acc *campaign.Acc) {
	if w.unlocated == 0 {
		return
	}
	n, lat := w.page.Code().N(), w.cfg.DetectionLatency
	for j := 0; j < n; j++ {
		for s := range w.settled {
			if i := s*n + j; w.stuck[i] && !w.located[i] && w.strikeT[i]+lat <= t {
				w.locate(i, lat, trial, acc)
			}
		}
	}
}

// noteUnlocatedRead counts a decode that ran while at least one stuck
// column was unlocated (and therefore consumed error capability).
func (w *worker) noteUnlocatedRead() {
	if w.policy != detImmediate && w.unlocated > 0 {
		w.unlocReads++
	}
}

// flipBits applies a run of length adjacent physical stored bits from
// bit start (an SEU is a run of one), one stored symbol at a time;
// stuck symbols do not respond (the column drives the line).
func (w *worker) flipBits(start, length int) {
	m, n := w.page.Code().Field().M(), w.page.Code().N()
	for bit, end := start, start+length; bit < end; {
		off := bit % m
		run := min(m-off, end-bit)
		s, j := w.page.Addr(bit / m)
		if i := s*n + j; !w.stuck[i] {
			w.words[i] ^= gf.Elem((1<<run - 1) << off)
			w.settled[s] = false
		}
		bit += run
	}
}

// strike makes physical stored symbol p a dead column that drives v
// from time t on. A re-strike of a dead column only changes its value.
func (w *worker) strike(p int, v gf.Elem, t float64) {
	s, j := w.page.Addr(p)
	i := s*w.page.Code().N() + j
	if !w.stuck[i] {
		w.stuck[i] = true
		w.strikeT[i] = t
		if w.policy == detImmediate {
			w.located[i] = true
			w.ersDirty[s] = true
		} else {
			w.unlocated++
		}
	}
	w.stuckVal[i], w.words[i] = v, v
	w.settled[s] = false
}

// refreshErasures rebuilds stripe s's erasure list, in position order,
// if a location changed it since the last rebuild.
func (w *worker) refreshErasures(s int) {
	if !w.ersDirty[s] {
		return
	}
	n := w.page.Code().N()
	ers := w.erasures[s][:0]
	for j, loc := range w.located[s*n : (s+1)*n] {
		if loc {
			ers = append(ers, j)
		}
	}
	w.erasures[s] = ers
	w.ersDirty[s] = false
}

// decodeStripe decodes stripe s in place with its located columns as
// erasures: a corrected stripe ends as its codeword, a failed one is
// left as it was. Stuck columns the controller has not located yet are
// plain errors: they consume twice the correction budget and can
// miscorrect, which is exactly the located/unlocated asymmetry the
// detection policies model.
func (w *worker) decodeStripe(s int) (rs.WordResult, error) {
	w.refreshErasures(s)
	n := w.page.Code().N()
	res, err := w.dec.DecodeAll(rs.Batch{Words: w.words[s*n:], Stride: n, Count: 1}, w.erasures[s:s+1])
	if err != nil {
		return rs.WordResult{}, err
	}
	return res.Words[0], nil
}

// doScrub decodes, corrects and rewrites the page at time t, stripe by
// stripe. A corrected stripe is rewritten in place by its decode, and
// then its stuck columns reassert their values; a clean stripe already
// holds its codeword, and a stripe that fails to decode is left
// untouched (the controller has nothing better to write back). Under
// the scrub detection policy, an unlocated stuck column whose symbol
// the (successful) decode corrected has been observed deviating and
// becomes located for every later decode.
//
// The pass decodes only the stripes that are not settled: a flip, a
// strike or a location touched them since their last decode. Skipping
// a settled stripe is exact, because a stripe's decode depends only on
// its own word and erasure list, and DecodeAll gives every word the
// outcome Decode would give it. A settled stripe that decoded differs
// from its codeword only at stuck symbols the decode already corrected
// or erased. Decoding it again lands on the same codeword within the
// same bounded distance, and the rewrite changes no symbol. Nor does
// it locate anything: under the scrub policy, the pass that left an
// unlocated stuck symbol differing from its codeword located it, which
// unsettled the stripe. A stripe that failed is unchanged, so it fails
// the same way again. A skipped stripe still leaves the pass a scrub
// op and, with a column unlocated, an unlocated read.
func (w *worker) doScrub(t float64, trial int, acc *campaign.Acc) {
	if w.policy == detLatency {
		w.locateByLatency(t, trial, acc)
	}
	w.noteUnlocatedRead()
	w.fixed = w.fixed[:0]
	completed := true
	for s, settled := range w.settled {
		if settled {
			continue
		}
		r, err := w.decodeStripe(s)
		if err != nil {
			// Structural decode failures are impossible for a validated
			// config; count them (the pass did not complete, so it is not
			// a scrub_op) instead of silently swallowing the error — a
			// nonzero counter is surfaced by cmd/campaign. The stripes
			// already decoded are finished below; the rest stay
			// unsettled for the next pass.
			w.scrubDecodeErrors++
			completed = false
			break
		}
		w.settled[s] = true
		if r.Err == nil && r.Corrections > 0 {
			w.fixed = append(w.fixed, s)
		}
	}
	if completed {
		w.scrubOps++
	}
	n := w.page.Code().N()
	if w.policy == detScrub && w.unlocated > 0 && len(w.fixed) > 0 {
		// An unlocated dead column that disagrees with its corrected
		// codeword has been observed deviating. This runs before the
		// reassert below, in ascending physical index j*depth+s, which
		// fixes the order of the location samples.
		for j := 0; j < n; j++ {
			for _, s := range w.fixed {
				if i := s*n + j; w.stuck[i] && !w.located[i] && w.words[i] != w.stuckVal[i] {
					w.locate(i, t-w.strikeT[i], trial, acc)
				}
			}
		}
	}
	// A dead column reasserts itself through the rewrite.
	for _, s := range w.fixed {
		for i := s * n; i < (s+1)*n; i++ {
			if w.stuck[i] {
				w.words[i] = w.stuckVal[i]
			}
		}
	}
}

// ResultFromCampaign reassembles the simulator's Result from the
// engine's counter set.
func ResultFromCampaign(cfg Config, cres *campaign.Result) *Result {
	return &Result{
		Config:            cfg,
		Trials:            cres.Trials,
		PageCorrect:       int(cres.Counter(CounterPageCorrect)),
		PageLoss:          int(cres.Counter(CounterPageLoss)),
		SilentLoss:        int(cres.Counter(CounterSilentLoss)),
		CorrectedSymbols:  cres.Counter(CounterCorrectedSymbols),
		FailedStripes:     cres.Counter(CounterFailedStripes),
		SEUs:              cres.Counter(CounterSEUs),
		Bursts:            cres.Counter(CounterBursts),
		StuckColumns:      cres.Counter(CounterStuckColumns),
		ScrubOps:          cres.Counter(CounterScrubOps),
		SingleBurstTrials: cres.Counter(CounterSingleBurstTrials),
		SingleBurstLosses: cres.Counter(CounterSingleBurstLosses),

		LocatedColumns:      cres.Counter(CounterLocatedColumns),
		StuckUnlocatedReads: cres.Counter(CounterStuckUnlocatedReads),
		ScrubDecodeErrors:   cres.Counter(CounterScrubDecodeErrors),
	}
}
