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
	Workers int // 0 = GOMAXPROCS
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
	// the page decode (or the rewrite re-encode) failed structurally.
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
	return &scenario{cfg: cfg, dist: dist, policy: policy, page: page}, nil
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

// worker owns the per-goroutine scratch of a page campaign: the
// reusable page codec (whose DecodeTo runs each page through the rs
// batch arena path, so healthy stripes cost only the syndrome
// screen), the RNG (reseeded per trial), the stored-page state and
// every erasure/reencode buffer, so the steady state performs no
// per-trial heap allocation.
type worker struct {
	cfg    Config
	dist   burstlen.Dist
	policy detectPolicy
	// guaranteeBits is the longest bit burst CorrectableBurst
	// guarantees against: (depth*t-1)*m+1 stored bits touch at most
	// depth*t symbols.
	guaranteeBits int
	page          *interleave.Page
	codec         *interleave.Codec
	rng           *rand.Rand
	clock         *scrub.Clock // fault arrivals, scrub instants, likelihood ratio

	data   []gf.Elem // page payload scratch
	truth  []gf.Elem // ground-truth stored page
	stored []gf.Elem // current stored page
	reenc  []gf.Elem // re-encoded page for scrub rewrites

	stuck   []bool    // whole-symbol stuck-at flags (physical)
	located []bool    // stuck columns known to the controller
	strikeT []float64 // strike instant per stuck column (hours)
	// erasures is the located-column list handed to every decode of the
	// trial. It is rebuilt (in column order) only when a location event
	// dirties it, so between strikes each scrub pass reuses the same
	// list — contents and backing array — and the codec's erasure-split
	// memo plus the rs erasure-set cache resolve the whole page without
	// rebuilding locator state.
	erasures []int
	ersDirty bool   // erasures no longer reflects located
	failed   []bool // per-stripe failed-decode scratch for scrub rewrites
	res      interleave.DecodeResult

	// Per-trial location bookkeeping (reset by Trial).
	unlocated    int // stuck columns the controller has not located yet
	trialLocated int // columns located during this trial
	unlocReads   int // decodes that saw >= 1 unlocated stuck column
}

func newWorker(cfg Config, dist burstlen.Dist, policy detectPolicy, page *interleave.Page) *worker {
	m := page.Code().Field().M()
	w := &worker{
		cfg:           cfg,
		dist:          dist,
		policy:        policy,
		guaranteeBits: (page.CorrectableBurst()-1)*m + 1,
		page:          page,
		codec:         page.NewCodec(),
		rng:           campaign.NewTrialRand(cfg.Seed),
		data:          make([]gf.Elem, page.DataSymbols()),
		truth:         make([]gf.Elem, page.StoredSymbols()),
		stored:        make([]gf.Elem, page.StoredSymbols()),
		reenc:         make([]gf.Elem, page.StoredSymbols()),
		stuck:         make([]bool, page.StoredSymbols()),
		located:       make([]bool, page.StoredSymbols()),
		strikeT:       make([]float64, page.StoredSymbols()),
		erasures:      make([]int, 0, page.StoredSymbols()),
		failed:        make([]bool, page.Depth()),
	}
	w.clock = scrub.NewClock(w.rng, scrub.New(cfg.ScrubPeriod, cfg.ExponentialScrub, w.rng), cfg.TiltFactor, cfg.Horizon)
	return w
}

// Trial implements campaign.Worker: one stored page from write to
// final read, reproducible from the trial index alone.
func (w *worker) Trial(trial int, acc *campaign.Acc) error {
	cfg := w.cfg
	w.rng.Seed(campaign.TrialSeed(cfg.Seed, trial))
	rng := w.rng
	page := w.page
	m := page.Code().Field().M()
	storedSymbols := page.StoredSymbols()
	storedBits := storedSymbols * m

	for i := range w.data {
		w.data[i] = gf.Elem(rng.Intn(page.Code().Field().Size()))
	}
	if err := w.codec.EncodeTo(w.truth, w.data); err != nil {
		return fmt.Errorf("pagesim: encode: %w", err)
	}
	copy(w.stored, w.truth)
	for i := range w.stuck {
		w.stuck[i] = false
		w.located[i] = false
	}
	w.erasures = w.erasures[:0]
	w.ersDirty = false
	w.unlocated, w.trialLocated, w.unlocReads = 0, 0, 0

	// Per-page event rates (per hour). Importance sampling tilts only
	// the arrival clock — all rates jointly — so the event-type split
	// below keeps its untilted distribution; the clock's likelihood
	// ratio corrects the estimator.
	seuRate := cfg.LambdaBit * float64(storedBits)
	burstRate := cfg.BurstPerKilobit * float64(storedBits) / 1000
	colRate := cfg.LambdaColumn * float64(storedSymbols)
	totalRate := seuRate + burstRate + colRate
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
			w.flipBit(rng.Intn(storedBits))
			seus++
		case u < seuRate+burstRate:
			// Each event samples its length from the configured
			// distribution (capped at the page), then a start uniform
			// over the placements at which the full burst fits, so
			// every event flips exactly its sampled length (the mbusim
			// convention; no edge truncation bias).
			length := w.dist.Sample(rng, storedBits)
			start := rng.Intn(storedBits - length + 1)
			for b := 0; b < length; b++ {
				w.flipBit(start + b)
			}
			lastBurstLen = length
			bursts++
		default:
			s := rng.Intn(storedSymbols)
			// The stuck value is drawn even on a re-strike of an
			// already-dead column, preserving the historical RNG stream.
			v := gf.Elem(rng.Intn(page.Code().Field().Size()))
			if !w.stuck[s] {
				w.stuck[s] = true
				w.strikeT[s] = t
				if w.policy == detImmediate {
					w.located[s] = true
					w.ersDirty = true
				} else {
					w.unlocated++
				}
			}
			w.stored[s] = v
			cols++
		}
	}

	acc.Add(CounterSEUs, int64(seus))
	acc.Add(CounterBursts, int64(bursts))
	acc.Add(CounterStuckColumns, int64(cols))

	// classify records outcome counters weighted by the trial's
	// likelihood ratio.
	weighted := cfg.weighted()
	lr := w.clock.LikelihoodRatio()
	classify := func(counter string) {
		if weighted {
			acc.AddWeighted(counter, lr)
		} else {
			acc.Add(counter, 1)
		}
	}

	// Final read at the horizon.
	if w.policy == detLatency {
		w.locateByLatency(cfg.Horizon, trial, acc)
	}
	w.noteUnlocatedRead()
	if err := w.decode(); err != nil {
		return err
	}
	acc.Add(CounterCorrectedSymbols, int64(w.res.CorrectedSymbols))
	acc.Add(CounterFailedStripes, int64(len(w.res.FailedStripes)))
	lost := len(w.res.FailedStripes) > 0
	silent := false
	if !lost {
		for i := range w.data {
			if w.res.Data[i] != w.data[i] {
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

// locate marks stuck column s as known to the controller after it
// spent delay hours unlocated, and records the (strike, delay)
// time-to-location sample. Taking the delay (not the location
// instant) lets the latency policy report its exact configured value
// instead of a strike+L-strike float roundoff.
func (w *worker) locate(s int, delay float64, trial int, acc *campaign.Acc) {
	w.located[s] = true
	w.ersDirty = true
	w.unlocated--
	w.trialLocated++
	acc.Sample(trial, SeriesTimeToLocation, w.strikeT[s], delay)
}

// locateByLatency promotes every stuck column whose fixed detection
// latency has elapsed by time t (DetectLatency policy). Location only
// matters at decode instants, so promotion runs lazily before each
// decode instead of as explicit events in the fault loop.
func (w *worker) locateByLatency(t float64, trial int, acc *campaign.Acc) {
	if w.unlocated == 0 {
		return
	}
	for s := range w.stuck {
		if w.stuck[s] && !w.located[s] && w.strikeT[s]+w.cfg.DetectionLatency <= t {
			w.locate(s, w.cfg.DetectionLatency, trial, acc)
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

// flipBit applies an SEU to one stored bit; stuck symbols do not
// respond (the column drives the line).
func (w *worker) flipBit(bit int) {
	m := w.page.Code().Field().M()
	s := bit / m
	if w.stuck[s] {
		return
	}
	w.stored[s] ^= 1 << uint(bit%m)
}

// decode runs the page decoder on the stored page (DecodeTo never
// mutates its input) with the located stuck columns as erasures, into
// w.res. Stuck columns the controller has not located yet are plain
// errors: they consume twice the correction budget and can
// miscorrect, which is exactly the located/unlocated asymmetry the
// detection policies model. The erasure list is rebuilt (in column
// order, so its contents are exactly what the per-decode rebuild
// produced) only when a location event has dirtied it; the common
// scrub pass between strikes reuses the previous list unchanged.
func (w *worker) decode() error {
	if w.ersDirty {
		w.erasures = w.erasures[:0]
		for s, loc := range w.located {
			if loc {
				w.erasures = append(w.erasures, s)
			}
		}
		w.ersDirty = false
	}
	if err := w.codec.DecodeTo(&w.res, w.stored, w.erasures); err != nil {
		return fmt.Errorf("pagesim: decode: %w", err)
	}
	return nil
}

// doScrub decodes, corrects and rewrites the page at time t. Stripes
// that fail to decode are left untouched (the controller has nothing
// better to write back); stuck columns reassert themselves through
// the rewrite. Under the scrub detection policy, an unlocated stuck
// column whose symbol the (successful) decode corrected has been
// observed deviating and becomes located for every later decode.
func (w *worker) doScrub(t float64, trial int, acc *campaign.Acc) {
	if w.policy == detLatency {
		w.locateByLatency(t, trial, acc)
	}
	w.noteUnlocatedRead()
	if err := w.decode(); err != nil {
		// Structural decode failures are impossible for a validated
		// config; count them (the pass did not complete, so it is not a
		// scrub_op) instead of silently swallowing the error — a
		// nonzero counter is surfaced by cmd/campaign.
		acc.Add(CounterScrubDecodeErrors, 1)
		return
	}
	if err := w.codec.EncodeTo(w.reenc, w.res.Data); err != nil {
		acc.Add(CounterScrubDecodeErrors, 1)
		return
	}
	acc.Add(CounterScrubOps, 1)
	depth := w.page.Depth()
	for s := range w.failed {
		w.failed[s] = false
	}
	for _, s := range w.res.FailedStripes {
		w.failed[s] = true
	}
	for idx := range w.reenc {
		if w.failed[idx%depth] {
			continue
		}
		if w.stuck[idx] {
			// The dead column reasserts itself through the rewrite; if
			// the corrected codeword disagrees with what it drives, the
			// controller has observed the deviation.
			if w.policy == detScrub && !w.located[idx] && w.stored[idx] != w.reenc[idx] {
				w.locate(idx, t-w.strikeT[idx], trial, acc)
			}
			continue
		}
		w.stored[idx] = w.reenc[idx]
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

// Run executes the campaign on the shared engine. The result is
// deterministic for a fixed Config (including Seed), independent of
// Workers.
func Run(cfg Config) (*Result, error) {
	scn, err := Scenario(cfg)
	if err != nil {
		return nil, err
	}
	cres, err := campaign.Run(scn, campaign.Config{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	return ResultFromCampaign(cfg, cres), nil
}
