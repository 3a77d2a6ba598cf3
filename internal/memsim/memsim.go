// Package memsim is a Monte Carlo fault-injection simulator for the
// paper's memory systems. Where the Markov models of internal/simplex
// and internal/duplex abstract a stored word into fault-class counts,
// memsim stores real Reed-Solomon codewords, flips real bits with
// Poisson SEU arrivals, plants real stuck-at faults, scrubs through
// the real decoder and reads through the real arbiter. It serves two
// purposes:
//
//   - cross-validation: with matched rates, the fraction of trials in
//     which a word's error pattern exceeds its code capability must
//     agree with the chains' Fail probability (the xval bench);
//   - model-gap measurement: the paper's chain declares failure as
//     soon as either duplex word exceeds capability, but the real
//     arbiter often survives that (a mis-correcting word is outvoted
//     by its clean twin via the flag rule), so the chain is a
//     conservative bound that the simulator quantifies.
//
// All rates are per hour; trials are independent and reproducible
// from Config.Seed regardless of worker count.
//
// A scrub pass costs only what changed since the last one. A pass that
// rewrote no stored symbol settles the word (or pair): until the next
// fault arrives or the next permanent fault is located, a pass would
// repeat its decodes, writes and counts exactly, because a pass draws
// no randomness. Such a pass is skipped, and the settled pass's
// miscorrections are counted again. The per-event counters (seus,
// permanent_faults, scrub_ops, scrub_miscorrections) are tallied by the
// worker and added once per trial, only when non-zero, so every counter
// key and artifact byte is what per-event adds would produce.
//
// Campaigns run on the internal/campaign engine: Config.Scenario
// adapts a configuration to the engine's Scenario interface, Run is
// the convenience wrapper for plain full-length campaigns, and
// RunCampaign exposes the engine's checkpointing and early-stopping
// controls while still returning the familiar Result.
package memsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/arbiter"
	"repro/internal/campaign"
	"repro/internal/gf"
	"repro/internal/rs"
	"repro/internal/scrub"
)

// Config parameterizes a simulation campaign.
type Config struct {
	Code   *rs.Code
	Duplex bool // false: simplex (single module)

	LambdaBit    float64 // SEU rate per bit per hour, per module
	LambdaSymbol float64 // permanent fault rate per symbol per hour, per module

	ScrubPeriod      float64 // hours between scrubs; 0 disables scrubbing
	ExponentialScrub bool    // exponential instead of periodic scrub intervals

	// DetectionLatency is the delay between a permanent fault striking
	// and the self-checking hardware locating it; until located the
	// fault acts as a random error (paper Section 2). Zero means
	// immediate location, matching the Markov models.
	DetectionLatency float64

	// CrossRepair lets a duplex scrub rewrite a module whose own word
	// failed to decode with its twin's corrected codeword. The paper's
	// model has no such repair — a word beyond capability is lost for
	// good (the chain's Fail state is absorbing) — so the default is
	// off; enabling it quantifies how much a smarter scrub controller
	// would buy (an ablation bench at the repository root).
	CrossRepair bool

	// TiltFactor biases the fault arrival process for importance
	// sampling: all fault rates (SEU and permanent, across modules)
	// are jointly multiplied by the factor, and every trial carries
	// the exact exponential-tilt likelihood ratio
	//
	//	L = θ^-k · exp((θ-1)·R0·H)
	//
	// (k = realized fault arrivals, R0 = untilted total rate, H =
	// horizon) into the campaign engine's weighted counters, so the
	// weighted estimator stays unbiased while rare failures become
	// common in the biased measure. Scrub scheduling and fault-type
	// selection are untouched — only the arrival clock is tilted.
	// 0 or 1 disables tilting (and the trial stream is bit-identical
	// to an untilted run); values > 1 enable it.
	TiltFactor float64

	Horizon float64 // storage time in hours; the word is read once at the end
	Trials  int
	Seed    int64
}

// weighted reports whether trials carry importance-sampling weights.
func (c Config) weighted() bool { return c.TiltFactor > 1 }

// Validate checks the configuration.
func (c Config) Validate() error {
	finite := func(v float64) bool { return v >= 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }
	switch {
	case c.Code == nil:
		return fmt.Errorf("memsim: nil code")
	case !finite(c.LambdaBit) || !finite(c.LambdaSymbol):
		return fmt.Errorf("memsim: fault rates must be finite and nonnegative")
	case !finite(c.ScrubPeriod):
		return fmt.Errorf("memsim: invalid scrub period %v", c.ScrubPeriod)
	case !finite(c.DetectionLatency):
		return fmt.Errorf("memsim: invalid detection latency %v", c.DetectionLatency)
	case math.IsNaN(c.TiltFactor) || math.IsInf(c.TiltFactor, 0) || c.TiltFactor < 0:
		return fmt.Errorf("memsim: invalid tilt factor %v", c.TiltFactor)
	case c.TiltFactor != 0 && c.TiltFactor < 1:
		return fmt.Errorf("memsim: tilt factor %v must be >= 1 (or 0/1 to disable)", c.TiltFactor)
	case c.Horizon <= 0 || math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0):
		return fmt.Errorf("memsim: invalid horizon %v", c.Horizon)
	case c.Trials <= 0:
		return fmt.Errorf("memsim: need at least one trial")
	}
	_, _, total := c.rates()
	if err := scrub.CheckArrivals(total, c.TiltFactor, c.Horizon, c.ScrubPeriod); err != nil {
		return fmt.Errorf("memsim: %w", err)
	}
	return nil
}

// rates returns the per-module SEU and permanent-fault rates and the
// untilted total over all modules (per hour): the rate each trial's
// clock starts with, and the one Validate bounds.
func (c Config) rates() (seu, perm, total float64) {
	n, m := c.Code.N(), c.Code.Field().M()
	seu = float64(n*m) * c.LambdaBit
	perm = float64(n) * c.LambdaSymbol
	modules := 1
	if c.Duplex {
		modules = 2
	}
	return seu, perm, float64(modules) * (seu + perm)
}

// Counter keys under which the scenario reports into the campaign
// engine; ResultFromCampaign maps them back into a Result.
const (
	CounterCorrect             = "correct"
	CounterWrongOutput         = "wrong_output"
	CounterNoOutput            = "no_output"
	CounterCapabilityExceeded  = "capability_exceeded"
	CounterDataBitErrors       = "data_bit_errors"
	CounterSEUs                = "seus"
	CounterPermanentFaults     = "permanent_faults"
	CounterScrubOps            = "scrub_ops"
	CounterScrubMiscorrections = "scrub_miscorrections"

	// VerdictCounterPrefix prefixes one counter per arbiter verdict
	// (duplex campaigns only), e.g. "verdict/no-error".
	VerdictCounterPrefix = "verdict/"
)

// allVerdicts enumerates the arbiter decision paths for counter
// round-tripping; verdictKeys caches the counter names so the duplex
// hot path performs no per-trial string concatenation.
var (
	allVerdicts = []arbiter.Verdict{
		arbiter.NoError, arbiter.CorrectedAgree, arbiter.FlagResolved,
		arbiter.OneWordFailed, arbiter.BothFlaggedDiffer,
		arbiter.DifferNoFlags, arbiter.BothFailed,
	}
	verdictKeys = func() map[arbiter.Verdict]string {
		keys := make(map[arbiter.Verdict]string, len(allVerdicts))
		for _, v := range allVerdicts {
			keys[v] = VerdictCounterPrefix + v.String()
		}
		return keys
	}()
)

// Result aggregates a campaign.
type Result struct {
	Config Config
	Trials int

	// Read outcomes.
	Correct     int // output provided and equal to the stored data
	WrongOutput int // output provided but wrong (undetected failure)
	NoOutput    int // detected failure: no output provided

	// CapabilityExceeded counts trials whose ground-truth error
	// pattern at read time exceeded the code capability of the word
	// (simplex) or of at least one duplex word after erasure
	// recovery — the event the Markov chains call Fail.
	CapabilityExceeded int

	// DataBitErrors is the total number of erroneous data bits over
	// all trials that produced an output.
	DataBitErrors int64

	// Fault and operation counters.
	SEUs            int64
	PermanentFaults int64
	ScrubOps        int64
	// ScrubMiscorrections counts module rewrites, by scrub passes,
	// with a valid but wrong codeword (entrenched mis-correction). A
	// duplex pass rewrites each module at most once, so it can add two,
	// and a pass over an entrenched word counts it again.
	ScrubMiscorrections int64

	// Verdicts tallies arbiter decision paths (duplex only).
	Verdicts map[arbiter.Verdict]int
}

// FailFraction is the observed probability that the read did not
// return correct data (the union of WrongOutput and NoOutput).
func (r *Result) FailFraction() float64 {
	return float64(r.WrongOutput+r.NoOutput) / float64(r.Trials)
}

// CapabilityExceededFraction estimates the Markov chains' Fail-state
// probability.
func (r *Result) CapabilityExceededFraction() float64 {
	return float64(r.CapabilityExceeded) / float64(r.Trials)
}

// PaperBER applies the paper's Eq. (1) prefactor to the observed
// capability-exceeded fraction, making it directly comparable with
// core.Evaluate output.
func (r *Result) PaperBER() float64 {
	code := r.Config.Code
	m := code.Field().M()
	return float64(m) * float64(code.Redundancy()) / float64(code.K()) * r.CapabilityExceededFraction()
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion at the given z (e.g. 1.96 for 95%).
func WilsonInterval(successes, trials int, z float64) (lo, hi float64) {
	return campaign.Wilson(int64(successes), int64(trials), z)
}

// module is one memory module holding a (possibly corrupted) codeword.
// Modules are owned by a worker and recycled across trials via reset.
type module struct {
	stored []gf.Elem
	// stuckMask/stuckVal describe permanently forced bits per symbol.
	stuckMask []uint16
	stuckVal  []uint16
	// locatedAt[s] is the earliest time the self-checking hardware
	// knows symbol s carries a permanent fault; +Inf when healthy.
	locatedAt []float64
}

// init sizes the module's buffers for n-symbol codewords.
func (mo *module) init(n int) {
	mo.stored = make([]gf.Elem, n)
	mo.stuckMask = make([]uint16, n)
	mo.stuckVal = make([]uint16, n)
	mo.locatedAt = make([]float64, n)
}

// reset stores a fresh fault-free codeword for the next trial.
func (mo *module) reset(codeword []gf.Elem) {
	copy(mo.stored, codeword)
	for i := range mo.stuckMask {
		mo.stuckMask[i] = 0
		mo.stuckVal[i] = 0
		mo.locatedAt[i] = math.Inf(1)
	}
}

// applyStuck forces the permanently faulted bits of symbol s.
func (mo *module) applyStuck(s int, v gf.Elem) gf.Elem {
	return v&^gf.Elem(mo.stuckMask[s]) | gf.Elem(mo.stuckVal[s])
}

// flip applies an SEU to bit b of symbol s.
func (mo *module) flip(s, b int) {
	mo.stored[s] = mo.applyStuck(s, mo.stored[s]^gf.Elem(1<<uint(b)))
}

// stick plants a permanent stuck-at fault: bit b of symbol s is forced
// to value v from now on; located at time locate.
func (mo *module) stick(s, b int, v uint16, locate float64) {
	mo.stuckMask[s] |= 1 << uint(b)
	if v != 0 {
		mo.stuckVal[s] |= 1 << uint(b)
	} else {
		mo.stuckVal[s] &^= 1 << uint(b)
	}
	mo.stored[s] = mo.applyStuck(s, mo.stored[s])
	if locate < mo.locatedAt[s] {
		mo.locatedAt[s] = locate
	}
}

// write stores a fresh codeword; stuck bits reassert themselves. It
// reports whether any stored symbol changed.
func (mo *module) write(codeword []gf.Elem) (changed bool) {
	for i, v := range codeword {
		v = mo.applyStuck(i, v)
		changed = changed || mo.stored[i] != v
		mo.stored[i] = v
	}
	return changed
}

// nextLocateAfter returns the earliest located time after t: the next
// instant the module's erasure list at a scrub grows (+Inf if none).
func (mo *module) nextLocateAfter(t float64) float64 {
	next := math.Inf(1)
	for _, at := range mo.locatedAt {
		if at > t && at < next {
			next = at
		}
	}
	return next
}

// erasuresInto appends the located permanent-fault positions at time t
// to buf[:0] and returns it, so workers can recycle the backing array.
func (mo *module) erasuresInto(buf []int, t float64) []int {
	buf = buf[:0]
	for s, at := range mo.locatedAt {
		if at <= t {
			buf = append(buf, s)
		}
	}
	return buf
}

// worker owns the per-goroutine scratch of a campaign: the recycled
// modules, the RNG (reseeded per trial for worker-count-independent
// reproducibility), the decode workspace and arbiter, and every
// masking/erasure buffer — so the steady state of a campaign performs
// no per-trial heap allocation. Scrub and simplex-read decodes run
// through rs.Decoder.DecodeAll over the pair arena: the simplex word
// (or the two masked duplex words) decode as a one- or two-word batch,
// corrected in place, so a healthy word costs only the syndrome screen.
//
// A scrub pass that would exactly repeat the last one is skipped (the
// settled rule, see doScrub), and the per-event counters are tallied
// in worker fields and added to the accumulator once per trial.
type worker struct {
	cfg   Config
	rng   *rand.Rand
	clock *scrub.Clock // fault arrivals, scrub instants, likelihood ratio

	dec *rs.Decoder      // scrub/read decode workspace
	arb *arbiter.Arbiter // duplex read path (owns its own decoders)

	data   []gf.Elem // dataword scratch
	truth  []gf.Elem // ground-truth codeword
	modBuf [2]module
	mods   []*module

	pair       []gf.Elem // scrub-pass arena (up to two words, stride n)
	w1, w2     []gf.Elem // the arena's words (masked duplex words)
	elists     [2][]int  // per-arena-word erasure lists
	set1, set2 []bool    // per-module erasure bitsets
	shared     []int     // both-erased positions
	e1, e2     []int     // erasure position lists
	capSet     []bool    // exceedsCapability scratch

	// weighted/lr carry the current trial's importance-sampling state
	// from the event loop to the read classification: lr is the
	// exponential-tilt likelihood ratio of the realized fault arrivals.
	weighted bool
	lr       float64

	// settled reports that the last completed scrub pass changed no
	// stored symbol in any module and that no fault has arrived since.
	// settledMis is the scrub_miscorrections that pass added, and
	// nextLocate the earliest located time after it over all modules.
	settled    bool
	settledMis int64
	nextLocate float64

	// The trial's tallies of the per-event counters, added to the
	// accumulator when the trial ends.
	seus, permanentFaults, scrubOps, scrubMis int64
}

func newWorker(cfg Config) *worker {
	code := cfg.Code
	n, k := code.N(), code.K()
	pair := make([]gf.Elem, 2*n)
	w := &worker{
		cfg:    cfg,
		rng:    campaign.NewTrialRand(cfg.Seed),
		dec:    code.NewDecoder(),
		data:   make([]gf.Elem, k),
		truth:  make([]gf.Elem, n),
		pair:   pair,
		w1:     pair[:n:n],
		w2:     pair[n:],
		set1:   make([]bool, n),
		set2:   make([]bool, n),
		shared: make([]int, 0, n),
		e1:     make([]int, 0, n),
		e2:     make([]int, 0, n),
		capSet: make([]bool, n),
	}
	w.modBuf[0].init(n)
	w.modBuf[1].init(n)
	w.mods = append(w.mods, &w.modBuf[0])
	if cfg.Duplex {
		w.mods = append(w.mods, &w.modBuf[1])
		arb, err := arbiter.New(code)
		if err != nil {
			panic(err) // code is validated
		}
		w.arb = arb
	}
	w.clock = scrub.NewClock(w.rng, scrub.New(cfg.ScrubPeriod, cfg.ExponentialScrub, w.rng), cfg.TiltFactor, cfg.Horizon)
	return w
}

// scenario adapts a validated Config to the campaign engine.
type scenario struct{ cfg Config }

// Scenario adapts the configuration to the campaign engine's
// Scenario interface (validating it first), for callers that want the
// engine's checkpointing, early stopping or spec-file integration.
func (c Config) Scenario() (campaign.Scenario, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return scenario{cfg: c}, nil
}

// Name encodes the full configuration so checkpoints from a different
// campaign are rejected rather than silently merged.
func (s scenario) Name() string {
	c := s.cfg
	name := fmt.Sprintf("memsim:%v:duplex=%t:lb=%g:ls=%g:scrub=%g:exp=%t:lat=%g:xrep=%t:h=%g:seed=%d",
		c.Code, c.Duplex, c.LambdaBit, c.LambdaSymbol, c.ScrubPeriod,
		c.ExponentialScrub, c.DetectionLatency, c.CrossRepair, c.Horizon, c.Seed)
	if c.weighted() {
		// The suffix keeps tilted and untilted artifacts from merging:
		// their trial streams sample different measures.
		name += fmt.Sprintf(":tilt=%g", c.TiltFactor)
	}
	return name
}

// Trials implements campaign.Scenario.
func (s scenario) Trials() int { return s.cfg.Trials }

// Weighted implements campaign.WeightedScenario: a tilted campaign
// records per-trial likelihood ratios and its artifacts carry weight
// moments.
func (s scenario) Weighted() bool { return s.cfg.weighted() }

// NewWorker implements campaign.Scenario.
func (s scenario) NewWorker() (campaign.Worker, error) { return newWorker(s.cfg), nil }

// Trial implements campaign.Worker.
func (ws *worker) Trial(trial int, acc *campaign.Acc) error {
	ws.runTrial(trial, acc)
	return nil
}

// ResultFromCampaign reassembles the simulator's Result from the
// engine's counter set.
func ResultFromCampaign(cfg Config, cres *campaign.Result) *Result {
	r := &Result{
		Config:              cfg,
		Trials:              cres.Trials,
		Correct:             int(cres.Counter(CounterCorrect)),
		WrongOutput:         int(cres.Counter(CounterWrongOutput)),
		NoOutput:            int(cres.Counter(CounterNoOutput)),
		CapabilityExceeded:  int(cres.Counter(CounterCapabilityExceeded)),
		DataBitErrors:       cres.Counter(CounterDataBitErrors),
		SEUs:                cres.Counter(CounterSEUs),
		PermanentFaults:     cres.Counter(CounterPermanentFaults),
		ScrubOps:            cres.Counter(CounterScrubOps),
		ScrubMiscorrections: cres.Counter(CounterScrubMiscorrections),
		Verdicts:            make(map[arbiter.Verdict]int),
	}
	for _, v := range allVerdicts {
		if c := cres.Counter(VerdictCounterPrefix + v.String()); c != 0 {
			r.Verdicts[v] = int(c)
		}
	}
	return r
}

// Run executes the campaign on the shared engine with GOMAXPROCS
// workers. The result is deterministic for a fixed Config (including
// Seed), independent of the worker count.
func Run(cfg Config) (*Result, error) {
	res, _, err := RunCampaign(cfg, campaign.Config{})
	return res, err
}

// RunCampaign executes the campaign with explicit engine controls
// (worker count, checkpoint path, early stopping). It returns both the
// simulator-level and the raw engine result (for early-stop and resume
// bookkeeping).
func RunCampaign(cfg Config, ecfg campaign.Config) (*Result, *campaign.Result, error) {
	scn, err := cfg.Scenario()
	if err != nil {
		return nil, nil, err
	}
	cres, err := campaign.Run(scn, ecfg)
	if err != nil {
		return nil, nil, err
	}
	return ResultFromCampaign(cfg, cres), cres, nil
}

// runTrial simulates one stored word (pair) from write to final read.
func (ws *worker) runTrial(trial int, acc *campaign.Acc) {
	cfg := ws.cfg
	// Reseeding the worker RNG per trial keeps trials independent and
	// reproducible regardless of which worker runs them, without
	// rebuilding the generator's state tables on the heap each time.
	ws.rng.Seed(campaign.TrialSeed(cfg.Seed, trial))
	rng := ws.rng
	code := cfg.Code
	n, m := code.N(), code.Field().M()

	for i := range ws.data {
		ws.data[i] = gf.Elem(rng.Intn(code.Field().Size()))
	}
	if err := code.EncodeTo(ws.truth, ws.data); err != nil {
		panic(fmt.Sprintf("memsim: encode: %v", err)) // impossible for valid config
	}
	for _, mo := range ws.mods {
		mo.reset(ws.truth)
	}
	ws.settled = false
	ws.seus, ws.permanentFaults, ws.scrubOps, ws.scrubMis = 0, 0, 0, 0

	// Per-module stochastic rates. Importance sampling tilts only the
	// arrival clock (all fault rates jointly, so module and fault-type
	// selection keep their untilted distribution); the clock's
	// likelihood ratio corrects the estimator.
	seuRate, permRate, totalRate := cfg.rates()
	ws.clock.Start(totalRate)
	for {
		t, ev := ws.clock.Next()
		if ev == scrub.Done {
			break
		}
		if ev == scrub.Scrub {
			ws.doScrub(t)
			continue
		}
		// Pick module, then fault type, then location.
		ws.settled = false
		mo := ws.mods[rng.Intn(len(ws.mods))]
		if rng.Float64()*(seuRate+permRate) < seuRate {
			mo.flip(rng.Intn(n), rng.Intn(m))
			ws.seus++
		} else {
			mo.stick(rng.Intn(n), rng.Intn(m), uint16(rng.Intn(2)), t+cfg.DetectionLatency)
			ws.permanentFaults++
		}
	}
	// A counter is added only when non-zero, so a shard carries exactly
	// the keys that per-event adds would have created.
	for _, c := range [...]struct {
		key string
		n   int64
	}{
		{CounterSEUs, ws.seus},
		{CounterPermanentFaults, ws.permanentFaults},
		{CounterScrubOps, ws.scrubOps},
		{CounterScrubMiscorrections, ws.scrubMis},
	} {
		if c.n != 0 {
			acc.Add(c.key, c.n)
		}
	}
	ws.weighted = ws.cfg.weighted()
	ws.lr = ws.clock.LikelihoodRatio()
	ws.finalRead(cfg.Horizon, acc)
}

// classify records a per-trial outcome counter: with importance
// sampling active it carries the trial's likelihood ratio into the
// weighted moments, otherwise it is a plain unit count (and the
// artifact bytes stay bit-identical to the pre-weighted engine).
func (ws *worker) classify(acc *campaign.Acc, counter string) {
	if ws.weighted {
		acc.AddWeighted(counter, ws.lr)
	} else {
		acc.Add(counter, 1)
	}
}

// maskPair performs the arbiter's erasure recovery on the two stored
// words into the worker's buffers: positions erased in exactly one
// module are replaced by the twin symbol; positions erased in both are
// returned as shared erasures for the decoders.
func (ws *worker) maskPair(t float64) (w1, w2 []gf.Elem, shared []int) {
	for i := range ws.set1 {
		ws.set1[i] = ws.modBuf[0].locatedAt[i] <= t
		ws.set2[i] = ws.modBuf[1].locatedAt[i] <= t
	}
	w1, w2 = ws.w1, ws.w2
	copy(w1, ws.modBuf[0].stored)
	copy(w2, ws.modBuf[1].stored)
	shared = ws.shared[:0]
	for i := range w1 {
		switch {
		case ws.set1[i] && ws.set2[i]:
			shared = append(shared, i)
		case ws.set1[i]:
			w1[i] = w2[i]
		case ws.set2[i]:
			w2[i] = w1[i]
		}
	}
	return w1, w2, shared
}

// decodeArena decodes the first count words of the scrub-pass arena
// with the erasure lists staged in ws.elists. A failed word stays as
// received in the arena; a successful one is corrected in place. The
// result is valid until the next decode on the same workspace.
func (ws *worker) decodeArena(count int) *rs.BatchResult {
	n := ws.cfg.Code.N()
	res, err := ws.dec.DecodeAll(rs.Batch{Words: ws.pair[:count*n], Stride: n, Count: count}, ws.elists[:count])
	if err != nil {
		panic(fmt.Sprintf("memsim: scrub-arena decode: %v", err)) // arena shape is fixed
	}
	return res
}

// doScrub performs the scrub pass at t, counting it in the trial's
// scrub_ops and scrub_miscorrections tallies.
//
// A pass over a settled pair is skipped when no module's located set
// grew since the settling pass (t < nextLocate); it adds that pass's
// miscorrections again. Skipping is exact: scrubPass draws no
// randomness, and its only inputs are the stored words, the located
// sets at t and the truth word. None of them changed — the settling
// pass rewrote no symbol, no fault has arrived and no position was
// located since — so the pass would repeat the last one's decodes, its
// writes (which change nothing) and its counts. That holds for the
// duplex masking, CrossRepair and DetectionLatency alike.
func (ws *worker) doScrub(t float64) {
	ws.scrubOps++
	if ws.settled && t < ws.nextLocate {
		ws.scrubMis += ws.settledMis
		return
	}
	changed, mis := ws.scrubPass(t)
	ws.scrubMis += mis
	ws.settled = !changed
	if ws.settled {
		ws.settledMis = mis
		ws.nextLocate = math.Inf(1)
		for _, mo := range ws.mods {
			ws.nextLocate = min(ws.nextLocate, mo.nextLocateAfter(t))
		}
	}
}

// scrubPass reads, corrects and rewrites the stored word(s) through
// the real decoder. A detected-uncorrectable word is left untouched; a
// mis-corrected word is entrenched. It reports whether any stored
// symbol changed and how many module rewrites wrote a wrong codeword.
func (ws *worker) scrubPass(t float64) (changed bool, mis int64) {
	cfg := ws.cfg
	rewrite := func(mo *module, codeword []gf.Elem) {
		if mo.write(codeword) {
			changed = true
		}
		if !equalWords(codeword, ws.truth) {
			mis++
		}
	}
	if !cfg.Duplex {
		mo := ws.mods[0]
		copy(ws.w1, mo.stored)
		ws.elists[0] = mo.erasuresInto(ws.e1, t)
		if ws.decodeArena(1).Words[0].Err == nil {
			rewrite(mo, ws.w1)
		}
		return changed, mis
	}
	w1, w2, shared := ws.maskPair(t)
	ws.elists[0], ws.elists[1] = shared, shared
	bres := ws.decodeArena(2)
	err1, err2 := bres.Words[0].Err, bres.Words[1].Err
	switch {
	case err1 == nil && err2 == nil:
		rewrite(ws.mods[0], w1)
		rewrite(ws.mods[1], w2)
	case err1 == nil:
		rewrite(ws.mods[0], w1)
		if cfg.CrossRepair {
			rewrite(ws.mods[1], w1) // resurrect the dead module from the live word
		}
	case err2 == nil:
		rewrite(ws.mods[1], w2)
		if cfg.CrossRepair {
			rewrite(ws.mods[0], w2)
		}
	}
	return changed, mis
}

// finalRead performs the paper's read-at-stopping-time and classifies
// the outcome.
func (ws *worker) finalRead(t float64, acc *campaign.Acc) {
	cfg := ws.cfg
	code := cfg.Code
	if !cfg.Duplex {
		mo := ws.mods[0]
		erasures := mo.erasuresInto(ws.e1, t)
		if ws.exceedsCapability(mo.stored, erasures) {
			ws.classify(acc, CounterCapabilityExceeded)
		}
		copy(ws.w1, mo.stored)
		ws.elists[0] = erasures
		data := ws.w1[:code.K()] // corrected in place on success
		switch {
		case ws.decodeArena(1).Words[0].Err != nil:
			ws.classify(acc, CounterNoOutput)
		case equalWords(data, ws.truth[:code.K()]):
			ws.classify(acc, CounterCorrect)
		default:
			ws.classify(acc, CounterWrongOutput)
			acc.Add(CounterDataBitErrors, bitErrors(data, ws.truth[:code.K()]))
		}
		return
	}

	w1, w2, shared := ws.maskPair(t)
	if ws.exceedsCapability(w1, shared) || ws.exceedsCapability(w2, shared) {
		ws.classify(acc, CounterCapabilityExceeded)
	}
	e1 := ws.modBuf[0].erasuresInto(ws.e1, t)
	e2 := ws.modBuf[1].erasuresInto(ws.e2, t)
	res, err := ws.arb.Read(ws.modBuf[0].stored, ws.modBuf[1].stored, e1, e2)
	if err != nil {
		panic(fmt.Sprintf("memsim: arbiter: %v", err)) // inputs are structurally valid
	}
	ws.classify(acc, verdictKeys[res.Verdict])
	switch {
	case !res.OK:
		ws.classify(acc, CounterNoOutput)
	case equalWords(res.Data, ws.truth[:code.K()]):
		ws.classify(acc, CounterCorrect)
	default:
		ws.classify(acc, CounterWrongOutput)
		acc.Add(CounterDataBitErrors, bitErrors(res.Data, ws.truth[:code.K()]))
	}
}

// exceedsCapability checks the ground-truth error pattern of one word
// against 2*errors + erasures <= n-k — the condition whose violation
// is the Markov chains' Fail event.
func (ws *worker) exceedsCapability(word []gf.Elem, erasures []int) bool {
	for i := range ws.capSet {
		ws.capSet[i] = false
	}
	for _, p := range erasures {
		ws.capSet[p] = true
	}
	errors := 0
	for i := range word {
		if !ws.capSet[i] && word[i] != ws.truth[i] {
			errors++
		}
	}
	return 2*errors+len(erasures) > ws.cfg.Code.Redundancy()
}

func equalWords(a, b []gf.Elem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func bitErrors(a, b []gf.Elem) int64 {
	var total int64
	for i := range a {
		total += int64(bits.OnesCount16(uint16(a[i] ^ b[i])))
	}
	return total
}
