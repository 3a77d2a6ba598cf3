// Package campaign is the experiment-orchestration engine shared by
// every simulator and analytic sweep in this repository. A Scenario
// describes a fixed number of deterministic-seeded trials plus a
// factory for per-goroutine Workers (which own all reusable scratch:
// codec workspaces, RNGs, modules).
//
// The engine is three explicit layers:
//
//   - the planner (NewPlan) deterministically shards the trial range
//     into fixed-size contiguous shards and assigns a contiguous slice
//     of that shard range to a Partition{Index, Count} — shard
//     boundaries and the TrialSeed stream depend only on the global
//     trial index, so any partitioning of the range computes the very
//     same shards a single process would;
//   - the executor (Execute) runs one partition's shards over a
//     worker-goroutine pool and records them into a self-describing
//     partial-result artifact — an append-only JSON Lines file of
//     per-shard counters, samples and notes that doubles as the
//     resumable checkpoint and as the spill target that keeps
//     executor memory bounded for million-sample campaigns;
//   - the merger (Merge) folds any set of partials — from one process
//     or many — in global shard order into a Result that is
//     bit-identical to the single-process run, after validating that
//     the partials share one campaign fingerprint and cover the shard
//     range disjointly and completely.
//
// Run composes the three layers for the common single-process case.
// On top of that base the engine provides:
//
//   - early stopping: once the Wilson confidence interval of a chosen
//     counter is narrow enough over a contiguous prefix of shards, the
//     campaign stops and discards any later shards already computed —
//     the stopping point is a pure function of the shard contents, so
//     early-stopped results are also worker-count independent. A
//     single-process executor stops launching shards as soon as the
//     rule fires; partitioned executors cannot see the global prefix,
//     so they run their whole slice (deliberately over-running the
//     stopping point) and the merger re-decides the stop on the
//     contiguous prefix, which lands on the identical shard. Every
//     layer decides through one PrefixFold;
//   - checkpointing: every completed shard is appended to the partial
//     artifact, and a rerun pointed at the same file resumes with
//     only the missing shards — a resumed campaign is bit-identical
//     to an uninterrupted one;
//   - structured results: trials report named int64 counters, (x, y)
//     samples grouped into labeled series, and free-form notes, which
//     downstream formatting (internal/expdata, the spec renderers)
//     turns into tables, TSV, JSON or plots instead of printf — or,
//     via a merge Sink, streams to disk without ever materializing
//     the sample list in memory.
//
// Determinism contract: a Worker must derive all randomness for trial
// i from the trial index (see TrialSeed), never from shared state, and
// must record per-trial output through the Acc it is handed. Counters
// merge by addition; samples and notes carry their trial index and are
// reassembled in trial order.
package campaign

import (
	"fmt"
	"math"
	"sort"
)

// Scenario describes one experiment: how many trials it has and how
// to build per-goroutine workers.
type Scenario interface {
	// Name identifies the scenario in results and checkpoints.
	Name() string
	// Trials is the total number of independent trials requested.
	Trials() int
	// NewWorker builds the per-goroutine state (codec workspaces,
	// RNG, scratch buffers). It is called once per worker goroutine.
	NewWorker() (Worker, error)
}

// Worker executes trials. Each trial must be a pure function of its
// trial index (plus the scenario configuration), so that sharding is
// invisible in the aggregate.
type Worker interface {
	Trial(trial int, acc *Acc) error
}

// WeightedScenario is implemented by scenarios whose trials carry
// importance-sampling weights (per-trial likelihood ratios recorded
// through Acc.AddWeighted). The planner stamps the flag into the plan
// so the PrefixFold evaluates the relative-error rule on the weighted
// estimator instead of the Wilson interval, and partial artifacts
// carry the version-3 weight-moment records.
type WeightedScenario interface {
	Scenario
	// Weighted reports whether trials record likelihood-ratio weights.
	// A scenario returning false behaves exactly like a plain Scenario
	// (unit weights, version-2 artifacts, Wilson early stop).
	Weighted() bool
}

// TrialSeed derives the deterministic per-trial RNG seed every
// scenario in this repository uses: reseeding a worker-owned
// generator with TrialSeed(base, i) makes trial i reproducible
// regardless of which worker runs it, without per-trial allocation.
// Workers draw from NewTrialRand, whose reseed is O(1) and whose
// stream is math/rand's for the same seed.
func TrialSeed(base int64, trial int) int64 {
	return base + int64(trial)*0x9E3779B9
}

// Sample is one recorded (x, y) point of a labeled series.
type Sample struct {
	Trial  int
	Series string
	X, Y   float64
}

// Note is one free-form observation attached to a trial.
type Note struct {
	Trial int    `json:"trial"`
	Text  string `json:"text"`
}

// Moments are the first two weight moments of a counter: the sum of
// per-increment weights and the sum of their squares. For N trials of
// which the counter's event occurred with likelihood ratios w_i, the
// unbiased estimate of the nominal-measure probability is WSum/N, its
// standard error sqrt((WSum2/N - (WSum/N)^2)/N), and the effective
// sample size WSum^2/WSum2. Unit weights give WSum == WSum2 == the
// integer counter.
type Moments struct {
	WSum  float64 `json:"wsum"`
	WSum2 float64 `json:"wsum2"`
}

// add folds another moment pair in (counters merge by addition, so do
// their weight moments).
func (m *Moments) add(o Moments) {
	m.WSum += o.WSum
	m.WSum2 += o.WSum2
}

// ESS returns the effective sample size (WSum^2/WSum2, 0 when empty).
func (m Moments) ESS() float64 {
	if m.WSum2 <= 0 {
		return 0
	}
	return m.WSum * m.WSum / m.WSum2
}

// Acc accumulates the output of one shard's trials. It is not safe
// for concurrent use; the engine hands each shard its own.
type Acc struct {
	counters map[string]int64
	weights  map[string]Moments
	samples  []Sample
	notes    []Note
}

// NewAcc returns an empty accumulator.
func NewAcc() *Acc {
	return &Acc{counters: make(map[string]int64)}
}

// Add increments a named counter.
func (a *Acc) Add(counter string, delta int64) {
	a.counters[counter] += delta
}

// AddWeighted records one weighted occurrence of a counter: the
// integer counter still advances by one (the raw number of simulated
// events, what Add would have recorded), and the counter's weight
// moments accumulate the trial's likelihood ratio w and w². Workers
// call it once per trial per outcome counter, with w the trial's
// importance-sampling weight; AddWeighted(c, 1) is equivalent to
// Add(c, 1) plus unit moments.
func (a *Acc) AddWeighted(counter string, w float64) {
	a.counters[counter]++
	if a.weights == nil {
		a.weights = make(map[string]Moments)
	}
	m := a.weights[counter]
	m.WSum += w
	m.WSum2 += w * w
	a.weights[counter] = m
}

// Counter returns a counter's accumulated value (0 when absent), so
// workers and their tests can inspect what a trial recorded.
func (a *Acc) Counter(name string) int64 { return a.counters[name] }

// Sample records an (x, y) point for a labeled series.
func (a *Acc) Sample(trial int, series string, x, y float64) {
	a.samples = append(a.samples, Sample{Trial: trial, Series: series, X: x, Y: y})
}

// Note records a free-form observation for a trial.
func (a *Acc) Note(trial int, format string, args ...any) {
	a.notes = append(a.notes, Note{Trial: trial, Text: fmt.Sprintf(format, args...)})
}

// EarlyStop stops a campaign once a binomial counter is resolved
// precisely enough. The decision is evaluated only over contiguous
// prefixes of completed shards, which makes the stopping trial count
// a deterministic function of the scenario and shard size.
type EarlyStop struct {
	// Counter is the name of the counter treated as binomial
	// successes out of the trials run so far.
	Counter string
	// RelHalfWidth stops the campaign when the Wilson half-width is
	// at most RelHalfWidth times the point estimate (and at least one
	// success has been observed).
	RelHalfWidth float64
	// Z is the interval's z-score; 0 means 1.96 (95%).
	Z float64
	// MinTrials defers stopping until at least this many trials.
	MinTrials int
}

func (s *EarlyStop) validate() error {
	if s.Counter == "" {
		return fmt.Errorf("campaign: early stop needs a counter name")
	}
	if s.RelHalfWidth <= 0 || math.IsNaN(s.RelHalfWidth) {
		return fmt.Errorf("campaign: invalid early-stop relative half-width %v", s.RelHalfWidth)
	}
	if s.Z < 0 || math.IsNaN(s.Z) {
		return fmt.Errorf("campaign: invalid early-stop z %v", s.Z)
	}
	return nil
}

// z returns the configured z-score, defaulting to 1.96.
func (s *EarlyStop) z() float64 {
	if s.Z == 0 {
		return 1.96
	}
	return s.Z
}

// satisfied reports whether the interval is narrow enough at the
// given prefix totals.
func (s *EarlyStop) satisfied(successes int64, trials int) bool {
	if trials < s.MinTrials || successes <= 0 {
		return false
	}
	p := float64(successes) / float64(trials)
	lo, hi := Wilson(successes, int64(trials), s.z())
	return (hi-lo)/2 <= s.RelHalfWidth*p
}

// satisfiedWeighted is the stop rule's form for weighted campaigns: it
// fires when the relative error of the weighted estimator — z times
// its standard error over the point estimate — is at most
// RelHalfWidth. Like the Wilson form it is evaluated only on
// contiguous shard prefixes, so the stopping shard stays a pure
// function of the shard contents.
func (s *EarlyStop) satisfiedWeighted(m Moments, trials int) bool {
	if trials < s.MinTrials || m.WSum <= 0 {
		return false
	}
	p := m.WSum / float64(trials)
	se := WeightedStdErr(m, trials)
	return s.z()*se <= s.RelHalfWidth*p
}

// WeightedStdErr returns the standard error of the weighted estimator
// WSum/trials: sqrt((WSum2/N - p²)/N). The inner difference is an
// empirical variance, so it is clamped at zero against float rounding.
func WeightedStdErr(m Moments, trials int) float64 {
	if trials == 0 {
		return 0
	}
	n := float64(trials)
	p := m.WSum / n
	v := (m.WSum2/n - p*p) / n
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// DefaultShardSize is the trial count per shard when Config.ShardSize
// is zero: small enough that checkpoints and early-stop checks are
// frequent, large enough that shard dispatch overhead is invisible.
const DefaultShardSize = 256

// Config tunes the engine; the zero value runs every trial on
// GOMAXPROCS workers with no checkpointing or early stopping.
type Config struct {
	// Workers is the goroutine count; 0 means GOMAXPROCS.
	Workers int
	// ShardSize is the number of consecutive trials per shard
	// (checkpoint and early-stop granularity); 0 means
	// DefaultShardSize. Results are independent of Workers for any
	// fixed ShardSize; the early-stop point may move with ShardSize.
	ShardSize int
	// Checkpoint is the path of the resumable partial-result artifact;
	// "" disables checkpointing. If the file exists it must describe
	// the same scenario (name, trials, shard size) and its completed
	// shards are not recomputed. Progress is appended about once a
	// second or every 64 completed shards, plus a final flush.
	Checkpoint string
	// ParamsDigest optionally stamps checkpoints and partial artifacts
	// with a digest of the scenario's full parameter set (the spec
	// layer digests each entry's kind+params). A resume against an
	// artifact carrying a different digest is refused even when the
	// scenario name matches, so editing a spec entry's params can
	// never silently merge shards computed under the old ones.
	// Artifacts without a digest (written before the field existed)
	// resume regardless — the documented pre-digest caveat.
	ParamsDigest string
	// Stop optionally ends the campaign once a counter's confidence
	// interval is narrow enough.
	Stop *EarlyStop
}

// Result is the merged output of a campaign.
type Result struct {
	Scenario string `json:"scenario"`
	// Requested is the scenario's full trial count; Trials is the
	// number actually contributing to the statistics (smaller only
	// when early stopping triggered).
	Requested    int  `json:"requested_trials"`
	Trials       int  `json:"trials"`
	EarlyStopped bool `json:"early_stopped,omitempty"`
	// ResumedTrials counts trials restored from a checkpoint rather
	// than recomputed in this run.
	ResumedTrials int              `json:"resumed_trials,omitempty"`
	Counters      map[string]int64 `json:"counters"`
	// Weights carries the per-counter weight moments of a weighted
	// (importance-sampled) campaign; nil for unit-weight runs, so
	// their serialized results are unchanged.
	Weights map[string]Moments `json:"weights,omitempty"`
	Samples []Sample           `json:"samples,omitempty"`
	Notes   []Note             `json:"notes,omitempty"`
}

// Counter returns a counter value (0 when absent).
func (r *Result) Counter(name string) int64 { return r.Counters[name] }

// Fraction returns Counter(name) / Trials.
func (r *Result) Fraction(name string) float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Counters[name]) / float64(r.Trials)
}

// WeightedFraction returns the weighted estimate of a counter's
// nominal-measure probability (WSum/Trials); for counters without
// weight moments it falls back to Fraction, so callers can use it
// unconditionally.
func (r *Result) WeightedFraction(name string) float64 {
	if m, ok := r.Weights[name]; ok && r.Trials > 0 {
		return m.WSum / float64(r.Trials)
	}
	return r.Fraction(name)
}

// StdErr returns the standard error of WeightedFraction(name). For
// unit-weight counters this is the binomial sqrt(p(1-p)/N).
func (r *Result) StdErr(name string) float64 {
	if m, ok := r.Weights[name]; ok {
		return WeightedStdErr(m, r.Trials)
	}
	c := float64(r.Counters[name])
	return WeightedStdErr(Moments{WSum: c, WSum2: c}, r.Trials)
}

// EffectiveSamples returns the effective sample size of a weighted
// counter (WSum²/WSum2); unit-weight counters report their raw count.
func (r *Result) EffectiveSamples(name string) float64 {
	if m, ok := r.Weights[name]; ok {
		return m.ESS()
	}
	return float64(r.Counters[name])
}

// CounterNames returns the sorted counter keys.
func (r *Result) CounterNames() []string {
	names := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// SeriesPoints returns the (x, y) points of one series in trial order.
func (r *Result) SeriesPoints(series string) (xs, ys []float64) {
	for _, s := range r.Samples {
		if s.Series == series {
			xs = append(xs, s.X)
			ys = append(ys, s.Y)
		}
	}
	return xs, ys
}

// Wilson returns the Wilson score interval for a binomial proportion
// at the given z (e.g. 1.96 for 95%).
func Wilson(successes, trials int64, z float64) (lo, hi float64) {
	if trials == 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// Run executes the whole scenario in-process: it plans the full shard
// range, executes it with Execute (spilling to cfg.Checkpoint when
// set) and merges the single partial with Merge. The result is
// deterministic for a fixed scenario and shard size, independent of
// worker count, partitioning, checkpoint interruptions, and
// scheduling.
func Run(scn Scenario, cfg Config) (*Result, error) {
	plan, err := NewPlan(scn, cfg.ShardSize, Whole)
	if err != nil {
		return nil, err
	}
	plan.ParamsDigest = cfg.ParamsDigest
	partial, err := Execute(scn, plan, ExecConfig{
		Workers:  cfg.Workers,
		Artifact: cfg.Checkpoint,
		Stop:     cfg.Stop,
	})
	if err != nil {
		return nil, err
	}
	defer partial.Close()
	return Merge([]*Partial{partial}, MergeConfig{Stop: cfg.Stop, ParamsDigest: cfg.ParamsDigest})
}
