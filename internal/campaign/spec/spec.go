// Package spec runs declarative multi-scenario campaign files: a JSON
// document names a list of scenarios — Monte Carlo fault injection
// (memsim), multi-bit-upset comparisons (mbusim), page-level
// interleaving simulations (interleave), whole-memory cross-validation
// (array), analytic BER curves and design-space sweeps, or whole
// registry experiments — and the package builds each one into a
// campaign.Scenario for the shared engine. Adding a new workload to a
// study means adding an entry to a spec file, not writing a new
// binary.
//
// Schema (see examples/campaign/ for runnable files):
//
//	{
//	  "seed": 1,
//	  "workers": 0,
//	  "scenarios": [
//	    {
//	      "name": "ber-transient",
//	      "kind": "bercurve",
//	      "params": {"arrangement": "duplex", "seu_per_bit_day": 1.7e-5,
//	                 "scrub_seconds": 3600, "hours": 48}
//	    },
//	    {
//	      "name": "ssmm-mission",
//	      "kind": "memsim",
//	      "params": {"duplex": true, "lambda_bit_per_hour": 6e-4,
//	                 "lambda_symbol_per_hour": 2e-4, "scrub_period_hours": 4,
//	                 "exponential_scrub": true, "horizon_hours": 48,
//	                 "trials": 10000},
//	      "expect": [{"counter": "capability_exceeded",
//	                  "min_fraction": 0.05, "max_fraction": 0.09}]
//	    },
//	    {
//	      "name": "page-sweep",
//	      "kind": "interleave",
//	      "params": {"burst_per_kilobit_hour": 0.5, "burst_bits": 9,
//	                 "detection": "latency", "detection_latency_hours": 12,
//	                 "horizon_hours": 48, "trials": 4000},
//	      "matrix": {"n": [18, 20], "depth": [2, 4],
//	                 "scrub_period_hours": [1, 4, 12]},
//	      "expect": [{"counter": "single_burst_losses", "max_fraction": 0}]
//	    }
//	  ]
//	}
//
// Kinds: "memsim", "mbusim", "bercurve", "tradeoff", "experiments",
// "interleave" (page-level Monte Carlo over internal/pagesim) and
// "array" (whole-memory Monte Carlo cross-validating the analytic
// internal/array lift; it fails the run when the analytic curve
// leaves the Monte Carlo's Wilson band unless validate_analytic is
// false). Each entry may carry a checkpoint path, an early-stop rule
// and expectations — tolerance bands on counter fractions that turn a
// campaign into a pass/fail gate (the nightly CI workflow uses this
// to detect probability drift). The burst-injecting kinds ("mbusim",
// "interleave") take burst_dist/burst_mean_bits to draw MBU lengths
// from a distribution ("fixed" default; "geometric" with the given
// mean, capped at the image — see internal/burstlen) instead of a
// constant burst_bits. The "interleave" kind additionally takes a
// "detection" policy for stuck-column location ("immediate" default —
// the historical free-erasures behavior, bit-identical outputs;
// "scrub" — located when a scrub pass observes the symbol deviate;
// "latency" — located detection_latency_hours after striking), a
// natural matrix axis for quantifying what immediate location buys
// (see examples/campaign/detection.json).
//
// Every entry's kind and canonicalized params are digested
// (Entry.ParamsDigest) and stamped into checkpoint and
// partial-artifact headers: editing an entry's params while keeping
// its name makes resume and merge refuse the stale artifacts instead
// of silently folding shards computed under the old parameters.
// Artifacts written before the digest existed carry none and stay
// loadable — the one caveat being that params edits are not detected
// against those pre-digest files.
//
// An entry with a "matrix" field is a sweep template: File.Expand
// (run automatically by Parse and BuildAll) replaces it with the full
// cross-product of cells — one scenario per parameter combination,
// named <name>/k1=v1,k2=v2,... with keys sorted — each inheriting the
// entry's remaining params, stop rule and expectation bands, so one
// twelve-line entry expresses an RS(n,k) x interleaving-depth x
// scrub-interval grid. A "replicates": N field adds a synthesized
// "seed" axis — N independent RNG replicates of the identical
// configuration, whose spread measures the Monte Carlo confidence
// interval itself (seeded kinds only; composes with matrix).
// RenderGrid formats a matrix group's results as one table and
// RenderGridHeatmap shades its headline counter fraction per cell.
//
// Partitioned campaigns: every entry's trial range can be split
// across processes with Built.RunPartition (one deterministic slice
// per process, each writing a self-describing partial artifact) and
// reassembled with Built.MergePartials into the Result a
// single-process run would produce, bit for bit — cmd/campaign's
// -partition/-merge flags drive exactly this path.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/array"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/expdata"
	"repro/internal/gf"
	"repro/internal/mbusim"
	"repro/internal/memsim"
	"repro/internal/pagesim"
	"repro/internal/rs"
	"repro/internal/textplot"
)

// File is a parsed campaign spec.
type File struct {
	// Seed is the default base seed for entries that do not set one.
	Seed int64 `json:"seed,omitempty"`
	// Workers and ShardSize are engine defaults for every entry
	// (0 = engine defaults).
	Workers   int     `json:"workers,omitempty"`
	ShardSize int     `json:"shard_size,omitempty"`
	Scenarios []Entry `json:"scenarios"`
}

// Entry is one scenario of a spec file — or, when Matrix is set, a
// template for a whole grid of them.
type Entry struct {
	Name       string          `json:"name"`
	Kind       string          `json:"kind"`
	Params     json.RawMessage `json:"params,omitempty"`
	Checkpoint string          `json:"checkpoint,omitempty"`
	Stop       *Stop           `json:"stop,omitempty"`
	Expect     []Expectation   `json:"expect,omitempty"`
	Sampling   *Sampling       `json:"sampling,omitempty"`

	// Matrix maps parameter names to value lists; File.Expand replaces
	// the entry with the cross-product of cells (auto-suffixed names,
	// shared defaults from Params, the entry's Stop and Expect applied
	// to every cell). A matrix key must not also appear in Params.
	Matrix map[string][]json.RawMessage `json:"matrix,omitempty"`

	// Replicates expands the entry into N seed-replicate cells by
	// synthesizing a "seed" matrix axis sweeping base..base+N-1 (base
	// is the entry's params seed, or the file seed): every cell runs
	// the identical configuration under an independent RNG stream, so
	// the spread of the per-cell estimates measures the Monte Carlo
	// confidence interval itself (a CI of the CI). Composes with
	// Matrix (the seed axis joins the cross-product) and requires a
	// seeded kind (memsim, mbusim, interleave, array).
	Replicates int `json:"replicates,omitempty"`

	// MatrixOrigin ("" for plain entries) names the matrix entry this
	// cell was expanded from; MatrixParams holds the cell's sweep
	// assignments in suffix order. Both are set by Expand, not parsed.
	MatrixOrigin string             `json:"-"`
	MatrixParams []MatrixAssignment `json:"-"`
}

// Sampling selects a variance-reduction strategy for a Monte Carlo
// entry (kinds "memsim" and "interleave"):
//
//	"sampling": {"method": "tilt", "factor": 100}
//	"sampling": {"method": "auto"}
//
// "tilt" exponentially tilts the fault arrival process: every fault
// rate is jointly multiplied by the factor (> 1), each trial carries
// its exact likelihood ratio into the engine's weighted counters, and
// the entry's results report the unbiased weighted estimator with a
// relative-error interval and effective sample size. "auto" (simplex
// memsim with exponential or no scrubbing only) solves the factor
// from the analytic Markov chain so the tilted failure probability
// lands near 25%, and additionally gates the weighted estimate
// against the chain's exact answer at merge time. Tilted and
// untilted campaigns write distinct artifacts (the tilt factor is
// part of the scenario identity), so changing the sampling block
// never silently merges trials drawn from different measures.
type Sampling struct {
	Method string  `json:"method"`
	Factor float64 `json:"factor,omitempty"`
}

// Sampling method names.
const (
	SampleTilt = "tilt"
	SampleAuto = "auto"
)

// autoTiltTarget is the tilted failure probability the "auto" method
// solves for: far enough from 0 that failures are common, far enough
// from 1 that the likelihood ratios stay informative.
const autoTiltTarget = 0.25

// validate checks the sampling block against its entry's kind.
func (s *Sampling) validate(e Entry) error {
	switch s.Method {
	case SampleTilt:
		if math.IsNaN(s.Factor) || math.IsInf(s.Factor, 0) || s.Factor < 1 {
			return fmt.Errorf("spec: scenario %q sampling factor %v must be >= 1", e.Name, s.Factor)
		}
	case SampleAuto:
		if s.Factor != 0 {
			return fmt.Errorf("spec: scenario %q sampling method %q solves its own factor; drop the factor field", e.Name, s.Method)
		}
	default:
		return fmt.Errorf("spec: scenario %q has unknown sampling method %q (want %q or %q)", e.Name, s.Method, SampleTilt, SampleAuto)
	}
	switch e.Kind {
	case "memsim":
	case "interleave":
		if s.Method == SampleAuto {
			return fmt.Errorf("spec: scenario %q: sampling method %q needs the analytic chain and supports kind \"memsim\" only", e.Name, s.Method)
		}
	default:
		return fmt.Errorf("spec: scenario %q kind %q does not support importance sampling", e.Name, e.Kind)
	}
	return nil
}

// Stop mirrors campaign.EarlyStop in spec syntax.
type Stop struct {
	Counter      string  `json:"counter"`
	RelHalfWidth float64 `json:"rel_half_width"`
	Z            float64 `json:"z,omitempty"`
	MinTrials    int     `json:"min_trials,omitempty"`
}

// Expectation is a tolerance band on a counter fraction; a result
// outside the band fails the campaign run.
type Expectation struct {
	Counter     string   `json:"counter"`
	MinFraction *float64 `json:"min_fraction,omitempty"`
	MaxFraction *float64 `json:"max_fraction,omitempty"`
}

// Check evaluates the expectation against a result. Counters recorded
// under importance sampling are checked on the unbiased weighted
// estimate (the raw biased-measure fraction would be off by orders of
// magnitude); unweighted counters see the plain fraction, unchanged.
func (e Expectation) Check(cres *campaign.Result) error {
	frac := cres.WeightedFraction(e.Counter)
	if e.MinFraction != nil && frac < *e.MinFraction {
		return fmt.Errorf("counter %q fraction %.6e below expected minimum %.6e (%d/%d trials)",
			e.Counter, frac, *e.MinFraction, cres.Counter(e.Counter), cres.Trials)
	}
	if e.MaxFraction != nil && frac > *e.MaxFraction {
		return fmt.Errorf("counter %q fraction %.6e above expected maximum %.6e (%d/%d trials)",
			e.Counter, frac, *e.MaxFraction, cres.Counter(e.Counter), cres.Trials)
	}
	return nil
}

// Load reads and validates a spec file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates spec bytes. Unknown fields are errors,
// so typos fail loudly instead of silently running defaults.
func Parse(data []byte) (*File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("spec: parse: %w", err)
	}
	if err := f.Expand(); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// Validate checks structural invariants (names, kinds, expectations).
func (f *File) Validate() error {
	if len(f.Scenarios) == 0 {
		return fmt.Errorf("spec: no scenarios")
	}
	seen := make(map[string]bool)
	seenPath := make(map[string]string)
	for i, e := range f.Scenarios {
		if e.Name == "" {
			return fmt.Errorf("spec: scenario %d has no name", i)
		}
		if seen[e.Name] {
			return fmt.Errorf("spec: duplicate scenario name %q", e.Name)
		}
		seen[e.Name] = true
		// Distinct names can still sanitize onto the same artifact
		// path ("a/b" vs "a-b"); reject the spec so -out never
		// silently overwrites one scenario's results with another's.
		path := e.ArtifactPath()
		if prev, dup := seenPath[path]; dup {
			return fmt.Errorf("spec: scenarios %q and %q collide on artifact path %q", prev, e.Name, path)
		}
		seenPath[path] = e.Name
		switch e.Kind {
		case "memsim", "mbusim", "bercurve", "tradeoff", "experiments", "interleave", "array":
		default:
			return fmt.Errorf("spec: scenario %q has unknown kind %q", e.Name, e.Kind)
		}
		if e.Stop != nil && e.Stop.Counter == "" {
			return fmt.Errorf("spec: scenario %q early stop needs a counter", e.Name)
		}
		if e.Sampling != nil {
			if err := e.Sampling.validate(e); err != nil {
				return err
			}
		}
		for _, ex := range e.Expect {
			if ex.Counter == "" {
				return fmt.Errorf("spec: scenario %q expectation needs a counter", e.Name)
			}
			if ex.MinFraction == nil && ex.MaxFraction == nil {
				return fmt.Errorf("spec: scenario %q expectation on %q has no bound", e.Name, ex.Counter)
			}
		}
	}
	return nil
}

// ParamsDigest returns a deterministic digest of the entry's kind and
// canonicalized params (JSON re-marshaled with sorted keys, so
// whitespace and key order do not matter). The engine stamps it into
// checkpoint and partial-artifact headers: resuming or merging an
// artifact whose digest differs is refused even when the scenario
// name happens to match, closing the hole where a params edit that a
// kind's scenario Name does not encode would silently merge stale
// shards. The digest is deliberately conservative — it covers every
// param, including ones (like the "array" kind's validate_analytic)
// that do not change the computed shards.
func (e Entry) ParamsDigest() (string, error) {
	raw := e.Params
	if len(raw) == 0 {
		raw = []byte("{}")
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", fmt.Errorf("spec: scenario %q params: %w", e.Name, err)
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("spec: scenario %q params: %w", e.Name, err)
	}
	sum := sha256.Sum256(append(append([]byte(e.Kind), '\n'), canon...))
	return hex.EncodeToString(sum[:]), nil
}

// Built is a spec entry compiled to a runnable scenario.
type Built struct {
	Entry    Entry
	Scenario campaign.Scenario
	// Digest is the entry's ParamsDigest, stamped into checkpoint and
	// partial-artifact headers so stale artifacts from an edited spec
	// are refused at resume and merge time.
	Digest string
	// Render writes the scenario's human-readable summary.
	Render func(w io.Writer, cres *campaign.Result) error
	// shardSize is the kind's preferred shard size when the file does
	// not set one: analytic kinds have few, heavyweight trials and
	// shard one per trial so they actually parallelize.
	shardSize int
	// checks are kind-supplied gates evaluated alongside the entry's
	// expectation bands (the "array" kind's analytic cross-validation).
	checks []func(cres *campaign.Result) error
}

// EngineConfig assembles the engine configuration for this entry
// under the file-level defaults.
func (b *Built) EngineConfig(f *File) campaign.Config {
	cfg := campaign.Config{
		Workers:      f.Workers,
		ShardSize:    f.ShardSize,
		Checkpoint:   b.Entry.Checkpoint,
		ParamsDigest: b.Digest,
	}
	if cfg.ShardSize == 0 {
		cfg.ShardSize = b.shardSize
	}
	if s := b.Entry.Stop; s != nil {
		cfg.Stop = &campaign.EarlyStop{
			Counter:      s.Counter,
			RelHalfWidth: s.RelHalfWidth,
			Z:            s.Z,
			MinTrials:    s.MinTrials,
		}
	}
	return cfg
}

// CheckExpectations evaluates every tolerance band of the entry plus
// any kind-supplied checks (e.g. the "array" kind's analytic
// cross-validation).
func (b *Built) CheckExpectations(cres *campaign.Result) []error {
	var errs []error
	for _, ex := range b.Entry.Expect {
		if err := ex.Check(cres); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", b.Entry.Name, err))
		}
	}
	for _, check := range b.checks {
		if err := check(cres); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", b.Entry.Name, err))
		}
	}
	return errs
}

// decodeParams strictly unmarshals entry params into dst.
func decodeParams(e Entry, dst any) error {
	raw := e.Params
	if len(raw) == 0 {
		raw = []byte("{}")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("spec: scenario %q params: %w", e.Name, err)
	}
	return nil
}

// MemsimParams is the "memsim" kind: Monte Carlo fault injection
// through the real codec, scrubber and arbiter. Rates are per hour
// (simulation units).
type MemsimParams struct {
	N            int     `json:"n"`
	K            int     `json:"k"`
	M            int     `json:"m"`
	Duplex       bool    `json:"duplex"`
	LambdaBit    float64 `json:"lambda_bit_per_hour"`
	LambdaSymbol float64 `json:"lambda_symbol_per_hour"`
	ScrubHours   float64 `json:"scrub_period_hours"`
	ExpScrub     bool    `json:"exponential_scrub"`
	Latency      float64 `json:"detection_latency_hours"`
	CrossRepair  bool    `json:"cross_repair"`
	Horizon      float64 `json:"horizon_hours"`
	Trials       int     `json:"trials"`
	Seed         *int64  `json:"seed,omitempty"`
}

// MemsimConfig converts the params (with defaults) into a simulator
// configuration.
func (p MemsimParams) MemsimConfig(defaultSeed int64) (memsim.Config, error) {
	applyCodeDefaults(&p.N, &p.K, &p.M)
	field, err := gf.NewField(p.M)
	if err != nil {
		return memsim.Config{}, err
	}
	code, err := rs.New(field, p.N, p.K)
	if err != nil {
		return memsim.Config{}, err
	}
	seed := defaultSeed
	if p.Seed != nil {
		seed = *p.Seed
	}
	return memsim.Config{
		Code:             code,
		Duplex:           p.Duplex,
		LambdaBit:        p.LambdaBit,
		LambdaSymbol:     p.LambdaSymbol,
		ScrubPeriod:      p.ScrubHours,
		ExponentialScrub: p.ExpScrub,
		DetectionLatency: p.Latency,
		CrossRepair:      p.CrossRepair,
		Horizon:          p.Horizon,
		Trials:           p.Trials,
		Seed:             seed,
	}, nil
}

// MBUParams is the "mbusim" kind: burst injection through the default
// protection-scheme comparison set. burst_dist selects the length
// distribution ("fixed" default, or "geometric" with mean
// burst_mean_bits capped at each system's image).
type MBUParams struct {
	EventsPerKilobit float64 `json:"events_per_kilobit"`
	BurstBits        int     `json:"burst_bits"`
	BurstDist        string  `json:"burst_dist,omitempty"`
	BurstMeanBits    float64 `json:"burst_mean_bits,omitempty"`
	Trials           int     `json:"trials"`
	Seed             *int64  `json:"seed,omitempty"`
}

// ExperimentsParams is the "experiments" kind: run registered paper
// experiments by ID (empty means all).
type ExperimentsParams struct {
	IDs []string `json:"ids,omitempty"`
}

// InterleaveParams is the "interleave" kind: the page-level Monte
// Carlo of internal/pagesim — depth RS codewords striped across a
// stored page under mixed Poisson SEUs, MBU bursts and stuck-at
// columns, with an optional scrub discipline. Rates are per hour.
type InterleaveParams struct {
	N               int     `json:"n"`
	K               int     `json:"k"`
	M               int     `json:"m"`
	Depth           int     `json:"depth"`
	LambdaBit       float64 `json:"lambda_bit_per_hour"`
	BurstPerKilobit float64 `json:"burst_per_kilobit_hour"`
	BurstBits       int     `json:"burst_bits"`
	BurstDist       string  `json:"burst_dist,omitempty"`
	BurstMeanBits   float64 `json:"burst_mean_bits,omitempty"`
	LambdaColumn    float64 `json:"lambda_column_per_hour"`
	ScrubHours      float64 `json:"scrub_period_hours"`
	ExpScrub        bool    `json:"exponential_scrub"`
	// Detection selects the stuck-column location policy ("immediate"
	// default, "scrub", or "latency" with detection_latency_hours —
	// see pagesim.Config.Detection); matrix entries sweep it like any
	// other param.
	Detection        string  `json:"detection,omitempty"`
	DetectionLatency float64 `json:"detection_latency_hours,omitempty"`
	Horizon          float64 `json:"horizon_hours"`
	Trials           int     `json:"trials"`
	Seed             *int64  `json:"seed,omitempty"`
}

// PagesimConfig converts the params into a simulator configuration
// with depth defaulting to 1 (zero N/K/M fall back to the paper's
// RS(18,16)/m=8 inside pagesim.Config.NewPage, the single authority
// for the code default).
func (p InterleaveParams) PagesimConfig(defaultSeed int64) pagesim.Config {
	if p.Depth == 0 {
		p.Depth = 1
	}
	seed := defaultSeed
	if p.Seed != nil {
		seed = *p.Seed
	}
	return pagesim.Config{
		N:                p.N,
		K:                p.K,
		M:                p.M,
		Depth:            p.Depth,
		LambdaBit:        p.LambdaBit,
		BurstPerKilobit:  p.BurstPerKilobit,
		BurstBits:        p.BurstBits,
		BurstDist:        p.BurstDist,
		BurstMeanBits:    p.BurstMeanBits,
		LambdaColumn:     p.LambdaColumn,
		ScrubPeriod:      p.ScrubHours,
		ExponentialScrub: p.ExpScrub,
		Detection:        p.Detection,
		DetectionLatency: p.DetectionLatency,
		Horizon:          p.Horizon,
		Trials:           p.Trials,
		Seed:             seed,
	}
}

// ArrayParams is the "array" kind: the whole-memory Monte Carlo of
// internal/array — W words simulated at the word level with rates
// matched to the analytic chain, lifted to memory-level loss
// probability. Units follow the analytic API (per-day rates, scrub
// seconds), so an "array" entry reads like a bercurve entry plus a
// capacity. By default the campaign fails when the analytic
// AnyWordFail leaves the Monte Carlo's 95% Wilson band; the check
// defaults off for scrubbed duplex (a documented ~1% model gap, see
// array.SimConfig) and validate_analytic overrides either default.
type ArrayParams struct {
	DataBytes        int64   `json:"data_bytes"`
	Arrangement      string  `json:"arrangement"` // "simplex" (default) or "duplex"
	N                int     `json:"n"`
	K                int     `json:"k"`
	M                int     `json:"m"`
	SEUPerBit        float64 `json:"seu_per_bit_day"`
	PermPerSym       float64 `json:"perm_per_symbol_day"`
	ScrubSec         float64 `json:"scrub_seconds"`
	Hours            float64 `json:"hours"`
	Trials           int     `json:"trials"`
	Seed             *int64  `json:"seed,omitempty"`
	ValidateAnalytic *bool   `json:"validate_analytic,omitempty"`
}

// SimConfig converts the params (with defaults: the paper's code and
// a 1 MiB capacity) into the cross-validation configuration.
func (p ArrayParams) SimConfig(defaultSeed int64) (array.SimConfig, error) {
	arr, err := parseArrangement(p.Arrangement)
	if err != nil {
		return array.SimConfig{}, err
	}
	applyCodeDefaults(&p.N, &p.K, &p.M)
	if p.DataBytes == 0 {
		p.DataBytes = 1 << 20
	}
	seed := defaultSeed
	if p.Seed != nil {
		seed = *p.Seed
	}
	return array.SimConfig{
		Memory: array.Memory{
			DataBytes: p.DataBytes,
			Word: core.Config{
				Arrangement:         arr,
				Code:                core.CodeSpec{N: p.N, K: p.K, M: p.M},
				SEUPerBitDay:        p.SEUPerBit,
				ErasurePerSymbolDay: p.PermPerSym,
				ScrubPeriodSeconds:  p.ScrubSec,
			},
		},
		Hours:  p.Hours,
		Trials: p.Trials,
		Seed:   seed,
	}, nil
}

// Build compiles one entry under the file defaults and stamps its
// params digest.
func Build(e Entry, f *File) (*Built, error) {
	b, err := buildScenario(e, f)
	if err != nil {
		return nil, err
	}
	if b.Digest, err = e.ParamsDigest(); err != nil {
		return nil, err
	}
	return b, nil
}

// buildScenario compiles one entry's kind-specific scenario.
func buildScenario(e Entry, f *File) (*Built, error) {
	switch e.Kind {
	case "memsim":
		var p MemsimParams
		if err := decodeParams(e, &p); err != nil {
			return nil, err
		}
		cfg, err := p.MemsimConfig(f.Seed)
		if err != nil {
			return nil, fmt.Errorf("spec: scenario %q: %w", e.Name, err)
		}
		var checks []func(cres *campaign.Result) error
		if e.Sampling != nil {
			factor, gate, err := resolveMemsimTilt(e, cfg)
			if err != nil {
				return nil, err
			}
			cfg.TiltFactor = factor
			if gate != nil {
				checks = append(checks, gate)
			}
		}
		scn, err := cfg.Scenario()
		if err != nil {
			return nil, fmt.Errorf("spec: scenario %q: %w", e.Name, err)
		}
		return &Built{Entry: e, Scenario: scn, checks: checks, Render: func(w io.Writer, cres *campaign.Result) error {
			return renderMemsim(w, cfg, cres)
		}}, nil

	case "mbusim":
		var p MBUParams
		if err := decodeParams(e, &p); err != nil {
			return nil, err
		}
		seed := f.Seed
		if p.Seed != nil {
			seed = *p.Seed
		}
		cfg := mbusim.Config{
			EventsPerKilobit: p.EventsPerKilobit,
			BurstBits:        p.BurstBits,
			BurstDist:        p.BurstDist,
			BurstMeanBits:    p.BurstMeanBits,
			Trials:           p.Trials,
			Seed:             seed,
		}
		scn, systems, err := mbusim.Scenario(cfg, mbusim.DefaultSystems)
		if err != nil {
			return nil, fmt.Errorf("spec: scenario %q: %w", e.Name, err)
		}
		return &Built{Entry: e, Scenario: scn, Render: func(w io.Writer, cres *campaign.Result) error {
			return renderMBU(w, systems, cres)
		}}, nil

	case "bercurve":
		var p BERCurveParams
		if err := decodeParams(e, &p); err != nil {
			return nil, err
		}
		scn, err := newBERCurve(p)
		if err != nil {
			return nil, fmt.Errorf("spec: scenario %q: %w", e.Name, err)
		}
		return &Built{Entry: e, Scenario: scn, shardSize: 1, Render: func(w io.Writer, cres *campaign.Result) error {
			return renderBERCurve(w, scn, cres)
		}}, nil

	case "tradeoff":
		var p TradeoffParams
		if err := decodeParams(e, &p); err != nil {
			return nil, err
		}
		scn, err := newTradeoff(p)
		if err != nil {
			return nil, fmt.Errorf("spec: scenario %q: %w", e.Name, err)
		}
		return &Built{Entry: e, Scenario: scn, shardSize: 1, Render: func(w io.Writer, cres *campaign.Result) error {
			return renderTradeoff(w, scn, cres)
		}}, nil

	case "interleave":
		var p InterleaveParams
		if err := decodeParams(e, &p); err != nil {
			return nil, err
		}
		cfg := p.PagesimConfig(f.Seed)
		if e.Sampling != nil {
			// validate() already restricted interleave to the explicit
			// "tilt" method.
			cfg.TiltFactor = e.Sampling.Factor
		}
		scn, err := pagesim.Scenario(cfg)
		if err != nil {
			return nil, fmt.Errorf("spec: scenario %q: %w", e.Name, err)
		}
		return &Built{Entry: e, Scenario: scn, Render: func(w io.Writer, cres *campaign.Result) error {
			return renderInterleave(w, cfg, cres)
		}}, nil

	case "array":
		var p ArrayParams
		if err := decodeParams(e, &p); err != nil {
			return nil, err
		}
		cfg, err := p.SimConfig(f.Seed)
		if err != nil {
			return nil, fmt.Errorf("spec: scenario %q: %w", e.Name, err)
		}
		scn, err := cfg.Scenario()
		if err != nil {
			return nil, fmt.Errorf("spec: scenario %q: %w", e.Name, err)
		}
		// Render and the analytic gate both need the cross-validation;
		// memoize it per result so the word-level chain is solved once
		// (Built is used sequentially, so the memo needs no locking).
		var (
			memoFor *campaign.Result
			memo    *array.CrossValidation
		)
		xval := func(cres *campaign.Result) (*array.CrossValidation, error) {
			if cres == memoFor {
				return memo, nil
			}
			v, err := cfg.CrossValidate(cres, 0)
			if err != nil {
				return nil, err
			}
			memoFor, memo = cres, v
			return v, nil
		}
		b := &Built{Entry: e, Scenario: scn, Render: func(w io.Writer, cres *campaign.Result) error {
			v, err := xval(cres)
			if err != nil {
				return err
			}
			return renderArray(w, cfg, v, cres)
		}}
		// Scrubbed duplex carries a documented ~1% chain-vs-simulator
		// model gap (see array.SimConfig), so the analytic gate would
		// fail a correct spec once enough trials shrink the Wilson
		// band below it; default the check off there and let explicit
		// validate_analytic: true opt back in.
		word := cfg.Memory.Word
		gapRegime := word.Arrangement == core.Duplex && word.ScrubPeriodSeconds > 0
		validate := !gapRegime
		if p.ValidateAnalytic != nil {
			validate = *p.ValidateAnalytic
		}
		if validate {
			b.checks = append(b.checks, func(cres *campaign.Result) error {
				v, err := xval(cres)
				if err != nil {
					return err
				}
				return v.Check()
			})
		}
		return b, nil

	case "experiments":
		var p ExperimentsParams
		if err := decodeParams(e, &p); err != nil {
			return nil, err
		}
		exps := expdata.All()
		if len(p.IDs) > 0 {
			exps = exps[:0:0]
			for _, id := range p.IDs {
				exp, ok := expdata.ByID(id)
				if !ok {
					var known []string
					for _, x := range expdata.All() {
						known = append(known, x.ID)
					}
					return nil, fmt.Errorf("spec: scenario %q: unknown experiment %q (known: %s)",
						e.Name, id, strings.Join(known, ", "))
				}
				exps = append(exps, exp)
			}
		}
		// The scenario name must encode the experiment ID list, not
		// just the entry name, so a checkpoint written for one ID set
		// is rejected when the spec is edited to run a different one.
		ids := make([]string, len(exps))
		for i, exp := range exps {
			ids[i] = exp.ID
		}
		scn, err := expdata.Scenario(e.Name+":experiments:"+strings.Join(ids, ","), exps)
		if err != nil {
			return nil, fmt.Errorf("spec: scenario %q: %w", e.Name, err)
		}
		return &Built{Entry: e, Scenario: scn, shardSize: 1, Render: func(w io.Writer, cres *campaign.Result) error {
			return renderExperiments(w, exps, cres)
		}}, nil
	}
	return nil, fmt.Errorf("spec: scenario %q has unknown kind %q", e.Name, e.Kind)
}

// BuildAll compiles every entry, expanding any remaining matrix
// entries first (a no-op for files from Parse, which are pre-expanded).
func (f *File) BuildAll() ([]*Built, error) {
	if err := f.Expand(); err != nil {
		return nil, err
	}
	var out []*Built
	for _, e := range f.Scenarios {
		b, err := Build(e, f)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// renderMemsim summarizes a fault-injection campaign.
func renderMemsim(w io.Writer, cfg memsim.Config, cres *campaign.Result) error {
	cfg.Trials = cres.Trials // early stop may have trimmed the campaign
	res := memsim.ResultFromCampaign(cfg, cres)
	arrangement := "simplex"
	if cfg.Duplex {
		arrangement = "duplex"
	}
	fmt.Fprintf(w, "code:            %v (%s)\n", cfg.Code, arrangement)
	fmt.Fprintf(w, "trials:          %d of %d requested over %g h", cres.Trials, cres.Requested, cfg.Horizon)
	if cres.EarlyStopped {
		fmt.Fprint(w, "  [early stop]")
	}
	if cres.ResumedTrials > 0 {
		fmt.Fprintf(w, "  [%d resumed]", cres.ResumedTrials)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "faults injected: %d SEUs, %d permanent\n", res.SEUs, res.PermanentFaults)
	if res.ScrubOps > 0 {
		fmt.Fprintf(w, "scrubs:          %d passes, %d entrenched mis-corrections\n", res.ScrubOps, res.ScrubMiscorrections)
	}
	fmt.Fprintf(w, "outcomes:        %d correct, %d wrong output, %d no output\n", res.Correct, res.WrongOutput, res.NoOutput)
	lo, hi := memsim.WilsonInterval(res.WrongOutput+res.NoOutput, res.Trials, 1.96)
	fmt.Fprintf(w, "fail fraction:   %.4e  (95%% CI [%.4e, %.4e])\n", res.FailFraction(), lo, hi)
	clo, chi := memsim.WilsonInterval(res.CapabilityExceeded, res.Trials, 1.96)
	fmt.Fprintf(w, "cap. exceeded:   %.4e  (95%% CI [%.4e, %.4e])  paper-BER %.4e\n",
		res.CapabilityExceededFraction(), clo, chi, res.PaperBER())
	if cfg.TiltFactor > 1 {
		// The lines above count events in the biased measure; the
		// weighted estimator below is the unbiased answer.
		wrong := cres.Weights[memsim.CounterWrongOutput]
		noOut := cres.Weights[memsim.CounterNoOutput]
		fail := campaign.Moments{WSum: wrong.WSum + noOut.WSum, WSum2: wrong.WSum2 + noOut.WSum2}
		fmt.Fprintf(w, "importance:      tilt factor %.6g (counts above are in the biased measure)\n", cfg.TiltFactor)
		fmt.Fprintf(w, "  fail fraction: %s\n", weightedLine(fail, cres.Trials))
		fmt.Fprintf(w, "  cap. exceeded: %s\n", weightedLine(cres.Weights[memsim.CounterCapabilityExceeded], cres.Trials))
	}
	return nil
}

// weightedLine formats one importance-sampled estimator: the weighted
// estimate, its 95% relative error, and the effective sample size.
func weightedLine(m campaign.Moments, trials int) string {
	if m.WSum <= 0 {
		return "0  (no weighted events)"
	}
	p := m.WSum / float64(trials)
	se := campaign.WeightedStdErr(m, trials)
	return fmt.Sprintf("%.4e ±%.1f%% RE  (ESS %.0f of %d trials)", p, 100*1.96*se/p, m.ESS(), trials)
}

// renderInterleave summarizes a page-level burst/SEU/stuck-column
// campaign.
func renderInterleave(w io.Writer, cfg pagesim.Config, cres *campaign.Result) error {
	page, err := cfg.NewPage()
	if err != nil {
		return err
	}
	res := pagesim.ResultFromCampaign(cfg, cres)
	code := page.Code()
	fmt.Fprintf(w, "page:            RS(%d,%d)/m=%d x depth %d (%d data symbols, correctable burst %d symbols)\n",
		code.N(), code.K(), code.Field().M(), page.Depth(), page.DataSymbols(), page.CorrectableBurst())
	fmt.Fprintf(w, "trials:          %d of %d requested over %g h", cres.Trials, cres.Requested, cfg.Horizon)
	if cres.EarlyStopped {
		fmt.Fprint(w, "  [early stop]")
	}
	if cres.ResumedTrials > 0 {
		fmt.Fprintf(w, "  [%d resumed]", cres.ResumedTrials)
	}
	fmt.Fprintln(w)
	burstDesc := fmt.Sprintf("%d bits each", cfg.BurstBits)
	if cfg.BurstDist == "geometric" {
		burstDesc = fmt.Sprintf("geometric, mean %g bits", cfg.BurstMeanBits)
	}
	fmt.Fprintf(w, "faults injected: %d SEUs, %d bursts (%s), %d stuck columns\n",
		res.SEUs, res.Bursts, burstDesc, res.StuckColumns)
	if res.ScrubOps > 0 {
		fmt.Fprintf(w, "scrubs:          %d passes\n", res.ScrubOps)
	}
	if res.ScrubDecodeErrors > 0 {
		// Structural failures are impossible for a validated config; a
		// nonzero counter means scrub passes were abandoned and must
		// not hide in the totals.
		fmt.Fprintf(w, "scrub errors:    %d passes abandoned on decode failure\n", res.ScrubDecodeErrors)
	}
	if cfg.Detection != "" && cfg.Detection != pagesim.DetectImmediate {
		policy := cfg.Detection
		if policy == pagesim.DetectLatency {
			policy = fmt.Sprintf("%s (%g h after strike)", policy, cfg.DetectionLatency)
		}
		fmt.Fprintf(w, "detection:       %s; %d columns located, %d decodes saw unlocated stuck columns\n",
			policy, res.LocatedColumns, res.StuckUnlocatedReads)
	}
	fmt.Fprintf(w, "outcomes:        %d correct, %d lost (%d silent), %d symbols corrected, %d failed stripes\n",
		res.PageCorrect, res.PageLoss, res.SilentLoss, res.CorrectedSymbols, res.FailedStripes)
	lo, hi := campaign.Wilson(int64(res.PageLoss), int64(res.Trials), 1.96)
	fmt.Fprintf(w, "loss fraction:   %.4e  (95%% CI [%.4e, %.4e])\n", res.LossFraction(), lo, hi)
	if cfg.TiltFactor > 1 {
		fmt.Fprintf(w, "importance:      tilt factor %.6g (counts above are in the biased measure)\n", cfg.TiltFactor)
		fmt.Fprintf(w, "  loss fraction: %s\n", weightedLine(cres.Weights[pagesim.CounterPageLoss], cres.Trials))
		fmt.Fprintf(w, "  silent loss:   %s\n", weightedLine(cres.Weights[pagesim.CounterSilentLoss], cres.Trials))
	}
	if res.SingleBurstTrials > 0 {
		fmt.Fprintf(w, "single-burst:    %d trials, %d losses (guarantee: %d-symbol bursts always correct)\n",
			res.SingleBurstTrials, res.SingleBurstLosses, page.CorrectableBurst())
	}
	return nil
}

// renderArray summarizes the whole-memory cross-validation: analytic
// vs Monte Carlo at the word and memory level.
func renderArray(w io.Writer, cfg array.SimConfig, v *array.CrossValidation, cres *campaign.Result) error {
	overhead, err := cfg.Memory.Overhead()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "memory:          %d bytes data = %d words of %v (%.3fx stored overhead)\n",
		cfg.Memory.DataBytes, v.Words, cfg.Memory.Word.Code, overhead)
	fmt.Fprintf(w, "trials:          %d of %d requested over %g h", cres.Trials, cres.Requested, cfg.Hours)
	if cres.EarlyStopped {
		fmt.Fprint(w, "  [early stop]")
	}
	if cres.ResumedTrials > 0 {
		fmt.Fprintf(w, "  [%d resumed]", cres.ResumedTrials)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "word fail:       MC %.4e (95%% CI [%.4e, %.4e])  analytic %.4e\n",
		v.WordFailMC, v.WordFailLo, v.WordFailHi, v.WordFailAnalytic)
	fmt.Fprintf(w, "any-word fail:   MC %.4e (95%% CI [%.4e, %.4e])  analytic %.4e\n",
		v.AnyWordFailMC, v.AnyWordFailLo, v.AnyWordFailHi, v.AnyWordFailAnalytic)
	verdict := "agrees"
	if !v.Agrees {
		verdict = "DISAGREES"
	}
	fmt.Fprintf(w, "cross-check:     analytic %s with the Monte Carlo band\n", verdict)
	return nil
}

// renderMBU summarizes a burst campaign as a table.
func renderMBU(w io.Writer, systems []mbusim.System, cres *campaign.Result) error {
	out := mbusim.ResultsFromCampaign(systems, cres)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "system\tstored bits\ttrials\tmean events\tlost\tloss fraction")
	for _, r := range out {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\t%d\t%.4f\n",
			r.Name, r.StoredBits, r.Trials, r.MeanEvents, r.Lost, r.LossFraction)
	}
	return tw.Flush()
}

// renderBERCurve prints the curve as TSV.
func renderBERCurve(w io.Writer, scn *BERCurve, cres *campaign.Result) error {
	xs, ys := cres.SeriesPoints(SeriesBER)
	return textplot.WriteTSV(w, scn.XLabel(), []textplot.Series{
		{Label: scn.Config().String(), X: xs, Y: ys},
	})
}

// renderTradeoff prints the design-space table, one arrangement group
// per block separated by a blank line.
func renderTradeoff(w io.Writer, scn *Tradeoff, cres *campaign.Result) error {
	p := scn.Params()
	fmt.Fprintf(w, "design space for k=%d data symbols (m=%d), lambda=%g/bit/day, lambdaE=%g/sym/day, Tsc=%gs, horizon %gh\n\n",
		p.K, p.M, p.SEUPerBit, p.PermPerSym, p.ScrubSec, p.Hours)
	fmt.Fprintf(w, "%-22s %12s %14s %10s %8s %9s\n",
		"arrangement", "BER(h)", "MTTDL(h)", "Td cycles", "gates", "overhead")
	lastArrangement := scn.Candidates()[0].Arrangement
	for i, c := range scn.Candidates() {
		if c.Arrangement != lastArrangement {
			fmt.Fprintln(w)
			lastArrangement = c.Arrangement
		}
		ber, mttdl, cycles, gates, overhead, ok := scn.MetricsFor(cres, i)
		if !ok {
			return fmt.Errorf("spec: tradeoff candidate %s missing from campaign result", c.Label())
		}
		fmt.Fprintf(w, "%-22s %12.3e %s %10.0f %8.0f %8.2fx\n",
			c.Label(), ber, FormatMTTDL(mttdl), cycles, gates, overhead)
	}
	return nil
}

// renderExperiments prints each experiment's title, ASCII plot and
// notes.
func renderExperiments(w io.Writer, exps []expdata.Experiment, cres *campaign.Result) error {
	results, err := expdata.ResultsFromCampaign(exps, cres)
	if err != nil {
		return err
	}
	for i, e := range exps {
		fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
		fmt.Fprint(w, results[i].Plot(e.Title).Render())
		for _, note := range results[i].Notes {
			fmt.Fprintf(w, "  note: %s\n", note)
		}
		fmt.Fprintln(w)
	}
	return nil
}
