package spec

import (
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/complexity"
	"repro/internal/core"
	"repro/internal/reliability"
)

// Series labels recorded by the analytic scenarios.
const (
	SeriesBER         = "ber"
	SeriesMTTDL       = "mttdl_hours"
	SeriesDecodeCycle = "decode_cycles"
	SeriesGates       = "gates"
	SeriesOverhead    = "overhead"
)

// BERCurveParams configures a BER(t) trajectory evaluation: one
// Markov-model configuration solved point by point across a time
// grid, each grid point an independent campaign trial.
type BERCurveParams struct {
	Arrangement string  `json:"arrangement"` // "simplex" (default) or "duplex"
	N           int     `json:"n"`
	K           int     `json:"k"`
	M           int     `json:"m"`
	SEUPerBit   float64 `json:"seu_per_bit_day"`
	PermPerSym  float64 `json:"perm_per_symbol_day"`
	ScrubSec    float64 `json:"scrub_seconds"`
	Hours       float64 `json:"hours"`
	Months      float64 `json:"months"` // overrides Hours when > 0
	Points      int     `json:"points"`
}

// BERCurve is the campaign scenario behind the "bercurve" spec kind.
type BERCurve struct {
	cfg    core.Config
	grid   []float64 // evaluation instants in hours
	axis   []float64 // displayed x values (hours or months)
	xLabel string
}

// newBERCurve validates the parameters and builds the scenario.
func newBERCurve(p BERCurveParams) (*BERCurve, error) {
	arr, err := parseArrangement(p.Arrangement)
	if err != nil {
		return nil, err
	}
	applyCodeDefaults(&p.N, &p.K, &p.M)
	if p.Points == 0 {
		p.Points = 13
	}
	horizon := p.Hours
	xLabel := "hours"
	if p.Months > 0 {
		horizon = reliability.Months(p.Months)
		xLabel = "months"
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("spec: bercurve needs a horizon (hours or months)")
	}
	grid, err := reliability.HoursRange(0, horizon, p.Points)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{
		Arrangement:         arr,
		Code:                core.CodeSpec{N: p.N, K: p.K, M: p.M},
		SEUPerBitDay:        p.SEUPerBit,
		ErasurePerSymbolDay: p.PermPerSym,
		ScrubPeriodSeconds:  p.ScrubSec,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	axis := grid
	if xLabel == "months" {
		axis = make([]float64, len(grid))
		for i, h := range grid {
			axis[i] = h / reliability.HoursPerMonth
		}
	}
	return &BERCurve{cfg: cfg, grid: grid, axis: axis, xLabel: xLabel}, nil
}

// Config returns the evaluated configuration (for titles and labels).
func (s *BERCurve) Config() core.Config { return s.cfg }

// XLabel returns the display unit of the x axis.
func (s *BERCurve) XLabel() string { return s.xLabel }

// Name implements campaign.Scenario.
func (s *BERCurve) Name() string {
	return fmt.Sprintf("bercurve:%v:points=%d:h=%g", s.cfg, len(s.grid), s.grid[len(s.grid)-1])
}

// Trials implements campaign.Scenario: one trial per grid point, so
// the engine shards the (independent) chain solves across workers.
func (s *BERCurve) Trials() int { return len(s.grid) }

// NewWorker implements campaign.Scenario.
func (s *BERCurve) NewWorker() (campaign.Worker, error) { return berCurveWorker{s}, nil }

type berCurveWorker struct{ scn *BERCurve }

// Trial evaluates grid point i.
func (w berCurveWorker) Trial(i int, acc *campaign.Acc) error {
	s := w.scn
	curve, err := core.Evaluate(s.cfg, s.grid[i:i+1])
	if err != nil {
		return err
	}
	acc.Sample(i, SeriesBER, s.axis[i], curve.BER[0])
	return nil
}

// TradeoffParams configures the redundancy/arrangement design-space
// sweep behind the "tradeoff" spec kind.
type TradeoffParams struct {
	K          int     `json:"k"`
	M          int     `json:"m"`
	SEUPerBit  float64 `json:"seu_per_bit_day"`
	PermPerSym float64 `json:"perm_per_symbol_day"`
	ScrubSec   float64 `json:"scrub_seconds"`
	Hours      float64 `json:"hours"`
	// MaxRed sweeps simplex redundancy n-k in even steps up to this
	// bound; DuplexMaxRed bounds the duplex rows (the chain's state
	// space grows quickly).
	MaxRed       int `json:"max_redundancy"`
	DuplexMaxRed int `json:"duplex_max_redundancy"`
}

// Candidate is one design point of a tradeoff sweep.
type Candidate struct {
	Arrangement core.Arrangement
	N, K, M     int
}

// Label names the candidate like the paper's tables.
func (c Candidate) Label() string {
	return fmt.Sprintf("%s RS(%d,%d)", c.Arrangement, c.N, c.K)
}

// Tradeoff is the campaign scenario for the design-space sweep: one
// trial per candidate, each recording BER, MTTDL, decoder cost and
// storage overhead samples keyed by candidate index.
type Tradeoff struct {
	p          TradeoffParams
	candidates []Candidate
}

// newTradeoff validates the parameters and enumerates candidates.
func newTradeoff(p TradeoffParams) (*Tradeoff, error) {
	if p.K == 0 {
		p.K = 16
	}
	if p.M == 0 {
		p.M = 8
	}
	if p.MaxRed == 0 {
		p.MaxRed = 20
	}
	if p.DuplexMaxRed == 0 {
		p.DuplexMaxRed = 8
	}
	if p.Hours <= 0 {
		return nil, fmt.Errorf("spec: tradeoff needs a positive mission horizon")
	}
	var cands []Candidate
	for red := 2; red <= p.MaxRed; red += 2 {
		cands = append(cands, Candidate{core.Simplex, p.K + red, p.K, p.M})
	}
	for red := 2; red <= p.DuplexMaxRed; red += 2 {
		cands = append(cands, Candidate{core.Duplex, p.K + red, p.K, p.M})
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("spec: tradeoff sweep is empty (max_redundancy %d)", p.MaxRed)
	}
	for _, c := range cands {
		if err := (core.CodeSpec{N: c.N, K: c.K, M: c.M}).Validate(); err != nil {
			return nil, fmt.Errorf("spec: tradeoff candidate %s: %w", c.Label(), err)
		}
	}
	return &Tradeoff{p: p, candidates: cands}, nil
}

// Params returns the validated sweep parameters (with defaults
// applied).
func (s *Tradeoff) Params() TradeoffParams { return s.p }

// Candidates returns the sweep's design points in trial order.
func (s *Tradeoff) Candidates() []Candidate { return s.candidates }

// Name implements campaign.Scenario.
func (s *Tradeoff) Name() string {
	return fmt.Sprintf("tradeoff:k=%d:m=%d:seu=%g:perm=%g:scrub=%g:h=%g:red<=%d/%d",
		s.p.K, s.p.M, s.p.SEUPerBit, s.p.PermPerSym, s.p.ScrubSec, s.p.Hours, s.p.MaxRed, s.p.DuplexMaxRed)
}

// Trials implements campaign.Scenario.
func (s *Tradeoff) Trials() int { return len(s.candidates) }

// NewWorker implements campaign.Scenario.
func (s *Tradeoff) NewWorker() (campaign.Worker, error) { return tradeoffWorker{s}, nil }

type tradeoffWorker struct{ scn *Tradeoff }

// Trial evaluates candidate i across every metric column.
func (w tradeoffWorker) Trial(i int, acc *campaign.Acc) error {
	s := w.scn
	c := s.candidates[i]
	cfg := core.Config{
		Arrangement:         c.Arrangement,
		Code:                core.CodeSpec{N: c.N, K: c.K, M: c.M},
		SEUPerBitDay:        s.p.SEUPerBit,
		ErasurePerSymbolDay: s.p.PermPerSym,
		ScrubPeriodSeconds:  s.p.ScrubSec,
	}
	curve, err := core.Evaluate(cfg, []float64{s.p.Hours})
	if err != nil {
		return fmt.Errorf("%s: %w", c.Label(), err)
	}
	mttdl, err := core.MTTDL(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", c.Label(), err)
	}
	var cost complexity.ArrangementCost
	if c.Arrangement == core.Simplex {
		cost, err = complexity.SimplexCost(c.N, c.K, c.M)
	} else {
		cost, err = complexity.DuplexCost(c.N, c.K, c.M)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", c.Label(), err)
	}
	overhead := float64(c.N) / float64(c.K)
	if c.Arrangement == core.Duplex {
		overhead *= 2
	}
	x := float64(i)
	acc.Sample(i, SeriesBER, x, curve.BER[0])
	acc.Sample(i, SeriesMTTDL, x, mttdl)
	acc.Sample(i, SeriesDecodeCycle, x, float64(cost.DecodeCycles))
	acc.Sample(i, SeriesGates, x, cost.TotalGates)
	acc.Sample(i, SeriesOverhead, x, overhead)
	return nil
}

// MetricsFor extracts candidate i's metric samples from a campaign
// result, in the order ber, mttdl, decode cycles, gates, overhead.
func (s *Tradeoff) MetricsFor(cres *campaign.Result, i int) (ber, mttdl, cycles, gates, overhead float64, ok bool) {
	vals := map[string]float64{}
	for _, sm := range cres.Samples {
		if sm.Trial == i {
			vals[sm.Series] = sm.Y
		}
	}
	if len(vals) < 5 {
		return 0, 0, 0, 0, 0, false
	}
	return vals[SeriesBER], vals[SeriesMTTDL], vals[SeriesDecodeCycle], vals[SeriesGates], vals[SeriesOverhead], true
}

// parseArrangement maps the spec string onto a core.Arrangement.
func parseArrangement(s string) (core.Arrangement, error) {
	switch s {
	case "", "simplex":
		return core.Simplex, nil
	case "duplex":
		return core.Duplex, nil
	default:
		return 0, fmt.Errorf("spec: unknown arrangement %q (want simplex or duplex)", s)
	}
}

// applyCodeDefaults fills the paper's RS(18,16)/m=8 defaults.
func applyCodeDefaults(n, k, m *int) {
	if *n == 0 {
		*n = 18
	}
	if *k == 0 {
		*k = 16
	}
	if *m == 0 {
		*m = 8
	}
}

// FormatMTTDL renders an MTTDL column entry ("inf" for an absorbing
// chain with no data-loss path).
func FormatMTTDL(v float64) string {
	if math.IsInf(v, 1) {
		return fmt.Sprintf("%14s", "inf")
	}
	return fmt.Sprintf("%14.3e", v)
}
