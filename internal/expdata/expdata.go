// Package expdata is the declarative registry of every experiment in
// the paper's evaluation section — Figures 5 through 10 plus the
// Section 6 decoder latency/area comparison and this repository's own
// model-vs-simulation cross-validation. The registry is the single
// source shared by the "experiments" campaign spec kind (see
// examples/campaign/figures.json) and the root-level benchmarks, so
// "regenerate figure N" means exactly one thing everywhere.
package expdata

import (
	"fmt"
	"math"

	"repro/internal/array"
	"repro/internal/complexity"
	"repro/internal/core"
	"repro/internal/duplex"
	"repro/internal/gf"
	"repro/internal/hamming"
	"repro/internal/mbusim"
	"repro/internal/memsim"
	"repro/internal/reliability"
	"repro/internal/rs"
	"repro/internal/simplex"
	"repro/internal/textplot"
	"repro/internal/tmr"
)

// Result is the output of one experiment: curves on a shared x grid
// plus free-form observations ("who wins, by what factor").
type Result struct {
	XLabel string
	YLabel string
	LogY   bool
	Series []textplot.Series
	Notes  []string
}

// Plot wraps the result into a renderable chart.
func (r *Result) Plot(title string) *textplot.Plot {
	return &textplot.Plot{
		Title:  title,
		XLabel: r.XLabel,
		YLabel: r.YLabel,
		LogY:   r.LogY,
		Series: r.Series,
	}
}

// Experiment is one regenerable paper artifact. XLabel, YLabel and
// LogY are the static axis metadata of its result (the registry is
// the single source; All() stamps them onto every Run output so
// campaign-reassembled results and direct runs agree).
type Experiment struct {
	ID          string // e.g. "fig5"
	Title       string
	Description string
	XLabel      string
	YLabel      string
	LogY        bool
	Run         func() (*Result, error)
}

// All returns every registered experiment in paper order.
func All() []Experiment {
	exps := []Experiment{
		{
			ID:          "fig5",
			Title:       "Figure 5: BER of simplex RS(18,16) under different SEU rates",
			Description: "0-48 h storage, lambda in {7.3e-7, 3.6e-6, 1.7e-5}/bit/day, no permanent faults, no scrubbing.",
			XLabel:      "hours", YLabel: "BER", LogY: true,
			Run: fig5,
		},
		{
			ID:          "fig6",
			Title:       "Figure 6: BER of duplex RS(18,16) under different SEU rates",
			Description: "Same sweep as Figure 5 on the duplex arrangement; the ranges must match Figure 5.",
			XLabel:      "hours", YLabel: "BER", LogY: true,
			Run: fig6,
		},
		{
			ID:          "fig7",
			Title:       "Figure 7: BER of duplex RS(18,16), worst-case SEU rate, variable scrubbing period",
			Description: "lambda = 1.7e-5/bit/day, Tsc in {900, 1200, 1800, 3600} s; hourly scrubbing must hold BER below 1e-6.",
			XLabel:      "hours", YLabel: "BER", LogY: true,
			Run: fig7,
		},
		{
			ID:          "fig8",
			Title:       "Figure 8: BER of simplex RS(18,16), varying permanent fault rate",
			Description: "24 months of storage, lambdaE in {1e-4 .. 1e-10}/symbol/day, no scrubbing.",
			XLabel:      "months", YLabel: "BER", LogY: true,
			Run: fig8,
		},
		{
			ID:          "fig9",
			Title:       "Figure 9: BER of duplex RS(18,16), varying permanent fault rate",
			Description: "Same sweep as Figure 8 on the duplex arrangement; the arbiter's erasure masking dominates.",
			XLabel:      "months", YLabel: "BER", LogY: true,
			Run: fig9,
		},
		{
			ID:          "fig10",
			Title:       "Figure 10: BER of simplex RS(36,16), varying permanent fault rate",
			Description: "Same sweep with the equal-redundancy wide code; its 20 check symbols push BER off the bottom of every axis.",
			XLabel:      "months", YLabel: "BER", LogY: true,
			Run: fig10,
		},
		{
			ID:          "tbl-td",
			Title:       "Section 6: decoder latency comparison (Td ~ 3n + 10(n-k))",
			Description: "RS(36,16) vs RS(18,16): 308 vs 74 cycles, a >4x access-time penalty for the wide code.",
			XLabel:      "arrangement index", YLabel: "decode cycles",
			Run: tableTd,
		},
		{
			ID:          "tbl-area",
			Title:       "Section 6: decoder area comparison (gates ~ m*(n-k))",
			Description: "One RS(36,16) decoder vs two RS(18,16) decoders: the duplex pair is smaller.",
			XLabel:      "arrangement index", YLabel: "gates",
			Run: tableArea,
		},
		{
			ID:          "xval",
			Title:       "Cross-validation: Markov chains vs Monte Carlo fault injection",
			Description: "At accelerated rates, the chains' Fail probability must sit in the simulator's confidence band; the real arbiter is measurably less pessimistic than the duplex chain.",
			XLabel:      "case index", YLabel: "P(fail)",
			Run: crossValidation,
		},
		{
			ID:          "ext-baselines",
			Title:       "Extension: RS arrangements vs SEC-DED and TMR at equal data width",
			Description: "128-bit datawords under the worst-case SEU rate with light permanent faults and hourly scrubbing: the EDAC baselines the paper's introduction positions RS against.",
			XLabel:      "hours", YLabel: "P(128-bit block unrecoverable)", LogY: true,
			Run: extBaselines,
		},
		{
			ID:          "ext-array",
			Title:       "Extension: whole-memory mission reliability (1 GiB SSMM, 24 months)",
			Description: "The paper's 'straightforward' whole-memory extension: probability the SSMM survives the mission without losing any word, per arrangement.",
			XLabel:      "months", YLabel: "P(any word lost)", LogY: true,
			Run: extArray,
		},
		{
			ID:          "ext-mbu",
			Title:       "Extension: multi-bit upsets — symbol-organized RS vs bit-organized baselines",
			Description: "Burst-length sweep with Poisson event injection through the real codecs: where ext-baselines' single-bit chains favor SEC-DED, physical bursts favor Reed-Solomon symbols.",
			XLabel:      "burst length (bits)", YLabel: "P(128-bit payload lost)",
			Run: extMBU,
		},
	}
	for i := range exps {
		exps[i].Run = withMeta(exps[i], exps[i].Run)
	}
	return exps
}

// withMeta stamps the registry's axis metadata onto the run output,
// keeping direct runs and campaign-reassembled results consistent.
func withMeta(e Experiment, run func() (*Result, error)) func() (*Result, error) {
	return func() (*Result, error) {
		res, err := run()
		if err != nil {
			return nil, err
		}
		res.XLabel, res.YLabel, res.LogY = e.XLabel, e.YLabel, e.LogY
		return res, nil
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// grids used by the figure experiments.
func hoursGrid() []float64 {
	g, err := reliability.HoursRange(0, 48, 13)
	if err != nil {
		panic(err) // static arguments
	}
	return g
}

func monthsGrid() []float64 {
	g, err := reliability.HoursRange(0, reliability.Months(24), 13)
	if err != nil {
		panic(err)
	}
	return g
}

func monthsAxis(hours []float64) []float64 {
	out := make([]float64, len(hours))
	for i, h := range hours {
		out[i] = h / reliability.HoursPerMonth
	}
	return out
}

// seuSweep runs the Figure 5/6 sweep for one arrangement.
func seuSweep(arr core.Arrangement) (*Result, error) {
	hours := hoursGrid()
	res := &Result{XLabel: "hours", YLabel: "BER", LogY: true}
	for _, rate := range reliability.PaperSEURates {
		curve, err := core.Evaluate(core.Config{
			Arrangement:  arr,
			Code:         core.RS1816,
			SEUPerBitDay: rate,
		}, hours)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, textplot.Series{
			Label: fmt.Sprintf("lambda=%.1e/bit/day", rate),
			X:     hours,
			Y:     curve.BER,
		})
	}
	last := len(hours) - 1
	res.Notes = append(res.Notes,
		fmt.Sprintf("BER(48h) spans %.2e .. %.2e across the three SEU rates",
			res.Series[0].Y[last], res.Series[2].Y[last]))
	return res, nil
}

func fig5() (*Result, error) { return seuSweep(core.Simplex) }

func fig6() (*Result, error) {
	res, err := seuSweep(core.Duplex)
	if err != nil {
		return nil, err
	}
	// The paper's observation: same range as the simplex system.
	simplexRes, err := fig5()
	if err != nil {
		return nil, err
	}
	last := len(res.Series[2].Y) - 1
	ratio := res.Series[2].Y[last] / simplexRes.Series[2].Y[last]
	res.Notes = append(res.Notes,
		fmt.Sprintf("duplex/simplex BER ratio at 48h, worst rate: %.2f (paper: same range)", ratio))
	return res, nil
}

func fig7() (*Result, error) {
	hours := hoursGrid()
	res := &Result{XLabel: "hours", YLabel: "BER", LogY: true}
	for _, tsc := range reliability.PaperScrubPeriods {
		curve, err := core.Evaluate(core.Config{
			Arrangement:        core.Duplex,
			Code:               core.RS1816,
			SEUPerBitDay:       reliability.WorstCaseSEURate,
			ScrubPeriodSeconds: tsc,
		}, hours)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, textplot.Series{
			Label: fmt.Sprintf("Tsc=%g s", tsc),
			X:     hours,
			Y:     curve.BER,
		})
	}
	last := len(hours) - 1
	worst := res.Series[len(res.Series)-1].Y[last] // Tsc = 3600 s
	note := fmt.Sprintf("BER(48h) at Tsc=3600s: %.2e — %s 1e-6 (paper: scrubbing at least hourly keeps BER below 1e-6)",
		worst, map[bool]string{true: "below", false: "ABOVE"}[worst < 1e-6])
	res.Notes = append(res.Notes, note)
	return res, nil
}

// permanentSweep runs the Figure 8/9/10 sweep.
func permanentSweep(arr core.Arrangement, code core.CodeSpec) (*Result, error) {
	hours := monthsGrid()
	months := monthsAxis(hours)
	res := &Result{XLabel: "months", YLabel: "BER", LogY: true}
	for _, rate := range reliability.PaperPermanentRates {
		curve, err := core.Evaluate(core.Config{
			Arrangement:         arr,
			Code:                code,
			ErasurePerSymbolDay: rate,
		}, hours)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, textplot.Series{
			Label: fmt.Sprintf("lambdaE=%.0e/sym/day", rate),
			X:     months,
			Y:     curve.BER,
		})
	}
	last := len(hours) - 1
	res.Notes = append(res.Notes,
		fmt.Sprintf("BER(24 months) spans %.2e (1e-4) down to %.2e (1e-10)",
			res.Series[0].Y[last], res.Series[len(res.Series)-1].Y[last]))
	return res, nil
}

func fig8() (*Result, error)  { return permanentSweep(core.Simplex, core.RS1816) }
func fig9() (*Result, error)  { return permanentSweep(core.Duplex, core.RS1816) }
func fig10() (*Result, error) { return permanentSweep(core.Simplex, core.RS3616) }

func tableTd() (*Result, error) {
	costs, err := complexity.PaperComparison()
	if err != nil {
		return nil, err
	}
	res := &Result{XLabel: "arrangement index", YLabel: "decode cycles"}
	var x, y []float64
	for i, c := range costs {
		x = append(x, float64(i))
		y = append(y, float64(c.DecodeCycles))
		res.Notes = append(res.Notes, fmt.Sprintf("%s: Td = %d cycles", c.Name, c.DecodeCycles))
	}
	res.Series = []textplot.Series{{Label: "Td (cycles)", X: x, Y: y}}
	ratio := float64(costs[2].DecodeCycles) / float64(costs[0].DecodeCycles)
	res.Notes = append(res.Notes,
		fmt.Sprintf("RS(36,16)/RS(18,16) latency ratio: %.2fx (paper: more than four times)", ratio))
	return res, nil
}

func tableArea() (*Result, error) {
	costs, err := complexity.PaperComparison()
	if err != nil {
		return nil, err
	}
	res := &Result{XLabel: "arrangement index", YLabel: "gates"}
	var x, y []float64
	for i, c := range costs {
		x = append(x, float64(i))
		y = append(y, c.TotalGates)
		res.Notes = append(res.Notes,
			fmt.Sprintf("%s: %d decoder(s), %.0f gates total", c.Name, c.Decoders, c.TotalGates))
	}
	res.Series = []textplot.Series{{Label: "total decoder gates", X: x, Y: y}}
	res.Notes = append(res.Notes,
		fmt.Sprintf("two RS(18,16) decoders / one RS(36,16) decoder area ratio: %.2f (paper: duplex pair is smaller)",
			costs[1].TotalGates/costs[2].TotalGates))
	return res, nil
}

// crossValidation compares the chains against the fault-injection
// simulator at accelerated rates (so a modest trial count resolves the
// probabilities).
func crossValidation() (*Result, error) {
	f8 := gf.MustField(8)
	code, err := rs.New(f8, 18, 16)
	if err != nil {
		return nil, err
	}
	const (
		lambdaHour  = 6e-4
		lambdaEHour = 2e-4
		horizon     = 48.0
		trials      = 40000
	)
	res := &Result{XLabel: "case index", YLabel: "P(fail)", LogY: false}

	type caseDef struct {
		name   string
		duplex bool
		chainP func() (float64, error)
		scrub  float64 // hours; 0 = none
	}
	cases := []caseDef{
		{
			name:   "simplex",
			duplex: false,
			chainP: func() (float64, error) {
				p, err := coreFail(core.Simplex, lambdaHour, lambdaEHour, 0, horizon)
				return p, err
			},
		},
		{
			name:   "duplex",
			duplex: true,
			chainP: func() (float64, error) {
				p, err := coreFail(core.Duplex, lambdaHour, lambdaEHour, 0, horizon)
				return p, err
			},
		},
		{
			name:   "simplex+scrub4h",
			duplex: false,
			scrub:  4,
			chainP: func() (float64, error) {
				p, err := coreFail(core.Simplex, lambdaHour, lambdaEHour, 4, horizon)
				return p, err
			},
		},
	}

	var xs, chain, mc []float64
	for i, cse := range cases {
		want, err := cse.chainP()
		if err != nil {
			return nil, err
		}
		sim, err := memsim.Run(memsim.Config{
			Code: code, Duplex: cse.duplex,
			LambdaBit: lambdaHour, LambdaSymbol: lambdaEHour,
			ScrubPeriod: cse.scrub, ExponentialScrub: cse.scrub > 0,
			Horizon: horizon, Trials: trials, Seed: 1000 + int64(i),
		})
		if err != nil {
			return nil, err
		}
		got := sim.CapabilityExceededFraction()
		lo, hi := memsim.WilsonInterval(sim.CapabilityExceeded, sim.Trials, 4)
		inside := want >= lo && want <= hi
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: chain P_fail=%.4e, Monte Carlo=%.4e (4-sigma band [%.4e, %.4e]) — %s",
			cse.name, want, got, lo, hi,
			map[bool]string{true: "AGREE", false: "DISAGREE"}[inside]))
		if cse.duplex {
			res.Notes = append(res.Notes, fmt.Sprintf(
				"%s: real-arbiter failure fraction %.4e vs chain %.4e — chain conservatism factor %.1fx",
				cse.name, sim.FailFraction(), want, want/math.Max(sim.FailFraction(), 1e-300)))
		}
		xs = append(xs, float64(i))
		chain = append(chain, want)
		mc = append(mc, got)
	}
	res.Series = []textplot.Series{
		{Label: "Markov chain", X: xs, Y: chain},
		{Label: "Monte Carlo", X: xs, Y: mc},
	}
	return res, nil
}

// extBaselines compares the paper's RS arrangements against the EDAC
// baselines its introduction mentions — SEC-DED Hamming coding and
// triple modular redundancy — protecting the same 128-bit dataword
// under the same environment. The metric is the probability that the
// protected block is unrecoverable, which is the chains' shared Fail
// event (paper Eq. 1's prefactor is RS-specific, so raw probabilities
// keep the comparison honest).
func extBaselines() (*Result, error) {
	hours := hoursGrid()
	const (
		lambdaBitDay = reliability.WorstCaseSEURate
		lambdaESym   = 1e-6 // per symbol-day, paper Fig 8/9 mid-range
		scrubSec     = 3600.0
	)
	lambdaBitHour := reliability.PerDayToPerHour(lambdaBitDay)
	// Per-bit permanent rate for the bit-granular baselines: the
	// symbol rate spread uniformly over its m=8 bits.
	lambdaPBitHour := reliability.PerDayToPerHour(lambdaESym) / 8
	scrub := reliability.ScrubRatePerHour(scrubSec)

	res := &Result{XLabel: "hours", YLabel: "P(128-bit block unrecoverable)", LogY: true}

	// Simplex and duplex RS(18,16): one word carries the 128 bits.
	for _, arr := range []core.Arrangement{core.Simplex, core.Duplex} {
		curve, err := core.Evaluate(core.Config{
			Arrangement:         arr,
			Code:                core.RS1816,
			SEUPerBitDay:        lambdaBitDay,
			ErasurePerSymbolDay: lambdaESym,
			ScrubPeriodSeconds:  scrubSec,
		}, hours)
		if err != nil {
			return nil, err
		}
		overhead := 18.0 / 16
		if arr == core.Duplex {
			overhead = 2 * 18.0 / 16
		}
		res.Series = append(res.Series, textplot.Series{
			Label: fmt.Sprintf("%s RS(18,16) [%.2fx]", arr, overhead),
			X:     hours,
			Y:     curve.PFail,
		})
	}

	// 4 x SEC-DED(39,32): block fails when any of the four words does.
	secded, err := hamming.FailProbabilities(hamming.Params{
		DataBits:  32,
		Lambda:    lambdaBitHour,
		LambdaP:   lambdaPBitHour,
		ScrubRate: scrub,
	}, hours)
	if err != nil {
		return nil, err
	}
	block := make([]float64, len(secded))
	for i, p := range secded {
		block[i] = -math.Expm1(4 * math.Log1p(-p))
	}
	res.Series = append(res.Series, textplot.Series{
		Label: fmt.Sprintf("4x %v [%.2fx]", hamming.MustNew(32), 4*39.0/128),
		X:     hours,
		Y:     block,
	})

	// Bit-level TMR over the 128 bits.
	tmrFail, err := tmr.FailProbabilities(tmr.Params{
		DataBits:  128,
		Lambda:    lambdaBitHour,
		LambdaP:   lambdaPBitHour,
		ScrubRate: scrub,
	}, hours)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, textplot.Series{
		Label: fmt.Sprintf("TMR voter [%.2fx]", tmr.Overhead),
		X:     hours,
		Y:     tmrFail,
	})

	last := len(hours) - 1
	res.Notes = append(res.Notes,
		fmt.Sprintf("P(loss) at 48h — simplexRS: %.2e, duplexRS: %.2e, 4xSEC-DED: %.2e, TMR: %.2e",
			res.Series[0].Y[last], res.Series[1].Y[last], res.Series[2].Y[last], res.Series[3].Y[last]),
		"storage overhead in brackets; SEC-DED(39,32)x4 costs 1.22x vs RS(18,16)'s 1.125x",
		"caveat: the chains model independent single-bit SEUs, SEC-DED's best case;",
		"RS's symbol-level strength (multi-bit upsets within a symbol, bursts across",
		"a page) is exercised by internal/interleave and the codec tests instead",
	)
	return res, nil
}

// extArray lifts Figures 8-10 to a whole 1-GiB memory: mission
// reliability (no word lost) over 24 months at the paper's mid-range
// permanent fault rate.
func extArray() (*Result, error) {
	hours := monthsGrid()
	months := monthsAxis(hours)
	res := &Result{XLabel: "months", YLabel: "P(any word lost)", LogY: true}
	const lambdaESym = 1e-7
	type sys struct {
		name string
		arr  core.Arrangement
		code core.CodeSpec
	}
	for _, s := range []sys{
		{"simplex RS(18,16)", core.Simplex, core.RS1816},
		{"duplex RS(18,16)", core.Duplex, core.RS1816},
		{"simplex RS(36,16)", core.Simplex, core.RS3616},
	} {
		mem := array.Memory{
			DataBytes: 1 << 30,
			Word: core.Config{
				Arrangement:         s.arr,
				Code:                s.code,
				ErasurePerSymbolDay: lambdaESym,
			},
		}
		curve, err := mem.Evaluate(hours)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, textplot.Series{
			Label: s.name,
			X:     months,
			Y:     curve.AnyWordFail,
		})
		last := len(hours) - 1
		res.Notes = append(res.Notes, fmt.Sprintf(
			"%s: P(any word lost, 24mo) = %.3e, E[words lost] = %.3e of %d",
			s.name, curve.AnyWordFail[last], curve.ExpectedWordsLost[last], 1<<30/16))
	}
	res.Notes = append(res.Notes,
		"word-level advantages compound at scale: a 1 GiB memory holds 2^26 words")
	return res, nil
}

// extMBU sweeps the burst length of multi-bit upsets through the real
// codecs of internal/mbusim at fixed event density, reporting the
// data-loss fraction of each protection scheme.
func extMBU() (*Result, error) {
	systems, err := mbusim.DefaultSystems()
	if err != nil {
		return nil, err
	}
	res := &Result{XLabel: "burst length (bits)", YLabel: "P(128-bit payload lost)", LogY: false}
	burstLens := []float64{1, 2, 3, 4, 6, 8}
	series := make([]textplot.Series, len(systems))
	for i, sys := range systems {
		series[i] = textplot.Series{Label: sys.Name(), X: burstLens}
	}
	for _, bl := range burstLens {
		out, err := mbusim.Run(mbusim.Config{
			EventsPerKilobit: 4,
			BurstBits:        int(bl),
			Trials:           4000,
			Seed:             int64(1000 * bl),
		}, mbusim.DefaultSystems)
		if err != nil {
			return nil, err
		}
		for i, r := range out {
			series[i].Y = append(series[i].Y, r.LossFraction)
		}
	}
	res.Series = series
	last := len(burstLens) - 1
	findLoss := func(name string, idx int) float64 {
		for _, s := range series {
			if s.Label == name {
				return s.Y[idx]
			}
		}
		return math.NaN()
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("at 1-bit events: SEC-DED %.3f vs RS(20,16) %.3f — bit-granular coding holds its own",
			findLoss("4x SEC-DED(39,32)", 0), findLoss("RS(20,16)", 0)),
		fmt.Sprintf("at 8-bit bursts: SEC-DED %.3f vs RS(20,16) %.3f — symbol organization wins by %.1fx",
			findLoss("4x SEC-DED(39,32)", last), findLoss("RS(20,16)", last),
			findLoss("4x SEC-DED(39,32)", last)/math.Max(findLoss("RS(20,16)", last), 1e-9)),
		"event density 4 per kilobit of each system's own footprint (denser redundancy costs exposure)",
	)
	return res, nil
}

// coreFail evaluates a chain fail probability with per-hour rates
// (bypassing the per-day convention of core.Config, which the
// accelerated cross-validation does not use).
func coreFail(arr core.Arrangement, lambdaHour, lambdaEHour, scrubEveryHours, horizon float64) (float64, error) {
	scrubRate := 0.0
	if scrubEveryHours > 0 {
		scrubRate = 1 / scrubEveryHours
	}
	if arr == core.Simplex {
		out, err := simplex.FailProbabilities(simplex.Params{
			N: 18, K: 16, M: 8,
			Lambda: lambdaHour, LambdaE: lambdaEHour, ScrubRate: scrubRate,
		}, []float64{horizon})
		if err != nil {
			return 0, err
		}
		return out[0], nil
	}
	out, err := duplex.FailProbabilities(duplex.Params{
		N: 18, K: 16, M: 8,
		Lambda: lambdaHour, LambdaE: lambdaEHour, ScrubRate: scrubRate,
	}, []float64{horizon})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}
