// Benchmarks regenerating every table and figure of the paper's
// evaluation section. Custom metrics attach the headline numbers of
// each artifact to the benchmark output, so `go test -bench=.` doubles
// as a reproduction report:
//
//	BER@48h/worst  — figure 5/6/7 end points
//	BER@24mo/top   — figure 8/9/10 top-curve end points
//	cycles, gates  — Section 6 decoder cost comparison
//	chainP, mcP    — cross-validation pair
//
// The Ablation* benchmarks quantify the repository's modeling
// decisions, each described in its benchmark's comment: the duplex
// fail semantics, the paper's transition-B rate typo, single- vs
// double-sided erasure counting, exponential vs periodic scrubbing,
// and cross-repairing scrub controllers.
package repro

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/duplex"
	"repro/internal/expdata"
	"repro/internal/gf"
	"repro/internal/memsim"
	"repro/internal/reliability"
	"repro/internal/rs"
	"repro/internal/scrub"
	"repro/internal/simplex"
)

// runExperiment drives one registry entry b.N times and reports the
// value extracted by metric from the final run.
func runExperiment(b *testing.B, id string, metrics func(*expdata.Result) map[string]float64) {
	b.Helper()
	exp, ok := expdata.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	var last *expdata.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := exp.Run()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.StopTimer()
	for name, v := range metrics(last) {
		b.ReportMetric(v, name)
	}
}

func lastY(r *expdata.Result, series int) float64 {
	s := r.Series[series]
	return s.Y[len(s.Y)-1]
}

func BenchmarkFig5SimplexSEUSweep(b *testing.B) {
	runExperiment(b, "fig5", func(r *expdata.Result) map[string]float64 {
		return map[string]float64{
			"BER@48h/quiet": lastY(r, 0),
			"BER@48h/worst": lastY(r, 2),
		}
	})
}

func BenchmarkFig6DuplexSEUSweep(b *testing.B) {
	runExperiment(b, "fig6", func(r *expdata.Result) map[string]float64 {
		return map[string]float64{
			"BER@48h/quiet": lastY(r, 0),
			"BER@48h/worst": lastY(r, 2),
		}
	})
}

func BenchmarkFig7DuplexScrubSweep(b *testing.B) {
	runExperiment(b, "fig7", func(r *expdata.Result) map[string]float64 {
		return map[string]float64{
			"BER@48h/Tsc900s":  lastY(r, 0),
			"BER@48h/Tsc3600s": lastY(r, 3),
		}
	})
}

func BenchmarkFig8SimplexPermanentSweep(b *testing.B) {
	runExperiment(b, "fig8", func(r *expdata.Result) map[string]float64 {
		return map[string]float64{
			"BER@24mo/top":    lastY(r, 0),
			"BER@24mo/bottom": lastY(r, len(r.Series)-1),
		}
	})
}

func BenchmarkFig9DuplexPermanentSweep(b *testing.B) {
	runExperiment(b, "fig9", func(r *expdata.Result) map[string]float64 {
		return map[string]float64{
			"BER@24mo/top":    lastY(r, 0),
			"BER@24mo/bottom": lastY(r, len(r.Series)-1),
		}
	})
}

func BenchmarkFig10SimplexRS3616PermanentSweep(b *testing.B) {
	runExperiment(b, "fig10", func(r *expdata.Result) map[string]float64 {
		return map[string]float64{
			"BER@24mo/top": lastY(r, 0),
		}
	})
}

func BenchmarkTableDecoderLatency(b *testing.B) {
	// One op regenerates the Section 6 latency table for the two paper
	// codes; count their codeword symbols (18 + 36) as the bytes the
	// modeled decoders consume so MB/s tracks the table's scope.
	b.ReportAllocs()
	b.SetBytes(int64(18 + 36))
	runExperiment(b, "tbl-td", func(r *expdata.Result) map[string]float64 {
		return map[string]float64{
			"cycles/RS1816": r.Series[0].Y[0],
			"cycles/RS3616": r.Series[0].Y[2],
		}
	})
}

func BenchmarkTableDecoderArea(b *testing.B) {
	runExperiment(b, "tbl-area", func(r *expdata.Result) map[string]float64 {
		return map[string]float64{
			"gates/duplex1816":  r.Series[0].Y[1],
			"gates/simplex3616": r.Series[0].Y[2],
		}
	})
}

// BenchmarkCrossValidationMonteCarlo runs a trimmed-down xval (the
// full experiment lives in the registry for cmd/sweep) comparing the
// chain against fault injection on the duplex arrangement.
func BenchmarkCrossValidationMonteCarlo(b *testing.B) {
	f8 := gf.MustField(8)
	code := rs.MustNew(f8, 18, 16)
	const (
		lambda  = 6e-4
		lambdaE = 2e-4
		horizon = 48.0
	)
	want, err := duplex.FailProbabilities(duplex.Params{
		N: 18, K: 16, M: 8, Lambda: lambda, LambdaE: lambdaE,
	}, []float64{horizon})
	if err != nil {
		b.Fatal(err)
	}
	const trials = 4000
	var got float64
	b.ReportAllocs()
	// One op pushes `trials` duplex codewords through the simulator;
	// count one byte per stored codeword symbol.
	b.SetBytes(int64(trials) * int64(code.N()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := memsim.Run(memsim.Config{
			Code: code, Duplex: true,
			LambdaBit: lambda, LambdaSymbol: lambdaE,
			Horizon: horizon, Trials: trials, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		got = res.CapabilityExceededFraction()
	}
	b.StopTimer()
	b.ReportMetric(want[0], "chainP")
	b.ReportMetric(got, "mcP")
}

// BenchmarkRareEventTiltedCampaign drives the importance-sampled
// rare-event regime (true failure probability ~1e-9, exponential tilt
// from the analytic chain) and reports effective trials per second —
// the ESS the weighted estimator accumulates per wall-clock second,
// which is the number raw trials/s overstates by the tilt's variance
// cost. benchdiff carries etrials/s as a report-only column.
func BenchmarkRareEventTiltedCampaign(b *testing.B) {
	f8 := gf.MustField(8)
	code := rs.MustNew(f8, 18, 16)
	cfg := memsim.Config{
		Code:             code,
		LambdaBit:        1.7e-8,
		LambdaSymbol:     8.5e-10,
		ScrubPeriod:      4,
		ExponentialScrub: true,
		Horizon:          48,
		Trials:           4000,
		TiltFactor:       1.9169e4, // solved offline: chain Fail(48h) = 0.25 under the tilt
	}
	var ess float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed = int64(i + 1)
		_, cres, err := memsim.RunCampaign(c, campaign.Config{})
		if err != nil {
			b.Fatal(err)
		}
		ess += cres.EffectiveSamples(memsim.CounterCapabilityExceeded)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(ess/secs, "etrials/s")
	}
}

func BenchmarkExtBaselinesComparison(b *testing.B) {
	runExperiment(b, "ext-baselines", func(r *expdata.Result) map[string]float64 {
		return map[string]float64{
			"P@48h/simplexRS": lastY(r, 0),
			"P@48h/secded":    lastY(r, 2),
			"P@48h/tmr":       lastY(r, 3),
		}
	})
}

func BenchmarkExtArrayMissionReliability(b *testing.B) {
	runExperiment(b, "ext-array", func(r *expdata.Result) map[string]float64 {
		return map[string]float64{
			"Pany@24mo/simplex18": lastY(r, 0),
			"Pany@24mo/duplex18":  lastY(r, 1),
		}
	})
}

func BenchmarkExtMBUBurstSweep(b *testing.B) {
	runExperiment(b, "ext-mbu", func(r *expdata.Result) map[string]float64 {
		metrics := map[string]float64{}
		for _, s := range r.Series {
			switch s.Label {
			case "RS(20,16)":
				metrics["loss@8bit/RS2016"] = s.Y[len(s.Y)-1]
			case "4x SEC-DED(39,32)":
				metrics["loss@8bit/secded"] = s.Y[len(s.Y)-1]
			}
		}
		return metrics
	})
}

// --- Ablations over the modeling decisions --------------------------

// BenchmarkAblationDuplexFailSemantics compares the paper's strict
// fail condition (either word beyond capability kills the system)
// against an idealized arbiter that survives on one good word.
func BenchmarkAblationDuplexFailSemantics(b *testing.B) {
	times := []float64{48}
	strict := duplex.Params{N: 18, K: 16, M: 8, Lambda: reliability.PerDayToPerHour(reliability.WorstCaseSEURate)}
	ideal := strict
	ideal.Opts.EitherWordSuffices = true
	var s, i float64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sp, err := duplex.FailProbabilities(strict, times)
		if err != nil {
			b.Fatal(err)
		}
		ip, err := duplex.FailProbabilities(ideal, times)
		if err != nil {
			b.Fatal(err)
		}
		s, i = sp[0], ip[0]
	}
	b.StopTimer()
	b.ReportMetric(s, "strictP")
	b.ReportMetric(i, "idealP")
	b.ReportMetric(s/i, "gapX")
}

// BenchmarkAblationPaperBRate quantifies the paper's literal
// "lambda_e * Y" rate on transition B against the dimensionally
// consistent lambda_e * b, at the paper's own operating point.
func BenchmarkAblationPaperBRate(b *testing.B) {
	times := []float64{48}
	consistent := duplex.Params{
		N: 18, K: 16, M: 8,
		Lambda:  reliability.PerDayToPerHour(reliability.WorstCaseSEURate),
		LambdaE: reliability.PerDayToPerHour(1e-5),
	}
	literal := consistent
	literal.Opts.BRateUsesY = true
	var c, l float64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cp, err := duplex.FailProbabilities(consistent, times)
		if err != nil {
			b.Fatal(err)
		}
		lp, err := duplex.FailProbabilities(literal, times)
		if err != nil {
			b.Fatal(err)
		}
		c, l = cp[0], lp[0]
	}
	b.StopTimer()
	b.ReportMetric(c, "consistentP")
	b.ReportMetric(l, "literalP")
}

// BenchmarkAblationDoubleSidedErasures quantifies the single- vs
// double-sided erasure counting gap under permanent-fault load (the
// ~8x undercount the Monte Carlo simulator exposes).
func BenchmarkAblationDoubleSidedErasures(b *testing.B) {
	times := []float64{200}
	paper := duplex.Params{N: 18, K: 16, M: 8, LambdaE: 3e-4}
	phys := paper
	phys.Opts.DoubleSidedErasures = true
	var p, f float64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		pp, err := duplex.FailProbabilities(paper, times)
		if err != nil {
			b.Fatal(err)
		}
		fp, err := duplex.FailProbabilities(phys, times)
		if err != nil {
			b.Fatal(err)
		}
		p, f = pp[0], fp[0]
	}
	b.StopTimer()
	b.ReportMetric(p, "paperP")
	b.ReportMetric(f, "physicalP")
	b.ReportMetric(f/p, "ratioX")
}

// BenchmarkAblationScrubDiscipline compares exponential (CTMC-exact)
// against deterministic periodic scrubbing in the simulator, at equal
// mean period — measuring the modeling error of the rate-1/Tsc
// abstraction.
func BenchmarkAblationScrubDiscipline(b *testing.B) {
	f8 := gf.MustField(8)
	code := rs.MustNew(f8, 18, 16)
	base := memsim.Config{
		Code: code, LambdaBit: 1.2e-3,
		ScrubPeriod: 4, Horizon: 48, Trials: 8000,
	}
	var expo, peri float64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e := base
		e.ExponentialScrub = true
		e.Seed = int64(n)
		er, err := memsim.Run(e)
		if err != nil {
			b.Fatal(err)
		}
		p := base
		p.Seed = int64(n)
		pr, err := memsim.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		expo, peri = er.CapabilityExceededFraction(), pr.CapabilityExceededFraction()
	}
	b.StopTimer()
	b.ReportMetric(expo, "exponentialP")
	b.ReportMetric(peri, "periodicP")
}

// BenchmarkAblationCrossRepair measures how much a scrub controller
// that repairs a dead module from its live twin improves on the
// paper's independent-scrub semantics.
func BenchmarkAblationCrossRepair(b *testing.B) {
	f8 := gf.MustField(8)
	code := rs.MustNew(f8, 18, 16)
	base := memsim.Config{
		Code: code, Duplex: true, LambdaBit: 4e-4,
		ScrubPeriod: 4, Horizon: 48, Trials: 8000,
	}
	var plain, repaired float64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		p := base
		p.Seed = int64(n)
		pr, err := memsim.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		r := base
		r.CrossRepair = true
		r.Seed = int64(n)
		rr, err := memsim.Run(r)
		if err != nil {
			b.Fatal(err)
		}
		plain, repaired = pr.CapabilityExceededFraction(), rr.CapabilityExceededFraction()
	}
	b.StopTimer()
	b.ReportMetric(plain, "paperScrubP")
	b.ReportMetric(repaired, "crossRepairP")
	if repaired > 0 {
		b.ReportMetric(plain/repaired, "gainX")
	}
}

// BenchmarkAblationDetectionLatency measures the cost of slow
// permanent-fault location (erasures degraded to random errors until
// the self-checking hardware reports them).
func BenchmarkAblationDetectionLatency(b *testing.B) {
	f8 := gf.MustField(8)
	code := rs.MustNew(f8, 36, 16)
	base := memsim.Config{
		Code: code, LambdaSymbol: 2e-3, Horizon: 200, Trials: 8000,
	}
	var located, blind float64
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		l := base
		l.Seed = int64(n)
		lr, err := memsim.Run(l)
		if err != nil {
			b.Fatal(err)
		}
		d := base
		d.DetectionLatency = 1e9
		d.Seed = int64(n)
		dr, err := memsim.Run(d)
		if err != nil {
			b.Fatal(err)
		}
		located, blind = lr.FailFraction(), dr.FailFraction()
	}
	b.StopTimer()
	b.ReportMetric(located, "locatedP")
	b.ReportMetric(blind, "unlocatedP")
}

// --- End-to-end solver benchmarks on the paper's own chains --------

func BenchmarkSolveSimplexRS1816Fig5Point(b *testing.B) {
	p := simplex.Params{
		N: 18, K: 16, M: 8,
		Lambda: reliability.PerDayToPerHour(reliability.WorstCaseSEURate),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simplex.FailProbabilities(p, []float64{48}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveDuplexRS1816Fig7Point(b *testing.B) {
	p := duplex.Params{
		N: 18, K: 16, M: 8,
		Lambda:    reliability.PerDayToPerHour(reliability.WorstCaseSEURate),
		ScrubRate: reliability.ScrubRatePerHour(900),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := duplex.FailProbabilities(p, []float64{48}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSimplexRS3616Fig10Point(b *testing.B) {
	p := simplex.Params{
		N: 36, K: 16, M: 8,
		LambdaE: reliability.PerDayToPerHour(1e-7),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := simplex.FailProbabilities(p, []float64{reliability.Months(24)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateFullFig7Curve(b *testing.B) {
	hours, err := reliability.HoursRange(0, 48, 13)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Arrangement:        core.Duplex,
		Code:               core.RS1816,
		SEUPerBitDay:       reliability.WorstCaseSEURate,
		ScrubPeriodSeconds: 900,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(cfg, hours); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScrubSchedulers measures the schedulers in isolation (they
// sit on the simulator's hot path).
func BenchmarkScrubSchedulers(b *testing.B) {
	p, err := scrub.NewPeriodic(0.25)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("periodic", func(b *testing.B) {
		t := 0.0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t = p.Next(t)
		}
	})
}
