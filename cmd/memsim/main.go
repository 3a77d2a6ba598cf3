// Command memsim runs the Monte Carlo fault-injection simulator on a
// configured memory system and reports outcome statistics alongside
// the matching Markov-chain prediction.
//
// Example:
//
//	memsim -duplex -n 18 -k 16 -lambda-bit 6e-4 -lambda-sym 2e-4 \
//	       -horizon 48 -trials 50000 -scrub 4 -exp-scrub
//
// Rates here are per HOUR (simulation units); use elevated rates so a
// modest trial count resolves the failure probability, exactly like
// the cross-validation experiment (BenchmarkCrossValidationMonteCarlo).
//
// The simulation runs on the shared internal/campaign engine, which
// adds resumable checkpointing (-checkpoint) and early stopping once
// the capability-exceeded estimate is resolved (-stop-rel), plus
// machine-readable output (-json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/arbiter"
	"repro/internal/campaign"
	"repro/internal/duplex"
	"repro/internal/gf"
	"repro/internal/memsim"
	"repro/internal/rs"
	"repro/internal/simplex"
)

func main() {
	var (
		dup        = flag.Bool("duplex", false, "simulate the duplex arrangement")
		n          = flag.Int("n", 18, "codeword symbols")
		k          = flag.Int("k", 16, "dataword symbols")
		m          = flag.Int("m", 8, "bits per symbol")
		lambdaBit  = flag.Float64("lambda-bit", 0, "SEU rate per bit per hour")
		lambdaSym  = flag.Float64("lambda-sym", 0, "permanent fault rate per symbol per hour")
		scrub      = flag.Float64("scrub", 0, "scrub period in hours (0 = off)")
		expScrub   = flag.Bool("exp-scrub", false, "exponential instead of periodic scrub intervals")
		latency    = flag.Float64("latency", 0, "permanent-fault detection latency in hours")
		horizon    = flag.Float64("horizon", 48, "storage time in hours")
		trials     = flag.Int("trials", 10000, "number of independent trials")
		seed       = flag.Int64("seed", 1, "base random seed")
		workers    = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		checkpoint = flag.String("checkpoint", "", "resumable-progress file for long campaigns")
		stopRel    = flag.Float64("stop-rel", 0, "stop once the capability-exceeded 95% CI half-width is below this fraction of the estimate (0 = run all trials)")
		stopMin    = flag.Int("stop-min", 1000, "minimum trials before early stopping")
		jsonOut    = flag.Bool("json", false, "emit the raw campaign result as JSON instead of text")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "memsim: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	field, err := gf.NewField(*m)
	if err != nil {
		fatal(err)
	}
	code, err := rs.New(field, *n, *k)
	if err != nil {
		fatal(err)
	}
	cfg := memsim.Config{
		Code:             code,
		Duplex:           *dup,
		LambdaBit:        *lambdaBit,
		LambdaSymbol:     *lambdaSym,
		ScrubPeriod:      *scrub,
		ExponentialScrub: *expScrub,
		DetectionLatency: *latency,
		Horizon:          *horizon,
		Trials:           *trials,
		Seed:             *seed,
		Workers:          *workers,
	}
	ecfg := campaign.Config{Checkpoint: *checkpoint}
	if *stopRel > 0 {
		ecfg.Stop = &campaign.EarlyStop{
			Counter:      memsim.CounterCapabilityExceeded,
			RelHalfWidth: *stopRel,
			MinTrials:    *stopMin,
		}
	}
	res, cres, err := memsim.RunCampaign(cfg, ecfg)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cres); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("code:            %v  (%s)\n", code, map[bool]string{true: "duplex", false: "simplex"}[*dup])
	fmt.Printf("trials:          %d over %g h (lambda_bit=%g/h, lambda_sym=%g/h)\n",
		res.Trials, *horizon, *lambdaBit, *lambdaSym)
	if cres.EarlyStopped {
		fmt.Printf("early stop:      after %d of %d requested trials (CI half-width <= %g of estimate)\n",
			cres.Trials, cres.Requested, *stopRel)
	}
	if cres.ResumedTrials > 0 {
		fmt.Printf("resumed:         %d trials restored from %s\n", cres.ResumedTrials, *checkpoint)
	}
	fmt.Printf("faults injected: %d SEUs, %d permanent\n", res.SEUs, res.PermanentFaults)
	if res.ScrubOps > 0 {
		fmt.Printf("scrubs:          %d passes, %d entrenched mis-corrections\n",
			res.ScrubOps, res.ScrubMiscorrections)
	}
	fmt.Printf("outcomes:        %d correct, %d wrong output, %d no output\n",
		res.Correct, res.WrongOutput, res.NoOutput)
	lo, hi := memsim.WilsonInterval(res.WrongOutput+res.NoOutput, res.Trials, 1.96)
	fmt.Printf("fail fraction:   %.4e  (95%% CI [%.4e, %.4e])\n", res.FailFraction(), lo, hi)
	clo, chi := memsim.WilsonInterval(res.CapabilityExceeded, res.Trials, 1.96)
	fmt.Printf("cap. exceeded:   %.4e  (95%% CI [%.4e, %.4e])  paper-BER %.4e\n",
		res.CapabilityExceededFraction(), clo, chi, res.PaperBER())

	if *dup && len(res.Verdicts) > 0 {
		fmt.Println("arbiter verdicts:")
		type vc struct {
			v arbiter.Verdict
			c int
		}
		var list []vc
		for v, c := range res.Verdicts {
			list = append(list, vc{v, c})
		}
		sort.Slice(list, func(i, j int) bool { return list[i].c > list[j].c })
		for _, e := range list {
			fmt.Printf("  %-20s %d\n", e.v, e.c)
		}
	}

	// Companion Markov prediction at the same per-hour rates.
	var chainP float64
	if *dup {
		out, err := duplex.FailProbabilities(duplex.Params{
			N: *n, K: *k, M: *m,
			Lambda: *lambdaBit, LambdaE: *lambdaSym, ScrubRate: scrubRate(*scrub),
		}, []float64{*horizon})
		if err != nil {
			fatal(err)
		}
		chainP = out[0]
	} else {
		out, err := simplex.FailProbabilities(simplex.Params{
			N: *n, K: *k, M: *m,
			Lambda: *lambdaBit, LambdaE: *lambdaSym, ScrubRate: scrubRate(*scrub),
		}, []float64{*horizon})
		if err != nil {
			fatal(err)
		}
		chainP = out[0]
	}
	agree := "inside"
	blo, bhi := memsim.WilsonInterval(res.CapabilityExceeded, res.Trials, 4)
	if chainP < blo || chainP > bhi {
		agree = "OUTSIDE"
	}
	fmt.Printf("markov chain:    P_fail = %.4e (%s the Monte Carlo 4-sigma band)\n", chainP, agree)
}

func scrubRate(periodHours float64) float64 {
	if periodHours <= 0 {
		return 0
	}
	return 1 / periodHours
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "memsim: %v\n", err)
	os.Exit(1)
}
