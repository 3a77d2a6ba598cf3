// fault_injection pits the real duplex arbiter against the paper's
// Markov abstraction under heavy, accelerated fault load, surfacing
// the decision paths of Section 3 (flag resolution, mis-correction
// stalemates, erasure masking) with live counts.
//
// Two campaigns run: a transient-dominated one (SEUs + scrubbing) and
// a permanent-dominated one (stuck-at faults, immediate vs delayed
// location). Each prints the arbiter verdict mix and the
// chain-vs-simulation comparison.
//
// Run with: go run ./examples/fault_injection
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/arbiter"
	"repro/internal/duplex"
	"repro/internal/gf"
	"repro/internal/memsim"
	"repro/internal/rs"
)

func main() {
	field := gf.MustField(8)
	code, err := rs.New(field, 18, 16)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("campaign 1: transient-dominated (accelerated SEUs, 4-hour scrubbing)")
	seu := memsim.Config{
		Code: code, Duplex: true,
		LambdaBit:   4e-4,
		ScrubPeriod: 4, ExponentialScrub: true,
		Horizon: 48, Trials: 30000, Seed: 11,
	}
	report(seu)

	fmt.Println("\ncampaign 2: permanent-dominated (stuck-at faults, no scrubbing)")
	perm := memsim.Config{
		Code: code, Duplex: true,
		LambdaSymbol: 3e-4,
		Horizon:      200, Trials: 30000, Seed: 12,
	}
	report(perm)

	fmt.Println("\ncampaign 3: permanent faults with 50 h detection latency")
	late := perm
	late.DetectionLatency = 50
	late.Seed = 13
	res, err := memsim.Run(late)
	if err != nil {
		log.Fatal(err)
	}
	resOnTime, err := memsim.Run(perm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  located immediately: %.3e failures | located after 50h: %.3e failures\n",
		resOnTime.FailFraction(), res.FailFraction())
	fmt.Println("  (until located, a permanent fault costs 2 units of capability instead of 1 —")
	fmt.Println("   the paper's argument for self-checking circuits that locate faults, Section 2)")
}

func report(cfg memsim.Config) {
	res, err := memsim.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	params := duplex.Params{
		N: 18, K: 16, M: 8,
		Lambda:    cfg.LambdaBit,
		LambdaE:   cfg.LambdaSymbol,
		ScrubRate: scrubRate(cfg.ScrubPeriod),
	}
	chain, err := duplex.FailProbabilities(params, []float64{cfg.Horizon})
	if err != nil {
		log.Fatal(err)
	}
	// The physically consistent variant counts erasure arrivals on
	// both modules of a position (the paper's Figure 4 counts one);
	// BenchmarkAblationDoubleSidedErasures measures the gap.
	params.Opts.DoubleSidedErasures = true
	chain2, err := duplex.FailProbabilities(params, []float64{cfg.Horizon})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("  injected %d SEUs, %d permanent faults over %d trials\n",
		res.SEUs, res.PermanentFaults, res.Trials)
	fmt.Printf("  chain P_fail (paper rates)        = %.3e\n", chain[0])
	fmt.Printf("  chain P_fail (double-sided rates) = %.3e\n", chain2[0])
	fmt.Printf("  sim capability-exceeded           = %.3e (chain's own event)\n",
		res.CapabilityExceededFraction())
	fmt.Printf("  sim real failures                 = %.3e (what the arbiter actually loses)\n",
		res.FailFraction())
	if res.FailFraction() > 0 {
		fmt.Printf("  chain conservatism vs real arbiter = %.1fx\n", chain2[0]/res.FailFraction())
	}
	fmt.Println("  arbiter verdicts:")
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
		fmt.Printf("    %-20s %6d (%.2f%%)\n", e.v, e.c, 100*float64(e.c)/float64(res.Trials))
	}
}

func scrubRate(period float64) float64 {
	if period <= 0 {
		return 0
	}
	return 1 / period
}
