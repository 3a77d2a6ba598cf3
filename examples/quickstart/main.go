// Quickstart: the three layers of the library in ~60 lines.
//
//  1. Code a memory word with RS(18,16) and correct a fault pattern.
//  2. Ask the paper's Markov models for the BER of a whole system.
//  3. Check the prediction against Monte Carlo fault injection.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gf"
	"repro/internal/memsim"
	"repro/internal/reliability"
	"repro/internal/rs"
)

func main() {
	// --- 1. The codec ---------------------------------------------
	field := gf.MustField(8)
	code, err := rs.New(field, 18, 16)
	if err != nil {
		log.Fatal(err)
	}
	data := []gf.Elem{'h', 'i', 'g', 'h', ' ', 'r', 'e', 'l', ' ', 'm', 'e', 'm', 'o', 'r', 'y', '!'}
	word, err := code.Encode(data)
	if err != nil {
		log.Fatal(err)
	}
	// RS(18,16) has 2 check symbols: it corrects one random error OR
	// two located erasures (2*errors + erasures <= n-k).
	dec := code.NewDecoder() // a reusable workspace; results alias it
	seu := append([]gf.Elem(nil), word...)
	seu[3] ^= 0x40 // an SEU flips a bit somewhere unknown
	res, err := dec.Decode(seu, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("codec:  recovered %q after one SEU (flag=%v)\n",
		string(elemsToBytes(res.Data)), res.Flag)

	erased := append([]gf.Elem(nil), word...)
	erased[3], erased[9] = 0x00, 0xFF // two located permanent faults
	res, err = dec.Decode(erased, []int{3, 9})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("codec:  recovered %q after two located erasures (flag=%v)\n",
		string(elemsToBytes(res.Data)), res.Flag)

	// --- 2. The Markov models --------------------------------------
	hours, err := reliability.HoursRange(0, 48, 3)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{
		Arrangement:        core.Duplex,
		Code:               core.RS1816,
		SEUPerBitDay:       reliability.WorstCaseSEURate,
		ScrubPeriodSeconds: 3600,
	}
	curve, err := core.Evaluate(cfg, hours)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model:  %v\n        BER(48h) = %.3e (paper: below 1e-6 with hourly scrubbing)\n",
		cfg, curve.BER[len(curve.BER)-1])

	// --- 3. The fault-injection simulator --------------------------
	sim, err := memsim.Run(memsim.Config{
		Code:      code,
		Duplex:    true,
		LambdaBit: 6e-4, // accelerated rates so 5k trials resolve P_fail
		Horizon:   48,
		Trials:    5000,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sim:    %d trials at accelerated SEU rates: %.1f%% capability-exceeded, %.1f%% real failures\n",
		sim.Trials, 100*sim.CapabilityExceededFraction(), 100*sim.FailFraction())
	fmt.Println("        (the chain's Fail state is a conservative bound on the real arbiter)")
}

func elemsToBytes(es []gf.Elem) []byte {
	out := make([]byte, len(es))
	for i, e := range es {
		out[i] = byte(e)
	}
	return out
}
