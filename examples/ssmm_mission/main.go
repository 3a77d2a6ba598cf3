// ssmm_mission is the paper's motivating scenario end to end: a Solid
// State Mass Memory for a multi-year space mission, built from COTS
// memory devices.
//
// The example (1) derives a permanent-fault rate for a real device
// from the MIL-HDBK-217-style model (paper refs [1],[6]), (2) sweeps
// the paper's three arrangements over a 24-month storage mission at
// that rate plus the worst-case SEU environment, and (3) weighs the
// reliability outcome against decoder latency and area (paper
// Section 6) to make the engineering call.
//
// Run with: go run ./examples/ssmm_mission
package main

import (
	"fmt"
	"log"

	"repro/internal/complexity"
	"repro/internal/core"
	"repro/internal/reliability"
)

func main() {
	// A commercial 1-Mbit SRAM in orbit, modestly warm, COTS quality.
	device := reliability.Device{
		Bits:         1 << 20,
		Pins:         32,
		JunctionTemp: 45,
		Env:          reliability.SpaceFlight,
		Quality:      3, // COTS screening, the paper's premise
	}
	deviceRate, err := device.FailureRatePerMillionHours()
	if err != nil {
		log.Fatal(err)
	}
	lambdaE, err := device.SymbolErasureRatePerDay(8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: COTS 1-Mbit SRAM, %.3f failures/1e6h -> lambdaE = %.2e per symbol-day\n",
		deviceRate, lambdaE)
	fmt.Printf("environment: worst-case SEU rate %.1e per bit-day\n\n", reliability.WorstCaseSEURate)

	// 24-month storage mission, hourly scrubbing against SEUs.
	mission, err := reliability.HoursRange(0, reliability.Months(24), 13)
	if err != nil {
		log.Fatal(err)
	}
	type option struct {
		name string
		cfg  core.Config
		cost complexity.ArrangementCost
	}
	s18, err := complexity.SimplexCost(18, 16, 8)
	if err != nil {
		log.Fatal(err)
	}
	d18, err := complexity.DuplexCost(18, 16, 8)
	if err != nil {
		log.Fatal(err)
	}
	s36, err := complexity.SimplexCost(36, 16, 8)
	if err != nil {
		log.Fatal(err)
	}
	options := []option{
		{"simplex RS(18,16)", core.Config{Arrangement: core.Simplex, Code: core.RS1816}, s18},
		{"duplex  RS(18,16)", core.Config{Arrangement: core.Duplex, Code: core.RS1816}, d18},
		{"simplex RS(36,16)", core.Config{Arrangement: core.Simplex, Code: core.RS3616}, s36},
	}

	const berBudget = 1e-10 // mission data-integrity requirement
	fmt.Printf("%-19s %14s %12s %10s %8s\n", "arrangement", "BER(24mo)", "meets 1e-10", "Td cycles", "gates")
	for _, opt := range options {
		cfg := opt.cfg
		cfg.SEUPerBitDay = reliability.WorstCaseSEURate
		cfg.ErasurePerSymbolDay = lambdaE
		cfg.ScrubPeriodSeconds = 3600
		curve, err := core.Evaluate(cfg, mission)
		if err != nil {
			log.Fatal(err)
		}
		ber := curve.BER[len(curve.BER)-1]
		meets := "no"
		if ber < berBudget {
			meets = "yes"
		}
		fmt.Printf("%-19s %14.3e %12s %10d %8.0f\n",
			opt.name, ber, meets, opt.cost.DecodeCycles, opt.cost.TotalGates)
	}

	fmt.Println("\nreading the table like the paper does:")
	fmt.Println(" - the duplex pays the same total redundancy as simplex RS(36,16)")
	fmt.Println("   (20 extra symbols per 16-symbol dataword) but decodes 4.16x faster;")
	fmt.Println(" - its two decoders are smaller than the one wide decoder;")
	fmt.Println(" - simplex RS(18,16) is cheapest but cannot ride out permanent faults.")
}
