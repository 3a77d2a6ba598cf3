package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// Workload names, as passed to --workload.
const (
	wordMission = "word-mission"
	pageGrid    = "page-grid"
	fabricJobs  = "fabric-jobs"
)

var workloadNames = []string{wordMission, pageGrid, fabricJobs}

// scale sizes a workload's trial counts. The benchmark runs at full
// scale; tests run the same specs at a small fraction of it.
type scale struct {
	// trials multiplies every Monte Carlo entry's trial count.
	trials float64
	// rareRelHalfWidth is the rare entry's relative-error stop target.
	rareRelHalfWidth float64
	// batchJobs is the number of fabric jobs per measured batch.
	batchJobs int
}

var (
	fullScale = scale{trials: 1, rareRelHalfWidth: 0.05, batchJobs: 16}
	testScale = scale{trials: 0.05, rareRelHalfWidth: 0.2, batchJobs: 4}
)

func (s scale) n(trials int) int {
	n := int(float64(trials) * s.trials)
	if n < 64 {
		n = 64
	}
	return n
}

// obj is a JSON object literal; encoding/json writes its keys sorted,
// so the generated spec bytes are a pure function of the seed.
type obj = map[string]any

func band(counter string, lo, hi *float64) obj {
	o := obj{"counter": counter}
	if lo != nil {
		o["min_fraction"] = *lo
	}
	if hi != nil {
		o["max_fraction"] = *hi
	}
	return o
}

func f64(v float64) *float64 { return &v }

// seeds draws the per-entry RNG seeds of one spec from the benchmark
// seed, so every --seed gives different trials over the same workload.
func seeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = 1 + rng.Int63n(1<<40)
	}
	return out
}

func encodeSpec(f obj) []byte {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		panic(err) // literal maps of numbers and strings always encode
	}
	return append(data, '\n')
}

// wordMissionSpec builds the word-level mission spec: the entries of
// examples/campaign/{spec,rare,nightly}.json that simulate single
// memory words (duplex SSMM mission, brute-force simplex reference,
// auto-tilted rare simplex mission, MBU burst comparison) plus the
// analytic BER curve and design-space table, all with their
// expectation bands.
func wordMissionSpec(seed int64, sc scale) []byte {
	s := seeds(seed, 4)
	return encodeSpec(obj{
		"seed":    s[0],
		"workers": 2,
		"scenarios": []obj{
			{
				"name": "ber-transient", "kind": "bercurve",
				"params": obj{"arrangement": "duplex", "n": 18, "k": 16, "seu_per_bit_day": 1.7e-5,
					"scrub_seconds": 3600, "hours": 48, "points": 25},
			},
			{
				"name": "design-space", "kind": "tradeoff",
				"params": obj{"seu_per_bit_day": 1.7e-5, "perm_per_symbol_day": 1e-7, "scrub_seconds": 3600,
					"hours": 48, "max_redundancy": 8, "duplex_max_redundancy": 4},
			},
			{
				"name": "ssmm-mission", "kind": "memsim",
				"params": obj{"duplex": true, "n": 18, "k": 16, "lambda_bit_per_hour": 6e-4,
					"lambda_symbol_per_hour": 2e-4, "scrub_period_hours": 4, "exponential_scrub": true,
					"horizon_hours": 48, "trials": sc.n(20000), "seed": s[1]},
				"expect": []obj{
					band("capability_exceeded", f64(0.767), f64(0.808)),
					band("no_output", nil, f64(0.45)),
				},
			},
			{
				"name": "simplex-reference", "kind": "memsim",
				"params": obj{"duplex": false, "n": 18, "k": 16, "lambda_bit_per_hour": 6e-4,
					"lambda_symbol_per_hour": 2e-4, "horizon_hours": 48, "trials": sc.n(20000), "seed": s[2]},
				"expect": []obj{band("capability_exceeded", f64(0.904), f64(0.932))},
			},
			{
				"name": "rare-simplex-mission", "kind": "memsim",
				"params": obj{"duplex": false, "n": 18, "k": 16, "lambda_bit_per_hour": 1.7e-8,
					"lambda_symbol_per_hour": 8.5e-10, "scrub_period_hours": 4, "exponential_scrub": true,
					"horizon_hours": 48, "trials": 400000, "seed": s[3]},
				"sampling": obj{"method": "auto"},
				// The stop target is usually met before min_trials, so
				// the entry stops at min_trials for almost every seed and
				// its work does not swing with the seed.
				"stop": obj{"counter": "capability_exceeded", "rel_half_width": sc.rareRelHalfWidth,
					"min_trials": sc.n(60000)},
				"expect": []obj{band("capability_exceeded", f64(7e-10), f64(1.5e-9))},
			},
			{
				"name": "mbu-burst6", "kind": "mbusim",
				"params": obj{"events_per_kilobit": 4, "burst_bits": 6, "trials": sc.n(4000)},
			},
		},
	})
}

// pageGridSpec builds the page-level grid: the RS n x depth x scrub
// period sweep of examples/campaign/matrix.json beside the detection
// policy x scrub period x depth x n sweep of detection.json, whose
// scrub and latency policies record time_to_location samples.
func pageGridSpec(seed int64, sc scale) []byte {
	return encodeSpec(obj{
		"seed":    seeds(seed, 1)[0],
		"workers": 2,
		"scenarios": []obj{
			{
				"name": "matrix-grid", "kind": "interleave",
				"params": obj{"lambda_bit_per_hour": 2e-5, "burst_per_kilobit_hour": 0.05, "burst_bits": 9,
					"lambda_column_per_hour": 5e-5, "horizon_hours": 48, "trials": sc.n(3000)},
				"matrix": obj{"n": []int{18, 20}, "depth": []int{2, 4}, "scrub_period_hours": []int{1, 4, 12}},
				"expect": []obj{band("single_burst_losses", nil, f64(0))},
			},
			{
				"name": "detection-grid", "kind": "interleave",
				"params": obj{"lambda_bit_per_hour": 1e-5, "lambda_column_per_hour": 1.5e-3,
					"detection_latency_hours": 12, "horizon_hours": 48, "trials": sc.n(1500)},
				"matrix": obj{"detection": []string{"immediate", "scrub", "latency"},
					"scrub_period_hours": []int{2, 8}, "depth": []int{2, 4}, "n": []int{18, 20}},
				"expect": []obj{band("scrub_decode_errors", nil, f64(0))},
			},
		},
	})
}

// fabricJobSpec builds fabric job number idx: a small duplex word
// mission beside a page mission, seeded from (seed, idx) so that every
// job's spec bytes are distinct — the registry treats identical bytes
// as the same job and would finish a repeat instantly.
func fabricJobSpec(seed int64, idx int, sc scale) []byte {
	s := seeds(seed*1000003+int64(idx), 2)
	// Eight 256-trial shards per slice at full scale; at least one shard
	// per slice at test scale, so the mission's band stays wide in sigmas.
	trials := max(512, sc.n(4096))
	return encodeSpec(obj{
		"seed": s[0],
		"scenarios": []obj{
			{
				"name": fmt.Sprintf("mission-%d", idx), "kind": "memsim",
				"params": obj{"duplex": true, "n": 18, "k": 16, "lambda_bit_per_hour": 6e-4,
					"lambda_symbol_per_hour": 2e-4, "scrub_period_hours": 4, "exponential_scrub": true,
					"horizon_hours": 48, "trials": trials},
				"expect": []obj{band("capability_exceeded", f64(0.70), f64(0.87))},
			},
			{
				"name": fmt.Sprintf("page-%d", idx), "kind": "interleave",
				"params": obj{"depth": 4, "lambda_bit_per_hour": 2e-5, "burst_per_kilobit_hour": 0.05,
					"burst_bits": 9, "lambda_column_per_hour": 5e-5, "scrub_period_hours": 4,
					"horizon_hours": 48, "trials": trials, "seed": s[1]},
				"expect": []obj{band("single_burst_losses", nil, f64(0))},
			},
		},
	})
}
