package spec

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/memsim"
	"repro/internal/simplex"
)

// TestGoldenUnitWeightEquivalence pins the exact pre-refactor output
// of one memsim and one pagesim campaign: counters, params digest and
// the byte-level sha256 of the checkpoint artifact, all captured from
// the engine as it was before counters grew weight moments. Unit
// weights (no sampling block) must keep reproducing these bytes
// forever — any drift means the weighted-trial refactor changed the
// unweighted path. The artifacts run single-worker because shard
// records append in completion order, which only a sequential
// executor pins down; the counters are worker-count independent.
func TestGoldenUnitWeightEquivalence(t *testing.T) {
	specs := []struct {
		label, text    string
		digest         string
		counters       map[string]int64
		artifactSHA256 string
		artifactBytes  int
	}{
		{
			label:  "memsim",
			text:   `{"seed":11,"workers":1,"scenarios":[{"name":"golden-memsim","kind":"memsim","params":{"n":18,"k":16,"m":8,"lambda_bit_per_hour":2e-4,"lambda_symbol_per_hour":1e-5,"scrub_period_hours":4,"exponential_scrub":true,"horizon_hours":48,"trials":2000}}]}`,
			digest: "16e7c4f8f0d85a94f8edb55689f263a3b2780bb5942f2b93e52a4d917a98c15f",
			counters: map[string]int64{
				"capability_exceeded":  216,
				"correct":              1784,
				"data_bit_errors":      81,
				"no_output":            202,
				"permanent_faults":     13,
				"scrub_miscorrections": 57,
				"scrub_ops":            23968,
				"seus":                 2719,
				"wrong_output":         14,
			},
			artifactSHA256: "ec939d2420bd1184a6bcaec031fde17940f8aa8514163cbb107f3af27adce243",
			artifactBytes:  1683,
		},
		{
			label:  "pagesim",
			text:   `{"seed":11,"workers":1,"scenarios":[{"name":"golden-pagesim","kind":"interleave","params":{"depth":4,"lambda_bit_per_hour":3e-4,"burst_per_kilobit_hour":5e-5,"burst_bits":6,"lambda_column_per_hour":1e-5,"scrub_period_hours":4,"horizon_hours":24,"trials":1500}}]}`,
			digest: "252ff7b5cb67e880fb08fb05b8b715a13c1eb70b4bdde3702db5e6dd05e7055b",
			counters: map[string]int64{
				"bursts":            1,
				"corrected_symbols": 855,
				"failed_stripes":    469,
				"page_correct":      1056,
				"page_loss":         444,
				"page_silent_loss":  24,
				"scrub_ops":         7500,
				"seus":              6597,
				"stuck_columns":     19,
			},
			artifactSHA256: "2984bbac954c6dc007e6e39b48ef6fa246e007c069314167e75fda2d456e211b",
			artifactBytes:  1367,
		},
	}
	for _, sp := range specs {
		f, err := Parse([]byte(sp.text))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(f.Scenarios[0], f)
		if err != nil {
			t.Fatal(err)
		}
		if b.Digest != sp.digest {
			t.Errorf("%s: params digest drifted: %s, want %s", sp.label, b.Digest, sp.digest)
		}
		cfg := b.EngineConfig(f)
		cfg.Checkpoint = filepath.Join(t.TempDir(), "artifact.jsonl")
		res, err := campaign.Run(b.Scenario, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Counters, sp.counters) {
			t.Errorf("%s: golden counters drifted:\ngot  %v\nwant %v", sp.label, res.Counters, sp.counters)
		}
		if res.Weights != nil {
			t.Errorf("%s: unweighted run grew weight moments: %v", sp.label, res.Weights)
		}
		data, err := os.ReadFile(cfg.Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != sp.artifactSHA256 || len(data) != sp.artifactBytes {
			t.Errorf("%s: artifact bytes drifted: sha256 %s (%d bytes), want %s (%d bytes)",
				sp.label, got, len(data), sp.artifactSHA256, sp.artifactBytes)
		}
	}
}

// TestSamplingValidation: malformed sampling blocks must fail at
// parse, naming the problem.
func TestSamplingValidation(t *testing.T) {
	cases := []struct{ name, doc, want string }{
		{"unknown method",
			`{"scenarios":[{"name":"a","kind":"memsim","sampling":{"method":"magic"}}]}`,
			"unknown sampling method"},
		{"tilt below one",
			`{"scenarios":[{"name":"a","kind":"memsim","sampling":{"method":"tilt","factor":0.5}}]}`,
			"must be >= 1"},
		{"tilt no factor",
			`{"scenarios":[{"name":"a","kind":"memsim","sampling":{"method":"tilt"}}]}`,
			"must be >= 1"},
		{"auto with factor",
			`{"scenarios":[{"name":"a","kind":"memsim","sampling":{"method":"auto","factor":8}}]}`,
			"solves its own factor"},
		{"unsupported kind",
			`{"scenarios":[{"name":"a","kind":"mbusim","sampling":{"method":"tilt","factor":8}}]}`,
			"does not support importance sampling"},
		{"auto on interleave",
			`{"scenarios":[{"name":"a","kind":"interleave","sampling":{"method":"auto"}}]}`,
			"memsim"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.doc))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestAutoTiltRequiresChainRegime: auto sampling outside the regime
// the simplex chain models must fail at build with a pointed error.
func TestAutoTiltRequiresChainRegime(t *testing.T) {
	base := `{"scenarios":[{"name":"a","kind":"memsim","sampling":{"method":"auto"},"params":%s}]}`
	cases := []struct{ name, params, want string }{
		{"duplex",
			`{"duplex":true,"lambda_bit_per_hour":1e-8,"horizon_hours":48,"trials":1000}`,
			"duplex"},
		{"detection latency",
			`{"lambda_bit_per_hour":1e-8,"detection_latency_hours":1,"horizon_hours":48,"trials":1000}`,
			"detection_latency"},
		{"periodic scrub",
			`{"lambda_bit_per_hour":1e-8,"scrub_period_hours":4,"horizon_hours":48,"trials":1000}`,
			"exponential"},
		{"already common",
			`{"lambda_bit_per_hour":6e-4,"lambda_symbol_per_hour":2e-4,"horizon_hours":48,"trials":1000}`,
			"needs no tilting"},
	}
	for _, c := range cases {
		f, err := Parse([]byte(fmt.Sprintf(base, c.params)))
		if err != nil {
			t.Fatalf("%s: parse: %v", c.name, err)
		}
		_, err = f.BuildAll()
		if err == nil {
			t.Errorf("%s: built", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestMemsimTiltAgreesWithChain cross-validates the importance-sampled
// estimator against the analytic simplex chain in a regime where the
// untilted probability is still computable by plain Monte Carlo: the
// weighted capability-exceeded estimate under an explicit tilt must
// land within four standard errors of the chain's absorption
// probability (the same gate the "auto" method installs).
func TestMemsimTiltAgreesWithChain(t *testing.T) {
	doc := `{
	  "seed": 3, "workers": 4,
	  "scenarios": [{
	    "name": "tilt-xval",
	    "kind": "memsim",
	    "sampling": {"method": "tilt", "factor": 16},
	    "params": {"n": 18, "k": 16, "lambda_bit_per_hour": 2e-5,
	               "scrub_period_hours": 4, "exponential_scrub": true,
	               "horizon_hours": 48, "trials": 200000}
	  }]
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	built, err := f.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	b := built[0]
	if !strings.Contains(b.Scenario.Name(), "tilt=16") {
		t.Fatalf("tilt factor missing from scenario identity: %s", b.Scenario.Name())
	}
	cres, err := campaign.Run(b.Scenario, b.EngineConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	// The chain truth for the same parameters (exponential scrub rate
	// 1/4 per hour), untilted.
	probs, err := simplex.FailProbabilities(simplex.Params{
		N: 18, K: 16, M: 8, Lambda: 2e-5, ScrubRate: 0.25,
	}, []float64{48})
	if err != nil {
		t.Fatal(err)
	}
	want := probs[0]
	est := cres.WeightedFraction(memsim.CounterCapabilityExceeded)
	se := cres.StdErr(memsim.CounterCapabilityExceeded)
	if se <= 0 {
		t.Fatalf("zero standard error: %+v", cres.Weights)
	}
	if dev := math.Abs(est-want) / se; dev > 4 {
		t.Fatalf("tilted estimate %.6e deviates from chain %.6e by %.1f sigma", est, want, dev)
	}
	if ess := cres.EffectiveSamples(memsim.CounterCapabilityExceeded); ess <= 0 || ess > float64(cres.Trials) {
		t.Errorf("implausible effective sample size %v of %d trials", ess, cres.Trials)
	}
}

// TestWeightedSpecDeterministicAcrossWorkers: the importance-sampled
// path must keep the engine's worker-count independence.
func TestWeightedSpecDeterministicAcrossWorkers(t *testing.T) {
	doc := `{
	  "seed": 5,
	  "scenarios": [{
	    "name": "tilt-det",
	    "kind": "memsim",
	    "sampling": {"method": "tilt", "factor": 1000},
	    "params": {"n": 18, "k": 16, "lambda_bit_per_hour": 1.7e-8,
	               "lambda_symbol_per_hour": 8.5e-10,
	               "scrub_period_hours": 4, "exponential_scrub": true,
	               "horizon_hours": 48, "trials": 4000}
	  }]
	}`
	var results []*campaign.Result
	for _, workers := range []int{1, 4, 8} {
		f, err := Parse([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		f.Workers = workers
		built, err := f.BuildAll()
		if err != nil {
			t.Fatal(err)
		}
		cres, err := campaign.Run(built[0].Scenario, built[0].EngineConfig(f))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, cres)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("worker count changed the weighted result:\n%+v\nvs\n%+v", results[0], results[i])
		}
	}
}

// TestWeightedPartitionedSpecMerges: a tilted spec partitioned 3 ways
// through the spec layer must merge bit-identically to the
// unpartitioned run.
func TestWeightedPartitionedSpecMerges(t *testing.T) {
	doc := `{
	  "seed": 7, "workers": 4,
	  "scenarios": [{
	    "name": "tilt-part",
	    "kind": "memsim",
	    "sampling": {"method": "tilt", "factor": 1000},
	    "stop": {"counter": "capability_exceeded", "rel_half_width": 0.25, "min_trials": 500},
	    "params": {"n": 18, "k": 16, "lambda_bit_per_hour": 1.7e-8,
	               "lambda_symbol_per_hour": 8.5e-10,
	               "scrub_period_hours": 4, "exponential_scrub": true,
	               "horizon_hours": 48, "trials": 30000}
	  }]
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	built, err := f.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	b := built[0]
	want, err := campaign.Run(b.Scenario, b.EngineConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		p, err := b.RunPartition(f, campaign.Partition{Index: i, Count: 3}, dir)
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
	}
	got, err := b.MergePartials(f, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("partitioned weighted spec merge diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestWeightedRenderShowsEstimator: the memsim render of a tilted
// entry must surface the weighted estimate, relative error and ESS.
func TestWeightedRenderShowsEstimator(t *testing.T) {
	doc := `{
	  "seed": 17, "workers": 4,
	  "scenarios": [{
	    "name": "tilt-render",
	    "kind": "memsim",
	    "sampling": {"method": "tilt", "factor": 19169},
	    "params": {"n": 18, "k": 16, "lambda_bit_per_hour": 1.7e-8,
	               "lambda_symbol_per_hour": 8.5e-10,
	               "scrub_period_hours": 4, "exponential_scrub": true,
	               "horizon_hours": 48, "trials": 5000}
	  }]
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	built, err := f.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	cres, err := campaign.Run(built[0].Scenario, built[0].EngineConfig(f))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built[0].Render(&buf, cres); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"importance:", "tilt factor", "RE", "ESS"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q:\n%s", want, buf.String())
		}
	}
}
