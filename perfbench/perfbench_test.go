package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// testRun is a small, quick configuration of a workload.
func testRun(t *testing.T, workload string, trace bool) *outcome {
	t.Helper()
	cfg := runConfig{
		workload: workload,
		seed:     5,
		duration: time.Millisecond,
		trace:    trace,
		sc:       testScale,
		workdir:  t.TempDir(),
	}
	out, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s (trace %t): %v", workload, trace, err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%s (trace %t): %d of %d attempts failed: %v", workload, trace, out.failed, out.attempted, out.problems)
	}
	return out
}

// Instrumentation must not change a single artifact byte: the traced
// run's first iteration (traced) and the untraced run's first
// iteration digest the same for every workload.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			plain := testRun(t, w, false)
			traced := testRun(t, w, true)
			if plain.digest == "" || plain.digest != traced.digest {
				t.Fatalf("traced digest %q, untraced %q", traced.digest, plain.digest)
			}
			for _, d := range perLayer {
				if _, ok := traced.metrics[d.Name]; !ok && !layerOptional(w, d.Name) {
					t.Errorf("traced run reported no %s", d.Name)
				}
			}
		})
	}
}

// layerOptional reports whether a per-layer metric may be absent from a
// workload's traced run (it then prints 0): fabric metrics outside
// fabric-jobs, the rare entry's ESS rate outside word-mission.
func layerOptional(workload, name string) bool {
	return (strings.HasPrefix(name, "fabric.") && workload != fabricJobs) ||
		(name == "rare.ess_per_s" && workload != wordMission)
}

// The decorator must keep a weighted scenario weighted, or the traced
// run would plan the rare entry with unit weights.
func TestDecoratorForwardsWeighted(t *testing.T) {
	s, _, err := buildSpec(wordMissionSpec(3, testScale))
	if err != nil {
		t.Fatal(err)
	}
	sawWeighted := false
	for _, b := range s.built {
		want, err := campaign.NewPlan(b.Scenario, 0, campaign.Whole)
		if err != nil {
			t.Fatal(err)
		}
		got, err := campaign.NewPlan(timeScenario(b.Scenario, kindLayer(b.Entry.Kind), newTrialLog()), 0, campaign.Whole)
		if err != nil {
			t.Fatal(err)
		}
		if got.Weighted != want.Weighted {
			t.Errorf("%s: decorated plan weighted=%t, plain %t", b.Entry.Name, got.Weighted, want.Weighted)
		}
		sawWeighted = sawWeighted || want.Weighted
	}
	if !sawWeighted {
		t.Fatal("word-mission has no weighted entry to check")
	}
}

// Every package of the repository must land in a named profile layer,
// so a package added later cannot hide its CPU time in "other".
func TestEveryInternalPackageHasALayer(t *testing.T) {
	root := filepath.Join("..", "internal")
	seen := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		hasGo := slices.ContainsFunc(entries, func(e fs.DirEntry) bool {
			return strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go")
		})
		if !hasGo {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		seen++
		fn := "repro/internal/" + filepath.ToSlash(rel) + ".(*T).Method"
		if l := layerOf(fn); l == "other" || !slices.Contains(profileLayers, l) {
			t.Errorf("package internal/%s maps to layer %q; add it to repoLayers", rel, l)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 10 {
		t.Fatalf("found only %d internal packages under %s", seen, root)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"math/rand.(*rngSource).Seed":                       "rng",
		"repro/internal/rs.(*BatchDecoder).DecodeAll.func1": "rs",
		"repro/internal/campaign/spec.Build":                "spec",
		"repro/internal/campaign.Execute":                   "campaign",
		"compress/flate.(*compressor).deflate":              "gzip",
		"encoding/json.(*encodeState).marshal":              "json",
		"net/http.(*conn).serve":                            "net",
		"runtime.scanobject":                                "gc",
		"runtime.gcBgMarkWorker":                            "gc",
		"runtime.mallocgc":                                  "runtime",
		"runtime.futex":                                     "runtime",
		"slices.pdqsortCmpFunc[go.shape.struct { a/b.c }]":  "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink float64

// The hand-written profile.proto reader must find CPU time in a
// profile the runtime wrote.
func TestLayerCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	rng := rand.New(rand.NewSource(1))
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			rng.Seed(int64(i))
			sink += rng.Float64()
		}
	}
	pprof.StopCPUProfile()
	ns := make(map[string]float64)
	if err := layerCPU(buf.Bytes(), ns); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range ns {
		total += v
	}
	if total == 0 || ns["rng"] < total/4 {
		t.Fatalf("rng got %.0f of %.0f profiled ns; want most of it (%v)", ns["rng"], total, ns)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := quantile(xs, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := quantile(nil, 0.9); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}

// BENCHMARK.json must describe exactly the workloads and metrics the
// program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program %v", b.PerLayer, perLayer)
	}
}
