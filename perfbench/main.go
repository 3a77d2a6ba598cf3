// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload for a fixed time, checks the outputs, and prints
// a report whose last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones a user of the
// campaign engine waits on; with --trace 1 the same workload runs
// instrumented — trial timing decorators, HTTP timing, a CPU profile
// split by layer — and the metrics are the per-layer ones.
//
// Workloads (see workloads.go for the generated specs):
//
//	word-mission  word-level memsim/mbusim missions and the analytic
//	              curves: RNG reseeding and the memsim event loop
//	page-grid     the pagesim cross-product of RS n x depth x scrub x
//	              detection policy: page codec, sample merge, artifacts
//	fabric-jobs   two tenants in a closed loop against an in-process
//	              fabric registry with two executors: lease, upload,
//	              validation and server-side merge
//
// End-to-end metrics, from the untraced iterations of a run (times are
// medians over iterations unless a percentile is named):
//
//	setup_s       spec parse + build (incl. the auto-tilt solve) + lazy
//	              tables; for fabric-jobs, registry, server and executor
//	              start plus one warm-up job. Median of several set-ups.
//	campaign_s    built scenarios to checked artifacts on disk, one
//	              iteration (fabric-jobs: one batch of jobs)
//	trials_per_s  result trials / campaign_s
//	job_p50_s     per-job latency; a job is one spec entry run to checked
//	job_p90_s     artifacts in-process, one submitted spec (POST /jobs to
//	              JobDone) on fabric-jobs; the sample count is printed
//	jobs_per_s    jobs / campaign_s
//	peak_rss_mb   peak resident set size of the process
//
// A run's failed count covers errors, violated bands and kind gates,
// artifacts that differ between iterations, fabric jobs whose merged
// artifacts differ from an in-process run of the same spec, and — at
// the default seed — a results digest that differs from the pinned one.
// The verdict line prints failed/attempted as failed_frac; it is not a
// metric because a clean run reads 0. The rare entry's effective samples
// per second exist on word-mission only, so they are the per-layer
// rare.ess_per_s.
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash perfbench/run.sh --workload page-grid --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// metricDef is one metric of the report, as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the --trace 0 metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaign_s", "s", "lower"},
	{"trials_per_s", "1/s", "higher"},
	{"job_p50_s", "s", "lower"},
	{"job_p90_s", "s", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// trialLayers are the layers trial timing is split into.
var trialLayers = []string{"memsim", "mbusim", "analytic", "pagesim"}

// perLayer are the --trace 1 metrics. A layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"spec.build_s", "s", "lower"},
		{"campaign.execute_s", "s", "lower"},
		{"campaign.merge_s", "s", "lower"},
		{"campaign.engine_overhead_frac", "frac", "lower"},
		{"campaign.useful_trial_frac", "frac", "higher"},
		{"memsim.trial_us_p50", "us", "lower"},
		{"memsim.trial_us_p99", "us", "lower"},
		{"memsim.busy_s", "s", "lower"},
		{"mbusim.trial_us_p50", "us", "lower"},
		{"mbusim.trial_us_p99", "us", "lower"},
		{"mbusim.busy_s", "s", "lower"},
		{"analytic.trial_ms_p50", "ms", "lower"},
		{"analytic.busy_s", "s", "lower"},
		{"pagesim.trial_us_p50", "us", "lower"},
		{"pagesim.trial_us_p99", "us", "lower"},
		{"pagesim.busy_s", "s", "lower"},
		{"artifacts.write_s", "s", "lower"},
		{"artifacts.bytes", "bytes", "lower"},
	}
	for _, l := range profileLayers {
		ms = append(ms, metricDef{l + ".cpu_frac", "frac", "lower"})
	}
	return append(ms,
		metricDef{"fabric.lease_ms_p50", "ms", "lower"},
		metricDef{"fabric.upload_ms_p50", "ms", "lower"},
		metricDef{"fabric.upload_bytes", "bytes/job", "lower"},
		metricDef{"fabric.spec_fetches", "count/job", "lower"},
		metricDef{"fabric.idle_polls", "count/job", "lower"},
		metricDef{"fabric.lease_grant_frac", "frac", "higher"},
		metricDef{"fabric.exec_busy_frac", "frac", "higher"},
		metricDef{"fabric.handler_ms_p50.submit", "ms", "lower"},
		metricDef{"fabric.handler_ms_p50.lease", "ms", "lower"},
		metricDef{"fabric.handler_ms_p50.spec", "ms", "lower"},
		metricDef{"fabric.handler_ms_p50.upload", "ms", "lower"},
		metricDef{"fabric.submit_ms_p50", "ms", "lower"},
		metricDef{"fabric.merge_tail_ms", "ms", "lower"},
		metricDef{"fabric.rejects", "count", "lower"},
		metricDef{"fabric.steals", "count", "lower"},
		metricDef{"rare.ess_per_s", "1/s", "higher"},
		metricDef{"trace_overhead_frac", "frac", "lower"},
	)
}()

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	sc       scale
	workdir  string // fresh scratch directory, removed afterwards
}

// setupReps is how many times a run sets up; setup_s is the median.
func (c runConfig) setupReps() int {
	if c.workload == fabricJobs {
		return 7 // a service start plus a warm-up job takes about 0.1 s
	}
	return 21 // in-process set-up takes milliseconds; many samples steady the median
}

// minIters is the least number of measured iterations, however short
// the time budget: a traced run needs one traced and one untraced.
func (c runConfig) minIters() int {
	if c.trace {
		return 2
	}
	return 1
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects a run's verdict and measurements.
type outcome struct {
	attempted, failed int
	problems          []string
	notes             []string
	digest            string
	metrics           map[string]metric
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

// attempt records one attempted entry or job and the errors it hit; any
// error makes it a failed attempt.
func (o *outcome) attempt(errs ...error) {
	o.attempted++
	if len(errs) > 0 {
		o.failed++
	}
	for _, err := range errs {
		o.problems = append(o.problems, err.Error())
	}
}

// problem records a correctness failure found after the fact (a
// determinism or pinned-digest mismatch).
func (o *outcome) problem(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

func main() {
	var (
		workload = flag.String("workload", wordMission, "workload: word-mission, page-grid or fabric-jobs")
		seed     = flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
		secs     = flag.Int("seconds", 10, "how long to measure")
		trace    = flag.Int("trace", 0, "1 = instrumented run printing per-layer metrics")
		root     = flag.String("root", ".", "repository root (the checkout being measured)")
		workdir  = flag.String("workdir", ".bench_build", "directory for scratch files")
	)
	flag.Parse()
	if err := run(*workload, *seed, *secs, *trace, *root, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, secs, trace int, root, workdir string) error {
	if secs < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if !slices.Contains(workloadNames, workload) {
		return fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{
		workload: workload,
		seed:     seed,
		duration: time.Duration(secs) * time.Second,
		trace:    trace == 1,
		sc:       fullScale,
		workdir:  dir,
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", workload, seed, secs, trace)
	fmt.Println(stampLine(root))

	spinCPUs(time.Second)
	out, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	out.set("peak_rss_mb", peakRSSMB(), "MB")
	if want, ok := pinnedDigests[workload]; ok && seed == defaultSeed && out.digest != want {
		out.problem("results digest %s differs from the digest pinned for seed %d: %s", out.digest, defaultSeed, want)
	}
	return report(os.Stdout, cfg, out)
}

// runWorkload dispatches to the workload's runner.
func runWorkload(cfg runConfig) (*outcome, error) {
	switch cfg.workload {
	case wordMission:
		return runInProcess(cfg, wordMissionSpec(cfg.seed, cfg.sc))
	case pageGrid:
		return runInProcess(cfg, pageGridSpec(cfg.seed, cfg.sc))
	default:
		return runFabric(cfg)
	}
}

// report prints the human-readable lines and, last, the JSON result.
func report(w io.Writer, cfg runConfig, out *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metric)}
	for _, d := range defs {
		m, ok := out.metrics[d.Name]
		if !ok {
			m = metric{0, d.Unit}
		}
		result.Metrics[d.Name] = m
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
	for _, n := range out.notes {
		fmt.Fprintln(w, "note", n)
	}
	for i, p := range out.problems {
		if i == 20 {
			fmt.Fprintf(w, "problem ... and %d more\n", len(out.problems)-i)
			break
		}
		fmt.Fprintln(w, "problem", p)
	}
	fmt.Fprintf(w, "verdict correct=%t attempted=%d failed=%d failed_frac=%g digest=%s\n",
		result.Correct, out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)), out.digest)
	data, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
