package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/spec"
)

// setup is one compiled spec, ready to run.
type setup struct {
	file  *spec.File
	built []*spec.Built
}

// buildSpec parses and compiles spec bytes — which for an auto-tilted
// entry includes the analytic tilt solve — and reports the time that
// took.
func buildSpec(specBytes []byte) (*setup, time.Duration, error) {
	start := time.Now()
	f, err := spec.Parse(specBytes)
	if err != nil {
		return nil, 0, err
	}
	built, err := f.BuildAll()
	if err != nil {
		return nil, 0, err
	}
	return &setup{file: f, built: built}, time.Since(start), nil
}

// warm builds one worker per scenario and runs its trial 0 into a
// throwaway accumulator, so per-code lazy tables (the packed syndrome
// table behind batch decode) are built before anything is timed.
// Trials are pure functions of their index, so this changes no result.
func (s *setup) warm() error {
	for _, b := range s.built {
		w, err := b.Scenario.NewWorker()
		if err != nil {
			return fmt.Errorf("%s: %w", b.Entry.Name, err)
		}
		if err := w.Trial(0, campaign.NewAcc()); err != nil {
			return fmt.Errorf("%s: warm-up trial: %w", b.Entry.Name, err)
		}
	}
	return nil
}

// engineTrace accumulates the traced engine-layer timings of campaigns.
type engineTrace struct {
	trials                *trialLog
	execute, merge, write time.Duration
	// workerWall is the sum over campaigns of workers x execute wall,
	// the capacity the engine had for trials.
	workerWall    time.Duration
	resultTrials  int
	artifactBytes int64
}

func newEngineTrace() *engineTrace { return &engineTrace{trials: newTrialLog()} }

// report adds the engine-layer metrics, per iteration: iters
// iterations' worth of campaigns were traced.
func (et *engineTrace) report(out *outcome, iters float64) {
	out.set("campaign.execute_s", et.execute.Seconds()/iters, "s")
	out.set("campaign.merge_s", et.merge.Seconds()/iters, "s")
	busy := 0.0
	for _, l := range trialLayers {
		d := seconds(et.trials.durations(l))
		busy += sum(d)
		if l == "analytic" {
			out.set("analytic.trial_ms_p50", 1e3*quantile(d, 0.5), "ms")
		} else {
			out.set(l+".trial_us_p50", 1e6*quantile(d, 0.5), "us")
			out.set(l+".trial_us_p99", 1e6*quantile(d, 0.99), "us")
		}
		out.set(l+".busy_s", sum(d)/iters, "s")
	}
	out.set("campaign.engine_overhead_frac", 1-ratio(busy, et.workerWall.Seconds()), "frac")
	out.set("campaign.useful_trial_frac", ratio(float64(et.resultTrials), float64(et.trials.count())), "frac")
	out.set("artifacts.write_s", et.write.Seconds()/iters, "s")
	out.set("artifacts.bytes", float64(et.artifactBytes)/iters, "bytes")
}

// runEntry runs one compiled entry. Traced runs (et non-nil) decorate
// the scenario with trial timing and call the engine's plan, execute
// and merge layers one by one — exactly what campaign.Run composes — to
// time each; untraced runs call campaign.Run.
func runEntry(f *spec.File, b *spec.Built, workers int, et *engineTrace) (*campaign.Result, error) {
	cfg := b.EngineConfig(f)
	if workers > 0 {
		cfg.Workers = workers
	}
	if et == nil {
		return campaign.Run(b.Scenario, cfg)
	}
	scn := timeScenario(b.Scenario, kindLayer(b.Entry.Kind), et.trials)
	plan, err := campaign.NewPlan(scn, cfg.ShardSize, campaign.Whole)
	if err != nil {
		return nil, err
	}
	plan.ParamsDigest = cfg.ParamsDigest
	start := time.Now()
	partial, err := campaign.Execute(scn, plan, campaign.ExecConfig{Workers: cfg.Workers, Stop: cfg.Stop})
	exec := time.Since(start)
	if err != nil {
		return nil, err
	}
	defer partial.Close()
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	et.execute += exec
	et.workerWall += time.Duration(w) * exec
	start = time.Now()
	cres, err := campaign.Merge([]*campaign.Partial{partial}, campaign.MergeConfig{Stop: cfg.Stop, ParamsDigest: cfg.ParamsDigest})
	et.merge += time.Since(start)
	if err == nil {
		et.resultTrials += cres.Trials
	}
	return cres, err
}

// writeChecked writes an entry's artifacts under dir and evaluates its
// expectation bands and kind gates.
func writeChecked(dir string, b *spec.Built, cres *campaign.Result, et *engineTrace) []error {
	start := time.Now()
	if err := b.WriteArtifacts(dir, cres); err != nil {
		return []error{fmt.Errorf("%s: artifacts: %w", b.Entry.Name, err)}
	}
	if et != nil {
		et.write += time.Since(start)
	}
	return b.CheckExpectations(cres)
}

// entryDigest hashes an entry's JSON and CSV artifacts under dir.
func entryDigest(dir string, b *spec.Built) (string, int64, error) {
	h := sha256.New()
	var n int64
	base := filepath.Join(dir, filepath.FromSlash(b.Entry.ArtifactPath()))
	for _, ext := range []string{".json", ".csv"} {
		data, err := os.ReadFile(base + ext)
		if err != nil {
			return "", 0, err
		}
		h.Write(data)
		h.Write([]byte{0})
		n += int64(len(data))
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// iterStats is what one measured iteration of an in-process workload
// yields.
type iterStats struct {
	wall      time.Duration
	trials    int
	entryWall []time.Duration
	rareESS   float64 // ESS of the weighted stop counters
	rareWall  time.Duration
}

// runInProcess measures word-mission or page-grid: set-up repeated
// several times, then iterations of every entry — run, artifacts
// written and checked — until the time budget is spent. A traced run
// alternates traced and untraced iterations.
func runInProcess(cfg runConfig, specBytes []byte) (*outcome, error) {
	out := newOutcome()
	var s *setup
	var setups, builds []float64
	for r := 0; r < cfg.setupReps(); r++ {
		runtime.GC()
		start := time.Now()
		var build time.Duration
		var err error
		s, build, err = buildSpec(specBytes)
		if err == nil {
			err = s.warm()
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		builds = append(builds, build.Seconds())
	}

	var (
		plain, traced []iterStats
		et            = newEngineTrace()
		prof          = newProfiler()
		reference     []string // iteration 0's per-entry artifact digests
	)
	deadline := time.Now().Add(cfg.duration)
	for it := 0; it < cfg.minIters() || time.Now().Before(deadline); it++ {
		trace := cfg.trace && it%2 == 0
		dir := filepath.Join(cfg.workdir, fmt.Sprintf("iter-%d", it))
		runtime.GC()
		var st iterStats
		var itTrace *engineTrace
		if trace {
			itTrace = et
			prof.start()
		}
		start := time.Now()
		for _, b := range s.built {
			es := time.Now()
			cres, err := runEntry(s.file, b, 0, itTrace)
			var errs []error
			if err != nil {
				errs = []error{fmt.Errorf("%s: %w", b.Entry.Name, err)}
			} else {
				errs = writeChecked(dir, b, cres, itTrace)
			}
			ew := time.Since(es)
			st.entryWall = append(st.entryWall, ew)
			out.attempt(errs...)
			if err != nil {
				continue
			}
			st.trials += cres.Trials
			if stop := b.Entry.Stop; stop != nil && cres.Weights != nil {
				st.rareESS += cres.EffectiveSamples(stop.Counter)
				st.rareWall += ew
			}
		}
		st.wall = time.Since(start)
		if trace {
			prof.stop()
		}
		var digests []string
		for i, b := range s.built {
			d, n, err := entryDigest(dir, b)
			if err != nil {
				d = "missing"
			}
			if trace {
				et.artifactBytes += n
			}
			digests = append(digests, d)
			if reference != nil && d != reference[i] {
				out.problem("%s: artifacts of iteration %d differ from iteration 0 (determinism)", b.Entry.Name, it)
			}
		}
		if reference == nil {
			reference = digests
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if trace {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
	}

	out.digest = digestOf(specNames(s.built), reference)
	var walls, tps, entryWalls, ess []float64
	for _, st := range plain {
		walls = append(walls, st.wall.Seconds())
		tps = append(tps, float64(st.trials)/st.wall.Seconds())
		entryWalls = append(entryWalls, seconds(st.entryWall)...)
		if st.rareWall > 0 {
			ess = append(ess, st.rareESS/st.rareWall.Seconds())
		}
	}
	campaignS := median(walls)
	out.set("setup_s", median(setups), "s")
	out.set("campaign_s", campaignS, "s")
	out.set("trials_per_s", median(tps), "1/s")
	out.set("job_p50_s", quantile(entryWalls, 0.5), "s")
	out.set("job_p90_s", quantile(entryWalls, 0.9), "s")
	out.set("jobs_per_s", float64(len(s.built))/campaignS, "1/s")
	out.note("job samples: %d entry runs (%d entries x %d untraced iterations)", len(entryWalls), len(s.built), len(plain))
	out.note("iteration walls: %.4f", walls)
	out.note("set-up samples: %.5f", setups)
	slowest := make([]int, len(s.built))
	perEntry := make([]float64, len(s.built))
	for i := range s.built {
		var ws []float64
		for _, st := range plain {
			ws = append(ws, st.entryWall[i].Seconds())
		}
		slowest[i], perEntry[i] = i, median(ws)
	}
	sort.Slice(slowest, func(a, b int) bool { return perEntry[slowest[a]] > perEntry[slowest[b]] })
	for _, i := range slowest[:min(5, len(slowest))] {
		out.note("entry %-40s median %.4f s", s.built[i].Entry.Name, perEntry[i])
	}

	if cfg.trace {
		out.set("spec.build_s", median(builds), "s")
		et.report(out, float64(len(traced)))
		out.set("rare.ess_per_s", median(ess), "1/s")
		var tw []float64
		for _, st := range traced {
			tw = append(tw, st.wall.Seconds())
		}
		out.set("trace_overhead_frac", median(tw)/campaignS-1, "frac")
		if err := prof.addShares(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func specNames(built []*spec.Built) []string {
	names := make([]string, len(built))
	for i, b := range built {
		names[i] = b.Entry.Name
	}
	return names
}

// digestOf folds per-item digests, labelled by name, into one.
func digestOf(names, digests []string) string {
	h := sha256.New()
	for i, d := range digests {
		fmt.Fprintf(h, "%s\x00%s\n", names[i], d)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
