package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/fabric"
)

// Fabric workload geometry: two executors of one compute goroutine
// each, two slices per entry (eight 256-trial shards each), two tenants.
// An executor blocks on HTTP round trips between slices, and on a
// shared host a vCPU that idles there can wait to be rescheduled. On a
// 2-vCPU VM under other load, 256-trial slices slowed about three times
// as much as these 2048-trial ones (alternated 10 s runs), which put the
// spread of the fabric metrics past their bounds.
const (
	fabricExecutors = 2
	fabricSlices    = 2
	jobTimeout      = time.Minute
)

var (
	tenantTokens = []string{"alice-token", "bob-token"}
	fleetToken   = "fleet-token"
)

// fabricService is one in-process registry behind httptest with its
// executor fleet.
type fabricService struct {
	reg    *fabric.Registry
	srv    *httptest.Server
	client *http.Client // the tenants' client
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	execErrs []error
}

// startFabric starts a registry working in dir, its HTTP server and the
// executors. A non-nil tap instruments the handler and the executors'
// clients.
func startFabric(dir string, tap *httpTap) (*fabricService, error) {
	quiet := log.New(io.Discard, "", 0)
	reg, err := fabric.NewRegistry(fabric.RegistryConfig{
		Dir:    dir,
		Slices: fabricSlices,
		Tenants: []fabric.Tenant{
			{Name: "alice", Token: tenantTokens[0]},
			{Name: "bob", Token: tenantTokens[1]},
			{Name: "fleet", Token: fleetToken},
		},
		Log: quiet,
	})
	if err != nil {
		return nil, err
	}
	h := reg.Handler()
	if tap != nil {
		h = tap.middleware(h)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &fabricService{
		reg:    reg,
		srv:    httptest.NewServer(h),
		client: &http.Client{Timeout: jobTimeout},
		cancel: cancel,
	}
	for i := 0; i < fabricExecutors; i++ {
		var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
		if tap != nil {
			rt = tap.transport(rt)
		}
		cfg := fabric.ExecutorConfig{
			URL:     s.srv.URL,
			Name:    fmt.Sprintf("exec-%d", i),
			Token:   fleetToken,
			Workers: 1,
			Client:  &http.Client{Transport: rt, Timeout: jobTimeout},
			Log:     quiet,
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := fabric.RunExecutor(ctx, cfg); err != nil && ctx.Err() == nil {
				s.mu.Lock()
				s.execErrs = append(s.execErrs, fmt.Errorf("%s: %w", cfg.Name, err))
				s.mu.Unlock()
			}
		}()
	}
	return s, nil
}

// close stops the executors, waits for them and shuts the server down.
func (s *fabricService) close() error {
	s.cancel()
	s.wg.Wait()
	s.srv.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.execErrs...)
}

// jobRecord is one job's trip through the service.
type jobRecord struct {
	idx     int
	spec    []byte
	id      string
	outDir  string
	trials  int
	submit  time.Duration // POST /jobs round trip
	latency time.Duration // submit -> JobDone
	done    time.Time
	err     error
}

// runJob submits one job as the given tenant and waits for it to reach
// a terminal state, then checks that it is done and that every slice
// was computed and uploaded in this run (none adopted or cancelled).
func (s *fabricService) runJob(idx int, specBytes []byte, token string) jobRecord {
	rec := jobRecord{idx: idx, spec: specBytes}
	start := time.Now()
	js, err := fabric.SubmitJob(s.client, s.srv.URL, token, specBytes)
	rec.submit = time.Since(start)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.id = js.ID
	done, ok := s.reg.JobDone(js.ID)
	if !ok {
		rec.err = fmt.Errorf("job %s vanished after submit", js.ID)
		return rec
	}
	select {
	case <-done:
	case <-time.After(jobTimeout):
		rec.err = fmt.Errorf("job %s not done after %s", js.ID, jobTimeout)
		return rec
	}
	rec.done = time.Now()
	rec.latency = rec.done.Sub(start)
	st, _ := s.reg.Job(js.ID)
	rec.outDir = st.OutDir
	rec.err = checkJob(st)
	for _, e := range st.Entries {
		rec.trials += e.DoneTrials
	}
	return rec
}

// checkJob verifies a finished job: done, not adopted from an earlier
// run's partials, every slice uploaded.
func checkJob(st *fabric.JobStatus) error {
	if st.State != fabric.JobDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	for _, e := range st.Entries {
		for _, sl := range e.Slices {
			if sl.Adopted || (sl.State != "done" && sl.State != "empty") {
				return fmt.Errorf("job %s %s slice %d: state %s, adopted %t; want uploaded in this run",
					st.ID, e.Entry, sl.Index, sl.State, sl.Adopted)
			}
		}
	}
	return nil
}

// runBatch runs jobs [first, first+n) as a closed loop of two tenants:
// tenant i%2 submits job i only after its previous job is done.
func (s *fabricService) runBatch(seed int64, first, n int, sc scale) ([]jobRecord, time.Duration) {
	recs := make([]jobRecord, n)
	start := time.Now()
	var wg sync.WaitGroup
	for t := range tenantTokens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := t; i < n; i += len(tenantTokens) {
				recs[i] = s.runJob(first+i, fabricJobSpec(seed, first+i, sc), tenantTokens[t])
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start)
}

// warmService starts a service in a fresh directory and runs one
// warm-up job (number idx, outside the measured job numbers) through
// it, so connections, caches and lazy tables are in place.
func warmService(cfg runConfig, name string, idx int, tap *httpTap) (*fabricService, error) {
	svc, err := startFabric(filepath.Join(cfg.workdir, name), tap)
	if err != nil {
		return nil, err
	}
	if warm := svc.runJob(idx, fabricJobSpec(cfg.seed, idx, cfg.sc), tenantTokens[0]); warm.err != nil {
		svc.close()
		return nil, fmt.Errorf("warm-up job: %w", warm.err)
	}
	return svc, nil
}

// runFabric measures fabric-jobs: service start plus one warm-up job,
// repeated several times, then closed-loop batches of jobs until the
// time budget is spent, each batch on a fresh warmed service in a fresh
// work directory (a registry keeps every job it has seen, so one long
// -lived service would grow with the run). Afterwards it replays jobs
// in-process and requires their artifacts to equal the registry's
// merged artifacts byte for byte (all jobs of a traced run, the first
// batch otherwise).
func runFabric(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var tap *httpTap
	if cfg.trace {
		tap = newHTTPTap()
	}
	var setups []float64
	for r := 0; r < cfg.setupReps(); r++ {
		runtime.GC()
		start := time.Now()
		svc, err := warmService(cfg, fmt.Sprintf("setup-%d", r), -1-r, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if err := svc.close(); err != nil {
			return nil, err
		}
	}

	var (
		all                   []jobRecord
		walls, tps, jps, lats []float64
		tracedWalls           []float64
		tracedJobs            []jobRecord
		rejects, steals       int
		prof                  = newProfiler()
		batch                 = cfg.sc.batchJobs
	)
	deadline := time.Now().Add(cfg.duration)
	for b := 0; b < cfg.minIters() || time.Now().Before(deadline); b++ {
		trace := cfg.trace && b%2 == 0
		svc, err := warmService(cfg, fmt.Sprintf("batch-%d", b), -1-cfg.setupReps()-b, tap)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		if trace {
			tap.enabled.Store(true)
			prof.start()
		}
		recs, wall := svc.runBatch(cfg.seed, b*batch, batch, cfg.sc)
		if trace {
			prof.stop()
			tap.enabled.Store(false)
		}
		status := svc.reg.Status()
		rejects += status.Rejected
		steals += status.Steals
		if err := svc.close(); err != nil {
			return nil, err
		}
		trials := 0
		for _, r := range recs {
			out.attempt(errs(r.err)...)
			trials += r.trials
		}
		all = append(all, recs...)
		if trace {
			tracedWalls = append(tracedWalls, wall.Seconds())
			tracedJobs = append(tracedJobs, recs...)
			continue
		}
		walls = append(walls, wall.Seconds())
		tps = append(tps, float64(trials)/wall.Seconds())
		jps = append(jps, float64(batch)/wall.Seconds())
		for _, r := range recs {
			if r.err == nil {
				lats = append(lats, r.latency.Seconds())
			}
		}
	}

	// The fabric law: every checked job's merged artifacts equal an
	// in-process campaign.Run of the same spec.
	check := all[:batch]
	var et *engineTrace
	if cfg.trace {
		check, et = all, newEngineTrace()
	}
	var builds []float64
	var names, digests []string
	for i, r := range check {
		if r.err != nil {
			continue
		}
		d, build, err := lawCheck(r, filepath.Join(cfg.workdir, fmt.Sprintf("law-%d", i)), et)
		if err != nil {
			out.problem("job %d (%s): %v", r.idx, r.id, err)
		}
		builds = append(builds, build.Seconds())
		if i < batch {
			names = append(names, fmt.Sprintf("job-%d", r.idx))
			digests = append(digests, d)
		}
	}
	out.digest = digestOf(names, digests)

	out.set("setup_s", median(setups), "s")
	out.set("campaign_s", median(walls), "s")
	out.set("trials_per_s", median(tps), "1/s")
	out.set("job_p50_s", quantile(lats, 0.5), "s")
	out.set("job_p90_s", quantile(lats, 0.9), "s")
	out.set("jobs_per_s", median(jps), "1/s")
	out.note("job samples: %d jobs in %d untraced batches of %d", len(lats), len(walls), batch)
	out.note("batch walls: %.4f", walls)
	out.note("set-up samples: %.4f", setups)

	if cfg.trace {
		// Engine layers come from the in-process replays, per batch of
		// jobs so they compare with campaign_s.
		out.set("spec.build_s", median(builds), "s")
		et.report(out, float64(len(check))/float64(batch))
		tap.report(out, tracedJobs, tracedWalls)
		out.set("fabric.rejects", float64(rejects), "count")
		out.set("fabric.steals", float64(steals), "count")
		out.set("trace_overhead_frac", median(tracedWalls)/median(walls)-1, "frac")
		if err := prof.addShares(out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func errs(err error) []error {
	if err == nil {
		return nil
	}
	return []error{err}
}

// lawCheck replays one fabric job in-process and compares artifacts.
// It returns the digest of the registry's merged artifacts and how long
// building the job's spec took.
func lawCheck(r jobRecord, dir string, et *engineTrace) (string, time.Duration, error) {
	got, _, err := treeDigest(r.outDir)
	if err != nil {
		return "", 0, err
	}
	s, build, err := buildSpec(r.spec)
	if err != nil {
		return got, 0, err
	}
	for _, b := range s.built {
		cres, err := runEntry(s.file, b, fabricExecutors, et)
		if err != nil {
			return got, build, err
		}
		if errs := writeChecked(dir, b, cres, et); len(errs) > 0 {
			return got, build, errors.Join(errs...)
		}
	}
	want, n, err := treeDigest(dir)
	if err != nil {
		return got, build, err
	}
	if et != nil {
		et.artifactBytes += n
	}
	if got != want {
		return got, build, fmt.Errorf("registry artifacts differ from an in-process run of the same spec")
	}
	return got, build, nil
}

// report adds the tap's fabric metrics over the traced batches.
func (t *httpTap) report(out *outcome, jobs []jobRecord, walls []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := float64(len(jobs))
	out.set("fabric.lease_ms_p50", 1e3*median(t.leaseRTT), "ms")
	out.set("fabric.upload_ms_p50", 1e3*median(t.uploadRTT), "ms")
	out.set("fabric.upload_bytes", float64(t.uploadBytes)/n, "bytes/job")
	out.set("fabric.spec_fetches", float64(t.specFetches)/n, "count/job")
	out.set("fabric.idle_polls", float64(t.idlePolls)/n, "count/job")
	out.set("fabric.lease_grant_frac", ratio(float64(t.grants), float64(t.leaseReqs)), "frac")
	out.set("fabric.exec_busy_frac", ratio(t.busy.Seconds(), fabricExecutors*sum(walls)), "frac")
	for _, ep := range []string{"submit", "lease", "spec", "upload"} {
		out.set("fabric.handler_ms_p50."+ep, 1e3*median(t.handler[ep]), "ms")
	}
	var submits, tails []float64
	for _, j := range jobs {
		if j.err != nil {
			continue
		}
		submits = append(submits, j.submit.Seconds())
		if last, ok := t.lastUpload[j.id]; ok {
			tails = append(tails, j.done.Sub(last).Seconds())
		}
	}
	out.set("fabric.submit_ms_p50", 1e3*median(submits), "ms")
	out.set("fabric.merge_tail_ms", 1e3*median(tails), "ms")
}
