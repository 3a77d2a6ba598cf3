package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// secondDoc is a second, distinct spec so multi-job tests exercise two
// namespaces and two digests from one registry.
const secondDoc = `{"seed": 7, "shard_size": 64, "scenarios": [
  {"name": "beta", "kind": "mbusim",
   "params": {"events_per_kilobit": 3, "burst_bits": 4, "trials": 300}}]}`

// deleteJob cancels the job at its full URL through DELETE /jobs/{id},
// the endpoint an operator calls by hand; no command wraps it.
func deleteJob(jobURL, token string) error {
	req, err := http.NewRequest(http.MethodDelete, jobURL, nil)
	if err != nil {
		return err
	}
	setBearer(req, token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("delete: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// postJobs submits spec bytes over the HTTP API.
func postJobs(t *testing.T, url, token string, doc string) *JobStatus {
	t.Helper()
	st, err := SubmitJob(nil, url, token, []byte(doc))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st
}

// TestRegistryMultiJobSharedPool is the shared pool's law: two specs
// submitted to one registry, drained by one shared 3-executor pool,
// both server-side merges produce artifact trees byte-identical to
// unpartitioned runs — and the scheduler hands one executor work from
// both jobs in turn.
func TestRegistryMultiJobSharedPool(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{
		Dir:        t.TempDir(),
		Slices:     4,
		DrainAfter: 2,
		Log:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	jobA := postJobs(t, srv.URL, "", twoKindDoc)
	jobB := postJobs(t, srv.URL, "", secondDoc)
	if jobA.ID == jobB.ID {
		t.Fatal("distinct specs mapped to one job ID")
	}
	// Idempotent resubmission: same bytes, same job, no duplicate.
	if again := postJobs(t, srv.URL, "", twoKindDoc); again.ID != jobA.ID {
		t.Errorf("resubmission created a new job %s, want %s", again.ID, jobA.ID)
	}
	if jobs, err := ListJobs(nil, srv.URL); err != nil || len(jobs) != 2 {
		t.Fatalf("ListJobs: %d jobs (%v), want 2", len(jobs), err)
	}

	runExecutors(t, srv.URL, 3)
	waitDone(t, reg)

	for _, id := range []string{jobA.ID, jobB.ID} {
		st, ok := reg.Job(id)
		if !ok || st.State != JobDone {
			t.Fatalf("job %s: state %+v, want done", id, st)
		}
		// The server-side merge must write artifact trees byte-identical
		// to an unpartitioned run of the same spec.
		doc := twoKindDoc
		if id == jobB.ID {
			doc = secondDoc
		}
		f, built := buildSpec(t, doc)
		refDir := t.TempDir()
		for _, b := range built {
			res, err := campaign.Run(b.Scenario, b.EngineConfig(f))
			if err != nil {
				t.Fatal(err)
			}
			if err := b.WriteArtifacts(refDir, res); err != nil {
				t.Fatal(err)
			}
		}
		compareTrees(t, refDir, st.OutDir)
	}

	// Cross-job leasing — the point of a shared pool — is the
	// scheduler's fair share: with both jobs submitted, consecutive
	// grants to one executor alternate between them. It is checked on
	// the scheduler itself, because which of the executors above drew
	// from both jobs depends on goroutine scheduling. secondDoc's four
	// slices run out after eight grants.
	sched, err := NewRegistry(RegistryConfig{Dir: t.TempDir(), Slices: 4, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	var ids [2]string
	for i, doc := range []string{twoKindDoc, secondDoc} {
		st, err := sched.Submit([]byte(doc), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for i := 0; i < 8; i++ {
		reply, _, _ := sched.grantLease("exec-0")
		if reply == nil || reply.Lease == nil || reply.Lease.Job != ids[i%2] {
			t.Fatalf("grant %d to one executor: %+v, want a lease of job %s", i, reply, ids[i%2])
		}
	}
}

// compareTrees asserts dirs got and want hold byte-identical files.
func compareTrees(t *testing.T, want, got string) {
	t.Helper()
	err := filepath.WalkDir(want, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(want, path)
		wb, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		gb, err := os.ReadFile(filepath.Join(got, rel))
		if err != nil {
			return fmt.Errorf("missing artifact %s: %w", rel, err)
		}
		if !bytes.Equal(wb, gb) {
			return fmt.Errorf("artifact %s differs from the unpartitioned run", rel)
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

// TestRegistryAuth: a tenanted registry requires bearer tokens on
// every mutating endpoint, resolves tokens to owning tenants, and
// keeps read endpoints open.
func TestRegistryAuth(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{
		Dir: t.TempDir(),
		Tenants: []Tenant{
			{Name: "alice", Token: "tok-a"},
			{Name: "bob", Token: "tok-b"},
		},
		Log: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	// Mutating endpoints without (or with a bad) token: 401.
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/jobs"},
		{http.MethodPost, pathLease},
		{http.MethodPost, pathRenew + "?lease=L1"},
		{http.MethodPost, pathUpload + "?lease=L1"},
	} {
		req, _ := http.NewRequest(probe.method, srv.URL+probe.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s without token: status %d, want 401", probe.method, probe.path, resp.StatusCode)
		}
		req, _ = http.NewRequest(probe.method, srv.URL+probe.path, strings.NewReader("{}"))
		req.Header.Set("Authorization", "Bearer wrong")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s with bad token: status %d, want 401", probe.method, probe.path, resp.StatusCode)
		}
	}

	// A valid token submits, and the job is owned by the token's tenant.
	st := postJobs(t, srv.URL, "tok-a", twoKindDoc)
	if st.Tenant != "alice" {
		t.Errorf("job tenant %q, want alice", st.Tenant)
	}

	// Reads stay open: no token needed to list or inspect.
	if _, err := ListJobs(nil, srv.URL); err != nil {
		t.Errorf("unauthenticated ListJobs: %v", err)
	}
	if _, err := FetchStatus(nil, srv.URL); err != nil {
		t.Errorf("unauthenticated status: %v", err)
	}

	// Only the owner may delete.
	if err := deleteJob(JobURL(srv.URL, st.ID), "tok-b"); err == nil {
		t.Error("bob deleted alice's job")
	}
	if err := deleteJob(JobURL(srv.URL, st.ID), "tok-a"); err != nil {
		t.Errorf("alice deleting her own job: %v", err)
	}
}

// TestRegistryQuota: a tenant at its concurrent-lease quota is skipped
// — the next lease goes to another tenant's job, never a second slice
// of the capped tenant's — and once only the capped tenant has work
// left the registry answers 204, not a quota-busting lease.
func TestRegistryQuota(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{
		Dir:    t.TempDir(),
		Slices: 2,
		Tenants: []Tenant{
			{Name: "alice", Token: "tok-a", MaxLeases: 1},
			{Name: "bob", Token: "tok-b"},
		},
		Log: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Submit([]byte(twoKindDoc), SubmitOptions{Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	stB, err := reg.Submit([]byte(secondDoc), SubmitOptions{Tenant: "bob"})
	if err != nil {
		t.Fatal(err)
	}

	var grants []string // owning tenant per successive grant
	for {
		reply, _, _ := reg.grantLease("probe")
		if reply == nil {
			break
		}
		if reply.Done {
			t.Fatal("registry reported done mid-test")
		}
		js, _ := reg.Job(reply.Lease.Job)
		grants = append(grants, js.Tenant)
		if len(grants) > 16 {
			t.Fatal("runaway grants; quota not enforced")
		}
	}
	aliceLeases := 0
	for _, tenant := range grants {
		if tenant == "alice" {
			aliceLeases++
		}
	}
	// alice holds at most MaxLeases=1 concurrent slice; bob (unlimited)
	// got every slice of his job. With work remaining only behind
	// alice's quota, the loop ended on nil: nothing grantable.
	if aliceLeases != 1 {
		t.Errorf("alice granted %d concurrent leases, want exactly 1 (quota)", aliceLeases)
	}
	bobSlices := 0
	if full, ok := reg.Job(stB.ID); ok {
		bobSlices = full.SlicesLeased
	}
	if got := len(grants) - aliceLeases; got != bobSlices || bobSlices == 0 {
		t.Errorf("bob leased %d grants but holds %d slices", got, bobSlices)
	}

	// The HTTP layer holds the quota-blocked request for a full
	// leaseWait, then answers 204. This is the one test that waits out
	// a hold.
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	body, _ := json.Marshal(leaseRequest{Executor: "probe"})
	req, _ := http.NewRequest(http.MethodPost, srv.URL+pathLease, bytes.NewReader(body))
	req.Header.Set("Authorization", "Bearer tok-b")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("quota-blocked lease: status %d, want 204", resp.StatusCode)
	}
	if held := time.Since(start); held < leaseWait {
		t.Errorf("quota-blocked lease answered after %s, want a full hold of %s", held, leaseWait)
	}
}

// TestRegistryDeleteRunningJob: deleting a running job invalidates its
// leases (the zombie's late upload is refused), cancels its slices
// without re-queueing anything, and leaves the other job schedulable.
func TestRegistryDeleteRunningJob(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{
		Dir:    t.TempDir(),
		Slices: 2,
		Log:    log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	doomed := postJobs(t, srv.URL, "", twoKindDoc)
	other := postJobs(t, srv.URL, "", secondDoc)

	// Lease one slice of the doomed job (fair-share starts there).
	reply, _, _ := reg.grantLease("zombie")
	if reply == nil || reply.Lease == nil || reply.Lease.Job != doomed.ID {
		t.Fatalf("first grant %+v, want a %s lease", reply, doomed.ID)
	}
	zombieLease := reply.Lease

	if err := deleteJob(JobURL(srv.URL, doomed.ID), ""); err != nil {
		t.Fatal(err)
	}
	st, _ := reg.Job(doomed.ID)
	if st.State != JobFailed {
		t.Errorf("deleted job state %s, want failed", st.State)
	}
	if st.SlicesPending != 0 || st.SlicesLeased != 0 {
		t.Errorf("deleted job still schedulable: %+v", st)
	}

	// Nothing of the deleted job is re-queued: every further grant
	// belongs to the surviving job.
	for {
		reply, _, _ := reg.grantLease("prober")
		if reply == nil {
			break
		}
		if reply.Lease.Job == doomed.ID {
			t.Fatalf("deleted job's slice re-leased: %+v", reply.Lease)
		}
		if reply.Lease.Job != other.ID {
			t.Fatalf("unexpected job %s leased", reply.Lease.Job)
		}
	}

	// The zombie executor finishes its slice and uploads — refused.
	body := slicePartial(t, twoKindDoc, zombieLease)
	resp, err := http.Post(srv.URL+pathUpload+"?lease="+zombieLease.ID, "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var up uploadReply
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if up.Accepted {
		t.Error("zombie upload against a deleted job was accepted")
	}

	// Deleting a terminal job is refused (409 via ErrJobTerminal).
	if err := deleteJob(JobURL(srv.URL, doomed.ID), ""); err == nil {
		t.Error("second delete of a terminal job succeeded")
	}
}

// TestRegistryStatusMultiJob: /status carries one section per job —
// including a job that failed validation, whose Error explains why —
// and the per-job slice counts add up.
func TestRegistryStatusMultiJob(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{
		Dir:    t.TempDir(),
		Slices: 2,
		Log:    log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	good := postJobs(t, srv.URL, "", twoKindDoc)
	bad := postJobs(t, srv.URL, "", `{"scenarios": [{"name": "x", "kind": "no-such-kind"}]}`)
	if bad.State != JobFailed || bad.Error == "" {
		t.Fatalf("invalid spec submitted as %s (error %q), want a failed job with a diagnosis", bad.State, bad.Error)
	}

	st, err := FetchStatus(nil, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Jobs) != 2 {
		t.Fatalf("status has %d jobs, want 2", len(st.Jobs))
	}
	byID := make(map[string]JobStatus)
	for _, j := range st.Jobs {
		byID[j.ID] = j
	}
	g := byID[good.ID]
	if g.State != JobPending || g.SlicesPending == 0 {
		t.Errorf("good job status %+v, want pending with pending slices", g)
	}
	if total := g.SlicesPending + g.SlicesLeased + g.SlicesDone + g.SlicesCancelled; total > 2*len(g.Entries) {
		t.Errorf("slice counts %d exceed %d slices", total, 2*len(g.Entries))
	}
	bs := byID[bad.ID]
	if bs.State != JobFailed || bs.Error == "" {
		t.Errorf("failed job not reported in status: %+v", bs)
	}

	// The failed job never blocks draining.
	reply, _, _ := reg.grantLease("e")
	if reply == nil || reply.Lease == nil || reply.Lease.Job != good.ID {
		t.Fatalf("grant %+v, want the good job's lease", reply)
	}
}

// TestExecutorBackoffJitter pins the retry-hygiene contract: delays
// grow exponentially toward the cap, every delay is jittered within
// [d/2, d], and reset() restarts the ladder.
func TestExecutorBackoffJitter(t *testing.T) {
	b := newBackoff(100*time.Millisecond, 2*time.Second)
	var ds []time.Duration
	for i := 0; i < 8; i++ {
		ds = append(ds, b.next())
	}
	want := []time.Duration{100, 200, 400, 800, 1600, 2000, 2000, 2000}
	for i, d := range ds {
		hi := want[i] * time.Millisecond
		if d < hi/2 || d > hi {
			t.Errorf("delay %d = %s outside [%s, %s]", i, d, hi/2, hi)
		}
	}
	b.reset()
	if d := b.next(); d > 100*time.Millisecond {
		t.Errorf("after reset, delay %s exceeds the base", d)
	}
}

// TestExecutorContextCancellation: a cancelled context stops an
// executor that is backing off against an unreachable registry.
func TestExecutorContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunExecutor(ctx, ExecutorConfig{
			URL:  "http://127.0.0.1:1", // nothing listens here
			Name: "cancelled",
			Log:  log.New(io.Discard, "", 0),
		})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "context canceled") {
			t.Errorf("executor returned %v, want context cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("executor did not honor the cancelled context")
	}
}

// TestExecutorRejectedToken: an executor with a bad token fails fast
// instead of retrying a request that can never succeed.
func TestExecutorRejectedToken(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{
		Dir:     t.TempDir(),
		Tenants: []Tenant{{Name: "alice", Token: "tok-a"}},
		Log:     log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	start := time.Now()
	err = RunExecutor(context.Background(), ExecutorConfig{
		URL:   srv.URL,
		Name:  "imposter",
		Token: "wrong",
		Log:   log.New(io.Discard, "", 0),
	})
	if err == nil || !strings.Contains(err.Error(), "token") {
		t.Errorf("executor with bad token returned %v, want a token error", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("bad-token executor retried instead of failing fast")
	}
}

// fakeRegistry serves one spec body for every job and counts the
// fetches per job ID. GET /jobs/{id} answers with the state set for
// the job ("running" when none is set; "unknown" answers 404 and
// "broken" 500) and is counted too.
type fakeRegistry struct {
	body []byte

	mu         sync.Mutex
	states     map[string]string
	specGets   map[string]int
	statusGets int
}

func newFakeRegistry(t *testing.T, body []byte) (*fakeRegistry, *httptest.Server) {
	f := &fakeRegistry{body: body, states: map[string]string{}, specGets: map[string]int{}}
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	return f, srv
}

func (f *fakeRegistry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	job, isSpec := strings.CutSuffix(strings.TrimPrefix(req.URL.Path, pathJobs+"/"), "/spec")
	f.mu.Lock()
	defer f.mu.Unlock()
	if isSpec {
		f.specGets[job]++
		w.Write(f.body)
		return
	}
	f.statusGets++
	switch state := f.states[job]; state {
	case "unknown":
		http.Error(w, "no such job", http.StatusNotFound)
	case "broken":
		http.Error(w, "status unavailable", http.StatusInternalServerError)
	case "":
		writeJSON(w, JobStatus{ID: job, State: JobRunning})
	default:
		writeJSON(w, JobStatus{ID: job, State: state})
	}
}

func (f *fakeRegistry) setState(job, state string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.states[job] = state
}

func (f *fakeRegistry) fetches(job string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.specGets[job]
}

func (f *fakeRegistry) statuses() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.statusGets
}

// newTestExecutor returns an executor that talks to srv.
func newTestExecutor(srv *httptest.Server) *executor {
	return &executor{
		cfg:    ExecutorConfig{URL: srv.URL, Name: "test"},
		client: srv.Client(),
		log:    log.New(io.Discard, "", 0),
		specs:  make(map[string]*builtJob),
	}
}

// TestExecutorRefusesOversizedSpec: a spec longer than POST /jobs
// accepts fails the lease with a size error, even when its digest
// matches the lease.
func TestExecutorRefusesOversizedSpec(t *testing.T) {
	body := bytes.Repeat([]byte{' '}, maxSpecBytes+1)
	_, srv := newFakeRegistry(t, body)
	_, err := newTestExecutor(srv).builtFor(context.Background(), &Lease{Job: "big", SpecDigest: SpecDigest(body)})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized spec: got %v, want a size error", err)
	}
}

// TestExecutorSpecCacheSweep: the executor drops a cached spec only
// when the registry reports its job finished. A rotation over more
// live jobs than sweepBuiltJobs fetches each spec once; a sweep then
// drops the jobs reported done, failed or unknown, and keeps a job
// whose status request fails. A sweep that keeps every job waits for
// the cache to double before it asks again.
func TestExecutorSpecCacheSweep(t *testing.T) {
	doc := []byte(secondDoc)
	reg, srv := newFakeRegistry(t, doc)
	e := newTestExecutor(srv)
	lease := func(i int) {
		t.Helper()
		if _, err := e.builtFor(context.Background(), &Lease{Job: fmt.Sprint("job", i), SpecDigest: SpecDigest(doc)}); err != nil {
			t.Fatal(err)
		}
	}
	const live = sweepBuiltJobs + 1
	for round := 0; round < 3; round++ {
		for i := 0; i < live; i++ {
			lease(i)
		}
	}
	for i := 0; i < live; i++ {
		if got := reg.fetches(fmt.Sprint("job", i)); got != 1 {
			t.Fatalf("job%d: spec fetched %d times in a rotation over %d live jobs, want 1", i, got, live)
		}
	}
	if got := reg.statuses(); got != live {
		t.Errorf("%d status requests, want one sweep's %d", got, live)
	}

	for i, state := range []string{JobDone, JobFailed, "unknown", "broken"} {
		reg.setState(fmt.Sprint("job", i), state)
	}
	// The sweep over live jobs kept all of them, so the next one runs
	// once the cache holds more than twice as many.
	for i := live; i <= 2*live; i++ {
		lease(i)
	}
	for i, want := range map[int]bool{0: false, 1: false, 2: false, 3: true, 4: true, 2 * live: true} {
		if _, cached := e.specs[fmt.Sprint("job", i)]; cached != want {
			t.Errorf("job%d cached = %v after the sweep, want %v", i, cached, want)
		}
	}
	if e.kept != 2*live-2 {
		t.Errorf("sweep kept %d specs, want %d", e.kept, 2*live-2)
	}
	if got := reg.statuses(); got != live+2*live+1 {
		t.Errorf("%d status requests, want two sweeps' %d", got, live+2*live+1)
	}
}

// TestExecutorRotationFetchesEachSpecOnce: the registry leases
// round-robin over every runnable job, so one executor draining more
// jobs than sweepBuiltJobs meets each job again only after all the
// others; it must still fetch each job's spec once.
func TestExecutorRotationFetchesEachSpecOnce(t *testing.T) {
	const jobs = sweepBuiltJobs + 4
	reg, err := NewRegistry(RegistryConfig{Dir: t.TempDir(), Slices: 2, DrainAfter: jobs, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	fetches := map[string]int{}
	h := reg.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if job, ok := strings.CutSuffix(strings.TrimPrefix(req.URL.Path, pathJobs+"/"), "/spec"); ok {
			mu.Lock()
			fetches[job]++
			mu.Unlock()
		}
		h.ServeHTTP(w, req)
	}))
	defer srv.Close()
	var ids []string
	for i := 0; i < jobs; i++ {
		doc := strings.Replace(secondDoc, `"seed": 7`, fmt.Sprintf(`"seed": %d`, 100+i), 1)
		st, err := reg.Submit([]byte(doc), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	runExecutors(t, srv.URL, 1)
	waitDone(t, reg)
	mu.Lock()
	defer mu.Unlock()
	for i, id := range ids {
		if st, ok := reg.Job(id); !ok || st.State != JobDone || st.SlicesDone != 2 {
			t.Fatalf("job %d: status %+v, want done with 2 slices", i, st)
		}
		if fetches[id] != 1 {
			t.Errorf("job %d: spec fetched %d times, want 1", i, fetches[id])
		}
	}
}
