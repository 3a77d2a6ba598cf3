package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/spec"
)

// twoKindDoc exercises two scenario kinds, one of them sample-heavy
// (bercurve), sized to finish in seconds under -race.
const twoKindDoc = `{
  "seed": 3,
  "shard_size": 64,
  "scenarios": [
    {"name": "mission", "kind": "memsim",
     "params": {"duplex": true, "lambda_bit_per_hour": 6e-4,
                "lambda_symbol_per_hour": 2e-4, "scrub_period_hours": 4,
                "horizon_hours": 24, "trials": 400}},
    {"name": "mbu", "kind": "mbusim",
     "params": {"events_per_kilobit": 4, "burst_bits": 6, "trials": 400}}
  ]
}`

// matrixDoc expands into two interleave cells whose artifact paths
// carry a directory component ("page-sweep/depth=N").
const matrixDoc = `{
  "seed": 21, "shard_size": 64, "scenarios": [{
    "name": "page-sweep", "kind": "interleave",
    "params": {"burst_per_kilobit_hour": 0.5, "burst_bits": 9,
               "horizon_hours": 24, "trials": 200},
    "matrix": {"depth": [2, 4]}
  }]
}`

// stopperDoc early-stops well before its requested trial count.
const stopperDoc = `{"seed": 5, "shard_size": 128, "scenarios": [{
  "name": "stopper", "kind": "memsim",
  "params": {"duplex": false, "lambda_bit_per_hour": 6e-4,
             "lambda_symbol_per_hour": 2e-4, "horizon_hours": 24,
             "trials": 20000},
  "stop": {"counter": "capability_exceeded", "rel_half_width": 0.05,
           "min_trials": 200}
}]}`

// buildSpec parses and compiles a spec document.
func buildSpec(t *testing.T, doc string) (*spec.File, []*spec.Built) {
	t.Helper()
	f, err := spec.Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	built, err := f.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	return f, built
}

// singleProcess computes every entry's result the way a plain
// single-process run would — the byte-identity reference.
func singleProcess(t *testing.T, f *spec.File, built []*spec.Built) map[string]*campaign.Result {
	t.Helper()
	want := make(map[string]*campaign.Result, len(built))
	for _, b := range built {
		res, err := campaign.Run(b.Scenario, b.EngineConfig(f))
		if err != nil {
			t.Fatalf("%s: %v", b.Entry.Name, err)
		}
		want[b.Entry.Name] = res
	}
	return want
}

// startRegistry builds a registry that drains after one job, submits
// doc as that job and serves it. It returns the job's namespace
// directory — where validated uploads land; the registry's Done closes
// once the job's server-side merge finished.
func startRegistry(t *testing.T, doc string, slices int, leaseTimeout time.Duration, logBuf io.Writer) (*Registry, *httptest.Server, *spec.File, []*spec.Built, string) {
	t.Helper()
	f, built := buildSpec(t, doc)
	if logBuf == nil {
		logBuf = io.Discard
	}
	reg, err := NewRegistry(RegistryConfig{
		Dir:          t.TempDir(),
		Slices:       slices,
		LeaseTimeout: leaseTimeout,
		DrainAfter:   1,
		Log:          log.New(logBuf, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := reg.Submit([]byte(doc), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.State == JobFailed {
		t.Fatalf("job failed validation: %s", st.Error)
	}
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	return reg, srv, f, built, st.Dir
}

// runExecutors runs n executors against the registry and waits for
// all of them to drain.
func runExecutors(t *testing.T, url string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = RunExecutor(context.Background(), ExecutorConfig{
				URL:  url,
				Name: fmt.Sprintf("exec-%d", i),
				Log:  log.New(io.Discard, "", 0),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("executor %d: %v", i, err)
		}
	}
}

// waitDone fails the test if the registry does not drain in time.
func waitDone(t *testing.T, r *Registry) {
	t.Helper()
	select {
	case <-r.Done():
	case <-time.After(2 * time.Minute):
		st, _ := json.Marshal(r.Status())
		t.Fatalf("campaign did not complete; status: %s", st)
	}
}

// mergeAll folds the job directory into per-entry results.
func mergeAll(t *testing.T, dir string, f *spec.File, built []*spec.Built) map[string]*campaign.Result {
	t.Helper()
	got := make(map[string]*campaign.Result, len(built))
	for _, b := range built {
		res, err := b.MergePartials(f, dir, nil)
		if err != nil {
			t.Fatalf("%s: merge: %v", b.Entry.Name, err)
		}
		got[b.Entry.Name] = res
	}
	return got
}

// TestFabricMatchesSingleProcess is the fabric's law: a registry plus
// three concurrent executors produce partials whose merge is
// bit-identical to the single-process run, for every entry.
func TestFabricMatchesSingleProcess(t *testing.T) {
	r, srv, f, built, dir := startRegistry(t, twoKindDoc, 4, time.Minute, nil)
	want := singleProcess(t, f, built)
	runExecutors(t, srv.URL, 3)
	waitDone(t, r)
	got := mergeAll(t, dir, f, built)
	for name, w := range want {
		if !reflect.DeepEqual(w, got[name]) {
			t.Errorf("%s: fabric merge diverged:\nwant %+v\ngot  %+v", name, w, got[name])
		}
	}
	st := r.Status()
	if !st.Done {
		t.Error("status not done after completion")
	}
	if st.Uploads == 0 {
		t.Error("status reports zero accepted uploads")
	}
	if len(st.Jobs) != 1 || st.Jobs[0].State != JobDone {
		t.Errorf("job status %+v, want one done job", st.Jobs)
	}
}

// TestFabricMatrixCellsUploadIntoSubdir: matrix-cell entries have
// artifact paths with a directory component, so their uploads land in
// a subdirectory of the job namespace that only exists once the
// registry creates it at upload time — a plain rename into it fails.
func TestFabricMatrixCellsUploadIntoSubdir(t *testing.T) {
	r, srv, f, built, dir := startRegistry(t, matrixDoc, 2, time.Minute, nil)
	want := singleProcess(t, f, built)
	runExecutors(t, srv.URL, 2)
	waitDone(t, r)
	got := mergeAll(t, dir, f, built)
	for name, w := range want {
		if !reflect.DeepEqual(w, got[name]) {
			t.Errorf("%s: fabric merge diverged:\nwant %+v\ngot  %+v", name, w, got[name])
		}
	}
	parts, err := filepath.Glob(filepath.Join(dir, "page-sweep", "*.part*"))
	if err != nil || len(parts) == 0 {
		t.Fatalf("no partials under the matrix-cell subdirectory (%v)", err)
	}
}

// TestFabricStealsFromDeadExecutor kills nothing: it simulates a dead
// executor by taking a lease and abandoning it, then lets a live
// executor steal the expired lease and finish the campaign — the
// in-process version of the CI chaos job, race-detector friendly.
func TestFabricStealsFromDeadExecutor(t *testing.T) {
	var logBuf syncBuffer
	r, srv, f, built, dir := startRegistry(t, twoKindDoc, 4, 500*time.Millisecond, &logBuf)
	want := singleProcess(t, f, built)

	// The "dead" executor leases a slice and vanishes without renewing.
	body, _ := json.Marshal(leaseRequest{Executor: "doomed"})
	resp, err := http.Post(srv.URL+pathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var reply leaseReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if reply.Lease == nil {
		t.Fatal("no lease granted to the doomed executor")
	}

	runExecutors(t, srv.URL, 1)
	waitDone(t, r)

	if st := r.Status(); st.Steals == 0 {
		t.Error("status reports no steals despite an abandoned lease")
	}
	if !strings.Contains(logBuf.String(), "stolen") {
		t.Error("registry log does not mention the stolen lease")
	}
	got := mergeAll(t, dir, f, built)
	for name, w := range want {
		if !reflect.DeepEqual(w, got[name]) {
			t.Errorf("%s: merge after steal diverged:\nwant %+v\ngot  %+v", name, w, got[name])
		}
	}

	// A zombie upload under the stolen lease is ignored, not merged:
	// the slice is already done under the thief's lease.
	body = slicePartial(t, twoKindDoc, reply.Lease)
	resp, err = http.Post(srv.URL+pathUpload+"?lease="+reply.Lease.ID, "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var up uploadReply
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if up.Accepted {
		t.Error("zombie upload under a stolen lease was accepted")
	}
}

// TestFabricEarlyStopCancelsSlices: with a single executor pulling
// slices in order, the registry decides the stop as soon as the
// covering slice uploads and cancels everything beyond it — the
// cancelled slices are never executed, and the merge still lands on
// the single-process result bit for bit.
func TestFabricEarlyStopCancelsSlices(t *testing.T) {
	r, srv, f, built, dir := startRegistry(t, stopperDoc, 8, time.Minute, nil)
	want := singleProcess(t, f, built)
	if !want["stopper"].EarlyStopped {
		t.Fatal("reference run did not stop early; the fixture is mis-sized")
	}

	runExecutors(t, srv.URL, 1)
	waitDone(t, r)

	st := r.Status()
	entry := st.Jobs[0].Entries[0]
	if !entry.EarlyStopped {
		t.Error("status does not report the early stop")
	}
	cancelled := 0
	for _, s := range entry.Slices {
		if s.State == sliceCancelled {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no slices cancelled despite the early stop")
	}
	if st.Jobs[0].SlicesCancelled != cancelled {
		t.Errorf("job-level cancelled count %d disagrees with slices (%d)", st.Jobs[0].SlicesCancelled, cancelled)
	}
	got := mergeAll(t, dir, f, built)
	if !reflect.DeepEqual(want["stopper"], got["stopper"]) {
		t.Errorf("early-stopped fabric merge diverged:\nwant %+v\ngot  %+v", want["stopper"], got["stopper"])
	}
}

// seuStopDoc stops on memsim's seus, which counts every upset and so
// exceeds one event per trial: no stop rule can use it.
const seuStopDoc = `{"seed": 5, "shard_size": 64, "scenarios": [{
  "name": "seu-stop", "kind": "memsim",
  "params": {"duplex": false, "lambda_bit_per_hour": 2e-3,
             "lambda_symbol_per_hour": 0, "horizon_hours": 24,
             "trials": 1024},
  "stop": {"counter": "seus", "rel_half_width": 0.05, "min_trials": 64}
}]}`

// TestFabricNonBinomialStopFailsJob: a stop counter that counts more
// than once per trial fails the job at the shard where the
// single-process run refuses it, with the same message, and the slices
// not yet run are cancelled instead of computed for a doomed merge.
func TestFabricNonBinomialStopFailsJob(t *testing.T) {
	r, srv, f, built, _ := startRegistry(t, seuStopDoc, 4, time.Minute, nil)
	_, runErr := campaign.Run(built[0].Scenario, built[0].EngineConfig(f))
	if runErr == nil || !strings.Contains(runErr.Error(), "not per-trial") {
		t.Fatalf("single-process run: err = %v, want the not-per-trial refusal", runErr)
	}

	runExecutors(t, srv.URL, 1)
	waitDone(t, r)

	job := r.Status().Jobs[0]
	if job.State != JobFailed || job.Error != runErr.Error() {
		t.Errorf("job %s with error %q, want failed with %q", job.State, job.Error, runErr.Error())
	}
	if job.SlicesPending != 0 || job.SlicesLeased != 0 || job.SlicesCancelled == 0 {
		t.Errorf("slices after the failure: %d pending, %d leased, %d cancelled; want the rest cancelled",
			job.SlicesPending, job.SlicesLeased, job.SlicesCancelled)
	}
}

// TestFabricRejectsBadUploads: garbage, wrong-slice and truncated
// bodies are all rejected with 409 and the slice is re-queued; a
// correct retry then completes it.
func TestFabricRejectsBadUploads(t *testing.T) {
	doc := `{"seed": 3, "shard_size": 64, "scenarios": [
	  {"name": "mission", "kind": "memsim",
	   "params": {"duplex": true, "lambda_bit_per_hour": 6e-4,
	              "lambda_symbol_per_hour": 2e-4, "horizon_hours": 24,
	              "trials": 200}}]}`
	r, srv, f, built, _ := startRegistry(t, doc, 2, time.Minute, nil)
	b := built[0]

	lease := func() *Lease {
		body, _ := json.Marshal(leaseRequest{Executor: "tester"})
		resp, err := http.Post(srv.URL+pathLease, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply leaseReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		if reply.Lease == nil {
			t.Fatal("no lease granted")
		}
		return reply.Lease
	}
	upload := func(id string, body []byte) *http.Response {
		resp, err := http.Post(srv.URL+pathUpload+"?lease="+id, "application/jsonl", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	serialize := func(part campaign.Partition) []byte {
		plan, err := campaign.NewPlan(b.Scenario, 64, part)
		if err != nil {
			t.Fatal(err)
		}
		plan.ParamsDigest = b.EngineConfig(f).ParamsDigest
		partial, err := campaign.Execute(b.Scenario, plan, campaign.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := partial.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	l := lease()
	if resp := upload(l.ID, []byte("not a partial\n")); resp.StatusCode != http.StatusConflict {
		t.Errorf("garbage upload: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	l = lease() // the reject re-queued the slice
	otherIdx := 1 - l.Index
	if resp := upload(l.ID, serialize(campaign.Partition{Index: otherIdx, Count: l.Count})); resp.StatusCode != http.StatusConflict {
		t.Errorf("wrong-slice upload: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	l = lease()
	good := serialize(campaign.Partition{Index: l.Index, Count: l.Count})
	lines := bytes.SplitAfter(good, []byte("\n"))
	truncated := bytes.Join(lines[:len(lines)-2], nil)
	if resp := upload(l.ID, truncated); resp.StatusCode != http.StatusConflict {
		t.Errorf("truncated upload: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	if st := r.Status(); st.Rejected != 3 {
		t.Errorf("status counts %d rejected uploads, want 3", st.Rejected)
	}

	l = lease()
	resp := upload(l.ID, serialize(campaign.Partition{Index: l.Index, Count: l.Count}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid retry: status %d", resp.StatusCode)
	}
	var up uploadReply
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if !up.Accepted {
		t.Errorf("valid retry not accepted: %s", up.Reason)
	}
}

// TestFabricAdoptsExistingPartials: a registry restarted over a
// directory of completed uploads resumes done instead of recomputing.
func TestFabricAdoptsExistingPartials(t *testing.T) {
	var logBuf syncBuffer
	r, srv, _, _, _ := startRegistry(t, twoKindDoc, 2, time.Minute, &logBuf)
	runExecutors(t, srv.URL, 2)
	waitDone(t, r)

	r2, err := NewRegistry(RegistryConfig{
		Dir:        r.Dir(),
		Slices:     2,
		DrainAfter: 1,
		Log:        log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := r2.Submit([]byte(twoKindDoc), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Every slice adopted: the job goes straight to its server-side
	// merge without granting a single lease.
	if st2.State != JobMerging && st2.State != JobDone {
		t.Fatalf("restarted registry did not adopt the completed partials: job %s (%s)", st2.State, st2.Error)
	}
	waitDone(t, r2)
	if st, _ := r2.Job(st2.ID); st.State != JobDone {
		t.Fatalf("adopted job %s after its merge (%s), want done", st.State, st.Error)
	}
	adopted := 0
	full, _ := r2.Job(st2.ID)
	for _, e := range full.Entries {
		for _, s := range e.Slices {
			if s.Adopted {
				adopted++
			}
		}
	}
	if adopted == 0 {
		t.Error("no slice marked adopted after restart")
	}

	// A different slicing must refuse the leftover partials loudly — as
	// a failed job carrying the diagnosis.
	r3, err := NewRegistry(RegistryConfig{
		Dir:    r.Dir(),
		Slices: 3,
		Log:    log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	st3, err := r3.Submit([]byte(twoKindDoc), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st3.State != JobFailed || !strings.Contains(st3.Error, "leftover partial") {
		t.Errorf("mismatched -slices job: state %s error %q, want failed on leftover partials", st3.State, st3.Error)
	}
}

// TestFabricEmptySlices: more slices than shards leaves some slices
// empty; they are never leased and the campaign still completes.
func TestFabricEmptySlices(t *testing.T) {
	doc := `{"seed": 3, "shard_size": 64, "scenarios": [
	  {"name": "tiny", "kind": "memsim",
	   "params": {"duplex": true, "lambda_bit_per_hour": 6e-4,
	              "lambda_symbol_per_hour": 2e-4, "horizon_hours": 24,
	              "trials": 100}}]}`
	r, srv, f, built, dir := startRegistry(t, doc, 8, time.Minute, nil)
	want := singleProcess(t, f, built)
	runExecutors(t, srv.URL, 2)
	waitDone(t, r)
	got := mergeAll(t, dir, f, built)
	if !reflect.DeepEqual(want["tiny"], got["tiny"]) {
		t.Errorf("empty-slice merge diverged:\nwant %+v\ngot  %+v", want["tiny"], got["tiny"])
	}
	empty := 0
	for _, s := range r.Status().Jobs[0].Entries[0].Slices {
		if s.State == sliceEmpty {
			empty++
		}
	}
	if empty == 0 {
		t.Error("expected empty slices with 8 slices over 2 shards")
	}
}

// TestNamespace pins the per-spec directory scheme: stable for equal
// bytes, distinct for different bytes.
func TestNamespace(t *testing.T) {
	a := Namespace("work", []byte("spec-a"))
	if a != Namespace("work", []byte("spec-a")) {
		t.Error("namespace not stable for identical bytes")
	}
	if a == Namespace("work", []byte("spec-b")) {
		t.Error("distinct specs share a namespace")
	}
	if !strings.HasPrefix(a, "work") {
		t.Errorf("namespace %q escapes the base directory", a)
	}
}

// TestUploadTempFilesInvisible: a crashed upload's temp file must not
// be picked up by the partial-file scan (its name has no .part).
func TestUploadTempFilesInvisible(t *testing.T) {
	r, srv, f, built, dir := startRegistry(t, twoKindDoc, 2, time.Minute, nil)
	if err := os.WriteFile(dir+"/upload-stale.tmp", []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	runExecutors(t, srv.URL, 1)
	waitDone(t, r)
	got := mergeAll(t, dir, f, built)
	want := singleProcess(t, f, built)
	for name, w := range want {
		if !reflect.DeepEqual(w, got[name]) {
			t.Errorf("%s: merge diverged with a stale temp file present", name)
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for registry logs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
