package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
)

// missionDoc is one small memsim entry of four shards: one slice at
// Slices 1, two at Slices 2.
const missionDoc = `{"seed": 3, "shard_size": 64, "scenarios": [
  {"name": "mission", "kind": "memsim",
   "params": {"duplex": true, "lambda_bit_per_hour": 6e-4,
              "lambda_symbol_per_hour": 2e-4, "horizon_hours": 24,
              "trials": 200}}]}`

// newHoldRegistry serves a fresh, quiet registry built from cfg.
func newHoldRegistry(t *testing.T, cfg RegistryConfig) (*Registry, *httptest.Server) {
	t.Helper()
	cfg.Dir = t.TempDir()
	cfg.Log = log.New(io.Discard, "", 0)
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(reg.Handler())
	t.Cleanup(srv.Close)
	return reg, srv
}

// leaseOutcome is how one POST /lease ended, and when.
type leaseOutcome struct {
	status int
	reply  leaseReply
	err    error
	at     time.Time
}

// postLease sends one POST /lease and reports how it ended.
func postLease(ctx context.Context, url, token, executor string) leaseOutcome {
	body, _ := json.Marshal(leaseRequest{Executor: executor})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+pathLease, bytes.NewReader(body))
	if err != nil {
		return leaseOutcome{err: err, at: time.Now()}
	}
	setBearer(req, token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return leaseOutcome{err: err, at: time.Now()}
	}
	defer resp.Body.Close()
	o := leaseOutcome{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		o.err = json.NewDecoder(resp.Body).Decode(&o.reply)
	}
	o.at = time.Now()
	return o
}

// holdLease sends one POST /lease as executor in the background and
// returns once the registry has looked for work for it, so the request
// is held from then on (the caller arranges that nothing is grantable).
// The outcome arrives on the returned channel.
func holdLease(t *testing.T, ctx context.Context, reg *Registry, url, token, executor string) <-chan leaseOutcome {
	t.Helper()
	seen := reg.Status().Executors
	out := make(chan leaseOutcome, 1)
	go func() { out <- postLease(ctx, url, token, executor) }()
	deadline := time.Now().Add(leaseWait / 2)
	for reg.Status().Executors == seen {
		if time.Now().After(deadline) {
			t.Fatalf("lease request of %s never reached the registry", executor)
		}
		time.Sleep(time.Millisecond)
	}
	return out
}

// awaitLease waits for a held request's outcome.
func awaitLease(t *testing.T, held <-chan leaseOutcome) leaseOutcome {
	t.Helper()
	select {
	case o := <-held:
		return o
	case <-time.After(10 * leaseWait):
		t.Fatal("held lease request never answered")
		return leaseOutcome{}
	}
}

// wantLease fails unless o granted a lease less than half a hold after
// the event at since: a request woken only by its hold running out
// would be answered later.
func wantLease(t *testing.T, o leaseOutcome, since time.Time) *Lease {
	t.Helper()
	if o.err != nil || o.status != http.StatusOK || o.reply.Lease == nil {
		t.Fatalf("held request: status %d, reply %+v, err %v; want a lease", o.status, o.reply, o.err)
	}
	if d := o.at.Sub(since); d > leaseWait/2 {
		t.Errorf("lease granted %s after the event that made it grantable, want well inside the %s hold", d, leaseWait)
	}
	return o.reply.Lease
}

// slicePartial executes a lease's slice in process and serializes the
// partial an executor would upload for it.
func slicePartial(t *testing.T, doc string, l *Lease) []byte {
	t.Helper()
	f, built := buildSpec(t, doc)
	b := built[0]
	for _, bb := range built {
		if bb.Entry.Name == l.Entry {
			b = bb
		}
	}
	plan, err := campaign.NewPlan(b.Scenario, l.ShardSize, campaign.Partition{Index: l.Index, Count: l.Count})
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

// TestLeaseHoldWakesOnSubmit: a request held by an empty registry is
// granted the moment a job is submitted.
func TestLeaseHoldWakesOnSubmit(t *testing.T) {
	reg, srv := newHoldRegistry(t, RegistryConfig{Slices: 1})
	held := holdLease(t, context.Background(), reg, srv.URL, "", "waiter")
	submitted := time.Now()
	if _, err := reg.Submit([]byte(missionDoc), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if l := wantLease(t, awaitLease(t, held), submitted); l.Entry != "mission" {
		t.Errorf("granted entry %q, want mission", l.Entry)
	}
}

// TestLeaseHoldStealsAtDeadline: a request held while the only slice
// is leased to an executor that never renews steals it at the lease's
// deadline, within the same request.
func TestLeaseHoldStealsAtDeadline(t *testing.T) {
	const timeout = 150 * time.Millisecond
	reg, srv := newHoldRegistry(t, RegistryConfig{Slices: 1, LeaseTimeout: timeout})
	if _, err := reg.Submit([]byte(missionDoc), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	before := time.Now()
	doomed, _, _ := reg.grantLease("doomed")
	if doomed == nil || doomed.Lease == nil {
		t.Fatalf("first grant %+v, want a lease", doomed)
	}
	deadline := before.Add(timeout)

	o := awaitLease(t, holdLease(t, context.Background(), reg, srv.URL, "", "thief"))
	l := wantLease(t, o, deadline)
	if o.at.Before(deadline) {
		t.Errorf("slice stolen %s before its lease deadline", deadline.Sub(o.at))
	}
	if l.Index != doomed.Lease.Index || l.ID == doomed.Lease.ID {
		t.Errorf("thief got lease %s of slice %d, want a fresh lease of slice %d", l.ID, l.Index, doomed.Lease.Index)
	}
	if st := reg.Status(); st.Steals != 1 {
		t.Errorf("status counts %d steals, want 1", st.Steals)
	}
}

// TestLeaseHoldDrained: a held request gets the drained reply as soon
// as the registry drains.
func TestLeaseHoldDrained(t *testing.T) {
	reg, srv := newHoldRegistry(t, RegistryConfig{Slices: 1, DrainAfter: 1})
	st, err := reg.Submit([]byte(missionDoc), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if reply, _, _ := reg.grantLease("busy"); reply == nil || reply.Lease == nil {
		t.Fatalf("first grant %+v, want a lease", reply)
	}
	held := holdLease(t, context.Background(), reg, srv.URL, "", "waiter")
	deleted := time.Now()
	if err := reg.Delete(st.ID, ""); err != nil {
		t.Fatal(err)
	}
	o := awaitLease(t, held)
	if o.err != nil || o.status != http.StatusOK || !o.reply.Done {
		t.Fatalf("held request: status %d, reply %+v, err %v; want the drained reply", o.status, o.reply, o.err)
	}
	if d := o.at.Sub(deleted); d > leaseWait/2 {
		t.Errorf("drained reply %s after the drain, want well inside the %s hold", d, leaseWait)
	}
}

// TestLeaseHoldClientCancel: a client that gives up on a held request
// frees its handler at once, so closing the server does not wait out
// the hold.
func TestLeaseHoldClientCancel(t *testing.T) {
	reg, srv := newHoldRegistry(t, RegistryConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	held := holdLease(t, ctx, reg, srv.URL, "", "quitter")
	cancel()
	if o := awaitLease(t, held); !errors.Is(o.err, context.Canceled) {
		t.Fatalf("held request ended with status %d, err %v; want the client's cancellation", o.status, o.err)
	}
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > leaseWait/2 {
		t.Errorf("server Close took %s after the client cancelled: the handler kept holding", d)
	}
}

// TestLeaseHoldWakesOnRejectedUpload: a rejected upload re-queues its
// slice, and a held request gets it at once.
func TestLeaseHoldWakesOnRejectedUpload(t *testing.T) {
	reg, srv := newHoldRegistry(t, RegistryConfig{Slices: 1})
	if _, err := reg.Submit([]byte(missionDoc), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	first, _, _ := reg.grantLease("shipper")
	if first == nil || first.Lease == nil {
		t.Fatalf("first grant %+v, want a lease", first)
	}
	held := holdLease(t, context.Background(), reg, srv.URL, "", "waiter")
	rejected := time.Now()
	resp, err := http.Post(srv.URL+pathUpload+"?lease="+first.Lease.ID, "application/jsonl", strings.NewReader("not a partial\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("garbage upload: status %d, want %d", resp.StatusCode, http.StatusConflict)
	}
	if l := wantLease(t, awaitLease(t, held), rejected); l.Index != first.Lease.Index {
		t.Errorf("waiter got slice %d, want the re-queued slice %d", l.Index, first.Lease.Index)
	}
}

// TestLeaseHoldWakesOnFreedQuota: a request held because its only
// tenant is at quota is granted as soon as an accepted upload frees
// the tenant's lease.
func TestLeaseHoldWakesOnFreedQuota(t *testing.T) {
	reg, srv := newHoldRegistry(t, RegistryConfig{
		Slices:  2,
		Tenants: []Tenant{{Name: "alice", Token: "tok-a", MaxLeases: 1}},
	})
	if _, err := reg.Submit([]byte(missionDoc), SubmitOptions{Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	first, _, _ := reg.grantLease("worker")
	if first == nil || first.Lease == nil {
		t.Fatalf("first grant %+v, want a lease", first)
	}
	body := slicePartial(t, missionDoc, first.Lease)

	held := holdLease(t, context.Background(), reg, srv.URL, "tok-a", "waiter")
	req, _ := http.NewRequest(http.MethodPost, srv.URL+pathUpload+"?lease="+first.Lease.ID, bytes.NewReader(body))
	setBearer(req, "tok-a")
	uploaded := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var up uploadReply
	err = json.NewDecoder(resp.Body).Decode(&up)
	resp.Body.Close()
	if err != nil || !up.Accepted {
		t.Fatalf("upload: accepted %t (%s), err %v", up.Accepted, up.Reason, err)
	}
	if l := wantLease(t, awaitLease(t, held), uploaded); l.Index == first.Lease.Index {
		t.Errorf("waiter got the uploaded slice %d again", l.Index)
	}
}

// TestLeaseHoldIdleExecutorAsksOnce: an executor facing an empty
// registry sends one lease request and waits on it, instead of polling.
func TestLeaseHoldIdleExecutorAsksOnce(t *testing.T) {
	reg, err := NewRegistry(RegistryConfig{Dir: t.TempDir(), Log: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int32
	h := reg.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == pathLease {
			requests.Add(1)
		}
		h.ServeHTTP(w, req)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunExecutor(ctx, ExecutorConfig{URL: srv.URL, Name: "idle", Log: log.New(io.Discard, "", 0)})
	}()
	deadline := time.Now().Add(leaseWait / 2)
	for requests.Load() == 0 {
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("executor sent no lease request")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(leaseWait / 2)
	if n := requests.Load(); n != 1 {
		t.Errorf("idle executor sent %d lease requests within %s, want 1", n, leaseWait/2)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("executor returned %v, want context cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("executor did not honor the cancelled context")
	}
}
