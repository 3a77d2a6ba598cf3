package fabric

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/spec"
)

// ExecutorConfig assembles one stateless executor.
type ExecutorConfig struct {
	// URL is the registry's base URL.
	URL string
	// Name identifies this executor in leases and registry logs.
	Name string
	// Token is the bearer token sent on every mutating request; leave
	// empty against an open registry.
	Token string
	// Workers is the per-slice goroutine count (0 = GOMAXPROCS).
	Workers int
	// UploadDelay sleeps between executing a slice and uploading it —
	// a fault-injection hook: a SIGKILL during the sleep leaves the
	// lease to expire and the slice to be stolen, which is what the
	// chaos test in CI arranges deterministically.
	UploadDelay time.Duration
	// Client issues the HTTP requests (nil = a client with sane
	// timeouts for everything but the upload itself).
	Client *http.Client
	// Log receives progress (nil = standard logger).
	Log *log.Logger
}

// A registry that has never answered gets startupGrace to come up
// before the executor gives up with an error; a registry that was
// reached at least once may then stay unreachable for drainTimeout
// before the executor drains and exits cleanly.
const (
	startupGrace = 30 * time.Second
	drainTimeout = 15 * time.Second
)

// errUnauthorized aborts the executor immediately: a rejected token
// will not start working on retry.
var errUnauthorized = errors.New("fabric: executor: registry rejected the bearer token")

// backoff produces capped, jittered exponential delays: each call
// returns a duration uniformly drawn from [d/2, d] where d doubles
// from base up to max. The jitter decorrelates a fleet of executors
// that all lost the registry at the same moment, so their retries do
// not arrive as synchronized waves.
type backoff struct {
	d, base, max time.Duration
	rng          *rand.Rand
}

func newBackoff(base, max time.Duration) *backoff {
	return &backoff{d: base, base: base, max: max, rng: rand.New(rand.NewSource(time.Now().UnixNano()))}
}

func (b *backoff) next() time.Duration {
	d := b.d
	b.d *= 2
	if b.d > b.max {
		b.d = b.max
	}
	return d/2 + time.Duration(b.rng.Int63n(int64(d/2)+1))
}

func (b *backoff) reset() { b.d = b.base }

// sleepCtx sleeps for d or until the context is cancelled; it reports
// whether the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// sweepBuiltJobs is how many compiled specs the executor caches
// before it first asks the registry which of their jobs have finished.
// The registry leases round-robin over every runnable job, so however
// many jobs are live, the cache must keep them all, or the rotation
// refetches their specs. A sweep therefore drops only the jobs the
// registry reports done, failed or unknown, and the next sweep waits
// until the cache holds more than twice what this one kept.
const sweepBuiltJobs = 16

// builtJob is one job's spec, fetched from the registry, compiled and
// cached until a sweep finds the job finished (job IDs are
// content-addressed, so a cache entry can never go stale).
type builtJob struct {
	file   *spec.File
	byName map[string]*spec.Built
}

// executor carries the per-run state of RunExecutor.
type executor struct {
	cfg    ExecutorConfig
	client *http.Client
	log    *log.Logger
	specs  map[string]*builtJob // job ID -> compiled spec
	kept   int                  // specs the last sweep left cached
}

// RunExecutor runs one job-agnostic executor against the registry at
// cfg.URL: lease a slice from whichever job the registry offers, fetch
// and cache that job's spec (verified against the lease's digest),
// execute the slice in memory, upload the serialized partial, renew
// the lease in the background while computing — and repeat across
// jobs until the registry reports it has drained. An executor never
// sleeps for want of work: the registry holds its lease request until
// a slice is grantable, and after a 204 (a full hold found nothing)
// it asks again at once. It returns nil on a clean drain — including
// the registry becoming unreachable after having been reached, which
// is how a fleet winds down when the registry exits — and an error on
// cancellation, a rejected token, or a registry that never answered.
// Connection and lease errors retry under capped jittered exponential
// backoff and honor ctx cancellation.
func RunExecutor(ctx context.Context, cfg ExecutorConfig) error {
	logger := cfg.Log
	if logger == nil {
		logger = log.Default()
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}
	if cfg.Name == "" {
		cfg.Name = "executor"
	}
	e := &executor{cfg: cfg, client: client, log: logger, specs: make(map[string]*builtJob)}

	retry := newBackoff(250*time.Millisecond, 5*time.Second) // connection or lease errors
	startDeadline := time.Now().Add(startupGrace)
	contacted := false
	var unreachableSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, done, err := e.requestLease(ctx)
		if err != nil {
			if errors.Is(err, errUnauthorized) {
				return err
			}
			if !contacted {
				// Startup race: the registry may still be coming up
				// (executors and registry start concurrently in CI and
				// under process supervisors).
				if time.Now().After(startDeadline) {
					return fmt.Errorf("fabric: executor %s: registry at %s not reachable: %w", cfg.Name, cfg.URL, err)
				}
			} else {
				if unreachableSince.IsZero() {
					unreachableSince = time.Now()
				}
				if time.Since(unreachableSince) > drainTimeout {
					logger.Printf("fabric: executor %s: registry unreachable for %s (%v); draining",
						cfg.Name, drainTimeout, err)
					return nil
				}
			}
			if !sleepCtx(ctx, retry.next()) {
				return ctx.Err()
			}
			continue
		}
		contacted = true
		unreachableSince = time.Time{}
		retry.reset()
		if done {
			logger.Printf("fabric: executor %s: registry drained; exiting", cfg.Name)
			return nil
		}
		if lease == nil {
			continue // 204: a full hold found nothing grantable
		}
		bj, err := e.builtFor(ctx, lease)
		if err == nil {
			err = e.runLease(ctx, bj, lease)
		}
		if err != nil {
			// A failed slice (bad lease, rejected upload) is the
			// registry's to reassign; log and keep pulling work.
			logger.Printf("fabric: executor %s: lease %s (job %s): %v", cfg.Name, lease.ID, lease.Job, err)
			if !sleepCtx(ctx, retry.next()) {
				return ctx.Err()
			}
		}
	}
}

// post issues an authenticated POST with the executor's token.
func (e *executor) post(ctx context.Context, url, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	setBearer(req, e.cfg.Token)
	return e.client.Do(req)
}

// requestLease asks the registry for work. A nil lease with done=false
// means the registry held the request and no slice became grantable.
func (e *executor) requestLease(ctx context.Context) (lease *Lease, done bool, err error) {
	body, _ := json.Marshal(leaseRequest{Executor: e.cfg.Name})
	resp, err := e.post(ctx, e.cfg.URL+pathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var reply leaseReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			return nil, false, err
		}
		return reply.Lease, reply.Done, nil
	case http.StatusNoContent:
		return nil, false, nil
	case http.StatusUnauthorized:
		return nil, false, errUnauthorized
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, false, fmt.Errorf("POST %s: %s: %s", pathLease, resp.Status, bytes.TrimSpace(msg))
	}
}

// builtFor returns the lease's compiled spec, fetching it from the
// registry on first encounter and verifying the bytes against the
// lease's digest — a mismatch means the registry swapped specs under a
// job ID, which content-addressed IDs make impossible short of a bug
// or an imposter, so it is an error, not a retry. A spec longer than
// POST /jobs accepts is refused; the read stops one byte past the cap.
func (e *executor) builtFor(ctx context.Context, lease *Lease) (*builtJob, error) {
	if bj, ok := e.specs[lease.Job]; ok {
		return bj, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.cfg.URL+pathJobs+"/"+lease.Job+"/spec", nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("GET spec for job %s: %s: %s", lease.Job, resp.Status, bytes.TrimSpace(msg))
	}
	specBytes, err := io.ReadAll(io.LimitReader(resp.Body, maxSpecBytes+1))
	if err != nil {
		return nil, err
	}
	if len(specBytes) > maxSpecBytes {
		return nil, fmt.Errorf("job %s spec exceeds %d bytes", lease.Job, maxSpecBytes)
	}
	if got := SpecDigest(specBytes); got != lease.SpecDigest {
		return nil, fmt.Errorf("job %s spec digest mismatch: lease says %s, bytes hash to %s", lease.Job, lease.SpecDigest, got)
	}
	f, err := spec.Parse(specBytes)
	if err != nil {
		return nil, fmt.Errorf("job %s spec does not parse: %w", lease.Job, err)
	}
	built, err := f.BuildAll()
	if err != nil {
		return nil, fmt.Errorf("job %s spec does not build: %w", lease.Job, err)
	}
	bj := &builtJob{file: f, byName: make(map[string]*spec.Built, len(built))}
	for _, b := range built {
		bj.byName[b.Entry.Name] = b
	}
	e.specs[lease.Job] = bj
	e.log.Printf("fabric: executor %s: built %d entries for job %s", e.cfg.Name, len(built), lease.Job)
	if len(e.specs) > max(sweepBuiltJobs, 2*e.kept) {
		e.sweep(ctx)
	}
	return bj, nil
}

// sweep drops the cached specs of the jobs the registry will lease no
// more. Between two sweeps the cache grows to more than twice what the
// first kept, so a sweep costs fewer than two status requests per job
// built since the previous one.
func (e *executor) sweep(ctx context.Context) {
	for id := range e.specs {
		if e.jobFinished(ctx, id) {
			delete(e.specs, id)
		}
	}
	e.kept = len(e.specs)
}

// jobFinished reports whether the registry says job id is done or
// failed, or does not know it. A request that fails reports false, so
// a registry that cannot answer never empties the cache.
func (e *executor) jobFinished(ctx context.Context, id string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.cfg.URL+pathJobs+"/"+id, nil)
	if err != nil {
		return false
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return true
	}
	var st struct {
		State string `json:"state"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return false
	}
	return st.State == JobDone || st.State == JobFailed
}

// runLease executes one leased slice and uploads the result.
func (e *executor) runLease(ctx context.Context, bj *builtJob, lease *Lease) error {
	b, ok := bj.byName[lease.Entry]
	if !ok {
		return fmt.Errorf("registry leased unknown entry %q — executor built a different spec", lease.Entry)
	}
	ecfg := b.EngineConfig(bj.file)
	plan, err := campaign.NewPlan(b.Scenario, lease.ShardSize, campaign.Partition{Index: lease.Index, Count: lease.Count})
	if err != nil {
		return err
	}
	plan.ParamsDigest = ecfg.ParamsDigest
	// The lease echoes the registry's plan; any disagreement means the
	// two sides built different campaigns from the "same" spec (version
	// skew, nondeterministic kind) and computing would waste the slice
	// on an upload the registry must reject.
	if plan.Scenario != lease.Scenario || plan.Trials != lease.Trials ||
		plan.NumShards != lease.NumShards || plan.ShardSize != lease.ShardSize {
		return fmt.Errorf("entry %q plans differently here (scenario %q, %d trials, %d shards of %d) than at the registry (%q, %d, %d, %d)",
			lease.Entry, plan.Scenario, plan.Trials, plan.NumShards, plan.ShardSize,
			lease.Scenario, lease.Trials, lease.NumShards, lease.ShardSize)
	}
	if lease.ParamsDigest != "" && plan.ParamsDigest != "" && plan.ParamsDigest != lease.ParamsDigest {
		return fmt.Errorf("entry %q params digest differs from the registry's — spec skew", lease.Entry)
	}

	// Renew the lease while the slice computes so slow slices are not
	// stolen out from under a live executor.
	renewCtx, stopRenew := context.WithCancel(ctx)
	defer stopRenew()
	renewEvery := time.Duration(lease.RenewMS) * time.Millisecond
	if renewEvery <= 0 {
		renewEvery = DefaultLeaseTimeout / 3
	}
	go func() {
		ticker := time.NewTicker(renewEvery)
		defer ticker.Stop()
		for {
			select {
			case <-renewCtx.Done():
				return
			case <-ticker.C:
				resp, err := e.post(renewCtx, e.cfg.URL+pathRenew+"?lease="+lease.ID, "application/json", nil)
				if err == nil {
					resp.Body.Close()
				}
			}
		}
	}()

	e.log.Printf("fabric: executor %s: executing job %s %s slice %d/%d (%d shards)",
		e.cfg.Name, lease.Job, lease.Entry, lease.Index, lease.Count, plan.Shards())
	partial, err := campaign.Execute(b.Scenario, plan, campaign.ExecConfig{Workers: e.cfg.Workers})
	if err != nil {
		return err
	}
	if e.cfg.UploadDelay > 0 {
		e.log.Printf("fabric: executor %s: delaying upload of lease %s by %s", e.cfg.Name, lease.ID, e.cfg.UploadDelay)
		if !sleepCtx(ctx, e.cfg.UploadDelay) {
			return ctx.Err()
		}
	}

	// Uploads travel gzip-compressed: the JSONL shard records are
	// highly repetitive (upwards of 10:1 on sample-heavy slices), the
	// registry stores the bytes verbatim, and OpenPartial sniffs the
	// gzip magic — so the compression is transparent end to end and a
	// mixed fleet of old and new executors still merges.
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := partial.WriteTo(gz); err != nil {
		return err
	}
	if err := gz.Close(); err != nil {
		return err
	}
	resp, err := e.post(ctx, e.cfg.URL+pathUpload+"?lease="+lease.ID, "application/gzip", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("upload rejected: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var reply uploadReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return err
	}
	if reply.Accepted {
		e.log.Printf("fabric: executor %s: uploaded job %s %s slice %d/%d", e.cfg.Name, lease.Job, lease.Entry, lease.Index, lease.Count)
	} else {
		// Normal under work stealing: someone else finished first.
		e.log.Printf("fabric: executor %s: upload for job %s %s slice %d/%d ignored (%s)",
			e.cfg.Name, lease.Job, lease.Entry, lease.Index, lease.Count, reply.Reason)
	}
	return nil
}
