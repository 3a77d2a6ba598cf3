// Package fabric distributes campaign specs across machines as a
// multi-tenant job service: a registry holds any number of submitted
// jobs (one spec each), serves every job's deterministic slice plan
// over HTTP to one shared fleet of stateless executors, and folds the
// uploaded partials back into per-job result trees.
//
// # Jobs
//
// A job is one spec file submitted to the registry (POST /jobs). The
// registry parses and compiles it, plans each entry's shard range into
// Slices contiguous partitions (the same campaign.Partition geometry
// the -partition flag uses, so the merged result is bit-identical to a
// single-process run by the engine's determinism law), and gives the
// job a stable identity: the sha256 digest of the spec bytes.
// Submitting the same bytes twice is therefore idempotent — the second
// submission returns the existing job. Each job's artifacts live in
// their own per-spec namespace directory (Namespace), so concurrent
// jobs never collide on disk. A spec that fails to parse, build or
// plan is recorded as a failed job (visible in /status and /jobs)
// rather than vanishing.
//
// Jobs move through pending -> running -> merging -> done, or land in
// failed (validation error, merge error, expectation violation, or
// operator DELETE). Once a job's last slice arrives the registry
// merges it server-side — spec.Built.MergePartials plus the shared
// artifact writer — into <namespace>/results, byte-identical to what
// an unpartitioned run of the same spec would write.
//
// # Scheduling
//
// The protocol is lease-based pull scheduling. An executor that asks
// for work (POST /lease) receives a lease — job ID, spec digest, entry
// name, partition index/count, geometry fingerprint, params digest,
// deadline — from ANY runnable job: the registry rotates a fair-share
// cursor over its jobs so one tenant's giant campaign cannot starve
// another's. Per-tenant quotas cap the number of concurrently leased
// slices belonging to one tenant's jobs; a tenant at quota simply
// stops being offered. When nothing is grantable the registry holds
// the lease request instead of refusing it, and answers it the moment
// work may have appeared: a job is submitted, a rejected upload's
// slice is re-queued, an accepted upload frees its tenant's quota, a
// job finishes, fails or is deleted (which also delivers the drained
// reply), or a live lease reaches its deadline. Only a request that
// found nothing grantable for a full second gets 204 No Content, and
// the executor asks again at once, so an idle fleet sends one request
// per executor per second and picks up a new job without delay. A
// lease that misses its deadline (executor crashed, hung, or was
// SIGKILLed) is stolen: the next executor asking for work, or one
// already held, receives the same slice under a fresh lease. Because
// slices are pure functions of the global trial index, duplicate
// executions are byte-identical and the registry simply ignores a
// second upload of a completed slice.
//
// Executors are job-agnostic: the lease names the job and the spec
// digest, the executor fetches GET /jobs/{id}/spec (cached per job,
// verified against the digest), builds it locally, verifies its
// independently derived plan against the lease, executes the slice in
// memory and uploads the serialized partial gzip-compressed. One
// executor drains work from every job the registry holds until the
// registry reports no more work will come.
//
// Uploads are validated before acceptance: the partial's header must
// match the slice's plan exactly (scenario, trials, shard size,
// partition, params digest) and must cover every shard of the slice —
// a stale, foreign or truncated upload is rejected with a 409 and the
// slice is immediately re-queued. Between arrivals the registry feeds
// each entry's contiguous shard prefix to a campaign.PrefixFold, the
// same stop decision campaign.Merge makes, cancelling every slice
// strictly beyond the stopping shard; a stop counter the fold refuses
// fails the job and cancels its remaining slices.
//
// # Auth
//
// When the registry is configured with tenants, every mutating
// endpoint (POST /jobs, DELETE /jobs/{id}, POST /lease, /renew,
// /upload) requires "Authorization: Bearer <token>"; the token
// identifies the tenant, which owns the jobs it submits and is the
// unit of quota accounting. Without tenants the registry is open (the
// single-operator workflow).
//
// Endpoints: POST /jobs (submit spec bytes, returns the job), GET
// /jobs (list), GET /jobs/{id} (one job), DELETE /jobs/{id} (cancel),
// GET /jobs/{id}/spec (raw spec bytes), POST /lease, POST /renew,
// POST /upload, GET /status (per-job, per-slice state — what
// cmd/campaign -status renders).
package fabric

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"time"
)

// Default registry tuning. A one-minute lease is generous for CI-scale
// slices while keeping dead-executor recovery prompt; real deployments
// size it to their slowest slice plus renewal headroom (executors
// renew at a third of the timeout, so a live slice is never stolen
// while its renewals get through).
const (
	DefaultSlices       = 8
	DefaultLeaseTimeout = time.Minute
)

// HTTP endpoint paths, shared by registry and clients.
const (
	pathJobs   = "/jobs"
	pathLease  = "/lease"
	pathRenew  = "/renew"
	pathUpload = "/upload"
	pathStatus = "/status"
)

// Job states.
const (
	JobPending = "pending" // submitted, no slice leased yet
	JobRunning = "running" // at least one slice leased or done
	JobMerging = "merging" // all slices in; server-side merge running
	JobDone    = "done"    // merged, artifacts written, expectations pass
	JobFailed  = "failed"  // validation, merge or expectation failure, or deleted
)

// Namespace returns the per-spec artifact directory under base: a
// subdirectory keyed by the spec bytes' digest. Two different specs
// (or two revisions of one spec) therefore share a work directory
// without their partials ever colliding — which is what lets one
// registry serve concurrent multi-tenant jobs.
func Namespace(base string, specBytes []byte) string {
	sum := sha256.Sum256(specBytes)
	return filepath.Join(base, "spec-"+hex.EncodeToString(sum[:6]))
}

// JobID derives the job identity from the spec bytes: "j-" plus a
// digest prefix. Submissions are idempotent by construction — the same
// bytes always name the same job.
func JobID(specBytes []byte) string {
	sum := sha256.Sum256(specBytes)
	return "j-" + hex.EncodeToString(sum[:6])
}

// SpecDigest is the full content digest of the spec bytes, echoed in
// leases so executors verify the spec they cached is the spec the
// registry planned.
func SpecDigest(specBytes []byte) string {
	sum := sha256.Sum256(specBytes)
	return hex.EncodeToString(sum[:])
}

// FetchStatus retrieves a registry's status snapshot — what
// cmd/campaign -status renders. A nil client uses a short-timeout
// default (status polls should fail fast, not hang a dashboard).
func FetchStatus(client *http.Client, base string) (*Status, error) {
	client = statusClient(client)
	resp, err := client.Get(base + pathStatus)
	if err != nil {
		return nil, fmt.Errorf("fabric: status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fabric: status: %s", resp.Status)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("fabric: status: %w", err)
	}
	return &st, nil
}

// SubmitJob submits spec bytes to the registry at base and returns the
// accepted (or immediately failed — check State) job. Idempotent:
// resubmitting the same bytes returns the existing job.
func SubmitJob(client *http.Client, base, token string, specBytes []byte) (*JobStatus, error) {
	client = statusClient(client)
	req, err := http.NewRequest(http.MethodPost, base+pathJobs, bytes.NewReader(specBytes))
	if err != nil {
		return nil, fmt.Errorf("fabric: submit: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	setBearer(req, token)
	var job JobStatus
	if err := doJSON(client, req, &job); err != nil {
		return nil, fmt.Errorf("fabric: submit: %w", err)
	}
	return &job, nil
}

// ListJobs lists every job the registry at base holds, in submission
// order.
func ListJobs(client *http.Client, base string) ([]JobStatus, error) {
	client = statusClient(client)
	req, err := http.NewRequest(http.MethodGet, base+pathJobs, nil)
	if err != nil {
		return nil, fmt.Errorf("fabric: jobs: %w", err)
	}
	var jobs []JobStatus
	if err := doJSON(client, req, &jobs); err != nil {
		return nil, fmt.Errorf("fabric: jobs: %w", err)
	}
	return jobs, nil
}

// GetJob fetches one job by its full URL (<base>/jobs/<id>), the URL
// -submit prints and -watch polls.
func GetJob(client *http.Client, jobURL string) (*JobStatus, error) {
	client = statusClient(client)
	req, err := http.NewRequest(http.MethodGet, jobURL, nil)
	if err != nil {
		return nil, fmt.Errorf("fabric: job: %w", err)
	}
	var job JobStatus
	if err := doJSON(client, req, &job); err != nil {
		return nil, fmt.Errorf("fabric: job: %w", err)
	}
	return &job, nil
}

func statusClient(client *http.Client) *http.Client {
	if client == nil {
		return &http.Client{Timeout: 10 * time.Second}
	}
	return client
}

func setBearer(req *http.Request, token string) {
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
}

// doJSON runs the request and decodes a JSON reply, turning non-2xx
// statuses into errors carrying the body text.
func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// leaseRequest is the body of POST /lease.
type leaseRequest struct {
	Executor string `json:"executor"`
}

// Lease is one slice assignment on the wire. Job and SpecDigest tell
// the executor which cached spec to run (fetching it first if
// needed); the geometry fields echo the registry's plan so an executor
// can verify its independently derived plan matches before spending
// compute — any disagreement means registry and executor built
// different specs and is an error, not a retry.
type Lease struct {
	ID           string `json:"id"`
	Job          string `json:"job"`
	SpecDigest   string `json:"spec_digest"`
	Entry        string `json:"entry"`
	Scenario     string `json:"scenario"`
	Index        int    `json:"index"`
	Count        int    `json:"count"`
	Trials       int    `json:"trials"`
	ShardSize    int    `json:"shard_size"`
	NumShards    int    `json:"num_shards"`
	ParamsDigest string `json:"params_digest,omitempty"`
	DeadlineMS   int64  `json:"deadline_unix_ms"`
	RenewMS      int64  `json:"renew_ms"`
}

// leaseReply is the 200 response to POST /lease: Done means the
// registry is drained and the executor should exit; otherwise Lease is
// set. A request held for a full leaseWait without finding grantable
// work is answered 204 No Content, not a reply.
type leaseReply struct {
	Done  bool   `json:"done,omitempty"`
	Lease *Lease `json:"lease,omitempty"`
}

// uploadReply is the response to POST /upload.
type uploadReply struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// Status is the registry's observability surface (GET /status).
type Status struct {
	StartUnixMS int64       `json:"start_unix_ms"`
	UptimeSec   float64     `json:"uptime_sec"`
	Done        bool        `json:"done"` // drained: no more work will ever be offered
	Draining    bool        `json:"draining,omitempty"`
	Slices      int         `json:"slices"`
	LeaseMS     int64       `json:"lease_timeout_ms"`
	Executors   int         `json:"executors_seen"`
	Uploads     int         `json:"uploads_accepted"`
	Ignored     int         `json:"uploads_ignored"`
	Rejected    int         `json:"uploads_rejected"`
	Steals      int         `json:"leases_stolen"`
	Jobs        []JobStatus `json:"jobs"`
}

// JobStatus is one job's progress — the per-job section of /status and
// the reply shape of the /jobs endpoints.
type JobStatus struct {
	ID              string        `json:"id"`
	Tenant          string        `json:"tenant,omitempty"`
	State           string        `json:"state"`
	Error           string        `json:"error,omitempty"`
	SpecDigest      string        `json:"spec_digest"`
	CreatedUnixMS   int64         `json:"created_unix_ms"`
	Dir             string        `json:"dir,omitempty"`     // where validated partials land
	OutDir          string        `json:"out_dir,omitempty"` // where the server-side merge writes artifacts
	SlicesPending   int           `json:"slices_pending"`
	SlicesLeased    int           `json:"slices_leased"`
	SlicesDone      int           `json:"slices_done"`
	SlicesCancelled int           `json:"slices_cancelled,omitempty"`
	Steals          int           `json:"steals"`
	DoneTrials      int           `json:"done_trials"`
	TotalTrials     int           `json:"total_trials"`
	Entries         []EntryStatus `json:"entries,omitempty"`
}

// EntryStatus is one spec entry's progress within a job.
type EntryStatus struct {
	Entry        string        `json:"entry"`
	Scenario     string        `json:"scenario"`
	Done         bool          `json:"done"`
	EarlyStopped bool          `json:"early_stopped,omitempty"`
	NumShards    int           `json:"num_shards"`
	PrefixShards int           `json:"prefix_shards"` // merge progress: contiguous shards folded
	DoneTrials   int           `json:"done_trials"`
	TotalTrials  int           `json:"total_trials"`
	TrialsPerSec float64       `json:"trials_per_sec"`
	Slices       []SliceStatus `json:"slices"`
}

// SliceStatus is one slice's lease state.
type SliceStatus struct {
	Index   int    `json:"index"`
	State   string `json:"state"` // pending | leased | done | cancelled | empty
	Holder  string `json:"holder,omitempty"`
	Steals  int    `json:"steals,omitempty"`
	Trials  int    `json:"trials"`
	Adopted bool   `json:"adopted,omitempty"` // restored from a pre-existing upload at startup
}

// JobURL joins a registry base URL and a job ID into the job's URL.
func JobURL(base, id string) string {
	return strings.TrimRight(base, "/") + pathJobs + "/" + id
}
