package fabric

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/campaign/spec"
)

// Tenant is one authenticated party: its bearer token authorizes the
// mutating endpoints, its name owns the jobs it submits, and MaxLeases
// caps how many of its slices may be leased concurrently across all
// its jobs (0 = unlimited) — the fair-share backstop that keeps one
// tenant from monopolizing the shared executor pool.
type Tenant struct {
	Name      string
	Token     string
	MaxLeases int
}

// RegistryConfig assembles a job registry.
type RegistryConfig struct {
	// Dir is the work directory; each job's partials land in its own
	// Namespace subdirectory, and server-side merges write artifacts to
	// <namespace>/results.
	Dir string
	// Slices is the partition count each entry's shard range is split
	// into (0 = DefaultSlices). More slices mean finer-grained work
	// stealing and earlier stop cancellation, at more HTTP round trips.
	Slices int
	// LeaseTimeout is how long a slice may go without an upload or
	// renewal before it is stolen (0 = DefaultLeaseTimeout).
	LeaseTimeout time.Duration
	// Tenants, when non-empty, turns on bearer-token auth for every
	// mutating endpoint and per-tenant quota accounting. Empty = open
	// registry (the single-operator workflow).
	Tenants []Tenant
	// DrainAfter, when positive, makes the registry drain on its own:
	// once at least DrainAfter jobs have been submitted and every job
	// is terminal, Done closes and executors are told to exit. Zero
	// keeps the registry serving until SetDraining or process exit.
	DrainAfter int
	// Log receives lease, steal, upload and lifecycle events
	// (nil = standard logger).
	Log *log.Logger
}

// SubmitOptions tunes one job submission.
type SubmitOptions struct {
	// Tenant is the owning tenant's name (the HTTP layer derives it
	// from the bearer token; local callers may leave it empty).
	Tenant string
	// AutoMerge makes the registry merge the job server-side once its
	// last slice arrives, writing artifacts under <namespace>/results.
	// The legacy single-spec coordinator submits with AutoMerge off and
	// merges in-process instead, exactly as before.
	AutoMerge bool
}

// Sentinel errors the HTTP layer maps to status codes.
var (
	ErrJobNotFound = errors.New("fabric: no such job")
	ErrForbidden   = errors.New("fabric: job owned by another tenant")
	ErrJobTerminal = errors.New("fabric: job already terminal")
	ErrDraining    = errors.New("fabric: registry is draining; not accepting jobs")
)

// slice lease states.
const (
	slicePending   = "pending"
	sliceLeased    = "leased"
	sliceDone      = "done"
	sliceCancelled = "cancelled"
	sliceEmpty     = "empty"
)

// slice is one partition of one entry's campaign.
type slice struct {
	plan     *campaign.Plan
	path     string // where the validated upload lands
	state    string
	leaseID  string
	holder   string
	deadline time.Time
	steals   int
	adopted  bool
}

// task is one spec entry being distributed.
type task struct {
	built   *spec.Built
	slices  []*slice
	arrived map[int]*campaign.Partial // slice index -> accepted partial (counters resident)

	// fold decides the early stop on the contiguous shard prefix of
	// the arrived slices; slicePtr is the slice owning fold.Next().
	fold     *campaign.PrefixFold
	slicePtr int

	doneTrials int
	done       bool
}

func (t *task) numShards() int { return t.slices[0].plan.NumShards }

func (t *task) totalTrials() int { return t.built.Scenario.Trials() }

// job is one submitted spec and its distribution state.
type job struct {
	id        string
	digest    string // full sha256 of specBytes, echoed in leases
	tenant    string
	specBytes []byte
	file      *spec.File
	built     []*spec.Built
	tasks     []*task
	state     string
	errMsg    string
	dir       string // per-spec namespace: validated partials land here
	outDir    string // server-side merge target (AutoMerge only)
	autoMerge bool
	created   time.Time
	doneCh    chan struct{} // closed on entering a terminal state
	steals    int
	uploads   int
}

func jobTerminal(state string) bool { return state == JobDone || state == JobFailed }

// leaseRef locates a lease's slice.
type leaseRef struct {
	job   *job
	task  *task
	slice int
}

// Registry serves many jobs' campaign plans to one shared executor
// fleet and folds their uploads. All mutable state is guarded by mu;
// plans and spec structures are immutable after Submit.
type Registry struct {
	cfg    RegistryConfig
	log    *log.Logger
	tokens map[string]Tenant // bearer token -> tenant; empty = open
	quotas map[string]int    // tenant name -> MaxLeases

	mu        sync.Mutex
	jobs      map[string]*job
	order     []*job // submission order: listing and the fair-share rotation
	rr        int    // fair-share cursor into order
	leases    map[string]leaseRef
	leaseSeq  int
	executors map[string]time.Time
	start     time.Time
	draining  bool
	finished  bool
	doneCh    chan struct{}

	uploads, ignored, rejected, steals int
}

// NewRegistry validates the config and returns an empty registry ready
// to serve; jobs arrive via Submit (locally or over POST /jobs).
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fabric: registry needs a work directory")
	}
	if cfg.Slices <= 0 {
		cfg.Slices = DefaultSlices
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = DefaultLeaseTimeout
	}
	logger := cfg.Log
	if logger == nil {
		logger = log.Default()
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fabric: workdir: %w", err)
	}
	tokens := make(map[string]Tenant, len(cfg.Tenants))
	quotas := make(map[string]int, len(cfg.Tenants))
	for _, t := range cfg.Tenants {
		if t.Name == "" || t.Token == "" {
			return nil, fmt.Errorf("fabric: tenant needs both a name and a token")
		}
		if _, dup := tokens[t.Token]; dup {
			return nil, fmt.Errorf("fabric: duplicate tenant token")
		}
		if _, dup := quotas[t.Name]; dup {
			return nil, fmt.Errorf("fabric: duplicate tenant name %q", t.Name)
		}
		tokens[t.Token] = t
		quotas[t.Name] = t.MaxLeases
	}
	return &Registry{
		cfg:       cfg,
		log:       logger,
		tokens:    tokens,
		quotas:    quotas,
		jobs:      make(map[string]*job),
		leases:    make(map[string]leaseRef),
		executors: make(map[string]time.Time),
		start:     time.Now(),
		doneCh:    make(chan struct{}),
	}, nil
}

// Submit registers the spec bytes as a job. Idempotent: the same bytes
// resolve to the same job ID and return the existing job. A spec that
// fails to parse, build or plan is recorded as a failed job (so the
// failure is visible in /jobs and /status) and returned with its State
// set to JobFailed; the error return is reserved for the registry
// refusing the submission outright (draining or drained).
func (r *Registry) Submit(specBytes []byte, opts SubmitOptions) (*JobStatus, error) {
	if len(specBytes) == 0 {
		return nil, fmt.Errorf("fabric: empty spec")
	}
	id := JobID(specBytes)

	r.mu.Lock()
	if r.draining || r.finished {
		r.mu.Unlock()
		return nil, ErrDraining
	}
	if existing, ok := r.jobs[id]; ok {
		st := r.jobStatusLocked(existing, false)
		r.mu.Unlock()
		return st, nil
	}
	r.mu.Unlock()

	// Parse, build, plan and adopt outside the lock — building scenarios
	// and scanning for adoptable partials can be slow, and the job is
	// not visible to the scheduler until inserted below.
	j := &job{
		id:        id,
		digest:    SpecDigest(specBytes),
		tenant:    opts.Tenant,
		specBytes: specBytes,
		state:     JobPending,
		dir:       Namespace(r.cfg.Dir, specBytes),
		autoMerge: opts.AutoMerge,
		created:   time.Now(),
		doneCh:    make(chan struct{}),
	}
	if opts.AutoMerge {
		j.outDir = filepath.Join(j.dir, "results")
	}
	buildErr := r.buildJob(j)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.draining || r.finished {
		return nil, ErrDraining
	}
	if existing, ok := r.jobs[id]; ok {
		// A concurrent submission of the same bytes won the race.
		return r.jobStatusLocked(existing, false), nil
	}
	r.jobs[id] = j
	r.order = append(r.order, j)
	if buildErr != nil {
		r.failJobLocked(j, buildErr.Error())
		return r.jobStatusLocked(j, false), nil
	}
	r.log.Printf("fabric: job %s: submitted by tenant %q: %d entries, %d slices each (dir %s)",
		j.id, j.tenant, len(j.tasks), r.cfg.Slices, j.dir)
	r.maybeCompleteLocked(j) // fully adopted from a previous run?
	r.checkFinishedLocked()
	return r.jobStatusLocked(j, false), nil
}

// buildJob parses and compiles the spec, plans every entry's slices
// and adopts any complete partials already in the job's namespace (a
// registry restarted after a crash resumes instead of recomputing).
func (r *Registry) buildJob(j *job) error {
	f, err := spec.Parse(j.specBytes)
	if err != nil {
		return err
	}
	if f.Adaptive != nil {
		// The adaptive allocator re-plans the trial budget between
		// rounds, which a fixed lease schedule cannot follow.
		return fmt.Errorf("spec has an adaptive block, which runs single-process; the fabric cannot schedule it")
	}
	built, err := f.BuildAll()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return fmt.Errorf("fabric: job dir: %w", err)
	}
	j.file = f
	j.built = built
	for _, b := range built {
		ecfg := b.EngineConfig(f)
		t := &task{built: b, arrived: make(map[int]*campaign.Partial)}
		expected := make(map[string]*slice, r.cfg.Slices)
		for i := 0; i < r.cfg.Slices; i++ {
			part := campaign.Partition{Index: i, Count: r.cfg.Slices}
			plan, err := campaign.NewPlan(b.Scenario, ecfg.ShardSize, part)
			if err != nil {
				return fmt.Errorf("fabric: %s: %w", b.Entry.Name, err)
			}
			plan.ParamsDigest = ecfg.ParamsDigest
			s := &slice{plan: plan, path: b.Entry.PartialPath(j.dir, part), state: slicePending}
			if plan.Shards() == 0 {
				s.state = sliceEmpty
			}
			expected[s.path] = s
			t.slices = append(t.slices, s)
		}
		t.fold = campaign.NewPrefixFold(t.slices[0].plan, ecfg.Stop)
		if err := r.adoptExisting(j, t, expected); err != nil {
			return err
		}
		j.tasks = append(j.tasks, t)
		if err := r.advanceTask(j, t); err != nil {
			return err
		}
	}
	return nil
}

// adoptExisting scans the entry's partial files already under the
// job's namespace. A complete, valid upload from a previous registry
// run is adopted as done; an incomplete one is ignored (the fresh
// upload atomically replaces it); a file that belongs to a different
// slicing or a different params digest is an error — merging would
// fail on it later, so refuse the job instead.
func (r *Registry) adoptExisting(j *job, t *task, expected map[string]*slice) error {
	paths, err := t.built.Entry.PartialFiles(j.dir)
	if err != nil {
		return fmt.Errorf("fabric: %s: %w", t.built.Entry.Name, err)
	}
	for _, path := range paths {
		s, ok := expected[path]
		if !ok {
			return fmt.Errorf("fabric: %s: leftover partial %s does not match -slices %d; remove it or the workdir",
				t.built.Entry.Name, path, r.cfg.Slices)
		}
		if s.state == sliceEmpty {
			continue
		}
		p, err := campaign.OpenPartial(path)
		if err != nil {
			return fmt.Errorf("fabric: %s: %w", t.built.Entry.Name, err)
		}
		if err := p.MatchesPlan(s.plan); err != nil {
			p.Close()
			return fmt.Errorf("fabric: %s: stale partial: %w", t.built.Entry.Name, err)
		}
		if !p.Complete(s.plan) {
			p.Close()
			r.log.Printf("fabric: job %s: %s: ignoring incomplete partial %s (will be replaced)", j.id, t.built.Entry.Name, path)
			continue
		}
		p.Close() // counters stay resident; the merge reopens for samples
		s.state = sliceDone
		s.adopted = true
		t.arrived[s.plan.Part.Index] = p
		t.doneTrials += s.plan.PartitionTrials()
		r.log.Printf("fabric: job %s: %s: adopted completed slice %s from a previous run", j.id, t.built.Entry.Name, s.plan.Part)
	}
	return nil
}

// advanceTask folds newly contiguous shards into the task's prefix
// fold; when the fold decides the early stop it cancels every slice
// strictly beyond the stopping shard. A fold error (a stop counter the
// rule cannot use) is returned for the caller to fail the job. Must be
// called with mu held (or before the job is inserted).
func (r *Registry) advanceTask(j *job, t *task) error {
	numShards := t.numShards()
	for !t.fold.Stopped() && t.fold.Next() < numShards {
		for t.slicePtr < len(t.slices) && t.slices[t.slicePtr].plan.End <= t.fold.Next() {
			t.slicePtr++
		}
		if t.slicePtr >= len(t.slices) {
			break
		}
		s := t.slices[t.slicePtr]
		if s.state != sliceDone {
			break
		}
		if err := t.fold.Advance(t.arrived[s.plan.Part.Index]); err != nil {
			return err
		}
		if t.fold.Stopped() {
			stopShard := t.fold.Next() - 1
			for _, other := range t.slices {
				if other.plan.First > stopShard && (other.state == slicePending || other.state == sliceLeased) {
					other.state = sliceCancelled
				}
			}
			r.log.Printf("fabric: job %s: %s: early stop decided at shard %d/%d; cancelled remaining slices",
				j.id, t.built.Entry.Name, stopShard, numShards)
		}
	}
	if !t.done {
		done := true
		for _, s := range t.slices {
			if s.state != sliceDone && s.state != sliceCancelled && s.state != sliceEmpty {
				done = false
				break
			}
		}
		if done {
			t.done = true
			r.log.Printf("fabric: job %s: %s: complete (%d trials)", j.id, t.built.Entry.Name, t.doneTrials)
		}
	}
	return nil
}

// maybeCompleteLocked transitions a job whose every task has finished:
// AutoMerge jobs enter merging and merge in a background goroutine;
// others are done (the submitter merges). Must be called with mu held.
func (r *Registry) maybeCompleteLocked(j *job) {
	if j.state != JobPending && j.state != JobRunning {
		return
	}
	for _, t := range j.tasks {
		if !t.done {
			return
		}
	}
	if !j.autoMerge {
		r.finishJobLocked(j, JobDone, "")
		return
	}
	j.state = JobMerging
	r.log.Printf("fabric: job %s: all slices in; merging into %s", j.id, j.outDir)
	go r.mergeJob(j)
}

// mergeJob is the server-side merge: fold every entry's partials into
// the result an unpartitioned run would produce (bit-identically),
// write the shared JSON/CSV artifacts under the job's results
// directory, and check the spec's expectation bands. Runs without the
// lock; only the final state transition takes it.
func (r *Registry) mergeJob(j *job) {
	err := func() error {
		for _, b := range j.built {
			cres, err := b.MergePartials(j.file, j.dir, nil)
			if err != nil {
				return err
			}
			if err := b.WriteArtifacts(j.outDir, cres); err != nil {
				return fmt.Errorf("%s: %w", b.Entry.Name, err)
			}
			var violations []string
			for _, verr := range b.CheckExpectations(cres) {
				violations = append(violations, verr.Error())
			}
			if len(violations) > 0 {
				return fmt.Errorf("expectation failed: %s", strings.Join(violations, "; "))
			}
		}
		return nil
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	if j.state != JobMerging {
		return // deleted while merging; the verdict no longer matters
	}
	if err != nil {
		r.finishJobLocked(j, JobFailed, err.Error())
		return
	}
	r.finishJobLocked(j, JobDone, "")
}

// finishJobLocked moves a job into a terminal state. Must be called
// with mu held.
func (r *Registry) finishJobLocked(j *job, state, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	close(j.doneCh)
	if errMsg != "" {
		r.log.Printf("fabric: job %s: %s: %s", j.id, state, errMsg)
	} else {
		r.log.Printf("fabric: job %s: %s (%d uploads, %d steals)", j.id, state, j.uploads, j.steals)
	}
	r.checkFinishedLocked()
}

// Delete cancels a job: its outstanding leases are invalidated (late
// uploads against them are refused as "lease gone"), its remaining
// slices cancelled — nothing is re-queued — and the job lands in
// failed. Tenanted registries only let the owning tenant delete.
func (r *Registry) Delete(id, tenant string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobNotFound, id)
	}
	if len(r.tokens) > 0 && tenant != j.tenant {
		return fmt.Errorf("%w: %s", ErrForbidden, id)
	}
	if jobTerminal(j.state) {
		return fmt.Errorf("%w: %s is %s", ErrJobTerminal, id, j.state)
	}
	// A job deleted mid-merge finishes here; the merge goroutine sees
	// the terminal state and discards its verdict.
	r.failJobLocked(j, "deleted by operator")
	return nil
}

// failJobLocked fails a job: its outstanding leases are invalidated
// (late uploads against them are refused as "lease gone") and its
// remaining slices cancelled, with nothing re-queued. Must be called
// with mu held.
func (r *Registry) failJobLocked(j *job, errMsg string) {
	for _, t := range j.tasks {
		for _, s := range t.slices {
			switch s.state {
			case sliceLeased:
				delete(r.leases, s.leaseID)
				s.state = sliceCancelled
			case slicePending:
				s.state = sliceCancelled
			}
		}
	}
	r.finishJobLocked(j, JobFailed, errMsg)
}

// SetDraining tells the registry no further jobs are coming: new
// submissions are refused, and once every job is terminal the registry
// reports done to executors (draining the fleet) and closes Done.
func (r *Registry) SetDraining(v bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.draining = v
	r.checkFinishedLocked()
}

// checkFinishedLocked closes the done channel once the registry is
// draining (explicitly, or DrainAfter jobs have been seen) and every
// job is terminal. Must be called with mu held.
func (r *Registry) checkFinishedLocked() {
	if r.finished {
		return
	}
	draining := r.draining || (r.cfg.DrainAfter > 0 && len(r.order) >= r.cfg.DrainAfter)
	if !draining {
		return
	}
	for _, j := range r.order {
		if !jobTerminal(j.state) {
			return
		}
	}
	r.finished = true
	close(r.doneCh)
	r.log.Printf("fabric: registry drained: %d job(s), %d uploads, %d steals, %s elapsed",
		len(r.order), r.uploads, r.steals, time.Since(r.start).Round(time.Millisecond))
}

// Done is closed once the registry is draining and every job reached a
// terminal state — the moment a service process can exit.
func (r *Registry) Done() <-chan struct{} { return r.doneCh }

// Dir returns the registry's work directory.
func (r *Registry) Dir() string { return r.cfg.Dir }

// Job returns one job's status snapshot.
func (r *Registry) Job(id string) (*JobStatus, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return nil, false
	}
	return r.jobStatusLocked(j, true), true
}

// JobDone returns a channel closed when the job reaches a terminal
// state.
func (r *Registry) JobDone(id string) (<-chan struct{}, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return nil, false
	}
	return j.doneCh, true
}

// grantLease implements the scheduler: rotate the fair-share cursor
// over the jobs, skip tenants at quota, and hand out the first pending
// (or expired-and-stealable) slice. A nil reply means no grantable
// work right now (HTTP 204).
func (r *Registry) grantLease(executor string) *leaseReply {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if executor != "" {
		r.executors[executor] = now
	}
	if r.finished {
		return &leaseReply{Done: true}
	}
	// Live leased slices per owning tenant. Expired leases are excluded:
	// a dead executor's leases must never hold their own tenant at quota
	// and block the steal that would recover them.
	leased := make(map[string]int)
	for _, ref := range r.leases {
		s := ref.task.slices[ref.slice]
		if s.state == sliceLeased && !now.After(s.deadline) {
			leased[ref.job.tenant]++
		}
	}
	n := len(r.order)
	for k := 0; k < n; k++ {
		j := r.order[(r.rr+k)%n]
		if j.state != JobPending && j.state != JobRunning {
			continue
		}
		if q := r.quotas[j.tenant]; q > 0 && leased[j.tenant] >= q {
			continue
		}
		for _, t := range j.tasks {
			if t.done {
				continue
			}
			for _, s := range t.slices {
				if s.state != slicePending && !(s.state == sliceLeased && now.After(s.deadline)) {
					continue
				}
				// Advance the cursor past this job so the next request
				// starts at the next job — the fair share.
				r.rr = (r.rr + k + 1) % n
				return r.grantLocked(j, t, s, executor, now, s.state == sliceLeased)
			}
		}
	}
	return nil
}

// grantLocked assigns a slice to an executor under a fresh lease.
// Must be called with mu held.
func (r *Registry) grantLocked(j *job, t *task, s *slice, executor string, now time.Time, stolen bool) *leaseReply {
	if stolen {
		r.steals++
		j.steals++
		s.steals++
		delete(r.leases, s.leaseID)
		r.log.Printf("fabric: job %s: lease %s (%s slice %s) held by %s expired; stolen by %s",
			j.id, s.leaseID, t.built.Entry.Name, s.plan.Part, s.holder, executor)
	}
	if j.state == JobPending {
		j.state = JobRunning
	}
	r.leaseSeq++
	s.leaseID = fmt.Sprintf("L%d", r.leaseSeq)
	s.holder = executor
	s.state = sliceLeased
	s.deadline = now.Add(r.cfg.LeaseTimeout)
	r.leases[s.leaseID] = leaseRef{job: j, task: t, slice: s.plan.Part.Index}
	renew := r.cfg.LeaseTimeout / 3
	if renew < 50*time.Millisecond {
		renew = 50 * time.Millisecond
	}
	r.log.Printf("fabric: job %s: leased %s slice %s to %s as %s (deadline %s)",
		j.id, t.built.Entry.Name, s.plan.Part, executor, s.leaseID, r.cfg.LeaseTimeout)
	return &leaseReply{Lease: &Lease{
		ID:           s.leaseID,
		Job:          j.id,
		SpecDigest:   j.digest,
		Entry:        t.built.Entry.Name,
		Scenario:     s.plan.Scenario,
		Index:        s.plan.Part.Index,
		Count:        s.plan.Part.Count,
		Trials:       s.plan.Trials,
		ShardSize:    s.plan.ShardSize,
		NumShards:    s.plan.NumShards,
		ParamsDigest: s.plan.ParamsDigest,
		DeadlineMS:   s.deadline.UnixMilli(),
		RenewMS:      renew.Milliseconds(),
	}}
}

// Status snapshots the registry's progress.
func (r *Registry) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	elapsed := time.Since(r.start)
	st := Status{
		StartUnixMS: r.start.UnixMilli(),
		UptimeSec:   elapsed.Seconds(),
		Done:        r.finished,
		Draining:    r.draining || (r.cfg.DrainAfter > 0 && len(r.order) >= r.cfg.DrainAfter),
		Slices:      r.cfg.Slices,
		LeaseMS:     r.cfg.LeaseTimeout.Milliseconds(),
		Executors:   len(r.executors),
		Uploads:     r.uploads,
		Ignored:     r.ignored,
		Rejected:    r.rejected,
		Steals:      r.steals,
	}
	for _, j := range r.order {
		st.Jobs = append(st.Jobs, *r.jobStatusLocked(j, true))
	}
	return st
}

// jobStatusLocked snapshots one job. Must be called with mu held.
func (r *Registry) jobStatusLocked(j *job, entries bool) *JobStatus {
	js := &JobStatus{
		ID:            j.id,
		Tenant:        j.tenant,
		State:         j.state,
		Error:         j.errMsg,
		SpecDigest:    j.digest,
		CreatedUnixMS: j.created.UnixMilli(),
		Dir:           j.dir,
		OutDir:        j.outDir,
		Steals:        j.steals,
	}
	elapsed := time.Since(r.start)
	for _, t := range j.tasks {
		js.DoneTrials += t.doneTrials
		js.TotalTrials += t.totalTrials()
		es := EntryStatus{
			Entry:        t.built.Entry.Name,
			Scenario:     t.slices[0].plan.Scenario,
			Done:         t.done,
			EarlyStopped: t.fold.Stopped(),
			NumShards:    t.numShards(),
			PrefixShards: t.fold.Next(),
			DoneTrials:   t.doneTrials,
			TotalTrials:  t.totalTrials(),
		}
		if elapsed > 0 {
			es.TrialsPerSec = float64(t.doneTrials) / elapsed.Seconds()
		}
		for _, s := range t.slices {
			switch s.state {
			case slicePending:
				js.SlicesPending++
			case sliceLeased:
				js.SlicesLeased++
			case sliceDone:
				js.SlicesDone++
			case sliceCancelled:
				js.SlicesCancelled++
			}
			if entries {
				es.Slices = append(es.Slices, SliceStatus{
					Index:   s.plan.Part.Index,
					State:   s.state,
					Holder:  s.holder,
					Steals:  s.steals,
					Trials:  s.plan.PartitionTrials(),
					Adopted: s.adopted,
				})
			}
		}
		if entries {
			js.Entries = append(js.Entries, es)
		}
	}
	return js
}
