package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaign"
)

// maxSpecBytes bounds a POST /jobs body: specs are small JSON
// documents, and an unbounded read would let one bad client exhaust
// the registry's memory.
const maxSpecBytes = 8 << 20

// leaseWait is how long POST /lease holds a request while no slice is
// grantable. A held request is answered as soon as work may have
// appeared, so an idle executor sends one request per hold and picks
// up a new job the moment it is submitted.
const leaseWait = time.Second

// Handler returns the registry's HTTP API.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", r.handleSubmit)
	mux.HandleFunc("GET /jobs", r.handleListJobs)
	mux.HandleFunc("GET /jobs/{id}", r.handleGetJob)
	mux.HandleFunc("DELETE /jobs/{id}", r.handleDeleteJob)
	mux.HandleFunc("GET /jobs/{id}/spec", r.handleJobSpec)
	mux.HandleFunc("POST "+pathLease, r.handleLease)
	mux.HandleFunc("POST "+pathRenew, r.handleRenew)
	mux.HandleFunc("POST "+pathUpload, r.handleUpload)
	mux.HandleFunc("GET "+pathStatus, r.handleStatus)
	return mux
}

// authorize authenticates a mutating request. Open registries (no
// tenants configured) admit everyone as the anonymous tenant; tenanted
// registries require a bearer token and resolve it to the tenant name.
// On failure it writes the 401 and returns ok=false.
func (r *Registry) authorize(w http.ResponseWriter, req *http.Request) (tenant string, ok bool) {
	if len(r.tokens) == 0 {
		return "", true
	}
	h := req.Header.Get("Authorization")
	const scheme = "Bearer "
	if !strings.HasPrefix(h, scheme) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="fabric"`)
		http.Error(w, "missing bearer token", http.StatusUnauthorized)
		return "", false
	}
	t, found := r.tokens[strings.TrimPrefix(h, scheme)]
	if !found {
		w.Header().Set("WWW-Authenticate", `Bearer realm="fabric"`)
		http.Error(w, "unknown bearer token", http.StatusUnauthorized)
		return "", false
	}
	return t.Name, true
}

func (r *Registry) handleSubmit(w http.ResponseWriter, req *http.Request) {
	tenant, ok := r.authorize(w, req)
	if !ok {
		return
	}
	specBytes, err := io.ReadAll(io.LimitReader(req.Body, maxSpecBytes+1))
	if err != nil {
		http.Error(w, "read spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(specBytes) > maxSpecBytes {
		http.Error(w, "spec too large", http.StatusRequestEntityTooLarge)
		return
	}
	job, err := r.Submit(specBytes, SubmitOptions{Tenant: tenant})
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrDraining) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	// A spec failing validation still submits — as a failed job whose
	// Error field carries the diagnosis — so the reply shape is uniform
	// and the failure shows up in /jobs and /status.
	writeJSON(w, job)
}

func (r *Registry) handleListJobs(w http.ResponseWriter, req *http.Request) {
	st := r.Status()
	jobs := st.Jobs
	if jobs == nil {
		jobs = []JobStatus{}
	}
	writeJSON(w, jobs)
}

func (r *Registry) handleGetJob(w http.ResponseWriter, req *http.Request) {
	job, ok := r.Job(req.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, job)
}

func (r *Registry) handleDeleteJob(w http.ResponseWriter, req *http.Request) {
	tenant, ok := r.authorize(w, req)
	if !ok {
		return
	}
	err := r.Delete(req.PathValue("id"), tenant)
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, ErrJobNotFound):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrForbidden):
		http.Error(w, err.Error(), http.StatusForbidden)
	case errors.Is(err, ErrJobTerminal):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (r *Registry) handleJobSpec(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.mu.Lock()
	j, ok := r.jobs[id]
	r.mu.Unlock()
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(j.specBytes)
}

func (r *Registry) handleLease(w http.ResponseWriter, req *http.Request) {
	if _, ok := r.authorize(w, req); !ok {
		return
	}
	var lr leaseRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<16)).Decode(&lr); err != nil {
		http.Error(w, "bad lease request: "+err.Error(), http.StatusBadRequest)
		return
	}
	// With no grantable work (all leased, quota-blocked, or no runnable
	// job), hold the request until work may have appeared or a live
	// lease expires; answer 204 only after a full hold found nothing.
	giveUp := time.Now().Add(leaseWait)
	for {
		reply, wake, next := r.grantLease(lr.Executor)
		if reply != nil {
			writeJSON(w, reply)
			return
		}
		wait := time.Until(giveUp)
		if wait <= 0 {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if !next.IsZero() {
			wait = min(wait, time.Until(next))
		}
		timer := time.NewTimer(wait)
		select {
		case <-wake:
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return // the client is gone; nobody reads a reply
		}
		timer.Stop()
	}
}

func (r *Registry) handleRenew(w http.ResponseWriter, req *http.Request) {
	if _, ok := r.authorize(w, req); !ok {
		return
	}
	id := req.URL.Query().Get("lease")
	r.mu.Lock()
	defer r.mu.Unlock()
	ref, ok := r.leases[id]
	if !ok {
		http.Error(w, "lease gone", http.StatusGone)
		return
	}
	s := ref.task.slices[ref.slice]
	if s.state != sliceLeased || s.leaseID != id {
		http.Error(w, "lease gone", http.StatusGone)
		return
	}
	s.deadline = time.Now().Add(r.cfg.LeaseTimeout)
	w.WriteHeader(http.StatusNoContent)
}

func (r *Registry) handleUpload(w http.ResponseWriter, req *http.Request) {
	if _, ok := r.authorize(w, req); !ok {
		return
	}
	id := req.URL.Query().Get("lease")
	r.mu.Lock()
	ref, ok := r.leases[id]
	r.mu.Unlock()
	if !ok {
		// The lease was stolen and its slice completed by someone else,
		// its job was deleted, or the id is garbage; either way the
		// bytes are not needed.
		io.Copy(io.Discard, req.Body)
		writeJSON(w, uploadReply{Accepted: false, Reason: "lease gone"})
		return
	}
	j, t, s := ref.job, ref.task, ref.task.slices[ref.slice]

	// Stream the body to a temp file and validate it before touching
	// any registry state: uploads can be large (spilled samples) and
	// must never be buffered whole in memory or half-written into the
	// merge directory. The temp name cannot collide with the .part
	// prefix PartialFiles scans for.
	tmp, err := os.CreateTemp(j.dir, "upload-*.tmp")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	tmpPath := tmp.Name()
	defer os.Remove(tmpPath)
	_, cpErr := io.Copy(tmp, req.Body)
	if err := tmp.Close(); cpErr == nil {
		cpErr = err
	}
	if cpErr != nil {
		http.Error(w, "upload read: "+cpErr.Error(), http.StatusBadRequest)
		return
	}
	p, err := campaign.OpenPartial(tmpPath)
	if err == nil {
		err = p.MatchesPlan(s.plan)
		if err == nil && !p.Complete(s.plan) {
			err = fmt.Errorf("upload covers %d of %d shards of slice %s: truncated", len(p.Shards()), s.plan.Shards(), s.plan.Part)
		}
	}
	if err != nil {
		if p != nil {
			p.Close()
		}
		r.mu.Lock()
		r.rejected++
		// Re-queue immediately: the slice must not wait out the full
		// lease deadline because one executor shipped garbage.
		if s.state == sliceLeased && s.leaseID == id {
			s.state = slicePending
			delete(r.leases, id)
			r.notifyLocked()
		}
		r.mu.Unlock()
		r.log.Printf("fabric: job %s: rejected upload for %s slice %s: %v", j.id, t.built.Entry.Name, s.plan.Part, err)
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	p.Close() // counters stay resident for the prefix fold

	r.mu.Lock()
	defer r.mu.Unlock()
	if s.state == sliceDone || s.state == sliceCancelled {
		r.ignored++
		writeJSON(w, uploadReply{Accepted: false, Reason: "slice already " + s.state})
		return
	}
	// Matrix-cell partials nest in a subdirectory of the namespace
	// (the entry's artifact path contains a slash), which this upload
	// may be the first to touch.
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	delete(r.leases, s.leaseID)
	s.state = sliceDone
	t.arrived[s.plan.Part.Index] = p
	t.doneTrials += s.plan.PartitionTrials()
	r.uploads++
	j.uploads++
	if r.quotas[j.tenant] > 0 {
		r.notifyLocked() // a lease of a capped tenant came free
	}
	r.log.Printf("fabric: job %s: accepted %s slice %s (%d trials) from %s",
		j.id, t.built.Entry.Name, s.plan.Part, s.plan.PartitionTrials(), s.holder)
	if err := r.advanceTask(j, t); err != nil {
		r.failJobLocked(j, err.Error())
	} else {
		r.maybeCompleteLocked(j)
	}
	writeJSON(w, uploadReply{Accepted: true})
}

func (r *Registry) handleStatus(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, r.Status())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
