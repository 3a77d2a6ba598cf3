package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// httpTap times the fabric's HTTP traffic from outside the fabric
// package: a RoundTripper on each executor's client and a middleware
// around the registry's handler. It records only while enabled, so one
// service can alternate traced and untraced batches.
type httpTap struct {
	enabled atomic.Bool

	mu          sync.Mutex
	leaseRTT    []float64 // seconds, client side
	uploadRTT   []float64
	uploadBytes int64
	specFetches int
	leaseReqs   int
	grants      int
	idlePolls   int
	busy        time.Duration // executors: lease granted -> upload sent
	handler     map[string][]float64
	leaseJob    map[string]string    // lease ID -> job ID, from lease replies
	lastUpload  map[string]time.Time // job ID -> end of its last accepted upload
}

func newHTTPTap() *httpTap {
	return &httpTap{
		handler:    make(map[string][]float64),
		leaseJob:   make(map[string]string),
		lastUpload: make(map[string]time.Time),
	}
}

// transport wraps one executor's transport.
func (t *httpTap) transport(next http.RoundTripper) http.RoundTripper {
	return &tapTransport{tap: t, next: next}
}

type tapTransport struct {
	tap       *httpTap
	next      http.RoundTripper
	mu        sync.Mutex
	busySince time.Time // when this executor's current lease was granted
}

func (tt *tapTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := tt.tap
	if !t.enabled.Load() {
		return tt.next.RoundTrip(req)
	}
	path := req.URL.Path
	start := time.Now()
	var busy time.Duration
	if path == "/upload" {
		tt.mu.Lock()
		if !tt.busySince.IsZero() {
			busy = start.Sub(tt.busySince)
			tt.busySince = time.Time{}
		}
		tt.mu.Unlock()
	}
	resp, err := tt.next.RoundTrip(req)
	rtt := time.Since(start).Seconds()
	if err != nil {
		return resp, err
	}
	granted := path == "/lease" && resp.StatusCode == http.StatusOK
	if granted {
		tt.mu.Lock()
		tt.busySince = time.Now()
		tt.mu.Unlock()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.busy += busy
	switch {
	case path == "/lease":
		t.leaseReqs++
		t.leaseRTT = append(t.leaseRTT, rtt)
		if resp.StatusCode == http.StatusNoContent {
			t.idlePolls++
		}
		if granted {
			t.grants++
		}
	case path == "/upload":
		t.uploadRTT = append(t.uploadRTT, rtt)
		if req.ContentLength > 0 {
			t.uploadBytes += req.ContentLength
		}
	case req.Method == http.MethodGet && strings.HasSuffix(path, "/spec"):
		t.specFetches++
	}
	return resp, nil
}

// endpoint names the registry endpoint a request is for.
func endpoint(req *http.Request) string {
	switch {
	case req.Method == http.MethodPost && req.URL.Path == "/jobs":
		return "submit"
	case req.URL.Path == "/lease":
		return "lease"
	case req.URL.Path == "/upload":
		return "upload"
	case req.Method == http.MethodGet && strings.HasSuffix(req.URL.Path, "/spec"):
		return "spec"
	}
	return "other"
}

// middleware times every request the registry's handler serves and
// follows leases to their jobs, so the last accepted upload of each
// job is known.
func (t *httpTap) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !t.enabled.Load() {
			next.ServeHTTP(w, req)
			return
		}
		ep := endpoint(req)
		rec := &bodyRecorder{ResponseWriter: w, keep: ep == "lease" || ep == "upload"}
		start := time.Now()
		next.ServeHTTP(rec, req)
		end := time.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.handler[ep] = append(t.handler[ep], end.Sub(start).Seconds())
		switch ep {
		case "lease":
			var reply struct {
				Lease *struct{ ID, Job string } `json:"lease"`
			}
			if json.Unmarshal(rec.body.Bytes(), &reply) == nil && reply.Lease != nil {
				t.leaseJob[reply.Lease.ID] = reply.Lease.Job
			}
		case "upload":
			var reply struct {
				Accepted bool `json:"accepted"`
			}
			if json.Unmarshal(rec.body.Bytes(), &reply) == nil && reply.Accepted {
				if job, ok := t.leaseJob[req.URL.Query().Get("lease")]; ok {
					t.lastUpload[job] = end
				}
			}
		}
	})
}

// bodyRecorder keeps a copy of a small response body.
type bodyRecorder struct {
	http.ResponseWriter
	keep bool
	body bytes.Buffer
}

func (r *bodyRecorder) Write(p []byte) (int, error) {
	if r.keep {
		r.body.Write(p)
	}
	return r.ResponseWriter.Write(p)
}
