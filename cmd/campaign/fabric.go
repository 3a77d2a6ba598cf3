package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/fabric"
)

// Connection timeouts of -serve. ReadHeaderTimeout drops a client that
// never finishes its request header (slowloris); IdleTimeout closes
// keep-alive connections nobody reuses. ReadTimeout and WriteTimeout
// stay unset: an upload streams a body of any length, and the registry
// holds a lease request open for up to a second while it has no work,
// so a deadline on the whole request would cut off legitimate traffic.
const (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// serveOptions configures -serve, the multi-tenant job service.
type serveOptions struct {
	addr         string
	baseDir      string // -partials: each job's namespace lands under it
	slices       int
	leaseTimeout time.Duration
	tenants      string // -tenants name=token[:maxLeases],...
	drainAfter   int    // -drain-after: exit after N jobs all finished
}

// parseTenants parses the -tenants flag: comma-separated
// name=token[:maxLeases] triples.
func parseTenants(s string) ([]fabric.Tenant, error) {
	if s == "" {
		return nil, nil
	}
	var tenants []fabric.Tenant
	for _, part := range strings.Split(s, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("-tenants entry %q: want name=token[:maxLeases]", part)
		}
		t := fabric.Tenant{Name: name, Token: rest}
		if tok, quota, ok := strings.Cut(rest, ":"); ok {
			n, err := strconv.Atoi(quota)
			if err != nil || n < 0 || tok == "" {
				return nil, fmt.Errorf("-tenants entry %q: bad maxLeases %q", part, quota)
			}
			t.Token = tok
			t.MaxLeases = n
		}
		tenants = append(tenants, t)
	}
	return tenants, nil
}

// runService is the multi-tenant job service: no spec of its own —
// jobs arrive over POST /jobs, are scheduled onto the shared executor
// fleet, and merge server-side into their own namespace. With
// -drain-after N the service exits once N jobs have been submitted and
// all of them finished (the CI shape); otherwise it serves until
// killed.
func runService(opts serveOptions) int {
	tenants, err := parseTenants(opts.tenants)
	if err != nil {
		fatal(err)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	reg, err := fabric.NewRegistry(fabric.RegistryConfig{
		Dir:          opts.baseDir,
		Slices:       opts.slices,
		LeaseTimeout: opts.leaseTimeout,
		Tenants:      tenants,
		DrainAfter:   opts.drainAfter,
		Log:          logger,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{
		Handler:           reg.Handler(),
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
	go srv.Serve(ln)
	logger.Printf("campaign: fabric job service on http://%s (work dir %s)", ln.Addr(), reg.Dir())

	<-reg.Done()
	// Linger before closing the socket: -watch polls every 300ms and
	// should observe the job's terminal state rather than a connection
	// refused from a vanished service. Idle executors need none: their
	// held lease requests get the drained reply the moment the registry
	// drains.
	time.Sleep(5 * time.Second)
	srv.Close()
	code := 0
	for _, j := range reg.Status().Jobs {
		if j.State == fabric.JobFailed {
			fmt.Fprintf(os.Stderr, "campaign: job %s failed: %s\n", j.ID, j.Error)
			code = 1
		}
	}
	return code
}

// runSubmit posts the spec to a job service and prints the job URL —
// the handle -watch and DELETE consume.
func runSubmit(url, specPath, token string) int {
	specBytes, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return 1
	}
	base := strings.TrimRight(url, "/")
	job, err := fabric.SubmitJob(nil, base, token, specBytes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return 1
	}
	fmt.Println(fabric.JobURL(base, job.ID))
	if job.State == fabric.JobFailed {
		fmt.Fprintf(os.Stderr, "campaign: job %s failed validation: %s\n", job.ID, job.Error)
		return 1
	}
	fmt.Fprintf(os.Stderr, "campaign: job %s %s (%d total trials)\n", job.ID, job.State, job.TotalTrials)
	return 0
}

// runJobList renders the job table of a service.
func runJobList(url string) int {
	jobs, err := fabric.ListJobs(nil, strings.TrimRight(url, "/"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return 1
	}
	fmt.Printf("%-16s %-10s %-10s %12s %22s\n", "JOB", "STATE", "TENANT", "TRIALS", "SLICES d/l/p/c")
	for _, j := range jobs {
		slices := fmt.Sprintf("%d/%d/%d/%d", j.SlicesDone, j.SlicesLeased, j.SlicesPending, j.SlicesCancelled)
		fmt.Printf("%-16s %-10s %-10s %6d/%-6d %22s\n", j.ID, j.State, j.Tenant, j.DoneTrials, j.TotalTrials, slices)
		if j.Error != "" {
			fmt.Printf("%-16s   %s\n", "", j.Error)
		}
	}
	return 0
}

// runWatch polls one job until it reaches a terminal state, reporting
// state transitions on stderr; on success the job's results directory
// is the last line on stdout (the scriptable handle), on failure the
// job's error lands on stderr.
func runWatch(jobURL string) int {
	last := ""
	misses := 0
	for {
		job, err := fabric.GetJob(nil, jobURL)
		if err != nil {
			// Transient blips tolerated; a service gone for good is not.
			if misses++; misses > 20 {
				fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
				return 1
			}
			time.Sleep(500 * time.Millisecond)
			continue
		}
		misses = 0
		if job.State != last {
			last = job.State
			fmt.Fprintf(os.Stderr, "campaign: job %s %s (%d/%d trials, %d/%d slices done)\n",
				job.ID, job.State, job.DoneTrials, job.TotalTrials, job.SlicesDone,
				job.SlicesDone+job.SlicesLeased+job.SlicesPending+job.SlicesCancelled)
		}
		switch job.State {
		case fabric.JobDone:
			fmt.Println(job.OutDir)
			return 0
		case fabric.JobFailed:
			fmt.Fprintf(os.Stderr, "campaign: job %s failed: %s\n", job.ID, job.Error)
			return 1
		}
		time.Sleep(300 * time.Millisecond)
	}
}

// runExecutorMode runs one stateless, job-agnostic executor against a
// registry.
func runExecutorMode(url, name, token string, delay time.Duration, workers int) int {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	err := fabric.RunExecutor(context.Background(), fabric.ExecutorConfig{
		URL:         strings.TrimRight(url, "/"),
		Name:        name,
		Token:       token,
		Workers:     workers,
		UploadDelay: delay,
		Log:         log.New(os.Stderr, "", log.LstdFlags),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return 1
	}
	return 0
}

// printStatus renders a registry's status snapshot; with jsonMode it
// emits the raw snapshot as one indented JSON document instead, so
// dashboards and scripts consume the same fields the text render
// summarizes without scraping it.
func printStatus(url string, jsonMode bool) int {
	st, err := fabric.FetchStatus(nil, strings.TrimRight(url, "/"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return 1
	}
	if jsonMode {
		data, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", data)
		return 0
	}
	state := "running"
	switch {
	case st.Done:
		state = "done"
	case st.Draining:
		state = "draining"
	}
	fmt.Printf("registry %s: up %.0fs, %d job(s), %d slices/entry, lease %s, %d executor(s) seen\n",
		state, st.UptimeSec, len(st.Jobs), st.Slices, time.Duration(st.LeaseMS)*time.Millisecond, st.Executors)
	fmt.Printf("uploads: %d accepted, %d ignored, %d rejected; %d lease(s) stolen\n",
		st.Uploads, st.Ignored, st.Rejected, st.Steals)
	for _, j := range st.Jobs {
		owner := ""
		if j.Tenant != "" {
			owner = " tenant " + j.Tenant
		}
		fmt.Printf("job %s [%s]%s: %d/%d trials; slices %d done, %d leased, %d pending, %d cancelled; %d steal(s)\n",
			j.ID, j.State, owner, j.DoneTrials, j.TotalTrials,
			j.SlicesDone, j.SlicesLeased, j.SlicesPending, j.SlicesCancelled, j.Steals)
		if j.Error != "" {
			fmt.Printf("  error: %s\n", j.Error)
		}
		for _, e := range j.Entries {
			verdict := "running"
			switch {
			case e.Done && e.EarlyStopped:
				verdict = "done (early stop)"
			case e.Done:
				verdict = "done"
			}
			fmt.Printf("  %-38s %-18s merged %d/%d shards, %d/%d trials, %.0f trials/s\n",
				e.Entry, verdict, e.PrefixShards, e.NumShards, e.DoneTrials, e.TotalTrials, e.TrialsPerSec)
			for _, s := range e.Slices {
				if s.State == "leased" {
					fmt.Printf("  %-38s   slice %d leased to %s (%d trials, %d steal(s))\n",
						"", s.Index, s.Holder, s.Trials, s.Steals)
				}
			}
		}
	}
	return 0
}
