// Command campaign runs a declarative multi-scenario spec file on the
// shared experiment engine: Monte Carlo fault injection, multi-bit
// upset comparisons, page-level interleaving sweeps, whole-memory
// cross-validation, analytic BER curves, design-space sweeps and
// whole registry experiments, all sharded over a worker pool with
// deterministic seeding, optional checkpointing, early stopping and
// pass/fail tolerance bands.
//
// Usage:
//
//	campaign -spec examples/campaign/spec.json
//	campaign -spec examples/campaign/matrix.json -out results/
//	campaign -spec spec.json -list
//
// A spec entry with a "matrix" field expands into the cross-product
// of its parameter lists (-list shows the expanded grid); the cells
// run as independent scenarios and their results are additionally
// summarized as one grid table plus a heatmap of the headline counter
// fraction per matrix entry. A "replicates" field adds a seed axis
// (independent RNG replicates of the identical configuration).
//
// # Rare events
//
// A scenario with a "sampling" block runs under importance sampling:
// {"method":"tilt","factor":F} jointly multiplies the fault rates by
// F and reweights every trial by its likelihood ratio, and
// {"method":"auto"} solves the factor from the analytic simplex chain
// and gates the weighted estimate against the chain's untilted
// answer. Weighted scenarios render the biased-measure counts plus
// the weighted estimate, its relative error and the effective sample
// size; a "stop" rule with "rel_half_width" stops them once the
// estimate's relative error is small enough. See
// examples/campaign/rare.json.
//
// # Multi-process sharding
//
// The engine's planner deterministically splits every scenario's
// shard range into N disjoint contiguous slices, so a campaign can
// run as N independent processes (different machines included — the
// slices share nothing but the spec file):
//
//	campaign -spec spec.json -partition 0/3 -partials parts/
//	campaign -spec spec.json -partition 1/3 -partials parts/
//	campaign -spec spec.json -partition 2/3 -partials parts/
//	campaign -spec spec.json -merge -partials parts/ -out results/
//
// Each -partition run executes only its slice of every scenario and
// writes a self-describing partial-result artifact under -partials
// (append-only, resumable: rerun the same command after a crash and
// only missing shards are recomputed). Artifacts are fingerprinted
// with a digest of the entry's kind and params, so editing a
// scenario's params in the spec makes both resume and merge refuse
// the stale artifacts instead of silently folding shards computed
// under the old parameters (delete the partials or revert the edit;
// artifacts from before the digest existed are exempt). The -merge
// run folds the partials into results that are bit-identical to an
// unpartitioned run — including early stopping, which the merger
// re-decides on the contiguous shard prefix (partitions deliberately
// over-run). With
// -stream, the merge feeds samples straight from the partial
// artifacts into the CSV artifacts without materializing them, so
// million-sample campaigns merge in bounded memory (JSON artifacts
// then omit the samples array, and per-scenario rendering is
// suppressed).
//
// # Distributed fabric
//
// The same partitioning can run as a coordinated fleet instead of
// hand-launched -partition processes. -serve hosts a multi-tenant job
// service: campaigns are submitted while it runs, many jobs share one
// executor fleet, and each job merges server-side into its own
// namespace:
//
//	campaign -serve :9618 -partials work/ -tenants alice=s3cret:4,bob=hunter2
//	campaign -submit http://svc:9618 -spec spec.json -token s3cret   # prints the job URL
//	campaign -jobs   http://svc:9618                                 # job table
//	campaign -watch  http://svc:9618/jobs/j-abc123def456             # block until done; prints results dir
//	campaign -executor http://svc:9618 -token s3cret                 # on any machine, any number of times
//	campaign -status http://svc:9618                                 # progress, lease states, trials/sec
//	campaign -status http://svc:9618 -json                           # the same snapshot as JSON
//
// Jobs are keyed by the spec's content digest (resubmitting identical
// bytes returns the same job), and a spec that fails validation is
// recorded as a failed job — visible in -jobs and -status — rather
// than vanishing. The scheduler hands any executor work from any
// runnable job, round-robin across jobs for fair-share, and a
// tenant's maxLeases caps its concurrently leased slices so one
// tenant cannot starve the fleet. When -tenants is set, every
// mutating request (submit, delete, lease, renew, upload) must carry
// a matching bearer token; reads stay open. DELETE on a job's URL
// cancels it. -drain-after N makes the service exit once N jobs have
// been submitted and all of them finished (the CI shape); otherwise
// it serves until killed.
//
// Every scenario is planned into -slices deterministic slices;
// executors are stateless and job-agnostic (each lease names
// its job and spec digest; the executor fetches and caches the spec
// per job, so it needs nothing but the URL), compute their slice in
// memory and upload the partial artifact gzip-compressed (stored
// as-is; the artifact reader sniffs the compression), renewing their
// lease while they work. A lease that expires — executor crashed,
// hung, or was killed — is stolen by the next executor asking for
// work, so the campaign finishes without operator action; duplicate
// uploads of a re-run slice are byte-identical and ignored. Uploads
// are validated against the slice's plan (geometry, partition, params
// digest, completeness) before they land in the job's per-spec
// namespace under -partials, the registry re-decides early stopping
// on the contiguous shard prefix as uploads arrive (cancelling slices
// past the stopping point), and when every slice is in, the job
// merges into the results directory of its namespace — producing
// artifacts bit-identical to an unpartitioned -out run — and checks
// the spec's expectation bands (a violated band fails the job).
// -exec-delay delays an executor's uploads (a fault-injection hook
// for exercising lease expiry), and -exec-name labels it in
// coordinator logs.
//
// # Modes and the flags they read
//
// -partition, -merge, -serve, -executor, -submit, -jobs, -watch and
// -status each select a mode, and at most one may be given; without
// one, the command runs the spec. A mode reads only the flags listed
// here, and any other flag given with it is refused, not ignored:
//
//	(run)       -spec -out -workers -q -list
//	-partition  -spec -partials -workers
//	-merge      -spec -partials -out -q -stream
//	-serve      -partials -slices -lease-timeout -tenants -drain-after
//	-executor   -token -exec-name -exec-delay -workers
//	-submit     -spec -token
//	-jobs       (none)
//	-watch      (none)
//	-status     -json
//
// With -out, every scenario additionally writes <name>.json (the raw
// engine result) and <name>.csv (counters and samples) into the
// directory; matrix cells land in a subdirectory named after the
// matrix entry, one CSV per cell. The exit status is non-zero if any
// scenario fails to build or run, or if any expectation band is
// violated — which is what lets CI gate on probability drift.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/campaign"
	"repro/internal/campaign/spec"
	"repro/internal/expdata"
)

func main() {
	var (
		specPath  = flag.String("spec", "", "campaign spec file (JSON); required")
		outDir    = flag.String("out", "", "directory for per-scenario JSON/CSV results")
		workers   = flag.Int("workers", 0, "override the spec's worker count (0 = keep)")
		list      = flag.Bool("list", false, "list the spec's scenarios and exit")
		quiet     = flag.Bool("q", false, "suppress per-scenario rendering, print only verdicts")
		partition = flag.String("partition", "", "run only slice i/N of every scenario (e.g. 0/3), writing partial artifacts under -partials")
		merge     = flag.Bool("merge", false, "merge the partial artifacts under -partials instead of running scenarios")
		partials  = flag.String("partials", "", "directory of partial-result artifacts; required by, and used only with, -partition, -merge and -serve")
		stream    = flag.Bool("stream", false, "with -merge and -out: stream samples into the CSV artifacts instead of holding them in memory (implies -q; JSON artifacts omit samples)")

		serveAddr    = flag.String("serve", "", "host the fabric job service on this address (e.g. :9618): specs arrive with -submit, executors pull slice leases, each job merges server-side")
		executorURL  = flag.String("executor", "", "run as a stateless fabric executor against the coordinator at this base URL (fetches the spec from it; no -spec needed)")
		statusURL    = flag.String("status", "", "print the fabric coordinator's status (per-slice lease state, trials/sec, merge progress) at this base URL and exit")
		statusJSON   = flag.Bool("json", false, "with -status: print the coordinator's status snapshot as JSON instead of text")
		slices       = flag.Int("slices", 0, "with -serve: slices per scenario, the work-stealing granularity (0 = 8)")
		leaseTimeout = flag.Duration("lease-timeout", 0, "with -serve: how long a leased slice may go without an upload or renewal before another executor steals it (0 = 1m)")
		execName     = flag.String("exec-name", "", "with -executor: executor name in leases and coordinator logs (default: host:pid)")
		execDelay    = flag.Duration("exec-delay", 0, "with -executor: sleep between computing a slice and uploading it — a fault-injection hook for testing lease expiry and work stealing")

		submitURL  = flag.String("submit", "", "submit -spec as a job to the fabric service at this base URL; prints the job URL")
		jobsURL    = flag.String("jobs", "", "list the jobs of the fabric service at this base URL and exit")
		watchURL   = flag.String("watch", "", "poll the job at this URL (as printed by -submit) until it reaches a terminal state; prints its results directory on success")
		token      = flag.String("token", "", "bearer token for -submit/-executor against a service running with -tenants")
		tenants    = flag.String("tenants", "", "with -serve: comma-separated name=token[:maxLeases] credentials; mutating requests must then authenticate, and maxLeases caps a tenant's concurrently leased slices")
		drainAfter = flag.Int("drain-after", 0, "with -serve: exit once this many jobs were submitted and all finished (0 = serve until killed)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "campaign: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	mode, err := selectMode()
	if err != nil {
		fatal(err)
	}
	switch mode {
	case "status":
		os.Exit(printStatus(*statusURL, *statusJSON))
	case "jobs":
		os.Exit(runJobList(*jobsURL))
	case "watch":
		os.Exit(runWatch(*watchURL))
	case "executor":
		// Executors are stateless: specs come from the service.
		os.Exit(runExecutorMode(*executorURL, *execName, *token, *execDelay, *workers))
	case "submit":
		if *specPath == "" {
			fatal(fmt.Errorf("-submit posts a spec to a job service; pass -spec too"))
		}
		os.Exit(runSubmit(*submitURL, *specPath, *token))
	case "serve":
		// Multi-tenant job service: no campaign of its own, jobs arrive
		// over POST /jobs and merge server-side.
		if *partials == "" {
			fatal(fmt.Errorf("-serve needs -partials, the work directory job namespaces land in"))
		}
		os.Exit(runService(serveOptions{
			addr:         *serveAddr,
			baseDir:      *partials,
			slices:       *slices,
			leaseTimeout: *leaseTimeout,
			tenants:      *tenants,
			drainAfter:   *drainAfter,
		}))
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "campaign: -spec is required")
		flag.Usage()
		os.Exit(2)
	}
	var part campaign.Partition
	if mode == "partition" {
		p, err := campaign.ParsePartition(*partition)
		if err != nil {
			fatal(err)
		}
		part = p
	}
	if (mode == "partition" || mode == "merge") && *partials == "" {
		fatal(fmt.Errorf("-partition/-merge need -partials, the partial-artifact directory"))
	}
	if *stream {
		if *outDir == "" {
			// Without an output directory there is nowhere to stream
			// to; silently falling back to an in-memory merge would be
			// exactly the unbounded behavior -stream exists to avoid.
			fatal(fmt.Errorf("-stream needs -out"))
		}
		*quiet = true // sample-based renders cannot run without materialized samples
	}

	f, err := spec.Load(*specPath)
	if err != nil {
		fatal(err)
	}
	if *workers > 0 {
		f.Workers = *workers
	}
	built, err := f.BuildAll()
	if err != nil {
		fatal(err)
	}
	if *list {
		for _, b := range built {
			fmt.Printf("%-20s %-12s %s\n", b.Entry.Name, b.Entry.Kind, b.Scenario.Name())
		}
		return
	}

	if mode == "partition" {
		os.Exit(runPartition(f, built, part, *partials))
	}
	os.Exit(runCampaigns(f, built, runOptions{
		outDir: *outDir,
		quiet:  *quiet,
		merge:  *merge,
		stream: *stream,
		dir:    *partials,
	}))
}

// modeFlags maps each mode flag to the other flags that mode reads;
// "" is a run without a mode flag.
var modeFlags = map[string][]string{
	"":          {"spec", "out", "workers", "q", "list"},
	"partition": {"spec", "partials", "workers"},
	"merge":     {"spec", "partials", "out", "q", "stream"},
	"serve":     {"partials", "slices", "lease-timeout", "tenants", "drain-after"},
	"executor":  {"token", "exec-name", "exec-delay", "workers"},
	"submit":    {"spec", "token"},
	"jobs":      nil,
	"watch":     nil,
	"status":    {"json"},
}

// selectMode returns the mode the command line selects, refusing a
// second mode flag and any flag the mode does not read. A flag counts
// as given when its value differs from its default.
func selectMode() (string, error) {
	mode := ""
	var given []string
	var err error
	flag.Visit(func(f *flag.Flag) {
		_, isMode := modeFlags[f.Name]
		switch {
		case f.Value.String() == f.DefValue:
		case !isMode:
			given = append(given, f.Name)
		case mode == "":
			mode = f.Name
		case err == nil:
			err = fmt.Errorf("-%s and -%s are separate modes; pass one of them", mode, f.Name)
		}
	})
	if err != nil {
		return "", err
	}
	for _, name := range given {
		if slices.Contains(modeFlags[mode], name) {
			continue
		}
		what := "a run without a mode flag"
		if mode != "" {
			what = "-" + mode
		}
		return "", fmt.Errorf("%s does not read -%s", what, name)
	}
	return mode, nil
}

// runPartition executes one slice of every scenario, writing partial
// artifacts; expectations and rendering wait for the merge.
func runPartition(f *spec.File, built []*spec.Built, part campaign.Partition, dir string) int {
	failures := 0
	for _, b := range built {
		partial, err := b.RunPartition(f, part, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %s: %v\n", b.Entry.Name, err)
			failures++
			continue
		}
		fmt.Printf("%-40s partition %s: %d trials (%d resumed) -> %s\n",
			b.Entry.Name, part, partial.DoneTrials(), partial.ResumedTrials(), partial.Path())
		partial.Close()
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "campaign: %d failure(s)\n", failures)
		return 1
	}
	return 0
}

type runOptions struct {
	outDir string
	quiet  bool
	merge  bool // obtain results by merging partials instead of running
	stream bool // stream samples to CSV during the merge
	dir    string
}

// runCampaigns obtains every scenario's result (running it, or
// merging its partial artifacts), renders, checks expectations and
// writes artifacts.
func runCampaigns(f *spec.File, built []*spec.Built, opts runOptions) int {
	if opts.outDir != "" {
		if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	failures := 0
	// Matrix cells are summarized as one grid table plus heatmap per
	// origin after all scenarios have run; their per-cell rendering is
	// suppressed (a 12-cell sweep would drown the output).
	var gridOrder []string
	grids := make(map[string][]spec.GridCell)
	cellCount := make(map[string]int)
	for _, b := range built {
		cellCount[b.Entry.MatrixOrigin]++
	}
	headerPrinted := make(map[string]bool)
	for _, b := range built {
		// One header per matrix (at its first cell), not one per cell —
		// the cells' results arrive as a single grid table at the end
		// (which also shows each cell's own trial count; "trials" can
		// itself be a swept axis).
		verb := "running"
		if opts.merge {
			verb = "merging"
		}
		if origin := b.Entry.MatrixOrigin; origin != "" {
			if !headerPrinted[origin] {
				headerPrinted[origin] = true
				fmt.Printf("%s matrix %s: %d %s cells...\n", verb, origin, cellCount[origin], b.Entry.Kind)
			}
		} else {
			fmt.Printf("=== %s (%s, %d trials) ===\n", b.Entry.Name, b.Entry.Kind, b.Scenario.Trials())
		}
		cres, err := obtainResult(f, b, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %s: %v\n", b.Entry.Name, err)
			failures++
			continue
		}
		if origin := b.Entry.MatrixOrigin; origin != "" {
			if _, ok := grids[origin]; !ok {
				gridOrder = append(gridOrder, origin)
			}
			grids[origin] = append(grids[origin], spec.GridCell{Built: b, Result: cres})
		} else if !opts.quiet {
			if err := b.Render(os.Stdout, cres); err != nil {
				fmt.Fprintf(os.Stderr, "campaign: %s: render: %v\n", b.Entry.Name, err)
				failures++
			}
		}
		for _, err := range b.CheckExpectations(cres) {
			fmt.Fprintf(os.Stderr, "campaign: EXPECTATION FAILED: %v\n", err)
			failures++
		}
		if opts.outDir != "" && !opts.stream {
			if err := b.WriteArtifacts(opts.outDir, cres); err != nil {
				fmt.Fprintf(os.Stderr, "campaign: %s: %v\n", b.Entry.Name, err)
				failures++
			}
		}
		if b.Entry.MatrixOrigin == "" {
			fmt.Println()
		}
	}
	if !opts.quiet {
		if len(gridOrder) > 0 {
			fmt.Println()
		}
		for _, origin := range gridOrder {
			if err := spec.RenderGrid(os.Stdout, grids[origin]); err != nil {
				fmt.Fprintf(os.Stderr, "campaign: %s: grid: %v\n", origin, err)
				failures++
			}
			fmt.Println()
			if err := spec.RenderGridHeatmap(os.Stdout, grids[origin]); err != nil {
				fmt.Fprintf(os.Stderr, "campaign: %s: heatmap: %v\n", origin, err)
				failures++
			}
			fmt.Println()
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "campaign: %d failure(s)\n", failures)
		return 1
	}
	return 0
}

// obtainResult runs the scenario in-process, or — in merge mode —
// folds its partial artifacts, optionally streaming samples straight
// into the CSV artifact.
func obtainResult(f *spec.File, b *spec.Built, opts runOptions) (*campaign.Result, error) {
	if !opts.merge {
		return campaign.Run(b.Scenario, b.EngineConfig(f))
	}
	if !opts.stream {
		return b.MergePartials(f, opts.dir, nil)
	}
	// Stream into a temp file and rename only on success, so a failed
	// merge never leaves a silently truncated CSV in the results
	// directory for downstream globs to ingest.
	csvPath := filepath.Join(opts.outDir, filepath.FromSlash(b.Entry.ArtifactPath())+".csv")
	if err := os.MkdirAll(filepath.Dir(csvPath), 0o755); err != nil {
		return nil, err
	}
	csvTmp := csvPath + ".tmp"
	csvFile, err := os.Create(csvTmp)
	if err != nil {
		return nil, err
	}
	defer func() {
		csvFile.Close()
		os.Remove(csvTmp) // no-op after the successful rename
	}()
	sink := &noteKeepingSink{CampaignCSVStream: expdata.NewCampaignCSVStream(csvFile)}
	cres, err := b.MergePartials(f, opts.dir, sink)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	if err := csvFile.Close(); err != nil {
		return nil, err
	}
	if err := os.Rename(csvTmp, csvPath); err != nil {
		return nil, err
	}
	// The JSON artifact carries counters, bookkeeping and notes
	// (bounded, unlike samples); only the sample array lives
	// exclusively in the CSV just streamed.
	cres.Notes = sink.notes
	if err := spec.WriteResultJSON(filepath.Join(opts.outDir, filepath.FromSlash(b.Entry.ArtifactPath())+".json"), cres); err != nil {
		return nil, err
	}
	return cres, nil
}

// noteKeepingSink streams samples to the CSV writer but retains notes
// — the campaign CSV schema has no note rows, and dropping them from
// the JSON artifact too would silently lose data a non-stream merge
// keeps. Notes are per-trial annotations, bounded like counters, so
// holding them does not reopen the memory bound -stream exists for.
type noteKeepingSink struct {
	*expdata.CampaignCSVStream
	notes []campaign.Note
}

func (s *noteKeepingSink) Note(n campaign.Note) error {
	s.notes = append(s.notes, n)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
	os.Exit(1)
}
