// Package repro reproduces "On the Analysis of Reed Solomon Coding
// for Resilience to Transient/Permanent Faults in Highly Reliable
// Memories" (Schiano, Ottavi, Lombardi, Pontarelli, Salsano, DATE
// 2005) as a production-quality Go library.
//
// The implementation lives under internal/: the Reed-Solomon codec
// and its field/polynomial substrates (gf, gfpoly, rs), the CTMC
// engine standing in for the paper's SURE solver (markov), the two
// memory-system models (simplex, duplex), the top-level BER analysis
// API (core), the duplex arbiter and Monte Carlo fault-injection
// simulator (arbiter, scrub, memsim), the Section 6 cost models
// (complexity), rate/unit conventions (reliability), terminal plotting
// (textplot), and the experiment registry regenerating every paper
// figure (expdata).
//
// The benchmarks in this root package drive the registry: one
// benchmark per paper figure and table, plus ablations over the
// modeling decisions (the Ablation* benchmarks in bench_test.go, whose
// comments describe each decision). Run
//
//	go test -bench=. -benchmem
//
// to regenerate everything, or use cmd/sweep for human-readable plots.
//
// # The allocation-free codec hot path
//
// Every experiment above funnels millions of words through the
// Reed-Solomon codec, so internal/rs is built as a set of streaming
// kernels with a zero-allocation steady state: rs.Code.EncodeTo runs a
// parity LFSR straight into the destination slice, rs.Code.SyndromesInto
// fills a caller buffer, and an rs.Decoder workspace (one per
// goroutine, from rs.Code.NewDecoder) decodes with zero allocs/op on
// every successful path. The original Encode/Decode signatures remain
// as thin wrappers over a pooled workspace for callers that want to
// retain results. internal/memsim threads one workspace set through
// each simulation worker and internal/arbiter owns a pair per arbiter,
// so Monte Carlo campaigns no longer allocate per trial; the
// per-kernel trajectory is tracked by the microbenchmarks in
// internal/rs (go test ./internal/rs -bench . -benchmem) and gated by
// its TestSteadyStateZeroAllocs.
//
// # Batch decode: the syndrome-first scrub path
//
// Scrub-scale workloads invert the decoder's cost profile: a scrub
// pass decodes every stored word, and almost all of them are clean, so
// the per-word pipeline wastes its Berlekamp-Massey/Chien machinery on
// words whose syndromes would have said "nothing to do". The batch
// layer (rs.Batch, rs.Code.NewBatchDecoder, rs.BatchDecoder.DecodeAll)
// decodes a contiguous word arena by screening every word — erasures
// included — with a packed syndrome-contribution table, a few wide
// XORs per symbol instead of d dependent multiplies. Clean words never
// leave the screen; a dirty word hands its already-folded syndromes
// straight to the per-word pipeline instead of recomputing them, and
// erasure-carrying words resolve their locator through a
// content-keyed erasure-set cache (the locator polynomial and its
// Chien/Forney setup depend only on the position set, which scrub
// workloads repeat arena-wide), so an erasure-only word completes by
// evaluating cached roots with no Berlekamp-Massey iteration and no
// Chien sweep. Outcomes are guaranteed word-for-word identical to
// rs.Decoder.Decode (the equivalence property tests in internal/rs
// enforce this across worker counts, and fixed-seed golden tests in
// pagesim and memsim pin the simulators' outputs across the switch),
// and the steady state allocates nothing. BatchDecoder.SetWorkers
// shards large arenas across a persistent goroutine pool with
// bit-identical results for any worker count, and
// BatchDecoder.DecodeStream scrubs stores larger than memory chunk by
// chunk through fill/emit callbacks with one reused sub-arena. On the
// 1-core reference container the erasure-heavy RS(255,223) arena
// decodes ~6.6x faster than the pre-cache batch path (5.7 -> ~38
// MB/s) and the clean-arena screen holds >300 MB/s.
// interleave.Codec.DecodeTo decodes each page as one depth-word arena
// (with a split memo keeping per-stripe erasure lists stable across
// scrub passes, and Codec.DecodeSequence streaming page sequences),
// which pagesim inherits, and the memsim worker streams its scrub
// arena the same way, so every Monte Carlo scrub loop rides the fast
// path.
//
// # The campaign engine: plan, execute, merge
//
// Every experiment — Monte Carlo fault injection (memsim), multi-bit
// upset comparisons (mbusim), analytic BER curves and design-space
// sweeps, whole registry regenerations — runs on one orchestration
// subsystem, internal/campaign. A scenario implements two small
// interfaces: Scenario (name, trial count, worker factory) and Worker
// (run trial i into an accumulator of named counters, (x, y) samples
// and notes). The engine is three explicit layers. The planner
// deterministically shards the trial range into fixed contiguous
// shards and assigns a contiguous slice of the shard range to a
// Partition{Index, Count} — shard boundaries and per-trial seeds
// depend only on the global trial index, so any partitioning computes
// the very shards a single process would. The executor runs one
// partition's shards over a goroutine pool of per-worker codec
// workspaces and appends each completed shard to a self-describing
// partial-result artifact (an append-only JSON Lines file that
// doubles as the resumable checkpoint and as the spill target that
// keeps executor memory bounded for million-sample campaigns: spilled
// samples leave the heap once durably on disk). The merger folds any
// set of partials — one process or many — in global shard order into
// a Result that is bit-identical to the single-process run, after
// validating that the partials share one campaign fingerprint and
// cover the shard range disjointly and completely; a merge Sink can
// stream samples straight into internal/expdata's streaming CSV
// writer instead of materializing them. Wilson-interval early
// stopping stays deterministic under partitioning: a single-process
// executor stops launching shards when the rule fires on the
// contiguous prefix, while partitioned executors deliberately
// over-run (they cannot see the global prefix) and the merger
// re-decides the stop on the same prefix, landing on the identical
// shard. One type owns that decision: campaign.PrefixFold folds
// completed shards in global order — counters and recorded weight
// moments over the prefix [0, Next()) — and evaluates the stop rule
// after each shard (Wilson, or relative error for weighted campaigns,
// behind the per-trial binomial guard). The single-process executor,
// the merger and the fabric registry all call it, so the layers cannot
// disagree about when a campaign stops, and a stop counter no rule can
// use (one that counts more than once per trial, or carries no weight
// moments in a weighted campaign) is refused by every layer at the
// same shard with the same error.
//
// The cmd/ binaries are thin scenario frontends: memsim, mbusim,
// bercurve, sweep and tradeoff each build one scenario and format its
// campaign result, while cmd/campaign runs a declarative multi-
// scenario JSON spec (internal/campaign/spec; runnable files under
// examples/campaign/) whose entries can carry early-stop rules,
// checkpoint paths and tolerance bands on counter fractions.
// cmd/campaign's -partition i/N flag executes one slice of every
// scenario (partial artifacts under -partials), and -merge reassembles
// the slices into results byte-identical to an unpartitioned run —
// the multi-process sharding workflow CI smoke-tests end to end.
//
// # Trial RNG
//
// Each simulator worker owns one generator and reseeds it with
// campaign.TrialSeed(base, i) before trial i, so a trial's draws do
// not depend on which worker runs it. math/rand's Seed rebuilds its
// whole 607-word lagged-Fibonacci state (1,841 LCG steps), which cost
// more than the rest of a memsim trial, while a trial makes only a few
// dozen draws. The workers therefore draw from campaign.NewTrialRand:
// a *rand.Rand whose source is math/rand's, reproduced bit for bit,
// but whose Seed only records the seed. Each state word is built the
// first time a draw reads it, from a precomputed table of LCG
// multiplier powers, so a trial of d draws builds at most 2d words.
// The stream must stay byte-identical to math/rand's because every
// fixed-seed golden, artifact sha256, checkpoint and benchmark digest
// in the repository was produced with it; a new generator would
// silently change them all. The 607 seeding constants are copied from
// the Go distribution's src/math/rand/rng.go with its BSD notice, and
// a law test plus FuzzTrialRand compare the source with math/rand
// across seeds, draw kinds and reseeds.
//
// # Weighted trials: importance sampling for the 1e-9..1e-15 regime
//
// The engine's counters are weighted: a Worker may record a trial's
// contribution with an arbitrary nonnegative weight (Acc.AddWeighted)
// and the engine folds first and second weight moments per counter
// alongside the integer counts, in every layer — shards, partial
// artifacts (a version-3 JSONL record; version-2 artifacts load as
// unit-weight), checkpoints, resume, partitioned merges and the
// fabric's incremental prefix fold. Unit-weight campaigns are
// bit-identical to the pre-weighted engine: a Result carries weight
// moments only when some trial actually recorded a non-unit weight,
// so existing artifacts, goldens and renderings are byte-for-byte
// unchanged. On top of the weighted counters sit the weighted
// estimator (Result.WeightedFraction, StdErr, RelErr,
// EffectiveSamples) and a relative-error early-stop rule
// (StopRule.RelHalfWidth, weighted or not) that complements the
// Wilson rule; every layer decides weighted stops through the same
// PrefixFold as Wilson stops, preserving the determinism law.
//
// The first weighted scenario family is exponential tilting of the
// fault processes in memsim and pagesim: all fault rates are jointly
// multiplied by a factor theta>1 — only the arrival clock changes,
// never the event-type split — and each trial carries the likelihood
// ratio theta^-k * exp((theta-1)*R0*H) of its k arrivals, making rare
// failures common in the biased measure while the weighted estimator
// stays unbiased for the true probability. Both simulators run their
// event loops on one scrub.Clock: it interleaves the (optionally
// tilted) Poisson arrivals with the scrub schedule scrub.New selects,
// reports each next event as a Fault, Scrub or Done, and returns the
// trial's likelihood ratio, so the tilted arrival draw and its
// correction exist once. Spec entries opt in with a
// "sampling" block: {"method":"tilt","factor":F} sets the factor
// explicitly, and {"method":"auto"} solves it from the analytic
// simplex chain (bisecting the jointly tilted rates until the chain's
// failure probability at the horizon reaches 0.25) and installs a
// merge-time gate requiring the weighted estimate to agree with the
// untilted chain within four standard errors. cmd/campaign renders
// weighted entries with the biased-measure counts plus the weighted
// estimate, its relative error and the effective sample size, and
// examples/campaign/rare.json resolves a p ~ 1e-9 mission (analytic
// 1.04e-9) to ±10% relative error in under a second — brute force
// would need ~4e10 trials for the same error. Tilted and untilted
// artifacts never merge (the tilt factor is part of the scenario
// fingerprint, and weighted/unweighted partial versions refuse each
// other).
//
// A file-level "adaptive" block {"round_trials":N,"max_rounds":M}
// re-plans the trial budget across scenarios between merge rounds:
// each round evaluates every entry's current relative error from its
// partial artifacts and allocates the next N trials proportionally to
// squared relative error (spend where the CI is widest), executing
// only the covering shard prefix until every stop rule fires or the
// requested trials are exhausted — deterministic, resumable, and
// single-process (the flag conflicts with -partition/-merge/-serve
// are diagnosed).
//
// Spec entries can also carry a "matrix" field mapping parameter
// names to value lists: the entry expands into the full cross-product
// of cells (auto-suffixed names, shared defaults, the entry's
// expectation bands applied to every cell), so one entry expresses an
// RS(n,k) x interleaving-depth x scrub-interval study whose results
// cmd/campaign renders as a grid table plus a textplot heatmap of the
// headline counter fraction, with per-cell CSV artifacts. A
// "replicates" field synthesizes a seed axis (independent RNG
// replicates of one configuration — a CI of the CI). Two Monte Carlo
// scenario kinds give the matrix its sweep axes beyond memsim:
// "interleave" (internal/pagesim) drives an interleave.Page through
// mixed Poisson SEUs, MBU bursts (lengths fixed or geometric via
// internal/burstlen, always applied in full — no edge truncation) and
// stuck-at columns under a scrub discipline, empirically validating
// the CorrectableBurst guarantee (single-burst trials within the
// guarantee must never lose a page); "array" (array.SimConfig)
// simulates the word-level system with rates matched to the analytic
// chain and cross-validates array.Evaluate's memory-level AnyWordFail
// against the Monte Carlo's Wilson band, failing the campaign on
// disagreement.
//
// Stuck-column location in pagesim is an explicit controller process,
// not a free side effect of injection: a column is physically stuck
// from its strike instant, but only located columns reach the decoder
// as erasures (the paper's located-fault doubling, n-k erasures vs
// (n-k)/2 errors). The detection policy bridges the two states —
// "immediate" (strike-instant location, the historical behavior,
// bit-identical RNG stream and outputs), "scrub" (located when a
// scrub pass observes the symbol deviate from the corrected codeword,
// with miscorrection possible while unlocated), or "latency" (located
// a fixed delay after striking, mirroring
// memsim.Config.DetectionLatency) — and non-immediate campaigns
// report located_columns, stuck_unlocated_reads and a
// time_to_location sample series. examples/campaign/detection.json
// sweeps policy x scrub period x depth to quantify how much
// reliability the free-erasures assumption overstated (roughly 2x
// page loss under realistic location in the committed configuration).
//
// # The distributed campaign fabric
//
// internal/fabric takes the plan/execute/merge split across machines,
// organized as a job service. A registry holds any number of jobs —
// one job per submitted spec, keyed by the spec's content digest
// (resubmitting identical bytes is idempotent) — each planned into
// deterministic slices: the same Partition geometry -partition uses,
// so the engine's determinism law applies unchanged. Jobs move
// through pending, running, merging and done/failed; a spec that
// fails validation is recorded as a failed job rather than vanishing,
// so operators see it in the job list with its error. The HTTP job
// API (POST/GET /jobs, GET/DELETE /jobs/{id}, GET /jobs/{id}/spec)
// rides next to the lease protocol, and cmd/campaign fronts it with
// -serve (the service), -submit, -jobs, -watch and -status verbs;
// with -spec, -serve degenerates to the original single-campaign
// coordinator, which merges in-process and produces byte-identical
// artifacts to an unpartitioned run.
//
// Executors (cmd/campaign -executor, needing nothing but the service
// URL) are stateless and job-agnostic: every lease names its job and
// the spec's full digest, and the executor fetches, verifies and
// caches each job's spec on first contact, so one fleet drains many
// campaigns concurrently. The scheduler hands work round-robin across
// runnable jobs (fair share), and per-tenant quotas cap how many
// slices a tenant may hold concurrently; when the registry is
// configured with tenants, every mutating request — submit, delete,
// lease, renew, upload — must carry the tenant's bearer token, reads
// stay open, and only a job's owner may delete it. Executors retry
// with capped, jittered exponential backoff and honor context
// cancellation, so a restarting service sees a gentle reconnect
// rather than a stampede. Executors compute their
// slice in memory, renew their lease while working, and upload the
// serialized partial artifact gzip-compressed (roughly 10:1 on JSONL;
// the registry stores uploads verbatim and the artifact reader
// sniffs the gzip magic, so compressed and plain partials mix freely
// in one merge); the registry validates every upload
// against the slice's plan (geometry, partition, params digest,
// completeness) before accepting it into the job's per-spec namespace
// directory. A lease that expires — executor crashed, hung, or
// SIGKILLed — is stolen by the next executor asking for work, and
// because slices are pure functions of the global trial index, the
// recomputed upload is byte-identical and any zombie duplicate is
// simply ignored. Between arrivals the registry feeds the contiguous
// shard prefix to each entry's PrefixFold, cancelling slices past the
// stopping shard so a fleet never computes work a single process
// would have skipped; a fold error fails the job and cancels its
// remaining slices. When a job's last slice lands, the ordinary
// merge runs server-side into the job's namespace (or in the -serve
// process in legacy single-spec mode): the fabric's end-to-end law,
// enforced by CI with two concurrent jobs on three shared executors
// (and a chaos pass SIGKILLing one mid-run), is that every job's
// merged artifacts are byte-identical to an unpartitioned run's. A
// status endpoint (cmd/campaign -status) reports per-job state and
// per-slice lease state, steal counts, trials/sec and merge progress,
// as text or as a JSON snapshot (-status -json) for dashboards and
// scripts.
//
// Campaign identity is guarded end to end: partial artifacts and
// checkpoints carry the scenario name, geometry and — when run
// through the spec layer — a digest of the entry's kind and
// canonicalized params, so editing a spec entry refuses to resume or
// merge artifacts computed under the old parameters (pre-digest
// artifacts stay loadable; the edit-detection caveat is documented in
// internal/campaign/spec).
//
// # Continuous integration gates
//
// The ci workflow builds and tests on the current and previous Go
// release (plus go vet and go test of the separate perfbench module,
// whose tests pin its layer map and BENCHMARK.json against the
// program), race-gates the worker-pool engine (go test -race ./...),
// enforces gofmt/go vet plus a pinned staticcheck, smoke-runs every
// binary's error paths
// (non-zero exits), a multi-scenario campaign spec, the matrix
// sweep spec (12 interleave cells plus the whole-memory analytic
// cross-check), and the partitioned workflow (three -partition
// processes merged and diffed byte-identically against the
// unpartitioned artifacts, plus a -stream merge reproducing the same
// CSV bytes), and gates benchmark regressions: the codec
// microbenchmarks, the interleaved-page codec benchmarks and root
// solver benchmarks run at -benchtime 100x -count=5 and cmd/benchdiff
// compares them against the committed BENCH_baseline.json, failing on
// any allocation increase or a >25% latency regression (min-of-5
// ns/op, so one-sided scheduler noise cannot fake a pass or a fail).
// A fabric-e2e job runs the coordinator/executor fleet as local
// processes — three healthy executors, then a multi-tenant pass
// submitting two specs to one job service and requiring the shared
// fleet to provably interleave leases across both jobs, then a chaos
// pass that SIGKILLs an executor mid-run and requires its lease to be
// stolen — and diffs every merged result tree byte-for-byte against
// the unpartitioned run. Every job carries a timeout, and failing e2e jobs upload their
// logs and partial artifacts for post-mortem.
// The ci smoke also runs the rare-event spec
// (examples/campaign/rare.json), which gates both the importance-
// sampling machinery (the auto-tilt chain agreement gate) and the
// spec's own tolerance band around the analytic 1.04e-9.
// The nightly workflow reruns the accelerated SSMM mission, the
// interleaved-page mission (10k deterministic trials each) and a
// tilted rare-event simplex mission, and fails if any measured
// probability leaves its tolerance band in
// examples/campaign/nightly.json.
package repro
