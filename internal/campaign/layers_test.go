package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPlanPartitionsDisjointAndComplete(t *testing.T) {
	for _, tc := range []struct{ trials, shardSize, parts int }{
		{2000, 64, 1}, {2000, 64, 3}, {2000, 64, 7}, {100, 256, 3},
		{5, 1, 8}, // more partitions than shards: some slices are empty
		{1, 256, 4},
	} {
		scn := &coinScenario{name: "coin", trials: tc.trials, seed: 1, p: 0.5}
		covered := make(map[int]int)
		var numShards int
		for i := 0; i < tc.parts; i++ {
			plan, err := NewPlan(scn, tc.shardSize, Partition{Index: i, Count: tc.parts})
			if err != nil {
				t.Fatal(err)
			}
			numShards = plan.NumShards
			trials := 0
			for s := plan.First; s < plan.End; s++ {
				covered[s]++
				lo, hi := plan.ShardSpan(s)
				trials += hi - lo
			}
			if got := plan.PartitionTrials(); got != trials {
				t.Errorf("%+v partition %d: PartitionTrials %d, want %d", tc, i, got, trials)
			}
		}
		if len(covered) != numShards {
			t.Errorf("%+v: %d shards covered, want %d", tc, len(covered), numShards)
		}
		for s, n := range covered {
			if n != 1 {
				t.Errorf("%+v: shard %d covered %d times", tc, s, n)
			}
		}
	}

	scn := &coinScenario{name: "coin", trials: 10, seed: 1, p: 0.5}
	if _, err := NewPlan(scn, 0, Partition{Index: 2, Count: 2}); err == nil {
		t.Error("out-of-range partition index accepted")
	}
	if _, err := NewPlan(scn, 0, Partition{Index: -1, Count: 3}); err == nil {
		t.Error("negative partition index accepted")
	}
	if _, err := NewPlan(nil, 0, Whole); err == nil {
		t.Error("nil scenario accepted")
	}
}

func TestParsePartition(t *testing.T) {
	p, err := ParsePartition("1/3")
	if err != nil || p != (Partition{Index: 1, Count: 3}) {
		t.Fatalf("ParsePartition(1/3) = %+v, %v", p, err)
	}
	for _, bad := range []string{"", "3", "3/1", "-1/3", "a/b", "1/0"} {
		if _, err := ParsePartition(bad); err == nil {
			t.Errorf("ParsePartition(%q) accepted", bad)
		}
	}
}

// executePartitioned runs the scenario as parts separate executions
// (each with its own worker count) and merges the partials. With
// dir != "", each partition spills to its own artifact file and the
// partials are reopened from disk, exercising the full cross-process
// path; otherwise the partials stay in memory.
func executePartitioned(t *testing.T, scn Scenario, shardSize, parts int, stop *EarlyStop, dir string) *Result {
	t.Helper()
	var partials []*Partial
	for i := 0; i < parts; i++ {
		plan, err := NewPlan(scn, shardSize, Partition{Index: i, Count: parts})
		if err != nil {
			t.Fatal(err)
		}
		cfg := ExecConfig{Workers: 1 + i%3, Stop: stop}
		if dir != "" {
			cfg.Artifact = filepath.Join(dir, fmt.Sprintf("part%dof%d.jsonl", i, parts))
		}
		partial, err := Execute(scn, plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if dir != "" {
			// Reopen from disk as a separate merging process would.
			partial.Close()
			partial, err = OpenPartial(cfg.Artifact)
			if err != nil {
				t.Fatal(err)
			}
		}
		partials = append(partials, partial)
	}
	defer func() {
		for _, p := range partials {
			p.Close()
		}
	}()
	res, err := Merge(partials, MergeConfig{Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMergeEqualsSingleProcess is the determinism law of the
// plan/execute/merge split: for any K-way partitioning, any
// per-partition worker count, in memory or through artifact files,
// the merged result DeepEquals the single-process Run.
func TestMergeEqualsSingleProcess(t *testing.T) {
	scn := &coinScenario{name: "coin", trials: 2000, seed: 7, p: 0.3}
	want := run(t, scn, Config{Workers: 4, ShardSize: 64})
	for _, parts := range []int{1, 2, 3, 5, 16} {
		got := executePartitioned(t, scn, 64, parts, nil, "")
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%d-way in-memory merge diverged:\nwant %+v\ngot  %+v", parts, want, got)
		}
		got = executePartitioned(t, scn, 64, parts, nil, t.TempDir())
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%d-way file-backed merge diverged:\nwant %+v\ngot  %+v", parts, want, got)
		}
	}
}

// TestMergeEarlyStopMatchesSingleProcess: partitioned executors cannot
// see the global prefix, so they over-run the stopping point; the
// merger must re-decide the stop on the contiguous prefix and land on
// the identical shard, producing the identical (truncated) result.
func TestMergeEarlyStopMatchesSingleProcess(t *testing.T) {
	scn := &coinScenario{name: "coin", trials: 20000, seed: 5, p: 0.4}
	stop := &EarlyStop{Counter: "hits", RelHalfWidth: 0.05, MinTrials: 500}
	want := run(t, scn, Config{Workers: 4, ShardSize: 256, Stop: stop})
	if !want.EarlyStopped {
		t.Fatal("single-process campaign did not stop early")
	}
	for _, parts := range []int{2, 3, 5} {
		got := executePartitioned(t, scn, 256, parts, stop, t.TempDir())
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%d-way early-stopped merge diverged:\nwant %+v\ngot  %+v", parts, want, got)
		}
	}
}

// TestPartitionResumeFromPartial: a partition execution that aborts
// partway leaves a resumable artifact; re-running the partition picks
// up the missing shards only, and the merged campaign is bit-identical
// to the uninterrupted single-process run.
func TestPartitionResumeFromPartial(t *testing.T) {
	const parts = 3
	full := &coinScenario{name: "coin", trials: 3000, seed: 9, p: 0.25}
	want := run(t, full, Config{Workers: 4, ShardSize: 128})

	dir := t.TempDir()
	artifact := func(i int) string { return filepath.Join(dir, fmt.Sprintf("p%d.jsonl", i)) }
	// Partition 1 owns a middle slice of the trial range; failing
	// after trial 1500 aborts it partway with some shards flushed.
	plan1, err := NewPlan(full, 128, Partition{Index: 1, Count: parts})
	if err != nil {
		t.Fatal(err)
	}
	aborted := &coinScenario{name: "coin", trials: 3000, seed: 9, p: 0.25, failAfter: 1500}
	if _, err := Execute(aborted, plan1, ExecConfig{Workers: 2, Artifact: artifact(1)}); err == nil {
		t.Fatal("aborted partition reported success")
	}
	if _, err := os.Stat(artifact(1)); err != nil {
		t.Fatalf("no artifact written by aborted partition: %v", err)
	}

	var partials []*Partial
	resumed := false
	for i := 0; i < parts; i++ {
		plan, err := NewPlan(full, 128, Partition{Index: i, Count: parts})
		if err != nil {
			t.Fatal(err)
		}
		partial, err := Execute(full, plan, ExecConfig{Workers: 2, Artifact: artifact(i)})
		if err != nil {
			t.Fatal(err)
		}
		defer partial.Close()
		if partial.ResumedTrials() > 0 {
			resumed = true
		}
		partials = append(partials, partial)
	}
	if !resumed {
		t.Fatal("no partition resumed from the aborted artifact")
	}
	got, err := Merge(partials, MergeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want.ResumedTrials = got.ResumedTrials // bookkeeping differs by design
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed partitioned merge diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestV1CheckpointRefused: the version-1 single-object checkpoint of
// earlier releases is no longer read; opening or resuming one must fail
// with an error that names the version instead of misparsing it.
func TestV1CheckpointRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.ckpt.json")
	v1 := `{"version":1,"scenario":"coin","trials":1200,"shard_size":100,"shards":[{"index":0,"counters":{"hits":35}}]}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPartial(path); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("OpenPartial(v1) err = %v, want a version-1 refusal", err)
	}
	scn := &coinScenario{name: "coin", trials: 1200, seed: 3, p: 0.35}
	if _, err := Run(scn, Config{ShardSize: 100, Checkpoint: path}); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("resume from v1 err = %v, want a version-1 refusal", err)
	}
}

// TestTornTailTolerated: a crash mid-append leaves a torn final line;
// the reader must drop it and the next execution must recompute only
// that shard, overwriting the torn bytes.
func TestTornTailTolerated(t *testing.T) {
	scn := &coinScenario{name: "coin", trials: 1000, seed: 11, p: 0.5}
	want := run(t, scn, Config{Workers: 2, ShardSize: 100})

	cp := filepath.Join(t.TempDir(), "torn.jsonl")
	run(t, scn, Config{Workers: 2, ShardSize: 100, Checkpoint: cp})
	data, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-way through its final record.
	torn := data[:len(data)-17]
	if err := os.WriteFile(cp, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got := run(t, scn, Config{Workers: 2, ShardSize: 100, Checkpoint: cp})
	if got.ResumedTrials >= 1000 || got.ResumedTrials == 0 {
		t.Errorf("torn checkpoint resumed %d trials, want a partial resume", got.ResumedTrials)
	}
	want.ResumedTrials = got.ResumedTrials
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("torn-tail resume diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestMergeValidation(t *testing.T) {
	scn := &coinScenario{name: "coin", trials: 1000, seed: 2, p: 0.5}
	execute := func(s Scenario, shardSize, idx, parts int) *Partial {
		t.Helper()
		plan, err := NewPlan(s, shardSize, Partition{Index: idx, Count: parts})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Execute(s, plan, ExecConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	if _, err := Merge(nil, MergeConfig{}); err == nil {
		t.Error("empty partial list accepted")
	}

	p0 := execute(scn, 100, 0, 2)
	p1 := execute(scn, 100, 1, 2)
	if _, err := Merge([]*Partial{p0}, MergeConfig{}); err == nil || !strings.Contains(err.Error(), "incomplete merge") {
		t.Errorf("missing partition accepted: %v", err)
	}
	if _, err := Merge([]*Partial{p0, p0, p1}, MergeConfig{}); err == nil || !strings.Contains(err.Error(), "appears in partials") {
		t.Errorf("overlapping partials accepted: %v", err)
	}

	other := execute(&coinScenario{name: "other", trials: 1000, seed: 2, p: 0.5}, 100, 1, 2)
	if _, err := Merge([]*Partial{p0, other}, MergeConfig{}); err == nil || !strings.Contains(err.Error(), "from campaign") {
		t.Errorf("fingerprint mismatch accepted: %v", err)
	}
	resized := execute(scn, 50, 1, 2)
	if _, err := Merge([]*Partial{p0, resized}, MergeConfig{}); err == nil {
		t.Error("shard-size mismatch accepted")
	}
	threeWay := execute(scn, 100, 1, 3)
	if _, err := Merge([]*Partial{p0, threeWay}, MergeConfig{}); err == nil {
		t.Error("partition-count mismatch accepted")
	}
}

// countingSink records stream order and volume without retaining
// samples.
type countingSink struct {
	started *Result
	samples int
	notes   int
	lastKey int64 // (trial << 16 | seq) monotonicity check helper
	bad     bool
}

func (s *countingSink) Start(res *Result) error {
	s.started = res
	return nil
}
func (s *countingSink) Sample(sm Sample) error {
	if int64(sm.Trial) < s.lastKey {
		s.bad = true
	}
	s.lastKey = int64(sm.Trial)
	s.samples++
	return nil
}
func (s *countingSink) Note(n Note) error {
	s.notes++
	return nil
}

func TestMergeSinkStreamsInTrialOrder(t *testing.T) {
	scn := &coinScenario{name: "coin", trials: 1500, seed: 13, p: 0.5}
	want := run(t, scn, Config{Workers: 4, ShardSize: 64})

	p := executePartial(t, scn, 64, t.TempDir())
	defer p.Close()
	sink := &countingSink{lastKey: -1}
	got, err := Merge([]*Partial{p}, MergeConfig{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != nil || got.Notes != nil {
		t.Error("sink merge still accumulated samples/notes in the result")
	}
	if sink.started == nil || sink.started.Counters["trials_seen"] != 1500 {
		t.Errorf("sink.Start saw %+v", sink.started)
	}
	if sink.samples != len(want.Samples) || sink.notes != len(want.Notes) {
		t.Errorf("sink streamed %d samples / %d notes, want %d / %d",
			sink.samples, sink.notes, len(want.Samples), len(want.Notes))
	}
	if sink.bad {
		t.Error("samples were not streamed in trial order")
	}
	got.Samples, got.Notes = want.Samples, want.Notes
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("sink merge counters diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

func executePartial(t *testing.T, scn Scenario, shardSize int, dir string) *Partial {
	t.Helper()
	plan, err := NewPlan(scn, shardSize, Whole)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Execute(scn, plan, ExecConfig{Workers: 4, Artifact: filepath.Join(dir, "p.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sampleScenario is a deliberately cheap million-sample workload: one
// arithmetic sample per trial, no RNG, so the bounded-memory test
// measures the engine's spill path rather than trial cost.
type sampleScenario struct{ trials int }

func (s *sampleScenario) Name() string               { return "samples" }
func (s *sampleScenario) Trials() int                { return s.trials }
func (s *sampleScenario) NewWorker() (Worker, error) { return sampleWorker{}, nil }

type sampleWorker struct{}

func (sampleWorker) Trial(i int, acc *Acc) error {
	acc.Add("trials_seen", 1)
	acc.Sample(i, "u", float64(i), float64(i%997)/997)
	return nil
}

// TestMillionSampleBoundedMemory is the acceptance gate for the
// streaming spill path: a 2^20-trial campaign whose samples would
// occupy ~50 MB in memory must execute and merge (through a Sink)
// with live-heap growth bounded by the flush cadence, not the sample
// volume.
func TestMillionSampleBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("million-sample campaign in -short mode")
	}
	if raceEnabled {
		t.Skip("heap bounds are not meaningful under the race detector")
	}
	// Keep the collector close to the live set so the peak measurement
	// is tight.
	defer debug.SetGCPercent(debug.SetGCPercent(20))

	const trials = 1 << 20
	scn := &sampleScenario{trials: trials}
	dir := t.TempDir()

	memNow := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := memNow()

	// Peak watcher: sample HeapAlloc while the campaign runs.
	var peak, stopPoll int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for atomic.LoadInt64(&stopPoll) == 0 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if h := int64(m.HeapAlloc); h > atomic.LoadInt64(&peak) {
				atomic.StoreInt64(&peak, h)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	plan, err := NewPlan(scn, 0, Whole)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := Execute(scn, plan, ExecConfig{Workers: 4, Artifact: filepath.Join(dir, "samples.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	defer partial.Close()
	afterExecute := memNow()

	sink := &countingSink{lastKey: -1}
	res, err := Merge([]*Partial{partial}, MergeConfig{Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	atomic.StoreInt64(&stopPoll, 1)
	<-done
	afterMerge := memNow()

	if res.Trials != trials || sink.samples != trials || sink.bad {
		t.Fatalf("campaign lost samples: trials %d, streamed %d, ordered %v", res.Trials, sink.samples, !sink.bad)
	}
	// 2^20 samples at ~40 B each would hold ≥ 40 MB live; the spill
	// path must stay an order of magnitude below that.
	const liveBound = 12 << 20
	if growth := int64(afterExecute) - int64(before); growth > liveBound {
		t.Errorf("executor retained %d MB live after spilling (bound %d MB)", growth>>20, liveBound>>20)
	}
	if growth := int64(afterMerge) - int64(before); growth > liveBound {
		t.Errorf("merge retained %d MB live (bound %d MB)", growth>>20, liveBound>>20)
	}
	const peakBound = 32 << 20
	if growth := atomic.LoadInt64(&peak) - int64(before); growth > peakBound {
		t.Errorf("peak heap growth %d MB exceeds bound %d MB (samples not spilled?)", growth>>20, peakBound>>20)
	}
}
