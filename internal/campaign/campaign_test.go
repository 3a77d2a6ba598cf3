package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// coinScenario is a deterministic-seeded Bernoulli campaign: trial i
// succeeds with probability p, records counters, one sample and an
// occasional note.
type coinScenario struct {
	name   string
	trials int
	seed   int64
	p      float64
	// failAfter, when > 0, makes trials with index >= failAfter
	// return an error (for abort/resume tests).
	failAfter int
}

func (s *coinScenario) Name() string { return s.name }
func (s *coinScenario) Trials() int  { return s.trials }
func (s *coinScenario) NewWorker() (Worker, error) {
	return &coinWorker{scn: s, rng: rand.New(rand.NewSource(0))}, nil
}

type coinWorker struct {
	scn *coinScenario
	rng *rand.Rand
}

func (w *coinWorker) Trial(i int, acc *Acc) error {
	if w.scn.failAfter > 0 && i >= w.scn.failAfter {
		return fmt.Errorf("injected failure at trial %d", i)
	}
	w.rng.Seed(TrialSeed(w.scn.seed, i))
	acc.Add("trials_seen", 1)
	acc.Add("events", 3) // deliberately non-binomial (>1 per trial)
	v := w.rng.Float64()
	if v < w.scn.p {
		acc.Add("hits", 1)
	}
	acc.Sample(i, "uniform", float64(i), v)
	if i%100 == 0 {
		acc.Note(i, "century trial %d", i)
	}
	return nil
}

func run(t *testing.T, scn Scenario, cfg Config) *Result {
	t.Helper()
	res, err := Run(scn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	scn := &coinScenario{name: "coin", trials: 2000, seed: 7, p: 0.3}
	var results []*Result
	for _, workers := range []int{1, 4, 8} {
		results = append(results, run(t, scn, Config{Workers: workers, ShardSize: 64}))
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("worker count changed the result:\n1 worker: %+v\nvariant %d: %+v", results[0], i, results[i])
		}
	}
	if got := results[0].Counter("trials_seen"); got != 2000 {
		t.Errorf("trials_seen = %d, want 2000", got)
	}
	if results[0].Trials != 2000 || results[0].Requested != 2000 || results[0].EarlyStopped {
		t.Errorf("unexpected trial bookkeeping: %+v", results[0])
	}
}

func TestSamplesSortedByTrial(t *testing.T) {
	scn := &coinScenario{name: "coin", trials: 1000, seed: 3, p: 0.5}
	res := run(t, scn, Config{Workers: 8, ShardSize: 32})
	if len(res.Samples) != 1000 {
		t.Fatalf("got %d samples, want 1000", len(res.Samples))
	}
	for i, s := range res.Samples {
		if s.Trial != i {
			t.Fatalf("sample %d carries trial %d; merge order broken", i, s.Trial)
		}
	}
	for i := 1; i < len(res.Notes); i++ {
		if res.Notes[i-1].Trial >= res.Notes[i].Trial {
			t.Fatalf("notes out of order at %d: %+v", i, res.Notes)
		}
	}
	xs, ys := res.SeriesPoints("uniform")
	if len(xs) != 1000 || len(ys) != 1000 {
		t.Fatalf("series extraction lost points: %d/%d", len(xs), len(ys))
	}
}

func TestCounterIndependentOfShardSize(t *testing.T) {
	scn := &coinScenario{name: "coin", trials: 1500, seed: 11, p: 0.2}
	a := run(t, scn, Config{Workers: 4, ShardSize: 17})
	b := run(t, scn, Config{Workers: 2, ShardSize: 500})
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Fatalf("shard size changed counters: %v vs %v", a.Counters, b.Counters)
	}
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatal("shard size changed samples")
	}
}

func TestEarlyStopDeterministicAndEffective(t *testing.T) {
	scn := &coinScenario{name: "coin", trials: 100000, seed: 5, p: 0.4}
	stop := &EarlyStop{Counter: "hits", RelHalfWidth: 0.05, MinTrials: 500}
	var results []*Result
	for _, workers := range []int{1, 4, 8} {
		results = append(results, run(t, scn, Config{Workers: workers, ShardSize: 256, Stop: stop}))
	}
	first := results[0]
	if !first.EarlyStopped {
		t.Fatalf("campaign did not stop early: %+v trials", first.Trials)
	}
	if first.Trials >= first.Requested || first.Trials < 500 {
		t.Fatalf("implausible stopping point %d of %d", first.Trials, first.Requested)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(first, results[i]) {
			t.Fatalf("early stop not worker-count deterministic:\n%+v\nvs\n%+v", first, results[i])
		}
	}
	// The stopping rule must actually be satisfied at the stop point.
	p := first.Fraction("hits")
	lo, hi := Wilson(first.Counter("hits"), int64(first.Trials), 1.96)
	if (hi-lo)/2 > 0.05*p {
		t.Errorf("interval still too wide at stop: [%v, %v] around %v", lo, hi, p)
	}
}

// TestEarlyStopResumeReproducesStopPoint: a checkpointed campaign
// that early-stopped may hold in-flight shards beyond the stopping
// prefix; a rerun must re-evaluate the stop rule shard by shard over
// the restored prefix and reproduce the original stopping point
// instead of running further.
func TestEarlyStopResumeReproducesStopPoint(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "coin.ckpt.json")
	scn := &coinScenario{name: "coin", trials: 100000, seed: 5, p: 0.4}
	stop := &EarlyStop{Counter: "hits", RelHalfWidth: 0.05, MinTrials: 500}
	cfg := Config{Workers: 8, ShardSize: 256, Stop: stop, Checkpoint: cp}

	first := run(t, scn, cfg)
	if !first.EarlyStopped {
		t.Fatal("campaign did not stop early")
	}
	again := run(t, scn, cfg)
	first.ResumedTrials, again.ResumedTrials = 0, 0 // bookkeeping differs by design
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("resumed early-stopped campaign diverged:\nfirst %+v\nagain %+v", first, again)
	}
}

// TestEarlyStopRejectsNonBinomialCounter: a stop rule on a counter
// that increments more than once per trial must fail loudly instead
// of silently never triggering (the Wilson width would be NaN).
func TestEarlyStopRejectsNonBinomialCounter(t *testing.T) {
	scn := &coinScenario{name: "coin", trials: 5000, seed: 2, p: 0.5}
	stop := &EarlyStop{Counter: "events", RelHalfWidth: 0.05}
	_, err := Run(scn, Config{Workers: 4, ShardSize: 64, Stop: stop})
	if err == nil {
		t.Fatal("non-binomial early-stop counter accepted")
	}
	if !strings.Contains(err.Error(), "not per-trial") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "coin.ckpt.json")
	full := &coinScenario{name: "coin", trials: 3000, seed: 9, p: 0.25}

	want := run(t, full, Config{Workers: 4, ShardSize: 128})

	// First attempt aborts partway: trials past 1500 error out, but
	// completed shards are checkpointed (including the flush-on-error
	// path).
	aborted := &coinScenario{name: "coin", trials: 3000, seed: 9, p: 0.25, failAfter: 1500}
	if _, err := Run(aborted, Config{Workers: 4, ShardSize: 128, Checkpoint: cp}); err == nil {
		t.Fatal("aborted campaign reported success")
	}
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("no checkpoint written by aborted campaign: %v", err)
	}

	got := run(t, full, Config{Workers: 4, ShardSize: 128, Checkpoint: cp})
	if got.ResumedTrials == 0 {
		t.Fatal("resumed campaign recomputed everything")
	}
	want.ResumedTrials = got.ResumedTrials // bookkeeping field differs by design
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed != uninterrupted:\nwant %+v\ngot  %+v", want, got)
	}

	// A third run resumes everything and runs zero new trials.
	again := run(t, full, Config{Workers: 4, ShardSize: 128, Checkpoint: cp})
	if again.ResumedTrials != 3000 {
		t.Errorf("fully-checkpointed rerun resumed %d trials, want 3000", again.ResumedTrials)
	}
	want.ResumedTrials = again.ResumedTrials
	if !reflect.DeepEqual(want, again) {
		t.Fatal("fully-resumed run diverged")
	}
}

func TestCheckpointMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "coin.ckpt.json")
	scn := &coinScenario{name: "coin", trials: 500, seed: 1, p: 0.5}
	run(t, scn, Config{Workers: 2, ShardSize: 100, Checkpoint: cp})

	other := &coinScenario{name: "other", trials: 500, seed: 1, p: 0.5}
	if _, err := Run(other, Config{ShardSize: 100, Checkpoint: cp}); err == nil {
		t.Error("checkpoint for a different scenario accepted")
	}
	if _, err := Run(scn, Config{ShardSize: 99, Checkpoint: cp}); err == nil {
		t.Error("checkpoint with a different shard size accepted")
	}
	resized := &coinScenario{name: "coin", trials: 600, seed: 1, p: 0.5}
	if _, err := Run(resized, Config{ShardSize: 100, Checkpoint: cp}); err == nil {
		t.Error("checkpoint with a different trial count accepted")
	}
	if err := os.WriteFile(cp, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(scn, Config{ShardSize: 100, Checkpoint: cp}); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{}); err == nil {
		t.Error("nil scenario accepted")
	}
	empty := &coinScenario{name: "empty", trials: 0}
	if _, err := Run(empty, Config{}); err == nil {
		t.Error("zero-trial scenario accepted")
	}
	scn := &coinScenario{name: "coin", trials: 10, seed: 1, p: 0.5}
	bad := []*EarlyStop{
		{Counter: "", RelHalfWidth: 0.1},
		{Counter: "hits", RelHalfWidth: 0},
		{Counter: "hits", RelHalfWidth: math.NaN()},
		{Counter: "hits", RelHalfWidth: 0.1, Z: -1},
	}
	for i, stop := range bad {
		if _, err := Run(scn, Config{Stop: stop}); err == nil {
			t.Errorf("invalid early stop %d accepted", i)
		}
	}
}

func TestWorkerErrorSurfaces(t *testing.T) {
	scn := &coinScenario{name: "coin", trials: 100, seed: 1, p: 0.5, failAfter: 10}
	if _, err := Run(scn, Config{Workers: 3, ShardSize: 8}); err == nil {
		t.Fatal("trial error did not surface")
	}
}

func TestSampleJSONRoundTripsNonFinite(t *testing.T) {
	in := []Sample{
		{Trial: 1, Series: "mttdl", X: 2, Y: math.Inf(1)},
		{Trial: 2, Series: "mttdl", X: math.Inf(-1), Y: math.NaN()},
		{Trial: 3, Series: "ber", X: 0.1, Y: 3.141592653589793e-17},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []Sample
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		same := func(a, b float64) bool {
			return a == b || (math.IsNaN(a) && math.IsNaN(b))
		}
		if out[i].Trial != in[i].Trial || out[i].Series != in[i].Series ||
			!same(out[i].X, in[i].X) || !same(out[i].Y, in[i].Y) {
			t.Errorf("sample %d did not round-trip: %+v vs %+v", i, in[i], out[i])
		}
	}
}

func TestWilson(t *testing.T) {
	lo, hi := Wilson(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Error("empty trials should return [0,1]")
	}
	lo, hi = Wilson(50, 100, 1.96)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval [%v,%v] must contain the point estimate", lo, hi)
	}
	lo, _ = Wilson(0, 100, 1.96)
	if lo != 0 {
		t.Errorf("lo = %v, want clamped to 0", lo)
	}
	_, hi = Wilson(100, 100, 1.96)
	if hi < 1-1e-12 {
		t.Errorf("hi = %v, want ~1", hi)
	}
}

func TestTrialSeedMatchesMemsimConvention(t *testing.T) {
	// internal/memsim reseeded per trial with base + i*0x9E3779B9 before
	// the campaign engine existed; TrialSeed must preserve that stream
	// so pre-engine statistics stay reproducible.
	if got, want := TrialSeed(100, 3), int64(100+3*0x9E3779B9); got != want {
		t.Fatalf("TrialSeed = %d, want %d", got, want)
	}
}
