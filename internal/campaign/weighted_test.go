package campaign

import (
	"compress/gzip"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// tiltScenario is a deterministic weighted Bernoulli campaign standing
// in for an importance-sampled simulator: under the biased measure a
// trial "hits" with probability pBiased and carries likelihood ratio
// lr, so the weighted estimator targets pBiased*lr. With unit=true it
// declares itself unweighted and records plain counters — the control
// arm for unit-weight equivalence tests. With plainHits=true it stays
// weighted but records hits with Add, leaving them without moments.
type tiltScenario struct {
	name      string
	trials    int
	seed      int64
	pBiased   float64
	lr        float64
	unit      bool
	plainHits bool
}

func (s *tiltScenario) Name() string   { return s.name }
func (s *tiltScenario) Trials() int    { return s.trials }
func (s *tiltScenario) Weighted() bool { return !s.unit }
func (s *tiltScenario) NewWorker() (Worker, error) {
	return &tiltWorker{scn: s, rng: rand.New(rand.NewSource(0))}, nil
}

type tiltWorker struct {
	scn *tiltScenario
	rng *rand.Rand
}

func (w *tiltWorker) Trial(i int, acc *Acc) error {
	w.rng.Seed(TrialSeed(w.scn.seed, i))
	acc.Add("raw_events", 2) // diagnostics stay integer in weighted runs too
	if w.rng.Float64() < w.scn.pBiased {
		if w.scn.unit || w.scn.plainHits {
			acc.Add("hits", 1)
		} else {
			acc.AddWeighted("hits", w.scn.lr)
		}
	}
	return nil
}

func TestWeightedDeterministicAcrossWorkerCounts(t *testing.T) {
	scn := &tiltScenario{name: "tilt", trials: 4000, seed: 3, pBiased: 0.3, lr: 1e-6}
	var results []*Result
	for _, workers := range []int{1, 4, 8} {
		results = append(results, run(t, scn, Config{Workers: workers, ShardSize: 64}))
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("worker count changed the weighted result:\n%+v\nvs\n%+v", results[0], results[i])
		}
	}
	res := results[0]
	m, ok := res.Weights["hits"]
	if !ok {
		t.Fatal("weighted run recorded no moments for hits")
	}
	hits := float64(res.Counter("hits"))
	if got, want := m.WSum, hits*1e-6; math.Abs(got-want) > 1e-12*want {
		t.Errorf("WSum = %v, want %v (constant-lr trials)", got, want)
	}
	if got, want := m.WSum2, hits*1e-12; math.Abs(got-want) > 1e-12*want {
		t.Errorf("WSum2 = %v, want %v", got, want)
	}
	// Constant weights: every contributing trial is fully effective.
	if got := m.ESS(); math.Abs(got-hits) > 1e-6 {
		t.Errorf("ESS = %v, want %v", got, hits)
	}
	if got, want := res.WeightedFraction("hits"), m.WSum/float64(res.Trials); got != want {
		t.Errorf("WeightedFraction = %v, want %v", got, want)
	}
	if _, ok := res.Weights["raw_events"]; ok {
		t.Error("plain Add counter leaked into the weight moments")
	}
}

// TestWeightedUnitEquivalence: a weighted scenario whose every weight
// is exactly 1 must reproduce the unweighted run's counters and the
// unit-weight moment identity WSum == WSum2 == count, and its weighted
// estimator must equal the plain fraction.
func TestWeightedUnitEquivalence(t *testing.T) {
	unit := &tiltScenario{name: "tilt", trials: 3000, seed: 11, pBiased: 0.4, lr: 1, unit: true}
	weighted := &tiltScenario{name: "tilt", trials: 3000, seed: 11, pBiased: 0.4, lr: 1}
	a := run(t, unit, Config{Workers: 4, ShardSize: 128})
	b := run(t, weighted, Config{Workers: 4, ShardSize: 128})
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Fatalf("unit-weight counters diverged: %v vs %v", a.Counters, b.Counters)
	}
	m := b.Weights["hits"]
	c := float64(b.Counter("hits"))
	if m.WSum != c || m.WSum2 != c {
		t.Fatalf("unit weights must satisfy WSum == WSum2 == count: %+v vs %v", m, c)
	}
	if b.WeightedFraction("hits") != a.Fraction("hits") {
		t.Fatalf("unit-weight estimator %v != fraction %v", b.WeightedFraction("hits"), a.Fraction("hits"))
	}
}

func TestWeightedEarlyStopRelativeError(t *testing.T) {
	scn := &tiltScenario{name: "tilt", trials: 200000, seed: 5, pBiased: 0.25, lr: 1e-8}
	stop := &EarlyStop{Counter: "hits", RelHalfWidth: 0.1, MinTrials: 500}
	var results []*Result
	for _, workers := range []int{1, 4, 8} {
		results = append(results, run(t, scn, Config{Workers: workers, ShardSize: 256, Stop: stop}))
	}
	first := results[0]
	if !first.EarlyStopped {
		t.Fatalf("weighted campaign did not stop early at %d trials", first.Trials)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(first, results[i]) {
			t.Fatalf("weighted early stop not worker-count deterministic:\n%+v\nvs\n%+v", first, results[i])
		}
	}
	// The rule must actually hold at the stop point: the relative
	// error z·stderr/estimate, at z = 1.96.
	if p := first.WeightedFraction("hits"); p <= 0 {
		t.Errorf("weighted estimate %v at stop, want > 0", p)
	} else if re := 1.96 * first.StdErr("hits") / p; re > 0.1 {
		t.Errorf("relative error %v still above 0.1 at stop", re)
	}
	// And must not have fired absurdly early.
	if first.Trials < 500 || first.Trials >= first.Requested {
		t.Errorf("implausible stopping point %d of %d", first.Trials, first.Requested)
	}
}

// TestWeightedPartitionMerge: a weighted campaign partitioned three
// ways and merged must be bit-identical to the unpartitioned run,
// early stop re-decision included.
func TestWeightedPartitionMerge(t *testing.T) {
	dir := t.TempDir()
	scn := &tiltScenario{name: "tilt", trials: 100000, seed: 7, pBiased: 0.25, lr: 1e-8}
	stop := &EarlyStop{Counter: "hits", RelHalfWidth: 0.1, MinTrials: 500}
	want := run(t, scn, Config{Workers: 4, ShardSize: 256, Stop: stop})
	if !want.EarlyStopped {
		t.Fatal("want an early-stopping reference run")
	}

	var partials []*Partial
	for i := 0; i < 3; i++ {
		plan, err := NewPlan(scn, 256, Partition{Index: i, Count: 3})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Execute(scn, plan, ExecConfig{
			Workers:  4,
			Artifact: filepath.Join(dir, "tilt.part"+string(rune('0'+i))),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		partials = append(partials, p)
	}
	got, err := Merge(partials, MergeConfig{Stop: stop})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("3-way weighted merge diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestWeightedStopOnIntegerOnlyCounter: in a weighted campaign a stop
// counter recorded with plain Add has no weight moments, so the
// relative-error rule has no estimator to judge. The whole run and a
// 3-way partitioned merge must refuse it with the same error naming
// the counter, instead of the executor stopping on unit weights while
// the merger never fires and then misses the shards the executor
// skipped.
func TestWeightedStopOnIntegerOnlyCounter(t *testing.T) {
	scn := &tiltScenario{name: "tilt", trials: 20000, seed: 3, pBiased: 0.25, lr: 1e-8, plainHits: true}
	stop := &EarlyStop{Counter: "hits", RelHalfWidth: 0.1, MinTrials: 500}
	const want = `early-stop counter "hits" carries no weight moments`
	if _, err := Run(scn, Config{Workers: 4, ShardSize: 128, Stop: stop}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("whole run: err = %v, want %q", err, want)
	}
	var partials []*Partial
	for i := 0; i < 3; i++ {
		plan, err := NewPlan(scn, 128, Partition{Index: i, Count: 3})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Execute(scn, plan, ExecConfig{Workers: 2, Stop: stop})
		if err != nil {
			t.Fatal(err)
		}
		partials = append(partials, p)
	}
	if _, err := Merge(partials, MergeConfig{Stop: stop}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("3-way merge: err = %v, want %q", err, want)
	}
}

// TestWeightedPartialRoundTrip: version-3 records must reload their
// weight moments exactly, and resuming from the artifact must not
// recompute anything.
func TestWeightedPartialRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tilt.part")
	scn := &tiltScenario{name: "tilt", trials: 2000, seed: 13, pBiased: 0.3, lr: 2.5e-7}
	plan, err := NewPlan(scn, 128, Whole)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Weighted {
		t.Fatal("planner did not stamp the weighted flag")
	}
	p, err := Execute(scn, plan, ExecConfig{Workers: 4, Artifact: path})
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := Merge([]*Partial{p}, MergeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wantMoments := map[int]Moments{}
	for _, idx := range p.Shards() {
		wantMoments[idx] = p.weights[idx]["hits"]
	}
	p.Close()

	re, err := OpenPartial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for idx, want := range wantMoments {
		if got := re.weights[idx]["hits"]; !re.has(idx) || got != want {
			t.Fatalf("shard %d moments did not round-trip: %+v vs %+v", idx, got, want)
		}
	}
	gotRes, err := Merge([]*Partial{re}, MergeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Fatalf("reloaded merge diverged:\nwant %+v\ngot  %+v", wantRes, gotRes)
	}

	// Resume: every shard must come from the artifact.
	p2, err := Execute(scn, plan, ExecConfig{Workers: 4, Artifact: path})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if p2.ResumedTrials() != 2000 {
		t.Errorf("resume recomputed: %d resumed trials, want 2000", p2.ResumedTrials())
	}
}

// TestUnweightedPartialLoadsAsUnitWeight: version-2 artifacts predate
// weight moments, so a reloaded one carries none and its merge stays
// unit-weight.
func TestUnweightedPartialLoadsAsUnitWeight(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "coin.part")
	scn := &coinScenario{name: "coin", trials: 1000, seed: 2, p: 0.5}
	plan, err := NewPlan(scn, 100, Whole)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Weighted {
		t.Fatal("plain scenario planned as weighted")
	}
	p, err := Execute(scn, plan, ExecConfig{Workers: 2, Artifact: path})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	re, err := OpenPartial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.weights != nil {
		t.Fatalf("version-2 partial loaded weight moments: %+v", re.weights)
	}
	// The merged result of an unweighted campaign must not carry a
	// weights map at all — its JSON artifact bytes are pinned by the
	// pre-refactor goldens.
	res, err := Merge([]*Partial{re}, MergeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights != nil {
		t.Fatalf("unweighted merge grew a weights map: %+v", res.Weights)
	}
}

// TestWeightedUnweightedPartialsRefuseToMerge: version-2 and version-3
// artifacts encode different measures; folding them would silently
// mix biased and unbiased counts.
func TestWeightedUnweightedPartialsRefuseToMerge(t *testing.T) {
	dir := t.TempDir()
	wScn := &tiltScenario{name: "same", trials: 1000, seed: 1, pBiased: 0.3, lr: 1e-6}
	uScn := &tiltScenario{name: "same", trials: 1000, seed: 1, pBiased: 0.3, lr: 1, unit: true}
	wPlan, err := NewPlan(wScn, 100, Partition{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	uPlan, err := NewPlan(uScn, 100, Partition{Index: 1, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	wp, err := Execute(wScn, wPlan, ExecConfig{Artifact: filepath.Join(dir, "w.part")})
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	up, err := Execute(uScn, uPlan, ExecConfig{Artifact: filepath.Join(dir, "u.part")})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if _, err := Merge([]*Partial{wp, up}, MergeConfig{}); err == nil {
		t.Fatal("weighted and unweighted partials merged")
	} else if !strings.Contains(err.Error(), "version") {
		t.Errorf("unhelpful error: %v", err)
	}
}

// gzipFile compresses src into dst, emulating an artifact stored
// compressed at rest by the fabric coordinator.
func gzipFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Create(dst)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(out)
	if _, err := gz.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGzipPartialRoundTrip: OpenPartial must sniff the gzip magic and
// load a compressed artifact to the identical in-memory state, for
// both weighted and unweighted generations.
func TestGzipPartialRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		dir := t.TempDir()
		plain := filepath.Join(dir, "a.part")
		packed := filepath.Join(dir, "a.part.gz")
		scn := &tiltScenario{name: "tilt", trials: 1500, seed: 21, pBiased: 0.3, lr: 1e-5, unit: !weighted}
		plan, err := NewPlan(scn, 100, Whole)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Execute(scn, plan, ExecConfig{Workers: 2, Artifact: plain})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Merge([]*Partial{p}, MergeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		gzipFile(t, plain, packed)

		re, err := OpenPartial(packed)
		if err != nil {
			t.Fatalf("weighted=%v: OpenPartial(gzip): %v", weighted, err)
		}
		got, err := Merge([]*Partial{re}, MergeConfig{})
		re.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("weighted=%v: gzip round-trip diverged:\nwant %+v\ngot  %+v", weighted, want, got)
		}
	}
}

// TestGzipMixedCompressionMerge: one partition compressed at rest, one
// plain — the merge must not care.
func TestGzipMixedCompressionMerge(t *testing.T) {
	dir := t.TempDir()
	scn := &tiltScenario{name: "tilt", trials: 3000, seed: 9, pBiased: 0.3, lr: 1e-5}
	want := run(t, scn, Config{Workers: 4, ShardSize: 128})

	var paths []string
	for i := 0; i < 2; i++ {
		plan, err := NewPlan(scn, 128, Partition{Index: i, Count: 2})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "tilt.part"+string(rune('0'+i)))
		p, err := Execute(scn, plan, ExecConfig{Workers: 2, Artifact: path})
		if err != nil {
			t.Fatal(err)
		}
		p.Close()
		paths = append(paths, path)
	}
	gzipFile(t, paths[0], paths[0]+".gz")
	a, err := OpenPartial(paths[0] + ".gz")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenPartial(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := Merge([]*Partial{a, b}, MergeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("mixed-compression merge diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestGzipPartialRefusesAppend: a compressed artifact is read-only at
// rest; resuming an executor onto it must fail loudly instead of
// appending plaintext records after the gzip stream.
func TestGzipPartialRefusesAppend(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "a.part")
	scn := &tiltScenario{name: "tilt", trials: 1000, seed: 4, pBiased: 0.3, lr: 1e-5}
	plan, err := NewPlan(scn, 100, Whole)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Execute(scn, plan, ExecConfig{Workers: 2, Artifact: plain})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	packed := filepath.Join(dir, "b.part")
	gzipFile(t, plain, packed)
	if _, err := Execute(scn, plan, ExecConfig{Workers: 2, Artifact: packed}); err == nil {
		t.Fatal("executor appended to a gzip-compressed artifact")
	} else if !strings.Contains(err.Error(), "gzip") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestSatisfiedWeighted(t *testing.T) {
	stop := &EarlyStop{Counter: "hits", RelHalfWidth: 0.1, MinTrials: 100}
	// Constant weight w over k of n trials: se/p = sqrt((n-k)/(k*n)),
	// so k=400, n=10000 gives ~4.9% relative error at z=1.96 — inside.
	w := 1e-9
	k, n := 400.0, 10000
	m := Moments{WSum: k * w, WSum2: k * w * w}
	if !stop.satisfiedWeighted(m, n) {
		t.Error("tight weighted estimate did not satisfy the stop")
	}
	// k=20 of 10000: ~22% relative error — outside.
	m = Moments{WSum: 20 * w, WSum2: 20 * w * w}
	if stop.satisfiedWeighted(m, n) {
		t.Error("loose weighted estimate satisfied the stop")
	}
	// Below MinTrials: never.
	m = Moments{WSum: 40 * w, WSum2: 40 * w * w}
	if stop.satisfiedWeighted(m, 50) {
		t.Error("stop fired below MinTrials")
	}
	// No weight mass: never.
	if stop.satisfiedWeighted(Moments{}, 10000) {
		t.Error("stop fired with zero weight mass")
	}
}
