package mbusim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/gf"
	"repro/internal/interleave"
	"repro/internal/rs"
)

func defaultSystems(t *testing.T) []System {
	t.Helper()
	systems, err := DefaultSystems()
	if err != nil {
		t.Fatal(err)
	}
	return systems
}

func TestDefaultSystemsGeometry(t *testing.T) {
	systems := defaultSystems(t)
	if len(systems) != 5 {
		t.Fatalf("got %d systems, want 5", len(systems))
	}
	wantBits := map[string]int{
		"RS(18,16)":               144,
		"RS(20,16)":               160,
		"RS(10,8) x2 interleaved": 160,
		"4x SEC-DED(39,32)":       156,
		"TMR voter":               384,
	}
	for _, s := range systems {
		want, ok := wantBits[s.Name()]
		if !ok {
			t.Errorf("unexpected system %q", s.Name())
			continue
		}
		if s.StoredBits() != want {
			t.Errorf("%s: %d stored bits, want %d", s.Name(), s.StoredBits(), want)
		}
	}
}

func TestSystemsRecoverCleanAndSingleBurst(t *testing.T) {
	rng := campaign.NewTrialRand(1)
	for _, s := range defaultSystems(t) {
		// No events: always recovered.
		for i := 0; i < 20; i++ {
			ok, err := s.Trial(rng, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s lost data with no faults", s.Name())
			}
		}
		// One single-bit event: always recovered (every system corrects
		// at least one bit flip).
		for i := 0; i < 200; i++ {
			bursts := [][2]int{{rng.Intn(s.StoredBits()), 1}}
			ok, err := s.Trial(rng, bursts)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s lost data on a single bit flip at %d", s.Name(), bursts[0][0])
			}
		}
	}
}

func TestRSWordSurvivesIntraSymbolBurst(t *testing.T) {
	rng := campaign.NewTrialRand(2)
	f8 := gf.MustField(8)
	code := rs.MustNew(f8, 18, 16)
	s, err := NewRSWord(code)
	if err != nil {
		t.Fatal(err)
	}
	// An 8-bit burst starting on a symbol boundary corrupts exactly
	// one symbol: always correctable by RS(18,16).
	for i := 0; i < 200; i++ {
		start := 8 * rng.Intn(18)
		ok, err := s.Trial(rng, [][2]int{{start, 8}})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("aligned 8-bit burst defeated RS(18,16)")
		}
	}
}

// TestRSSystemsTrialZeroAllocs: the Reed-Solomon systems run a trial
// on their own codec workspaces, so a burst they correct (6 bits
// inside one symbol) costs no heap allocation.
func TestRSSystemsTrialZeroAllocs(t *testing.T) {
	rng := campaign.NewTrialRand(5)
	bursts := [][2]int{{1, 6}}
	for _, s := range defaultSystems(t)[:3] {
		var ok bool
		var err error
		allocs := testing.AllocsPerRun(50, func() { ok, err = s.Trial(rng, bursts) })
		if err != nil || !ok {
			t.Fatalf("%s: in-symbol burst not corrected (ok=%v, err=%v)", s.Name(), ok, err)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per trial, want 0", s.Name(), allocs)
		}
	}
}

func TestSECDEDLosesToBurst(t *testing.T) {
	rng := campaign.NewTrialRand(3)
	s, err := NewSECDEDBlock()
	if err != nil {
		t.Fatal(err)
	}
	// A 4-bit burst within one word is beyond SEC-DED for most
	// patterns (weight > 2); losses must occur often.
	lost := 0
	for i := 0; i < 300; i++ {
		start := rng.Intn(s.StoredBits() - 4)
		ok, err := s.Trial(rng, [][2]int{{start, 4}})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			lost++
		}
	}
	if lost < 100 {
		t.Errorf("SEC-DED lost only %d/300 4-bit bursts; expected most", lost)
	}
}

func TestTMRSurvivesSingleCopyBursts(t *testing.T) {
	rng := campaign.NewTrialRand(4)
	s := TMRBlock{}
	// Any single burst is confined to one copy (bursts don't wrap),
	// so the vote always recovers.
	for i := 0; i < 200; i++ {
		start := rng.Intn(s.StoredBits() - 16)
		ok, err := s.Trial(rng, [][2]int{{start, 16}})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("single-copy burst defeated TMR")
		}
	}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{EventsPerKilobit: 0, BurstBits: 1, Trials: 1},
		{EventsPerKilobit: 1, BurstBits: 0, Trials: 1},
		{EventsPerKilobit: 1, BurstBits: 1, Trials: 0},
		{EventsPerKilobit: math.NaN(), BurstBits: 1, Trials: 1},
		{EventsPerKilobit: math.Inf(1), BurstBits: 1, Trials: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// 2000 events per kilobit is a mean of 768 events on the 384-bit
	// TMR image, past where the Poisson sampler saturates; the smaller
	// images stay within range, so the error must name the TMR voter.
	_, _, err := Scenario(Config{EventsPerKilobit: 2000, BurstBits: 1, Trials: 1}, DefaultSystems)
	if err == nil || !strings.Contains(err.Error(), TMRBlock{}.Name()) {
		t.Errorf("density beyond the sampler's range: err = %v, want one naming %q", err, TMRBlock{}.Name())
	}
	if _, err := Run(Config{EventsPerKilobit: 1, BurstBits: 1, Trials: 1}, systemsOf()); err == nil {
		t.Error("empty system list accepted")
	}
	if _, err := Run(Config{EventsPerKilobit: -1, BurstBits: 1, Trials: 1}, DefaultSystems); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestNewRSWordValidation(t *testing.T) {
	f8 := gf.MustField(8)
	if _, err := NewRSWord(nil); err == nil {
		t.Error("nil code accepted")
	}
	wrong := rs.MustNew(f8, 20, 12) // 96 payload bits
	if _, err := NewRSWord(wrong); err == nil {
		t.Error("non-128-bit payload accepted")
	}
}

func TestNewRSInterleavedValidation(t *testing.T) {
	f8 := gf.MustField(8)
	if _, err := NewRSInterleaved(nil); err == nil {
		t.Error("nil page accepted")
	}
	code := rs.MustNew(f8, 18, 16)
	page, err := interleave.New(code, 2) // 256 payload bits
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRSInterleaved(page); err == nil {
		t.Error("non-128-bit page accepted")
	}
}

// TestCampaignBurstOrdering is the headline: a 6-bit burst always
// defeats a SEC-DED word (at least 3 flips land in one 39-bit word no
// matter how it splits), while RS(20,16) absorbs any single burst (at
// most two adjacent symbols, t=2) and only loses to multi-event
// trials. At matched ~1.22-1.25x overhead the symbol organization
// must keep losses well under half of SEC-DED's.
func TestCampaignBurstOrdering(t *testing.T) {
	cfg := Config{EventsPerKilobit: 4, BurstBits: 6, Trials: 4000, Seed: 10}
	res, err := Run(cfg, DefaultSystems)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SystemResult{}
	for _, r := range res {
		byName[r.Name] = r
		if r.Trials != cfg.Trials {
			t.Errorf("%s: trial count %d", r.Name, r.Trials)
		}
		if r.MeanEvents <= 0 {
			t.Errorf("%s: no events injected", r.Name)
		}
	}
	rs20Loss := byName["RS(20,16)"].LossFraction
	rs18Loss := byName["RS(18,16)"].LossFraction
	secdedLoss := byName["4x SEC-DED(39,32)"].LossFraction
	if !(rs20Loss < secdedLoss/2) {
		t.Errorf("6-bit bursts: RS(20,16) loss %v should be well below SEC-DED loss %v", rs20Loss, secdedLoss)
	}
	if !(rs20Loss < rs18Loss) {
		t.Errorf("t=2 should beat t=1 under bursts: %v vs %v", rs20Loss, rs18Loss)
	}
	if tmrLoss := byName["TMR voter"].LossFraction; tmrLoss > rs20Loss {
		t.Errorf("TMR at 3x overhead should not lose more than RS(20,16): %v vs %v", tmrLoss, rs20Loss)
	}
}

// runWorkers runs the DefaultSystems campaign like Run, on the given
// number of engine workers.
func runWorkers(t *testing.T, cfg Config, workers int) []SystemResult {
	t.Helper()
	scn, err := newScenario(cfg, DefaultSystems)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := campaign.Run(scn, campaign.Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return ResultsFromCampaign(scn.systems, cres)
}

// TestDeterminismAcrossWorkerCounts: per-(system, trial) reseeding
// makes the campaign statistics bit-identical for any worker count.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	base := Config{EventsPerKilobit: 4, BurstBits: 4, Trials: 1000, Seed: 99}
	var results [][]SystemResult
	for _, workers := range []int{1, 4, 8} {
		results = append(results, runWorkers(t, base, workers))
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("worker count changed results:\n%+v\nvs\n%+v", results[0], results[i])
		}
	}
}

// TestRS2016SurvivesAnySingleSixBitBurst pins the structural claim
// behind the campaign: one 6-bit burst touches at most two adjacent
// symbols, within t=2.
func TestRS2016SurvivesAnySingleSixBitBurst(t *testing.T) {
	rng := campaign.NewTrialRand(12)
	f8 := gf.MustField(8)
	s, err := NewRSWord(rs.MustNew(f8, 20, 16))
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start <= s.StoredBits()-6; start++ {
		ok, err := s.Trial(rng, [][2]int{{start, 6}})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("6-bit burst at offset %d defeated RS(20,16)", start)
		}
	}
}

// systemsOf returns a constructor handing every campaign worker the
// same systems; the auditors below lock their own state.
func systemsOf(systems ...System) func() ([]System, error) {
	return func() ([]System, error) { return systems, nil }
}

// burstAuditor is a test System that verifies the engine-side burst
// generation contract: every event it receives must apply its full
// configured length inside the image (no edge truncation).
type burstAuditor struct {
	bits      int
	burstBits int

	mu       sync.Mutex
	bursts   int
	minStart int
	maxStart int
}

func (a *burstAuditor) Name() string    { return fmt.Sprintf("auditor(%d)", a.bits) }
func (a *burstAuditor) StoredBits() int { return a.bits }

func (a *burstAuditor) Trial(rng *rand.Rand, bursts [][2]int) (bool, error) {
	for _, b := range bursts {
		if b[1] != a.burstBits {
			return false, fmt.Errorf("burst length %d, want %d", b[1], a.burstBits)
		}
		flips := 0
		flipBits(a.bits, [][2]int{b}, func(int) { flips++ })
		if flips != a.burstBits {
			return false, fmt.Errorf("burst at %d flipped %d of %d bits (truncated at image edge)",
				b[0], flips, a.burstBits)
		}
		a.mu.Lock()
		a.bursts++
		if b[0] < a.minStart {
			a.minStart = b[0]
		}
		if b[0] > a.maxStart {
			a.maxStart = b[0]
		}
		a.mu.Unlock()
	}
	return true, nil
}

// TestEveryBurstFlipsFullLength is the regression test for the
// edge-bias bug: starts used to be drawn over [0, StoredBits), so a
// burst starting in the last BurstBits-1 positions was silently
// truncated by flipBits — with a truncation probability that differed
// per system footprint. Every injected burst must now flip exactly
// BurstBits stored bits, and the clamped start range must still be
// exercised end to end (start 0 and start StoredBits-BurstBits both
// appear).
func TestEveryBurstFlipsFullLength(t *testing.T) {
	const burstBits = 6
	// A deliberately tiny image makes edge starts frequent: 36 bits
	// leaves starts 0..30, so truncation under the old scheme would
	// hit ~14% of events.
	aud := &burstAuditor{bits: 36, burstBits: burstBits, minStart: 1 << 30}
	cfg := Config{EventsPerKilobit: 200, BurstBits: burstBits, Trials: 3000, Seed: 7}
	if _, err := Run(cfg, systemsOf(aud)); err != nil {
		t.Fatal(err)
	}
	if aud.bursts == 0 {
		t.Fatal("no bursts injected")
	}
	wantMax := aud.bits - burstBits
	if aud.minStart != 0 || aud.maxStart != wantMax {
		t.Errorf("observed start range [%d, %d], want [0, %d] fully exercised",
			aud.minStart, aud.maxStart, wantMax)
	}
}

// TestBurstLongerThanImageRejected: a burst that cannot fit a
// system's image has no untruncated placement, so the campaign must
// refuse to run instead of biasing the comparison.
func TestBurstLongerThanImageRejected(t *testing.T) {
	aud := &burstAuditor{bits: 8, burstBits: 16}
	cfg := Config{EventsPerKilobit: 1, BurstBits: 16, Trials: 10, Seed: 1}
	if _, err := Run(cfg, systemsOf(aud)); err == nil {
		t.Error("burst longer than the stored image accepted")
	}
}

// varAuditor verifies the variable-length burst contract: every event
// applies its full sampled length inside the image (no truncation),
// whatever that length is.
type varAuditor struct {
	bits int

	mu      sync.Mutex
	bursts  int
	maxLen  int
	lengths map[int]int
}

func (a *varAuditor) Name() string    { return fmt.Sprintf("varAuditor(%d)", a.bits) }
func (a *varAuditor) StoredBits() int { return a.bits }

func (a *varAuditor) Trial(rng *rand.Rand, bursts [][2]int) (bool, error) {
	for _, b := range bursts {
		if b[1] < 1 || b[1] > a.bits {
			return false, fmt.Errorf("burst length %d outside [1, %d]", b[1], a.bits)
		}
		flips := 0
		flipBits(a.bits, [][2]int{b}, func(int) { flips++ })
		if flips != b[1] {
			return false, fmt.Errorf("burst at %d flipped %d of %d bits (truncated at image edge)",
				b[0], flips, b[1])
		}
		a.mu.Lock()
		a.bursts++
		if a.lengths == nil {
			a.lengths = map[int]int{}
		}
		a.lengths[b[1]]++
		if b[1] > a.maxLen {
			a.maxLen = b[1]
		}
		a.mu.Unlock()
	}
	return true, nil
}

// TestGeometricBurstsFitImage: geometric lengths vary per event, are
// capped at the (deliberately small) image, and always apply fully.
// A mean longer than the image must be accepted (the cap engages)
// where the same fixed length is rejected.
func TestGeometricBurstsFitImage(t *testing.T) {
	aud := &varAuditor{bits: 24}
	cfg := Config{
		EventsPerKilobit: 200,
		BurstDist:        "geometric",
		BurstMeanBits:    48, // twice the image: the cap must engage
		Trials:           2000,
		Seed:             21,
	}
	if _, err := Run(cfg, systemsOf(aud)); err != nil {
		t.Fatal(err)
	}
	if aud.bursts == 0 {
		t.Fatal("no bursts injected")
	}
	if len(aud.lengths) < 2 {
		t.Errorf("geometric lengths did not vary: %v", aud.lengths)
	}
	if aud.maxLen != aud.bits {
		t.Errorf("cap never engaged: max length %d, image %d", aud.maxLen, aud.bits)
	}
}

// TestGeometricCampaignDeterministic: the geometric mode inherits the
// per-(system, trial) reseeding determinism.
func TestGeometricCampaignDeterministic(t *testing.T) {
	base := Config{EventsPerKilobit: 4, BurstDist: "geometric", BurstMeanBits: 4, Trials: 800, Seed: 17}
	var results [][]SystemResult
	for _, workers := range []int{1, 4} {
		results = append(results, runWorkers(t, base, workers))
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("worker count changed geometric results:\n%+v\nvs\n%+v", results[0], results[1])
	}
	if results[0][0].MeanEvents <= 0 {
		t.Error("no events injected")
	}
}

func TestPoissonMean(t *testing.T) {
	rng := campaign.NewTrialRand(11)
	const mean = 2.5
	var sum int
	const n = 100000
	for i := 0; i < n; i++ {
		sum += poisson(rng, mean)
	}
	got := float64(sum) / n
	if math.Abs(got-mean) > 0.05 {
		t.Errorf("poisson mean %v, want %v", got, mean)
	}
	if poisson(rng, 0) != 0 {
		t.Error("poisson(0) should be 0")
	}
}

func BenchmarkCampaignBurst4(b *testing.B) {
	cfg := Config{EventsPerKilobit: 8, BurstBits: 4, Trials: 200}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Run(cfg, DefaultSystems); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDefaultSystemsGolden pins DefaultSystems' campaign counters for
// one fixed-burst and one geometric configuration. Recovery consumes
// no randomness beyond the payload draws, so a change to how the
// systems encode or decode that moves any count is a semantics change,
// not noise.
func TestDefaultSystemsGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want map[string]int64
	}{
		{
			name: "fixed",
			cfg:  Config{EventsPerKilobit: 6, BurstBits: 6, Trials: 1500, Seed: 41},
			want: map[string]int64{
				"events/4x SEC-DED(39,32)": 1368, "events/RS(10,8) x2 interleaved": 1506, "events/RS(18,16)": 1358,
				"events/RS(20,16)": 1535, "events/TMR voter": 3434,
				"lost/4x SEC-DED(39,32)": 869, "lost/RS(10,8) x2 interleaved": 363, "lost/RS(18,16)": 648,
				"lost/RS(20,16)": 344, "lost/TMR voter": 196,
			},
		},
		{
			name: "geometric",
			cfg:  Config{EventsPerKilobit: 6, BurstDist: "geometric", BurstMeanBits: 5, Trials: 1500, Seed: 43},
			want: map[string]int64{
				"events/4x SEC-DED(39,32)": 1319, "events/RS(10,8) x2 interleaved": 1343, "events/RS(18,16)": 1287,
				"events/RS(20,16)": 1357, "events/TMR voter": 3362,
				"lost/4x SEC-DED(39,32)": 749, "lost/RS(10,8) x2 interleaved": 334, "lost/RS(18,16)": 531,
				"lost/RS(20,16)": 284, "lost/TMR voter": 142,
			},
		},
	} {
		scn, _, err := Scenario(tc.cfg, DefaultSystems)
		if err != nil {
			t.Fatal(err)
		}
		cres, err := campaign.Run(scn, campaign.Config{Workers: 2, ShardSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cres.Counters, tc.want) {
			t.Errorf("%s: golden mismatch\ncounters %#v", tc.name, cres.Counters)
		}
	}
}
