package duplex

import (
	"math"
	"testing"

	"repro/internal/simplex"
)

func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}

func baseParams() Params {
	return Params{N: 18, K: 16, M: 8, Lambda: 1e-5, LambdaE: 1e-6}
}

func TestValidate(t *testing.T) {
	good := baseParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.N = 0 },
		func(p *Params) { p.K = p.N },
		func(p *Params) { p.M = 0 },
		func(p *Params) { p.M = 20 },
		func(p *Params) { p.N = 300; p.M = 8 },
		func(p *Params) { p.Lambda = -1 },
		func(p *Params) { p.LambdaE = -1 },
		func(p *Params) { p.ScrubRate = -1 },
	}
	for i, mut := range cases {
		p := baseParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestStateString(t *testing.T) {
	s := State{X: 1, Y: 2, B: 3, E1: 4, E2: 5, Ec: 6}
	if got := s.String(); got != "(1,2,3,4,5,6)" {
		t.Errorf("String = %q", got)
	}
	if got := (State{Fail: true}).String(); got != "FAIL" {
		t.Errorf("String = %q", got)
	}
}

func TestWordRecoverable(t *testing.T) {
	p := baseParams() // n-k = 2
	cases := []struct {
		s      State
		w1, w2 bool
	}{
		{State{}, true, true},
		{State{E1: 1}, true, true},
		{State{E1: 2}, false, true},
		{State{E2: 2}, true, false},
		{State{X: 2}, true, true},
		{State{X: 3}, false, false},
		{State{X: 1, E1: 1}, false, true}, // 1 + 2 = 3 > 2
		{State{B: 1}, true, true},
		{State{B: 1, E1: 1}, false, true},
		{State{Ec: 1}, true, true},
		{State{Ec: 1, E2: 1}, true, false},
		{State{Y: 18}, true, true}, // Y is masked, never counts
	}
	for _, c := range cases {
		if got := p.WordRecoverable(c.s, 1); got != c.w1 {
			t.Errorf("WordRecoverable(%v, 1) = %v, want %v", c.s, got, c.w1)
		}
		if got := p.WordRecoverable(c.s, 2); got != c.w2 {
			t.Errorf("WordRecoverable(%v, 2) = %v, want %v", c.s, got, c.w2)
		}
	}
}

func TestRecoverableSemantics(t *testing.T) {
	p := baseParams()
	s := State{E1: 2} // word1 dead, word2 fine
	if p.Recoverable(s) {
		t.Error("default (paper) semantics must fail when one word exceeds capability")
	}
	p.Opts.EitherWordSuffices = true
	if !p.Recoverable(s) {
		t.Error("EitherWordSuffices must survive on one good word")
	}
	dead := State{X: 3}
	if p.Recoverable(dead) {
		t.Error("state with both words dead must not be recoverable")
	}
}

func TestGoodStateTransitions(t *testing.T) {
	p := baseParams()
	arcs := p.Transitions(State{})
	// From all-clean: C (erasure -> Y), L (SEU word1), M (SEU word2).
	if len(arcs) != 3 {
		t.Fatalf("got %d arcs from Good, want 3: %v", len(arcs), arcs)
	}
	seu := float64(p.M) * p.Lambda * float64(p.N)
	found := map[State]float64{}
	for _, a := range arcs {
		found[a.To] = a.Rate
	}
	if r := found[State{Y: 1}]; !relClose(r, p.LambdaE*18, 1e-12) {
		t.Errorf("clean->Y rate %g, want %g", r, p.LambdaE*18)
	}
	if r := found[State{E1: 1}]; !relClose(r, seu, 1e-12) {
		t.Errorf("clean->e1 rate %g, want %g", r, seu)
	}
	if r := found[State{E2: 1}]; !relClose(r, seu, 1e-12) {
		t.Errorf("clean->e2 rate %g, want %g", r, seu)
	}
}

// TestFigure4Transitions spot-checks every lettered transition of the
// paper's Figure 4 from a state where all six classes are populated.
func TestFigure4Transitions(t *testing.T) {
	p := Params{N: 36, K: 16, M: 8, Lambda: 1e-5, LambdaE: 1e-6}
	s := State{X: 1, Y: 2, B: 1, E1: 1, E2: 2, Ec: 1}
	free := float64(p.N - s.occupied())
	seu := float64(p.M) * p.Lambda
	arcs := p.Transitions(s)
	rates := map[State]float64{}
	for _, a := range arcs {
		rates[a.To] += a.Rate
	}
	le := p.LambdaE
	want := map[State]float64{
		// A: Y erasure twin -> X.
		{X: 2, Y: 1, B: 1, E1: 1, E2: 2, Ec: 1}: le * 2,
		// B: b erasure -> X (rate lambdaE*b, the consistent reading).
		{X: 2, Y: 2, B: 0, E1: 1, E2: 2, Ec: 1}: le * 1,
		// C: clean -> Y.
		{X: 1, Y: 3, B: 1, E1: 1, E2: 2, Ec: 1}: le * free,
		// D: erasure on errored word of e1 -> Y. (plus E for e2)
		{X: 1, Y: 3, B: 1, E1: 0, E2: 2, Ec: 1}: le * 1,
		{X: 1, Y: 3, B: 1, E1: 1, E2: 1, Ec: 1}: le * 2,
		// F: ec -> b.
		{X: 1, Y: 2, B: 2, E1: 1, E2: 2, Ec: 0}: le * 1,
		// G/H: erasure on clean twin of e1/e2 -> b.
		{X: 1, Y: 2, B: 2, E1: 0, E2: 2, Ec: 1}: le * 1,
		{X: 1, Y: 2, B: 2, E1: 1, E2: 1, Ec: 1}: le * 2,
		// I: SEU on clean twin of Y -> b.
		{X: 1, Y: 1, B: 2, E1: 1, E2: 2, Ec: 1}: seu * 2,
		// L/M: SEU on clean position.
		{X: 1, Y: 2, B: 1, E1: 2, E2: 2, Ec: 1}: seu * free,
		{X: 1, Y: 2, B: 1, E1: 1, E2: 3, Ec: 1}: seu * free,
		// N/O: SEU on clean twin of e1/e2 -> ec.
		{X: 1, Y: 2, B: 1, E1: 0, E2: 2, Ec: 2}: seu * 1,
		{X: 1, Y: 2, B: 1, E1: 1, E2: 1, Ec: 2}: seu * 2,
	}
	// C and D both land on (1,3,1,0|1,...): D targets E1-1 so they are
	// distinct states above except C vs D/E; verify each individually.
	for to, rate := range want {
		got, ok := rates[to]
		if !ok {
			t.Errorf("missing transition to %v", to)
			continue
		}
		if !relClose(got, rate, 1e-12) {
			t.Errorf("transition to %v has rate %g, want %g", to, got, rate)
		}
	}
	if len(rates) != len(want) {
		t.Errorf("got %d distinct successors, want %d: %v", len(rates), len(want), rates)
	}
}

func TestPaperBRateVariant(t *testing.T) {
	p := baseParams()
	p.Opts.BRateUsesY = true
	s := State{Y: 2, B: 1}
	var got float64
	for _, a := range p.Transitions(s) {
		if a.To == (State{X: 1, Y: 2}) {
			got = a.Rate
		}
	}
	if !relClose(got, p.LambdaE*2, 1e-12) {
		t.Errorf("paper-literal B rate = %g, want lambdaE*Y = %g", got, p.LambdaE*2)
	}
}

func TestScrubTransitionTarget(t *testing.T) {
	p := baseParams()
	p.ScrubRate = 4
	s := State{X: 1, Y: 1, B: 2, E1: 1, E2: 0, Ec: 1}
	var found bool
	for _, a := range p.Transitions(s) {
		if a.Rate == 4 {
			if a.To != (State{X: 1, Y: 3}) {
				t.Errorf("scrub lands on %v, want (1,3,0,0,0,0)", a.To)
			}
			found = true
		}
	}
	if !found {
		t.Error("scrub transition missing")
	}
	// Scrubbing an already-clean persistent state is a self-loop and
	// must not be emitted.
	for _, a := range p.Transitions(State{X: 1, Y: 2}) {
		if a.To == (State{X: 1, Y: 2}) {
			t.Error("self-loop scrub emitted")
		}
	}
}

func TestAbsorbingFail(t *testing.T) {
	p := baseParams()
	if arcs := p.Transitions(State{Fail: true}); arcs != nil {
		t.Errorf("Fail state has outgoing arcs: %v", arcs)
	}
}

func TestExploredInvariants(t *testing.T) {
	p := baseParams()
	p.ScrubRate = 1
	ex, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Chain.NumStates() < 10 {
		t.Fatalf("suspiciously small duplex space: %d", ex.Chain.NumStates())
	}
	for _, s := range ex.States {
		if s.Fail {
			continue
		}
		if !p.Recoverable(s) {
			t.Errorf("unrecoverable non-fail state %v explored", s)
		}
		if s.occupied() > p.N {
			t.Errorf("state %v occupies more than n positions", s)
		}
		if s.X < 0 || s.Y < 0 || s.B < 0 || s.E1 < 0 || s.E2 < 0 || s.Ec < 0 {
			t.Errorf("negative count in state %v", s)
		}
	}
}

// TestWordSymmetry: the model must be symmetric under swapping the two
// modules; the explored space must contain the mirror of every state.
func TestWordSymmetry(t *testing.T) {
	p := baseParams()
	ex, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ex.States {
		if s.Fail {
			continue
		}
		mirror := State{X: s.X, Y: s.Y, B: s.B, E1: s.E2, E2: s.E1, Ec: s.Ec}
		if _, ok := ex.Index[mirror]; !ok {
			t.Errorf("mirror of %v not in state space", s)
		}
	}
}

// TestDuplexIsTwiceSimplexUnderPureSEU verifies the headline of
// Figures 5 vs 6: with no permanent faults the duplex fail probability
// approaches twice the simplex one (two independent words, each of
// which kills the system when it exceeds capability; the quadratic
// cross terms are negligible at paper rates).
func TestDuplexIsTwiceSimplexUnderPureSEU(t *testing.T) {
	lambda := 1.7e-5 / 24 // worst case per hour
	dp := Params{N: 18, K: 16, M: 8, Lambda: lambda}
	sp := simplex.Params{N: 18, K: 16, M: 8, Lambda: lambda}
	times := []float64{12, 24, 48}
	dF, err := FailProbabilities(dp, times)
	if err != nil {
		t.Fatal(err)
	}
	sF, err := simplex.FailProbabilities(sp, times)
	if err != nil {
		t.Fatal(err)
	}
	for i := range times {
		ratio := dF[i] / sF[i]
		if math.Abs(ratio-2) > 0.02 {
			t.Errorf("t=%v: duplex/simplex = %v, want ~2", times[i], ratio)
		}
	}
}

// TestDuplexBeatsSimplexUnderPermanentFaults verifies the headline of
// Figures 8 vs 9: the arbiter's Y-masking makes the duplex orders of
// magnitude more resilient to permanent faults.
func TestDuplexBeatsSimplexUnderPermanentFaults(t *testing.T) {
	lambdaE := 1e-5 / 24
	dp := Params{N: 18, K: 16, M: 8, LambdaE: lambdaE}
	sp := simplex.Params{N: 18, K: 16, M: 8, LambdaE: lambdaE}
	tt := []float64{720 * 24} // 24 months in hours
	dF, err := FailProbabilities(dp, tt)
	if err != nil {
		t.Fatal(err)
	}
	sF, err := simplex.FailProbabilities(sp, tt)
	if err != nil {
		t.Fatal(err)
	}
	if dF[0] <= 0 {
		t.Fatal("duplex fail probability underflowed to zero")
	}
	if sF[0]/dF[0] < 1e3 {
		t.Errorf("duplex advantage only %gx (simplex %g, duplex %g), want >= 1e3x",
			sF[0]/dF[0], sF[0], dF[0])
	}
}

func TestEitherWordSufficesIsFarBetter(t *testing.T) {
	base := Params{N: 18, K: 16, M: 8, Lambda: 1.7e-5 / 24}
	ideal := base
	ideal.Opts.EitherWordSuffices = true
	times := []float64{48}
	strict, err := FailProbabilities(base, times)
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := FailProbabilities(ideal, times)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed[0] >= strict[0]/100 {
		t.Errorf("idealized arbiter should be >100x better: strict %g relaxed %g", strict[0], relaxed[0])
	}
}

func TestScrubbingImprovesDuplex(t *testing.T) {
	p := Params{N: 18, K: 16, M: 8, Lambda: 1.7e-5 / 24}
	noScrub, err := FailProbabilities(p, []float64{48})
	if err != nil {
		t.Fatal(err)
	}
	prev := noScrub[0]
	for _, tscSeconds := range []float64{3600, 1800, 1200, 900} {
		ps := p
		ps.ScrubRate = 3600 / tscSeconds
		got, err := FailProbabilities(ps, []float64{48})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] >= prev {
			t.Errorf("Tsc=%vs did not improve P_fail: %g vs %g", tscSeconds, got[0], prev)
		}
		prev = got[0]
	}
}

func TestFailMonotonicInTime(t *testing.T) {
	p := baseParams()
	times := []float64{0, 1, 12, 48, 300}
	got, err := FailProbabilities(p, times)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Errorf("P_fail(0) = %g", got[0])
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Errorf("P_fail not monotone at %v", times[i])
		}
	}
}

func TestDoubleSidedVariantsIncreaseFailProbability(t *testing.T) {
	base := Params{N: 18, K: 16, M: 8, Lambda: 1e-5, LambdaE: 1e-5}
	b, err := FailProbabilities(base, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	doubled := base
	doubled.Opts.DoubleSidedErasures = true
	d, err := FailProbabilities(doubled, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if d[0] <= b[0] {
		t.Errorf("doubled erasure sides did not increase P_fail: %g vs %g", d[0], b[0])
	}
}

func TestBuildRejectsInvalid(t *testing.T) {
	if _, err := Build(Params{N: 5, K: 5, M: 8}); err == nil {
		t.Error("Build accepted invalid params")
	}
	if _, err := FailProbabilities(Params{N: 5, K: 5, M: 8}, []float64{1}); err == nil {
		t.Error("FailProbabilities accepted invalid params")
	}
}

func BenchmarkBuildRS1816(b *testing.B) {
	p := baseParams()
	p.ScrubRate = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFailProbabilities48h(b *testing.B) {
	p := baseParams()
	p.ScrubRate = 1
	times := []float64{6, 12, 24, 48}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FailProbabilities(p, times); err != nil {
			b.Fatal(err)
		}
	}
}
