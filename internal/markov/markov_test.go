package markov

import (
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol
}

func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(0); err == nil {
		t.Error("NewChain(0) accepted")
	}
	if _, err := NewChain(-3); err == nil {
		t.Error("NewChain(-3) accepted")
	}
	c, err := NewChain(5)
	if err != nil || c.NumStates() != 5 {
		t.Fatalf("NewChain(5): %v, n=%d", err, c.NumStates())
	}
}

func TestAddTransitionValidation(t *testing.T) {
	c, _ := NewChain(3)
	cases := []struct {
		i, j int
		rate float64
	}{
		{-1, 0, 1}, {3, 0, 1}, {0, -1, 1}, {0, 3, 1}, {1, 1, 1},
		{0, 1, -2}, {0, 1, math.NaN()}, {0, 1, math.Inf(1)},
	}
	for _, cse := range cases {
		if err := c.AddTransition(cse.i, cse.j, cse.rate); err == nil {
			t.Errorf("AddTransition(%d,%d,%v) accepted", cse.i, cse.j, cse.rate)
		}
	}
	if err := c.AddTransition(0, 1, 0); err != nil {
		t.Errorf("zero-rate transition rejected: %v", err)
	}
	if len(c.Transitions(0)) != 0 {
		t.Error("zero-rate transition stored")
	}
}

func TestTransitionAccumulation(t *testing.T) {
	c, _ := NewChain(2)
	if err := c.AddTransition(0, 1, 1.5); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTransition(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	trs := c.Transitions(0)
	if len(trs) != 1 || trs[0].Rate != 4 {
		t.Errorf("accumulated transitions = %v, want single rate 4", trs)
	}
	if c.exit[0] != 4 {
		t.Errorf("exit rate = %v, want 4", c.exit[0])
	}
	if !c.IsAbsorbing(1) || c.IsAbsorbing(0) {
		t.Error("IsAbsorbing wrong")
	}
	if c.MaxExitRate() != 4 {
		t.Errorf("MaxExitRate = %v", c.MaxExitRate())
	}
}

func TestGeneratorRowSumsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, _ := NewChain(10)
	for i := 0; i < 40; i++ {
		a, b := rng.Intn(10), rng.Intn(10)
		if a == b {
			continue
		}
		if err := c.AddTransition(a, b, rng.Float64()*3); err != nil {
			t.Fatal(err)
		}
	}
	q := generator(c)
	for i, row := range q {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if !almostEqual(sum, 0, 1e-12) {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
}

// TestTwoStateClosedForm: 0 -> 1 at rate lambda (1 absorbing).
// P1(t) = 1 - exp(-lambda t).
func TestTwoStateClosedForm(t *testing.T) {
	lambda := 0.37
	c, _ := NewChain(2)
	if err := c.AddTransition(0, 1, lambda); err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0, 0.1, 1, 5, 20} {
		p, err := c.Transient([]float64{1, 0}, tt)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - math.Exp(-lambda*tt)
		if !almostEqual(p[1], want, 1e-12) {
			t.Errorf("t=%v: P1 = %v, want %v", tt, p[1], want)
		}
		if !almostEqual(p[0]+p[1], 1, 1e-12) {
			t.Errorf("t=%v: mass = %v", tt, p[0]+p[1])
		}
	}
}

// TestErlangAbsorption: chain 0 -> 1 -> ... -> k at rate lambda.
// P(absorbed by t) = 1 - sum_{i<k} e^{-lt}(lt)^i/i!.
func TestErlangAbsorption(t *testing.T) {
	const k = 5
	lambda := 2.0
	c, _ := NewChain(k + 1)
	for i := 0; i < k; i++ {
		if err := c.AddTransition(i, i+1, lambda); err != nil {
			t.Fatal(err)
		}
	}
	p0 := make([]float64, k+1)
	p0[0] = 1
	for _, tt := range []float64{0.3, 1, 2.5} {
		p, err := c.Transient(p0, tt)
		if err != nil {
			t.Fatal(err)
		}
		lt := lambda * tt
		tail := 0.0
		term := math.Exp(-lt)
		for i := 0; i < k; i++ {
			tail += term
			term *= lt / float64(i+1)
		}
		want := 1 - tail
		if !relClose(p[k], want, 1e-10) {
			t.Errorf("t=%v: P(absorbed) = %v, want %v", tt, p[k], want)
		}
	}
}

// TestPureBirthPoisson: the truncated pure-birth chain at rate lambda
// reproduces Poisson probabilities in its interior states.
func TestPureBirthPoisson(t *testing.T) {
	const n = 40
	lambda := 1.7
	c, _ := NewChain(n)
	for i := 0; i < n-1; i++ {
		if err := c.AddTransition(i, i+1, lambda); err != nil {
			t.Fatal(err)
		}
	}
	p0 := make([]float64, n)
	p0[0] = 1
	tt := 3.0
	p, err := c.Transient(p0, tt)
	if err != nil {
		t.Fatal(err)
	}
	lt := lambda * tt
	want := math.Exp(-lt)
	for i := 0; i < 12; i++ {
		if !relClose(p[i], want, 1e-9) {
			t.Errorf("P%d = %v, want Poisson %v", i, p[i], want)
		}
		want *= lt / float64(i+1)
	}
}

// TestDeepTailTinyProbabilities is the regression test for the
// figure-9/10 regime: probabilities of order 1e-150 must be computed
// with full relative accuracy, not truncated to zero.
func TestDeepTailTinyProbabilities(t *testing.T) {
	const k = 10
	lambda := 1e-15
	c, _ := NewChain(k + 1)
	for i := 0; i < k; i++ {
		if err := c.AddTransition(i, i+1, lambda); err != nil {
			t.Fatal(err)
		}
	}
	p0 := make([]float64, k+1)
	p0[0] = 1
	p, err := c.Transient(p0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// P(state k) = (lambda t)^k / k! for lambda*t << 1 (Erlang head).
	want := 1.0
	for i := 1; i <= k; i++ {
		want *= lambda / float64(i)
	}
	if p[k] == 0 {
		t.Fatalf("deep-tail probability truncated to zero (want ~%g)", want)
	}
	if !relClose(p[k], want, 1e-6) {
		t.Errorf("P(state %d) = %g, want %g", k, p[k], want)
	}
}

// TestNoSpuriousFloorFromWeightResidue is the regression test for the
// figure-10 pollution bug: with a moderate (not tiny) q*t, the
// floating-point residue of the Poisson weight sum must NOT be
// redistributed into the absorbing tail, where it would bury true
// probabilities of order 1e-125 under a ~1e-16 floor.
func TestNoSpuriousFloorFromWeightResidue(t *testing.T) {
	const k = 21 // stages to absorption, like RS(36,16) erasure failure
	r := 1e-5
	c, _ := NewChain(k + 1)
	for i := 0; i < k; i++ {
		if err := c.AddTransition(i, i+1, r); err != nil {
			t.Fatal(err)
		}
	}
	p0 := make([]float64, k+1)
	p0[0] = 1
	p, err := c.Transient(p0, 1) // q*t ~ 1e-5: weights round off fast
	if err != nil {
		t.Fatal(err)
	}
	// P(absorbed) ~ (rt)^k / k! = 1e-105 / 5.1e19 ~ 2e-125.
	want := 1.0
	for i := 1; i <= k; i++ {
		want *= r / float64(i)
	}
	if p[k] > 1e-100 {
		t.Fatalf("absorbing probability %g polluted (want ~%g)", p[k], want)
	}
	if !relClose(p[k], want, 1e-3) {
		t.Errorf("absorbing probability %g, want %g", p[k], want)
	}
	// Chained evaluation (the TransientSeries path) must stay clean too.
	series, err := c.TransientSeries(p0, []float64{0.2, 0.4, 0.6, 0.8, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := series[4][k]; !relClose(got, want, 1e-3) {
		t.Errorf("series-evaluated absorbing probability %g, want %g", got, want)
	}
}

// TestUniformizationMatchesDenseExpm cross-validates the two solvers
// on random chains, including ones with cycles (repair transitions).
func TestUniformizationMatchesDenseExpm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(8)
		c, _ := NewChain(n)
		for e := 0; e < 3*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			if err := c.AddTransition(i, j, rng.Float64()*4); err != nil {
				t.Fatal(err)
			}
		}
		p0 := make([]float64, n)
		p0[0] = 1
		tt := rng.Float64() * 5
		got, err := c.Transient(p0, tt)
		if err != nil {
			t.Fatal(err)
		}
		want := vecMatMul(p0, denseExpm(generator(c), tt))
		for i := range got {
			if !almostEqual(got[i], want[i], 1e-9) {
				t.Errorf("trial %d state %d: uniformization %v vs expm %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestTransientValidation(t *testing.T) {
	c, _ := NewChain(2)
	_ = c.AddTransition(0, 1, 1)
	if _, err := c.Transient([]float64{1}, 1); err == nil {
		t.Error("short vector accepted")
	}
	if _, err := c.Transient([]float64{0.5, 0.2}, 1); err == nil {
		t.Error("non-normalized vector accepted")
	}
	if _, err := c.Transient([]float64{-0.5, 1.5}, 1); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := c.Transient([]float64{1, 0}, -1); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := c.Transient([]float64{1, 0}, math.NaN()); err == nil {
		t.Error("NaN time accepted")
	}
}

func TestTransientNoTransitions(t *testing.T) {
	c, _ := NewChain(3)
	p0 := []float64{0.2, 0.3, 0.5}
	p, err := c.Transient(p0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		if p[i] != p0[i] {
			t.Error("distribution changed with no transitions")
		}
	}
}

func TestTransientLongHorizonSegmented(t *testing.T) {
	// q*t = 50*40 = 2000 forces multiple segments; compare against the
	// closed form of the 2-state chain with repair (birth-death):
	// P1(t) = a/(a+b) * (1 - exp(-(a+b) t)) for 0->1 rate a, 1->0 rate b.
	a, b := 50.0, 30.0
	c, _ := NewChain(2)
	_ = c.AddTransition(0, 1, a)
	_ = c.AddTransition(1, 0, b)
	tt := 40.0
	p, err := c.Transient([]float64{1, 0}, tt)
	if err != nil {
		t.Fatal(err)
	}
	want := a / (a + b) * (1 - math.Exp(-(a+b)*tt))
	if !relClose(p[1], want, 1e-9) {
		t.Errorf("P1 = %v, want %v", p[1], want)
	}
}

func TestTransientSeries(t *testing.T) {
	lambda := 0.9
	c, _ := NewChain(2)
	_ = c.AddTransition(0, 1, lambda)
	times := []float64{0, 0.5, 0.5, 2, 7}
	series, err := c.TransientSeries([]float64{1, 0}, times)
	if err != nil {
		t.Fatal(err)
	}
	for i, tt := range times {
		want := 1 - math.Exp(-lambda*tt)
		if !almostEqual(series[i][1], want, 1e-10) {
			t.Errorf("t=%v: P1 = %v, want %v", tt, series[i][1], want)
		}
	}
	if _, err := c.TransientSeries([]float64{1, 0}, []float64{2, 1}); err == nil {
		t.Error("decreasing times accepted")
	}
}

type toyState struct {
	errors int
	failed bool
}

func toyTransitions(nmax int) func(toyState) []Arc[toyState] {
	return func(s toyState) []Arc[toyState] {
		if s.failed {
			return nil
		}
		if s.errors == nmax {
			return []Arc[toyState]{{To: toyState{failed: true}, Rate: 1}}
		}
		return []Arc[toyState]{
			{To: toyState{errors: s.errors + 1}, Rate: 2},
			{To: toyState{errors: 0}, Rate: 0.5}, // repair (self-arc when errors==0)
		}
	}
}

func TestBuildExploresReachableStates(t *testing.T) {
	ex, err := Build(toyState{}, toyTransitions(3), 100)
	if err != nil {
		t.Fatal(err)
	}
	// States: errors 0..3 plus failed = 5.
	if got := ex.Chain.NumStates(); got != 5 {
		t.Fatalf("explored %d states, want 5", got)
	}
	if ex.Index[toyState{}] != 0 {
		t.Error("initial state must have index 0")
	}
	// Self-arc from errors=0 must have been dropped.
	for _, tr := range ex.Chain.Transitions(0) {
		if tr.To == 0 {
			t.Error("self-arc retained")
		}
	}
	p0 := ex.InitialVector()
	if p0[0] != 1 || len(p0) != 5 {
		t.Error("InitialVector wrong")
	}
	p, err := ex.Chain.Transient(p0, 2)
	if err != nil {
		t.Fatal(err)
	}
	failP := ex.ProbabilityOf(p, func(s toyState) bool { return s.failed })
	if failP <= 0 || failP >= 1 {
		t.Errorf("fail probability %v out of (0,1)", failP)
	}
}

func TestBuildMaxStatesGuard(t *testing.T) {
	if _, err := Build(toyState{}, toyTransitions(1000), 10); err == nil {
		t.Error("state explosion not caught")
	}
	if _, err := Build(toyState{}, toyTransitions(3), 0); err == nil {
		t.Error("nonpositive maxStates accepted")
	}
}

func TestBuildNegativeRate(t *testing.T) {
	bad := func(s toyState) []Arc[toyState] {
		return []Arc[toyState]{{To: toyState{errors: 1}, Rate: -1}}
	}
	if _, err := Build(toyState{}, bad, 10); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestDenseExpmIdentityAtZero(t *testing.T) {
	q := [][]float64{{-1, 1}, {2, -2}}
	e := denseExpm(q, 0)
	if !almostEqual(e[0][0], 1, 1e-14) || !almostEqual(e[0][1], 0, 1e-14) ||
		!almostEqual(e[1][0], 0, 1e-14) || !almostEqual(e[1][1], 1, 1e-14) {
		t.Errorf("expm(0) != I: %v", e)
	}
}

func TestDenseExpmStochasticRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 6
	c, _ := NewChain(n)
	for e := 0; e < 20; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			_ = c.AddTransition(i, j, rng.Float64())
		}
	}
	e := denseExpm(generator(c), 3)
	for i := range e {
		var sum float64
		for _, v := range e[i] {
			if v < -1e-12 {
				t.Errorf("negative entry %v", v)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-10) {
			t.Errorf("row %d of expm sums to %v", i, sum)
		}
	}
}

func TestProbabilityConservedLargeRandomChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 200
	c, _ := NewChain(n)
	for e := 0; e < 1200; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			_ = c.AddTransition(i, j, rng.Float64()*10)
		}
	}
	p0 := make([]float64, n)
	p0[0] = 1
	for _, tt := range []float64{0.01, 1, 25} {
		p, err := c.Transient(p0, tt)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, v := range p {
			if v < 0 {
				t.Fatalf("negative probability %v", v)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-9) {
			t.Errorf("t=%v: mass %v", tt, sum)
		}
	}
}

func BenchmarkTransient200States(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	n := 200
	c, _ := NewChain(n)
	for e := 0; e < 1200; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			_ = c.AddTransition(i, j, rng.Float64())
		}
	}
	p0 := make([]float64, n)
	p0[0] = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Transient(p0, 10); err != nil {
			b.Fatal(err)
		}
	}
}
