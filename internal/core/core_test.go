package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/reliability"
)

func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}

func TestCodeSpecValidate(t *testing.T) {
	if err := RS1816.Validate(); err != nil {
		t.Errorf("RS1816 invalid: %v", err)
	}
	if err := RS3616.Validate(); err != nil {
		t.Errorf("RS3616 invalid: %v", err)
	}
	bad := []CodeSpec{
		{N: 0, K: 0, M: 8},
		{N: 18, K: 18, M: 8},
		{N: 18, K: 16, M: 0},
		{N: 18, K: 16, M: 17},
		{N: 300, K: 16, M: 8},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid spec accepted: %+v", c)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Arrangement: Simplex, Code: RS1816, SEUPerBitDay: 1e-5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Arrangement: Arrangement(9), Code: RS1816},
		{Arrangement: Simplex, Code: CodeSpec{N: 5, K: 5, M: 8}},
		{Arrangement: Simplex, Code: RS1816, SEUPerBitDay: -1},
		{Arrangement: Simplex, Code: RS1816, ErasurePerSymbolDay: -1},
		{Arrangement: Simplex, Code: RS1816, ScrubPeriodSeconds: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestStrings(t *testing.T) {
	if Simplex.String() != "simplex" || Duplex.String() != "duplex" {
		t.Error("arrangement names wrong")
	}
	if !strings.Contains(Arrangement(7).String(), "7") {
		t.Error("unknown arrangement String should include the value")
	}
	if RS1816.String() != "RS(18,16)/m=8" {
		t.Errorf("CodeSpec.String = %q", RS1816.String())
	}
	cfg := Config{Arrangement: Duplex, Code: RS1816, SEUPerBitDay: 1.7e-5, ScrubPeriodSeconds: 900}
	s := cfg.String()
	for _, want := range []string{"duplex", "RS(18,16)", "1.7e-05", "Tsc=900s"} {
		if !strings.Contains(s, want) {
			t.Errorf("Config.String() = %q missing %q", s, want)
		}
	}
	noScrub := Config{Arrangement: Simplex, Code: RS1816}
	if !strings.Contains(noScrub.String(), "no scrub") {
		t.Errorf("Config.String() = %q missing scrub state", noScrub.String())
	}
}

func TestBERFromFailProbability(t *testing.T) {
	// Eq (1): BER = m*(n-k)/k * P. For RS(18,16)/m=8: 8*2/16 = 1.
	if got := BERFromFailProbability(RS1816, 0.5); !relClose(got, 0.5, 1e-15) {
		t.Errorf("RS1816 BER factor: got %v, want 0.5", got)
	}
	// For RS(36,16)/m=8: 8*20/16 = 10.
	if got := BERFromFailProbability(RS3616, 0.01); !relClose(got, 0.1, 1e-15) {
		t.Errorf("RS3616 BER factor: got %v, want 0.1", got)
	}
}

func TestEvaluateSimplexMatchesPaperMagnitudes(t *testing.T) {
	// Figure 5 anchor points: worst-case SEU rate at 48 h sits in the
	// 1e-5 decade; the quiet rate in the 1e-8 decade.
	hours := []float64{24, 48}
	worst, err := Evaluate(Config{Arrangement: Simplex, Code: RS1816, SEUPerBitDay: 1.7e-5}, hours)
	if err != nil {
		t.Fatal(err)
	}
	if worst.BER[1] < 5e-6 || worst.BER[1] > 5e-5 {
		t.Errorf("worst-case simplex BER(48h) = %g, want ~1.1e-5", worst.BER[1])
	}
	quiet, err := Evaluate(Config{Arrangement: Simplex, Code: RS1816, SEUPerBitDay: 7.3e-7}, hours)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.BER[1] < 5e-9 || quiet.BER[1] > 1e-7 {
		t.Errorf("quiet simplex BER(48h) = %g, want ~2e-8", quiet.BER[1])
	}
}

func TestEvaluateFig7ScrubAnchor(t *testing.T) {
	// The paper's Fig 7 conclusion: duplex RS(18,16) at the worst-case
	// SEU rate stays below BER 1e-6 with hourly scrubbing.
	hours := []float64{48}
	cfg := Config{
		Arrangement:        Duplex,
		Code:               RS1816,
		SEUPerBitDay:       reliability.WorstCaseSEURate,
		ScrubPeriodSeconds: 3600,
	}
	curve, err := Evaluate(cfg, hours)
	if err != nil {
		t.Fatal(err)
	}
	if curve.BER[0] >= 1e-6 {
		t.Errorf("BER(48h) with hourly scrub = %g, want < 1e-6", curve.BER[0])
	}
	if curve.BER[0] < 1e-8 {
		t.Errorf("BER(48h) with hourly scrub = %g, implausibly small", curve.BER[0])
	}
	// Without scrubbing the same system must exceed 1e-6.
	cfg.ScrubPeriodSeconds = 0
	bare, err := Evaluate(cfg, hours)
	if err != nil {
		t.Fatal(err)
	}
	if bare.BER[0] <= 1e-6 {
		t.Errorf("unscrubbed duplex BER(48h) = %g, want > 1e-6", bare.BER[0])
	}
}

func TestEvaluateFigs8to10Ordering(t *testing.T) {
	// At any permanent-fault rate and long storage, the paper's
	// ordering must hold: simplex RS(18,16) >> duplex RS(18,16) >>
	// simplex RS(36,16).
	hours := []float64{reliability.Months(24)}
	for _, rate := range []float64{1e-4, 1e-6, 1e-8} {
		s18, err := Evaluate(Config{Arrangement: Simplex, Code: RS1816, ErasurePerSymbolDay: rate}, hours)
		if err != nil {
			t.Fatal(err)
		}
		d18, err := Evaluate(Config{Arrangement: Duplex, Code: RS1816, ErasurePerSymbolDay: rate}, hours)
		if err != nil {
			t.Fatal(err)
		}
		s36, err := Evaluate(Config{Arrangement: Simplex, Code: RS3616, ErasurePerSymbolDay: rate}, hours)
		if err != nil {
			t.Fatal(err)
		}
		if !(s18.BER[0] > d18.BER[0]) {
			t.Errorf("rate %g: simplex18 %g not worse than duplex18 %g", rate, s18.BER[0], d18.BER[0])
		}
		if !(d18.BER[0] > s36.BER[0]) {
			t.Errorf("rate %g: duplex18 %g not worse than simplex36 %g", rate, d18.BER[0], s36.BER[0])
		}
	}
}

func TestEvaluateCurveShape(t *testing.T) {
	hours := []float64{0, 12, 24, 48}
	curve, err := Evaluate(Config{Arrangement: Duplex, Code: RS1816, SEUPerBitDay: 3.6e-6}, hours)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.BER) != 4 || len(curve.PFail) != 4 || len(curve.Hours) != 4 {
		t.Fatal("curve length mismatch")
	}
	if curve.BER[0] != 0 {
		t.Errorf("BER(0) = %g", curve.BER[0])
	}
	for i := 1; i < 4; i++ {
		if curve.BER[i] < curve.BER[i-1] {
			t.Error("BER not monotone without repair")
		}
		if !relClose(curve.BER[i], BERFromFailProbability(RS1816, curve.PFail[i]), 1e-15) {
			t.Error("BER inconsistent with PFail")
		}
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(Config{Arrangement: Arrangement(5), Code: RS1816}, []float64{1}); err == nil {
		t.Error("invalid arrangement accepted")
	}
	if _, err := Evaluate(Config{Arrangement: Simplex, Code: RS1816}, []float64{5, 1}); err == nil {
		t.Error("decreasing times accepted")
	}
}

func TestEvaluateDoesNotAliasInput(t *testing.T) {
	hours := []float64{0, 10}
	curve, err := Evaluate(Config{Arrangement: Simplex, Code: RS1816, SEUPerBitDay: 1e-6}, hours)
	if err != nil {
		t.Fatal(err)
	}
	hours[0] = 999
	if curve.Hours[0] == 999 {
		t.Error("curve aliases caller's time slice")
	}
}

// TestStateCount pins the size of the explored state space — a
// diagnostic the paper discusses (state explosion is why it models a
// single word).
func TestStateCount(t *testing.T) {
	simplexChain, _, err := buildChain(Config{Arrangement: Simplex, Code: RS1816, SEUPerBitDay: 1e-6, ErasurePerSymbolDay: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	n := simplexChain.NumStates()
	if n != 5 {
		t.Errorf("simplex RS(18,16) state count = %d, want 5", n)
	}
	duplexChain, _, err := buildChain(Config{Arrangement: Duplex, Code: RS1816, SEUPerBitDay: 1e-6, ErasurePerSymbolDay: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if d := duplexChain.NumStates(); d <= n {
		t.Errorf("duplex state space (%d) should exceed simplex (%d)", d, n)
	}
	if _, _, err := buildChain(Config{Arrangement: Simplex, Code: CodeSpec{N: 1, K: 1, M: 8}}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestMTTDL(t *testing.T) {
	// Pure SEU simplex has a closed form: stages at rates a=m*l*n and
	// b=m*l*(n-1), MTTDL = 1/a + 1/b.
	lambdaDay := 1e-3
	cfg := Config{Arrangement: Simplex, Code: RS1816, SEUPerBitDay: lambdaDay}
	got, err := MTTDL(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := lambdaDay / 24
	a := 8 * l * 18
	bRate := 8 * l * 17
	want := 1/a + 1/bRate
	if !relClose(got, want, 1e-10) {
		t.Errorf("MTTDL = %v, want %v", got, want)
	}

	// Scrubbing must extend MTTDL.
	scrubbed := cfg
	scrubbed.ScrubPeriodSeconds = 3600
	gs, err := MTTDL(scrubbed)
	if err != nil {
		t.Fatal(err)
	}
	if gs <= got {
		t.Errorf("scrubbing did not extend MTTDL: %v vs %v", gs, got)
	}

	// Duplex must beat simplex under permanent faults.
	sPerm := Config{Arrangement: Simplex, Code: RS1816, ErasurePerSymbolDay: 1e-5}
	dPerm := Config{Arrangement: Duplex, Code: RS1816, ErasurePerSymbolDay: 1e-5}
	sm, err := MTTDL(sPerm)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := MTTDL(dPerm)
	if err != nil {
		t.Fatal(err)
	}
	// The duplex advantage shows up as a modest MTTDL factor (~4x):
	// means are set by the lambdaE*t ~ 1 bulk, not by the early tail
	// where the BER figures live. (A sanity check, and a caution
	// against summarizing the paper's results by MTTDL alone.)
	if dm <= 2*sm {
		t.Errorf("duplex MTTDL %v not clearly beyond simplex %v under permanent faults", dm, sm)
	}

	// No fault processes: infinite MTTDL.
	quiet := Config{Arrangement: Simplex, Code: RS1816}
	qm, err := MTTDL(quiet)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(qm, 1) {
		t.Errorf("fault-free MTTDL = %v, want +Inf", qm)
	}

	if _, err := MTTDL(Config{Arrangement: Arrangement(9), Code: RS1816}); err == nil {
		t.Error("invalid config accepted")
	}
}

func BenchmarkEvaluateSimplex(b *testing.B) {
	hours := []float64{6, 12, 24, 48}
	cfg := Config{Arrangement: Simplex, Code: RS1816, SEUPerBitDay: 1.7e-5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(cfg, hours); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateDuplexScrubbed(b *testing.B) {
	hours := []float64{6, 12, 24, 48}
	cfg := Config{Arrangement: Duplex, Code: RS1816, SEUPerBitDay: 1.7e-5, ScrubPeriodSeconds: 900}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Evaluate(cfg, hours); err != nil {
			b.Fatal(err)
		}
	}
}
