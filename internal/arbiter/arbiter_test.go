package arbiter

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gf"
	"repro/internal/rs"
)

var (
	f8     = gf.MustField(8)
	code   = rs.MustNew(f8, 18, 16)
	code36 = rs.MustNew(f8, 36, 16)
)

func encode(t *testing.T, c *rs.Code, seed int64) ([]gf.Elem, []gf.Elem) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]gf.Elem, c.K())
	for i := range data {
		data[i] = gf.Elem(rng.Intn(256))
	}
	cw, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	return data, cw
}

func clone(w []gf.Elem) []gf.Elem { return append([]gf.Elem(nil), w...) }

func mustArbiter(t *testing.T, c *rs.Code) *Arbiter {
	t.Helper()
	a, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil code accepted")
	}
}

func TestReadValidation(t *testing.T) {
	a := mustArbiter(t, code)
	_, cw := encode(t, code, 1)
	if _, err := a.Read(cw[:17], cw, nil, nil); err == nil {
		t.Error("short word1 accepted")
	}
	if _, err := a.Read(cw, cw[:17], nil, nil); err == nil {
		t.Error("short word2 accepted")
	}
	if _, err := a.Read(cw, cw, []int{-1}, nil); err == nil {
		t.Error("negative erasure accepted")
	}
	if _, err := a.Read(cw, cw, nil, []int{18}); err == nil {
		t.Error("out-of-range erasure accepted")
	}
}

func TestCleanPair(t *testing.T) {
	a := mustArbiter(t, code)
	data, cw := encode(t, code, 2)
	res, err := a.Read(cw, clone(cw), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Verdict != NoError || res.Flag1 || res.Flag2 {
		t.Errorf("clean pair: %+v", res)
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("data mismatch")
		}
	}
}

func TestSingleErrorOneWordCorrectedAgree(t *testing.T) {
	a := mustArbiter(t, code)
	data, cw := encode(t, code, 3)
	w1 := clone(cw)
	w1[5] ^= 0x41
	res, err := a.Read(w1, clone(cw), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Verdict != CorrectedAgree {
		t.Errorf("verdict = %v, want corrected-agree", res.Verdict)
	}
	if !res.Flag1 || res.Flag2 {
		t.Errorf("flags = %v/%v, want true/false", res.Flag1, res.Flag2)
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("data mismatch")
		}
	}
}

func TestBothSingleErrorsCorrectedAgree(t *testing.T) {
	a := mustArbiter(t, code)
	data, cw := encode(t, code, 4)
	w1, w2 := clone(cw), clone(cw)
	w1[0] ^= 3
	w2[17] ^= 200
	res, err := a.Read(w1, w2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Verdict != CorrectedAgree || !res.Flag1 || !res.Flag2 {
		t.Errorf("%+v", res)
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("data mismatch")
		}
	}
}

// TestMiscorrectionResolvedByFlag reproduces the paper's third rule:
// word1 exceeds capability and mis-corrects (flag set), word2 is clean
// (flag reset) -> word2 wins.
func TestMiscorrectionResolvedByFlag(t *testing.T) {
	a := mustArbiter(t, code)
	rng := rand.New(rand.NewSource(5))
	resolved, oneFailed := 0, 0
	for trial := 0; trial < 400; trial++ {
		data, cw := encode(t, code, int64(100+trial))
		w1 := clone(cw)
		// Two symbol errors exceed RS(18,16) capability: the decoder
		// either detects (OneWordFailed path) or mis-corrects
		// (FlagResolved path). Both must yield correct output.
		p := rng.Perm(18)[:2]
		w1[p[0]] ^= gf.Elem(1 + rng.Intn(255))
		w1[p[1]] ^= gf.Elem(1 + rng.Intn(255))
		res, err := a.Read(w1, clone(cw), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("trial %d: arbiter gave no output with a clean twin: %+v", trial, res)
		}
		for i := range data {
			if res.Data[i] != data[i] {
				t.Fatalf("trial %d: wrong data via %v", trial, res.Verdict)
			}
		}
		switch res.Verdict {
		case FlagResolved:
			resolved++
		case OneWordFailed:
			oneFailed++
		default:
			t.Fatalf("trial %d: unexpected verdict %v", trial, res.Verdict)
		}
	}
	if resolved == 0 || oneFailed == 0 {
		t.Errorf("want both paths exercised: flag-resolved=%d one-word-failed=%d", resolved, oneFailed)
	}
}

// TestBothFlaggedDiffer: word1 mis-corrects, word2 performs a genuine
// correction -> both flags set, words differ, no output.
func TestBothFlaggedDiffer(t *testing.T) {
	a := mustArbiter(t, code)
	rng := rand.New(rand.NewSource(6))
	sawNoOutput := false
	for trial := 0; trial < 600 && !sawNoOutput; trial++ {
		_, cw := encode(t, code, int64(500+trial))
		w1, w2 := clone(cw), clone(cw)
		p := rng.Perm(18)
		w1[p[0]] ^= gf.Elem(1 + rng.Intn(255))
		w1[p[1]] ^= gf.Elem(1 + rng.Intn(255))
		w2[p[2]] ^= gf.Elem(1 + rng.Intn(255))
		res, err := a.Read(w1, w2, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == BothFlaggedDiffer {
			if res.OK {
				t.Fatal("no-output verdict with OK set")
			}
			sawNoOutput = true
		}
	}
	if !sawNoOutput {
		t.Error("both-flagged-differ never reached in 600 trials")
	}
}

func TestErasureMaskingSingleModule(t *testing.T) {
	a := mustArbiter(t, code)
	data, cw := encode(t, code, 7)
	w1 := clone(cw)
	// Erase 5 positions in module 1 only: far beyond RS(18,16)'s
	// 2-erasure capability, but all maskable from module 2.
	positions := []int{0, 3, 7, 11, 17}
	for _, p := range positions {
		w1[p] = 0xAA
	}
	res, err := a.Read(w1, clone(cw), positions, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("maskable erasures not recovered: %+v", res)
	}
	if res.MaskedErasures != 5 || res.SharedErasures != 0 {
		t.Errorf("masked=%d shared=%d, want 5/0", res.MaskedErasures, res.SharedErasures)
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("data mismatch")
		}
	}
}

func TestSharedErasuresGoToDecoder(t *testing.T) {
	a := mustArbiter(t, code)
	data, cw := encode(t, code, 8)
	w1, w2 := clone(cw), clone(cw)
	// Both modules erased at positions 2 and 9 (within n-k = 2).
	w1[2], w2[2] = 0x11, 0x22
	w1[9], w2[9] = 0x33, 0x44
	res, err := a.Read(w1, w2, []int{2, 9}, []int{2, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.SharedErasures != 2 {
		t.Fatalf("shared erasures not handled: %+v", res)
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("data mismatch")
		}
	}
}

func TestTooManySharedErasuresBothFail(t *testing.T) {
	a := mustArbiter(t, code)
	_, cw := encode(t, code, 9)
	w1, w2 := clone(cw), clone(cw)
	pos := []int{1, 4, 6}
	for _, p := range pos {
		w1[p] = 0
		w2[p] = 0
	}
	res, err := a.Read(w1, w2, pos, pos)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Verdict != BothFailed {
		t.Errorf("3 shared erasures on RS(18,16): %+v", res)
	}
}

// TestMaskedErasureCarriesTwinError: the paper's b class. Module 1 has
// an erasure whose twin symbol in module 2 carries a bit flip: masking
// copies the error into word 1, and both decoders then see it as a
// random error.
func TestMaskedErasureCarriesTwinError(t *testing.T) {
	a := mustArbiter(t, code)
	data, cw := encode(t, code, 10)
	w1, w2 := clone(cw), clone(cw)
	w1[4] = 0xFF  // erased garbage in module 1
	w2[4] ^= 0x01 // SEU on the twin symbol
	res, err := a.Read(w1, w2, []int{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both words end up with the same single error at position 4; both
	// decoders correct it and agree.
	if !res.OK || res.Verdict != CorrectedAgree {
		t.Fatalf("b-class position mishandled: %+v", res)
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("data mismatch")
		}
	}
}

func TestDifferNoFlags(t *testing.T) {
	a := mustArbiter(t, code)
	_, cw1 := encode(t, code, 11)
	_, cw2 := encode(t, code, 12)
	// Two different valid codewords: no decoder corrects anything,
	// the words differ, the arbiter must refuse to choose.
	res, err := a.Read(clone(cw1), clone(cw2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Verdict != DifferNoFlags {
		t.Errorf("%+v", res)
	}
}

func TestWideCodeHeavyErrors(t *testing.T) {
	a := mustArbiter(t, code36)
	rng := rand.New(rand.NewSource(13))
	data, cw := encode(t, code36, 14)
	w1, w2 := clone(cw), clone(cw)
	// 10 errors in word1 (at capability), 3 in word2.
	for _, p := range rng.Perm(36)[:10] {
		w1[p] ^= gf.Elem(1 + rng.Intn(255))
	}
	for _, p := range rng.Perm(36)[:3] {
		w2[p] ^= gf.Elem(1 + rng.Intn(255))
	}
	res, err := a.Read(w1, w2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Verdict != CorrectedAgree {
		t.Fatalf("%+v", res)
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("data mismatch")
		}
	}
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[Verdict]string{
		NoError:           "no-error",
		CorrectedAgree:    "corrected-agree",
		FlagResolved:      "flag-resolved",
		OneWordFailed:     "one-word-failed",
		BothFlaggedDiffer: "both-flagged-differ",
		DifferNoFlags:     "differ-no-flags",
		BothFailed:        "both-failed",
	} {
		if v.String() != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(v), v.String(), want)
		}
	}
	if !strings.Contains(Verdict(42).String(), "42") {
		t.Error("unknown verdict should include its value")
	}
}

func TestReadDoesNotMutateInputs(t *testing.T) {
	a := mustArbiter(t, code)
	_, cw := encode(t, code, 15)
	w1, w2 := clone(cw), clone(cw)
	w1[3] ^= 5
	w1c, w2c := clone(w1), clone(w2)
	if _, err := a.Read(w1, w2, []int{7}, nil); err != nil {
		t.Fatal(err)
	}
	for i := range w1 {
		if w1[i] != w1c[i] || w2[i] != w2c[i] {
			t.Fatal("Read mutated its inputs")
		}
	}
}

// TestCorrectableReadAllocatesNothing: a duplex read whose words both
// decode (here one corrected error and one masked erasure) hands back
// the Arbiter's own Result and allocates nothing.
func TestCorrectableReadAllocatesNothing(t *testing.T) {
	a := mustArbiter(t, code)
	data, cw := encode(t, code, 18)
	w1, w2 := clone(cw), clone(cw)
	w1[5] ^= 0x41
	w2[9] = 0
	var res *Result
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if res, err = a.Read(w1, w2, nil, []int{9}); err != nil {
			t.Fatal(err)
		}
	})
	if !res.OK || res.Verdict != CorrectedAgree || res.MaskedErasures != 1 {
		t.Fatalf("%+v, want a corrected-agree read with one masked erasure", res)
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("data mismatch")
		}
	}
	if allocs != 0 {
		t.Errorf("correctable duplex read: %.1f allocs, want 0", allocs)
	}
}

func BenchmarkArbiterReadClean(b *testing.B) {
	a, _ := New(code)
	rng := rand.New(rand.NewSource(16))
	data := make([]gf.Elem, 16)
	for i := range data {
		data[i] = gf.Elem(rng.Intn(256))
	}
	cw, _ := code.Encode(data)
	w2 := clone(cw)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Read(cw, w2, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArbiterReadMaskedErasures(b *testing.B) {
	a, _ := New(code)
	rng := rand.New(rand.NewSource(17))
	data := make([]gf.Elem, 16)
	for i := range data {
		data[i] = gf.Elem(rng.Intn(256))
	}
	cw, _ := code.Encode(data)
	w1 := clone(cw)
	w1[2], w1[9], w1[14] = 0, 0, 0
	w2 := clone(cw)
	erasures := []int{2, 9, 14}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Read(w1, w2, erasures, nil); err != nil {
			b.Fatal(err)
		}
	}
}
