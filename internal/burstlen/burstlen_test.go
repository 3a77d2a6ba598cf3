package burstlen

import (
	"math"
	"math/rand"
	"testing"
)

func TestValidate(t *testing.T) {
	good := []Dist{
		{Kind: "", Bits: 4},
		{Kind: Fixed, Bits: 1},
		{Kind: Geometric, MeanBits: 1},
		{Kind: Geometric, MeanBits: 6.5},
	}
	for i, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("case %d (%+v) rejected: %v", i, d, err)
		}
	}
	bad := []Dist{
		{Kind: "", Bits: 0},
		{Kind: Fixed, Bits: -1},
		{Kind: Geometric, MeanBits: 0.5},
		{Kind: Geometric, MeanBits: 0},
		{Kind: Geometric, MeanBits: math.NaN()},
		{Kind: Geometric, MeanBits: math.Inf(1)},
		{Kind: "uniform", Bits: 4},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d (%+v) accepted", i, d)
		}
	}
}

// TestFixedConsumesNoRandomness pins the RNG-stream compatibility
// promise: fixed-length sampling must leave the generator untouched,
// so campaigns configured with fixed bursts reproduce the exact
// pre-distribution statistics.
func TestFixedConsumesNoRandomness(t *testing.T) {
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	d := Dist{Kind: Fixed, Bits: 9}
	for i := 0; i < 100; i++ {
		if got := d.sample(a, 1000); got != 9 {
			t.Fatalf("fixed sample %d = %d", i, got)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("fixed sampling advanced the RNG stream")
	}
}

// TestGeometricChiSquare bins 200k geometric draws and compares the
// observed histogram against the geometric pmf with a chi-square
// statistic. The draw is deterministic for the fixed seed, so the
// assertion is exact, and the threshold (the 99.9% critical value for
// the binned degrees of freedom, ~45.3 at df=19) leaves generous
// sampling headroom.
func TestGeometricChiSquare(t *testing.T) {
	const (
		mean  = 4.0
		n     = 200000
		nBins = 20 // lengths 1..19 plus the >=20 tail
	)
	d := Dist{Kind: Geometric, MeanBits: mean}
	rng := rand.New(rand.NewSource(7))
	obs := make([]float64, nBins)
	sum := 0.0
	for i := 0; i < n; i++ {
		l := d.sample(rng, 1<<30) // effectively uncapped
		sum += float64(l)
		if l >= nBins {
			l = nBins
		}
		obs[l-1]++
	}
	if got := sum / n; math.Abs(got-mean) > 0.05 {
		t.Errorf("sample mean %v, want %v", got, mean)
	}

	p := 1 / mean
	chi2 := 0.0
	for k := 1; k <= nBins; k++ {
		var expP float64
		if k < nBins {
			expP = math.Pow(1-p, float64(k-1)) * p
		} else {
			expP = math.Pow(1-p, float64(nBins-1)) // tail mass P(L >= nBins)
		}
		exp := expP * n
		diff := obs[k-1] - exp
		chi2 += diff * diff / exp
	}
	if chi2 > 45.3 {
		t.Errorf("chi-square statistic %v exceeds the 99.9%% critical value 45.3 (df=%d)", chi2, nBins-1)
	}
}

// TestGeometricCappedAtImageEdge: a sampled length can never exceed
// the stored image, and with a mean far above the image the cap must
// actually engage (mass piles up at the image size).
func TestGeometricCappedAtImageEdge(t *testing.T) {
	d := Dist{Kind: Geometric, MeanBits: 64}
	rng := rand.New(rand.NewSource(3))
	const image = 8
	capped := 0
	for i := 0; i < 10000; i++ {
		l := d.sample(rng, image)
		if l < 1 || l > image {
			t.Fatalf("sample %d outside [1, %d]", l, image)
		}
		if l == image {
			capped++
		}
	}
	// P(L >= 8) with p=1/64 is (63/64)^7 ~ 0.896.
	if capped < 8500 {
		t.Errorf("only %d/10000 draws hit the image cap; expected ~8960", capped)
	}
}

// TestGeometricHugeMean: for means so large that 1-p rounds to 1.0,
// log1p keeps the draw well-defined — lengths must pile up at the
// image cap, not silently degenerate to 1 (the log(1-p)==0 bug).
func TestGeometricHugeMean(t *testing.T) {
	// 1e18 exercises the log(1-p) underflow (1-p rounds to 1.0); 1e19
	// additionally overflows the float-to-int conversion for most
	// draws. Both must cap at the image, never degenerate to 1.
	for _, mean := range []float64{1e18, 1e19, math.MaxFloat64} {
		d := Dist{Kind: Geometric, MeanBits: mean}
		rng := rand.New(rand.NewSource(5))
		const image = 64
		capped := 0
		for i := 0; i < 10000; i++ {
			l := d.sample(rng, image)
			if l < 1 || l > image {
				t.Fatalf("mean %g: sample %d outside [1, %d]", mean, l, image)
			}
			if l == image {
				capped++
			}
		}
		if capped < 9900 {
			t.Errorf("mean %g: only %d/10000 draws hit the cap; underflow or int overflow?", mean, capped)
		}
	}
}

// TestGeometricMeanOne degenerates to all-ones without dividing by
// zero.
func TestGeometricMeanOne(t *testing.T) {
	d := Dist{Kind: Geometric, MeanBits: 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if got := d.sample(rng, 100); got != 1 {
			t.Fatalf("mean-1 geometric drew %d", got)
		}
	}
}

func TestString(t *testing.T) {
	if got := (Dist{Kind: Fixed, Bits: 9}).String(); got != "9" {
		t.Errorf("fixed String() = %q, want \"9\" (historical name format)", got)
	}
	if got := (Dist{Kind: Geometric, MeanBits: 4.5}).String(); got != "geom(4.5)" {
		t.Errorf("geometric String() = %q", got)
	}
}

// TestPlaceFitsImage: every placed burst lies wholly inside the image,
// for fixed lengths (including one as long as the image, whose only
// placement is start 0) and for geometric lengths, whose cap at the
// image must engage for a mean far above it.
func TestPlaceFitsImage(t *testing.T) {
	const bits = 24
	rng := rand.New(rand.NewSource(8))
	for _, d := range []Dist{
		{Kind: Fixed, Bits: 1},
		{Kind: Fixed, Bits: 7},
		{Kind: Fixed, Bits: bits},
		{Kind: Geometric, MeanBits: 3},
		{Kind: Geometric, MeanBits: 100},
	} {
		full := 0
		for i := 0; i < 2000; i++ {
			start, length := d.Place(rng, bits)
			if start < 0 || length < 1 || start+length > bits {
				t.Fatalf("%v: burst [%d, %d) outside a %d-bit image", d, start, start+length, bits)
			}
			if length == bits {
				full++
			}
		}
		if (d.Bits == bits || d.MeanBits == 100) && full == 0 {
			t.Errorf("%v: no burst filled the image", d)
		}
	}
}
