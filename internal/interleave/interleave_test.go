package interleave

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
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

func randPage(rng *rand.Rand, p *Page) []gf.Elem {
	data := make([]gf.Elem, p.DataSymbols())
	for i := range data {
		data[i] = gf.Elem(rng.Intn(256))
	}
	return data
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 4); err == nil {
		t.Error("nil code accepted")
	}
	if _, err := New(code, 0); err == nil {
		t.Error("zero depth accepted")
	}
	if _, err := New(code, -1); err == nil {
		t.Error("negative depth accepted")
	}
	p, err := New(code, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Depth() != 4 || p.Code() != code {
		t.Error("accessors wrong")
	}
	if p.DataSymbols() != 64 || p.StoredSymbols() != 72 {
		t.Errorf("sizes: data=%d stored=%d", p.DataSymbols(), p.StoredSymbols())
	}
}

// TestNewBoundsStoredPage: New refuses a page above MaxStoredSymbols
// stored symbols, naming the limit, without overflowing depth*n, and
// admits the largest page under it, GF(2^16) RS(65535,k) at depth 16
// included.
func TestNewBoundsStoredPage(t *testing.T) {
	for _, depth := range []int{MaxStoredSymbols/code.N() + 1, 1 << 30, 1 << 40, math.MaxInt} {
		_, err := New(code, depth)
		if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxStoredSymbols)) {
			t.Errorf("depth %d: err %v, want a refusal naming the %d-symbol limit", depth, err, MaxStoredSymbols)
		}
	}
	if _, err := New(code, MaxStoredSymbols/code.N()); err != nil {
		t.Errorf("largest RS(18,16) page refused: %v", err)
	}
	wide := rs.MustNew(gf.MustField(16), 65535, 65533)
	p, err := New(wide, 16)
	if err != nil {
		t.Fatalf("GF(2^16) RS(65535,65533) at depth 16 refused: %v", err)
	}
	if p.StoredSymbols() > MaxStoredSymbols {
		t.Errorf("admitted %d stored symbols", p.StoredSymbols())
	}
	if _, err := New(wide, 17); err == nil {
		t.Error("GF(2^16) RS(65535,65533) at depth 17 accepted")
	}
}

// TestAddrIsTheInterleave: Addr sends physical symbol j*depth+s to
// position j of stripe s, so it is a bijection onto the stripe-major
// arena and agrees with the physical layout the oracle Encode writes.
func TestAddrIsTheInterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for depth := 1; depth <= 8; depth++ {
		p, err := New(code, depth)
		if err != nil {
			t.Fatal(err)
		}
		n := p.Code().N()
		seen := make([]bool, p.StoredSymbols())
		for i := 0; i < p.StoredSymbols(); i++ {
			s, j := p.Addr(i)
			if s != i%depth || j != i/depth || j >= n {
				t.Fatalf("depth %d: Addr(%d) = (%d, %d)", depth, i, s, j)
			}
			if seen[s*n+j] {
				t.Fatalf("depth %d: arena index %d reached twice", depth, s*n+j)
			}
			seen[s*n+j] = true
		}
		data := randPage(rng, p)
		stored, err := p.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got := toPhysical(p, encodeArena(t, p, data)); !slices.Equal(got, stored) {
			t.Fatalf("depth %d: arena encode differs from the physical encode", depth)
		}
	}
}

func TestEncodeDecodeClean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, depth := range []int{1, 2, 4, 8} {
		p, err := New(code, depth)
		if err != nil {
			t.Fatal(err)
		}
		data := randPage(rng, p)
		stored, err := p.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Decode(stored, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.FailedStripes) != 0 || res.CorrectedSymbols != 0 {
			t.Fatalf("depth %d: clean page not clean: %+v", depth, res)
		}
		for i := range data {
			if res.Data[i] != data[i] {
				t.Fatalf("depth %d: data mismatch at %d", depth, i)
			}
		}
	}
}

func TestEncodeValidation(t *testing.T) {
	p, _ := New(code, 4)
	if _, err := p.Encode(make([]gf.Elem, 63)); err == nil {
		t.Error("short page accepted")
	}
	if _, err := p.Decode(make([]gf.Elem, 71), nil); err == nil {
		t.Error("short stored page accepted")
	}
	stored := make([]gf.Elem, 72)
	if _, err := p.Decode(stored, []int{72}); err == nil {
		t.Error("out-of-range erasure accepted")
	}
}

// TestBurstCorrection is the point of interleaving: a contiguous burst
// of depth*t corrupted stored symbols always corrects, because it
// spreads across stripes.
func TestBurstCorrection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, depth := range []int{2, 4, 8} {
		p, err := New(code, depth) // t = 1 per stripe
		if err != nil {
			t.Fatal(err)
		}
		burst := p.CorrectableBurst()
		if burst != depth {
			t.Fatalf("depth %d: correctable burst %d, want %d", depth, burst, depth)
		}
		for trial := 0; trial < 50; trial++ {
			data := randPage(rng, p)
			stored, _ := p.Encode(data)
			start := rng.Intn(p.StoredSymbols() - burst)
			for i := start; i < start+burst; i++ {
				stored[i] ^= gf.Elem(1 + rng.Intn(255))
			}
			res, err := p.Decode(stored, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.FailedStripes) != 0 {
				t.Fatalf("depth %d: burst of %d not corrected (failed stripes %v)", depth, burst, res.FailedStripes)
			}
			for i := range data {
				if res.Data[i] != data[i] {
					t.Fatalf("depth %d: wrong data after burst", depth)
				}
			}
			if res.CorrectedSymbols != burst {
				t.Fatalf("corrected %d symbols, want %d", res.CorrectedSymbols, burst)
			}
		}
	}
}

// TestBurstBeyondDepthOverloadsOneStripe: a burst one longer than the
// guarantee puts two errors into one stripe of a t=1 code.
func TestBurstBeyondDepthOverloadsOneStripe(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, _ := New(code, 4)
	burst := p.CorrectableBurst() + 1
	sawFailure := false
	for trial := 0; trial < 200 && !sawFailure; trial++ {
		data := randPage(rng, p)
		stored, _ := p.Encode(data)
		start := rng.Intn(p.StoredSymbols() - burst)
		for i := start; i < start+burst; i++ {
			stored[i] ^= gf.Elem(1 + rng.Intn(255))
		}
		res, err := p.Decode(stored, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The overloaded stripe either reports failure or, rarely,
		// mis-corrects; both manifest as a failed stripe or wrong data.
		if len(res.FailedStripes) > 0 {
			sawFailure = true
			continue
		}
		for i := range data {
			if res.Data[i] != data[i] {
				sawFailure = true
				break
			}
		}
	}
	if !sawFailure {
		t.Error("burst beyond the guarantee never overloaded a stripe in 200 trials")
	}
}

// TestColumnEraseAcrossPage: a failed memory column (same stored
// offset in every stripe group) is one erasure per stripe — well
// within even RS(18,16), and exactly the ref [6] failure scenario.
func TestColumnEraseAcrossPage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p, _ := New(code, 8)
	data := randPage(rng, p)
	stored, _ := p.Encode(data)
	// Stored symbols j*depth+s for fixed j ("column" j of the page):
	// one symbol in every stripe.
	col := 7
	var erasures []int
	for s := 0; s < 8; s++ {
		idx := col*8 + s
		stored[idx] = 0xAA
		erasures = append(erasures, idx)
	}
	res, err := p.Decode(stored, erasures)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedStripes) != 0 {
		t.Fatalf("column erasure not recovered: %v", res.FailedStripes)
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("wrong data after column erasure")
		}
	}
}

func TestWideCodeDeepBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, err := New(code36, 4) // t = 10: burst guarantee 40 symbols
	if err != nil {
		t.Fatal(err)
	}
	if p.CorrectableBurst() != 40 {
		t.Fatalf("burst guarantee %d, want 40", p.CorrectableBurst())
	}
	data := randPage(rng, p)
	stored, _ := p.Encode(data)
	start := 17
	for i := start; i < start+40; i++ {
		stored[i] ^= gf.Elem(1 + rng.Intn(255))
	}
	res, err := p.Decode(stored, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedStripes) != 0 {
		t.Fatal("40-symbol burst not corrected by depth-4 RS(36,16)")
	}
	for i := range data {
		if res.Data[i] != data[i] {
			t.Fatal("wrong data")
		}
	}
}

func TestFailedStripeStillReturnsOtherStripes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p, _ := New(code, 4)
	data := randPage(rng, p)
	stored, _ := p.Encode(data)
	// Overload stripe 2 with three errors (t=1 code, detected failure
	// for most patterns); leave others clean.
	corrupted := 0
	for j := 0; j < p.Code().N() && corrupted < 3; j++ {
		stored[j*4+2] ^= 0x55
		corrupted++
	}
	res, err := p.Decode(stored, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FailedStripes) == 0 {
		// The pattern mis-corrected instead — acceptable for this
		// seed-free structural test; just require wrong data.
		same := true
		for i := range data {
			if res.Data[i] != data[i] {
				same = false
			}
		}
		if same {
			t.Fatal("three errors in one stripe decoded cleanly")
		}
		return
	}
	if res.FailedStripes[0] != 2 {
		t.Errorf("failed stripes %v, want [2]", res.FailedStripes)
	}
	// All other stripes' data must be intact.
	for i := range data {
		if i%4 != 2 && res.Data[i] != data[i] {
			t.Fatalf("healthy stripe corrupted at %d", i)
		}
	}
}

func BenchmarkEncodePageDepth8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p, _ := New(code, 8)
	data := randPage(rng, p)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePageDepth8Burst(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	p, _ := New(code, 8)
	data := randPage(rng, p)
	stored, _ := p.Encode(data)
	for i := 30; i < 38; i++ {
		stored[i] ^= 0x3C
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Decode(stored, nil); err != nil {
			b.Fatal(err)
		}
	}
}
