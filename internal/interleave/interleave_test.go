package interleave

import (
	"math/rand"
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

// TestCodecMatchesPage: the reusable workspace must reproduce
// Page.Encode/Decode exactly — clean, bursty and erasure-bearing
// pages, including failed-stripe fallback data.
func TestCodecMatchesPage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, depth := range []int{1, 2, 4, 8} {
		p, err := New(code, depth)
		if err != nil {
			t.Fatal(err)
		}
		c := p.NewCodec()
		stored2 := make([]gf.Elem, p.StoredSymbols())
		var res2 DecodeResult
		for trial := 0; trial < 50; trial++ {
			data := randPage(rng, p)
			stored, err := p.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.EncodeTo(stored2, data); err != nil {
				t.Fatal(err)
			}
			for i := range stored {
				if stored[i] != stored2[i] {
					t.Fatalf("depth %d: EncodeTo differs at %d", depth, i)
				}
			}
			// Corrupt: a burst plus a couple of random symbols, with one
			// erased column symbol, so all decode paths are exercised.
			var erasures []int
			switch trial % 3 {
			case 1:
				start := rng.Intn(p.StoredSymbols() - 3)
				for i := start; i < start+3; i++ {
					stored[i] ^= gf.Elem(1 + rng.Intn(255))
				}
			case 2:
				e := rng.Intn(p.StoredSymbols())
				stored[e] = 0xAA
				erasures = []int{e}
				stored[rng.Intn(p.StoredSymbols())] ^= gf.Elem(1 + rng.Intn(255))
			}
			copy(stored2, stored)
			want, err := p.Decode(stored, erasures)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.DecodeTo(&res2, stored2, erasures); err != nil {
				t.Fatal(err)
			}
			if want.CorrectedSymbols != res2.CorrectedSymbols {
				t.Fatalf("depth %d trial %d: corrected %d vs %d", depth, trial, want.CorrectedSymbols, res2.CorrectedSymbols)
			}
			if len(want.FailedStripes) != len(res2.FailedStripes) {
				t.Fatalf("depth %d trial %d: failed stripes %v vs %v", depth, trial, want.FailedStripes, res2.FailedStripes)
			}
			for i := range want.FailedStripes {
				if want.FailedStripes[i] != res2.FailedStripes[i] {
					t.Fatalf("failed stripes %v vs %v", want.FailedStripes, res2.FailedStripes)
				}
			}
			for i := range want.Data {
				if want.Data[i] != res2.Data[i] {
					t.Fatalf("depth %d trial %d: data differs at %d", depth, trial, i)
				}
			}
		}
	}
}

func TestCodecValidation(t *testing.T) {
	p, _ := New(code, 4)
	c := p.NewCodec()
	var res DecodeResult
	if err := c.EncodeTo(make([]gf.Elem, 72), make([]gf.Elem, 63)); err == nil {
		t.Error("short data accepted")
	}
	if err := c.EncodeTo(make([]gf.Elem, 71), make([]gf.Elem, 64)); err == nil {
		t.Error("short stored accepted")
	}
	if err := c.DecodeTo(&res, make([]gf.Elem, 71), nil); err == nil {
		t.Error("short stored page accepted")
	}
	if err := c.DecodeTo(&res, make([]gf.Elem, 72), []int{-1}); err == nil {
		t.Error("negative erasure accepted")
	}
}

// TestCorrectedStripeContract: after DecodeTo, CorrectedStripe returns
// a word for exactly the stripes whose decode succeeded with at least
// one correction, and that word may stand in for a scrub re-encode: it
// is a codeword, because it equals the encode of its own first k
// symbols, and those are the data DecodeTo returned. Pages carry
// random errors and erasures, dense enough to overload and miscorrect
// some stripes.
func TestCorrectedStripeContract(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, cd := range []*rs.Code{code, rs.MustNew(f8, 20, 16)} {
		n, k := cd.N(), cd.K()
		refDec := cd.NewDecoder()
		for _, depth := range []int{1, 3, 4} {
			p, err := New(cd, depth)
			if err != nil {
				t.Fatal(err)
			}
			c := p.NewCodec()
			for s := 0; s < depth; s++ {
				if c.CorrectedStripe(s) != nil {
					t.Fatal("a stripe is corrected before any decode")
				}
			}
			var res DecodeResult
			word := make([]gf.Elem, n)
			reenc := make([]gf.Elem, n)
			var clean, corrected, failed, miscorrected int
			for trial := 0; trial < 200; trial++ {
				stored, err := p.Encode(randPage(rng, p))
				if err != nil {
					t.Fatal(err)
				}
				truth := append([]gf.Elem(nil), stored...)
				// Per stripe: up to n-k erasures (some keeping their
				// value) and up to t+2 errors at other positions.
				var erasures []int
				perStripe := make([][]int, depth)
				for s := 0; s < depth; s++ {
					pos := rng.Perm(n)
					ne, nerr := rng.Intn(cd.Redundancy()+1), rng.Intn(cd.T()+3)
					for _, j := range pos[:ne] {
						if rng.Intn(2) == 0 {
							stored[j*depth+s] = gf.Elem(rng.Intn(256))
						}
						erasures = append(erasures, j*depth+s)
						perStripe[s] = append(perStripe[s], j)
					}
					for _, j := range pos[ne : ne+nerr] {
						stored[j*depth+s] ^= gf.Elem(1 + rng.Intn(255))
					}
				}
				if err := c.DecodeTo(&res, stored, erasures); err != nil {
					t.Fatal(err)
				}
				for s := 0; s < depth; s++ {
					for j := range word {
						word[j] = stored[j*depth+s]
					}
					ref, refErr := refDec.Decode(word, perStripe[s])
					got := c.CorrectedStripe(s)
					switch {
					case refErr != nil:
						failed++
					case ref.Corrections == 0:
						clean++
					default:
						corrected++
					}
					if want := refErr == nil && ref.Corrections > 0; (got != nil) != want {
						t.Fatalf("RS(%d,%d)x%d trial %d stripe %d: word returned %t, want %t",
							n, k, depth, trial, s, got != nil, want)
					}
					if got == nil {
						continue
					}
					if len(got) != n {
						t.Fatalf("stripe %d: returned word has %d symbols, want %d", s, len(got), n)
					}
					if err := cd.EncodeTo(reenc, got[:k]); err != nil {
						t.Fatal(err)
					}
					for j := range got {
						if got[j] != reenc[j] {
							t.Fatalf("stripe %d: word differs from the encode of its data at %d", s, j)
						}
						if j < k && got[j] != res.Data[j*depth+s] {
							t.Fatalf("stripe %d: word data differs from res.Data at %d", s, j)
						}
					}
					for j := range got {
						if got[j] != truth[j*depth+s] {
							miscorrected++
							break
						}
					}
				}
			}
			if clean == 0 || corrected == 0 || failed == 0 || miscorrected == 0 {
				t.Errorf("RS(%d,%d)x%d: %d clean, %d corrected, %d failed, %d miscorrected stripes",
					n, k, depth, clean, corrected, failed, miscorrected)
			}
			// A decode that fails structurally leaves no stale words.
			if err := c.DecodeTo(&res, word[:1], nil); err == nil {
				t.Fatal("short page accepted")
			}
			for s := 0; s < depth; s++ {
				if c.CorrectedStripe(s) != nil {
					t.Fatal("a failed DecodeTo left a corrected stripe behind")
				}
			}
		}
	}
}

// TestCodecZeroAllocs pins the workspace contract: steady-state page
// encode and decode (clean and with corrections) allocate nothing.
func TestCodecZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p, _ := New(code, 4)
	c := p.NewCodec()
	data := randPage(rng, p)
	stored := make([]gf.Elem, p.StoredSymbols())
	var res DecodeResult
	if err := c.EncodeTo(stored, data); err != nil {
		t.Fatal(err)
	}
	if err := c.DecodeTo(&res, stored, nil); err != nil {
		t.Fatal(err) // warm res buffers before measuring
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.EncodeTo(stored, data); err != nil {
			t.Fatal(err)
		}
		stored[11] ^= 0x3C
		if err := c.DecodeTo(&res, stored, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state encode+decode allocates %.1f times per page", allocs)
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

// BenchmarkCodecEncodePageDepth8 / BenchmarkCodecDecodePageDepth8Burst
// track the allocation-free workspace the pagesim campaigns run on;
// both are gated by BENCH_baseline.json in CI.
func BenchmarkCodecEncodePageDepth8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	p, _ := New(code, 8)
	c := p.NewCodec()
	data := randPage(rng, p)
	stored := make([]gf.Elem, p.StoredSymbols())
	b.ReportAllocs()
	b.SetBytes(int64(p.StoredSymbols()))
	for i := 0; i < b.N; i++ {
		if err := c.EncodeTo(stored, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodePageDepth8Burst(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	p, _ := New(code, 8)
	c := p.NewCodec()
	data := randPage(rng, p)
	stored, _ := p.Encode(data)
	for i := 30; i < 38; i++ {
		stored[i] ^= 0x3C
	}
	work := make([]gf.Elem, len(stored))
	var res DecodeResult
	b.ReportAllocs()
	b.SetBytes(int64(p.StoredSymbols()))
	for i := 0; i < b.N; i++ {
		copy(work, stored)
		if err := c.DecodeTo(&res, work, nil); err != nil {
			b.Fatal(err)
		}
	}
}
