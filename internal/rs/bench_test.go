package rs

import (
	"math/rand"
	"testing"

	"repro/internal/gf"
)

// The per-kernel microbenchmarks below all run through the
// zero-allocation workspace API (EncodeTo, SyndromesInto,
// Decoder.Decode).
// SetBytes counts one byte per codeword symbol so ns/op and MB/s track
// the same kernels across code shapes.

type benchShape struct {
	name     string
	n, k     int
	errs     int // random errors injected for the decode benchmarks
	erasures int // erasures declared for the erasure benchmark
}

var benchShapes = []benchShape{
	{name: "RS1816", n: 18, k: 16, errs: 1, erasures: 2},
	{name: "RS3616", n: 36, k: 16, errs: 10, erasures: 20},
	{name: "RS255_223", n: 255, k: 223, errs: 16, erasures: 32},
}

func benchSetup(b *testing.B, s benchShape) (*Code, []gf.Elem, []gf.Elem) {
	b.Helper()
	c := MustNew(f8, s.n, s.k)
	// Build the code's packed syndrome table now: its first decode would
	// otherwise build it inside the timed loop, and these benchmarks
	// time the steady state.
	c.batchSyndromeTable()
	rng := rand.New(rand.NewSource(77))
	data := randData(rng, c)
	cw, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	return c, data, cw
}

func BenchmarkEncode(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			c, data, _ := benchSetup(b, s)
			dst := make([]gf.Elem, s.n)
			b.SetBytes(int64(s.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.EncodeTo(dst, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSyndromes(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			c, _, cw := benchSetup(b, s)
			cw[3] ^= 0x5a // a nonzero error keeps the syndromes honest
			syn := make([]gf.Elem, c.Redundancy())
			b.SetBytes(int64(s.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.SyndromesInto(syn, cw); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeClean(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			c, _, cw := benchSetup(b, s)
			dec := c.NewDecoder()
			b.SetBytes(int64(s.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(cw, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeErrors(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			c, _, cw := benchSetup(b, s)
			rng := rand.New(rand.NewSource(78))
			bad, _ := corrupt(rng, c, cw, s.errs)
			dec := c.NewDecoder()
			b.SetBytes(int64(s.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(bad, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeErasures(b *testing.B) {
	for _, s := range benchShapes {
		b.Run(s.name, func(b *testing.B) {
			c, _, cw := benchSetup(b, s)
			rng := rand.New(rand.NewSource(79))
			bad := append([]gf.Elem(nil), cw...)
			positions := rng.Perm(s.n)[:s.erasures:s.erasures]
			for _, p := range positions {
				bad[p] ^= gf.Elem(1 + rng.Intn(255))
			}
			dec := c.NewDecoder()
			b.SetBytes(int64(s.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(bad, positions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSteadyStateZeroAllocs is the allocation-regression gate for the
// workspace API: encode, syndrome computation and decoding (clean,
// errors, erasures) must not allocate once the workspace exists.
func TestSteadyStateZeroAllocs(t *testing.T) {
	c := MustNew(f8, 36, 16)
	rng := rand.New(rand.NewSource(80))
	data := randData(rng, c)
	cw, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := corrupt(rng, c, cw, c.T())
	erased := append([]gf.Elem(nil), cw...)
	positions := rng.Perm(c.N())[:c.Redundancy():c.Redundancy()]
	for _, p := range positions {
		erased[p] ^= gf.Elem(1 + rng.Intn(255))
	}

	dst := make([]gf.Elem, c.N())
	syn := make([]gf.Elem, c.Redundancy())
	dec := c.NewDecoder()
	// Warm the paths once before measuring.
	if err := c.EncodeTo(dst, data); err != nil {
		t.Fatal(err)
	}
	if err := c.SyndromesInto(syn, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(bad, nil); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		fn   func()
	}{
		{"EncodeTo", func() {
			if err := c.EncodeTo(dst, data); err != nil {
				t.Fatal(err)
			}
		}},
		{"SyndromesInto", func() {
			if err := c.SyndromesInto(syn, bad); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeClean", func() {
			if _, err := dec.Decode(cw, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeErrors", func() {
			if _, err := dec.Decode(bad, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeErasures", func() {
			if _, err := dec.Decode(erased, positions); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, cse := range cases {
		if allocs := testing.AllocsPerRun(100, cse.fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", cse.name, allocs)
		}
	}
}
