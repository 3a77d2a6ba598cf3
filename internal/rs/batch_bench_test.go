package rs

import (
	"math/rand"
	"testing"

	"repro/internal/gf"
)

// Arena benchmarks for DecodeAll. Each op decodes a
// batchWords-word dense arena, so the per-word cost is ns/op divided
// by batchWords; SetBytes counts one byte per arena symbol so the MB/s
// column is directly comparable with the per-word decode benchmarks
// above. The three arena mixes bracket the scrub workload: all-clean
// (pure syndrome screen), sparse errors (1 dirty word in 16), and
// erasure-heavy (every word carries erasures, so every word reaches
// the correction tail).

const batchWords = 64

var batchBenchShapes = []benchShape{
	{name: "RS1816", n: 18, k: 16, errs: 1, erasures: 2},
	{name: "RS255_223", n: 255, k: 223, errs: 16, erasures: 32},
}

func batchBenchSetup(b *testing.B, s benchShape) (*Code, *Decoder, []gf.Elem) {
	b.Helper()
	c := MustNew(f8, s.n, s.k)
	c.batchSyndromeTable() // untimed, as in benchSetup
	rng := rand.New(rand.NewSource(82))
	arena := make([]gf.Elem, batchWords*s.n)
	for w := 0; w < batchWords; w++ {
		if err := c.EncodeTo(arena[w*s.n:(w+1)*s.n], randData(rng, c)); err != nil {
			b.Fatal(err)
		}
	}
	return c, c.NewDecoder(), arena
}

func BenchmarkBatchDecodeClean(b *testing.B) {
	for _, s := range batchBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			_, bd, arena := batchBenchSetup(b, s)
			batch := Batch{Words: arena, Stride: s.n, Count: batchWords}
			b.SetBytes(int64(len(arena)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := bd.DecodeAll(batch, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Clean != batchWords {
					b.Fatalf("%d clean words, want %d", res.Clean, batchWords)
				}
			}
		})
	}
}

func BenchmarkBatchDecodeSparse(b *testing.B) {
	for _, s := range batchBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			_, bd, arena := batchBenchSetup(b, s)
			rng := rand.New(rand.NewSource(83))
			// 1 dirty word in 16: s.errs random errors each. DecodeAll
			// corrects in place, so the flips are re-applied inside the
			// timed loop (a handful of XORs, noise next to the decode).
			type flip struct {
				pos int
				val gf.Elem
			}
			var flips []flip
			for w := 0; w < batchWords; w += 16 {
				for _, p := range rng.Perm(s.n)[:s.errs:s.errs] {
					flips = append(flips, flip{w*s.n + p, gf.Elem(1 + rng.Intn(255))})
				}
			}
			batch := Batch{Words: arena, Stride: s.n, Count: batchWords}
			b.SetBytes(int64(len(arena)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range flips {
					arena[f.pos] ^= f.val
				}
				res, err := bd.DecodeAll(batch, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Corrected != batchWords/16 {
					b.Fatalf("%d corrected words, want %d", res.Corrected, batchWords/16)
				}
			}
		})
	}
}

func BenchmarkBatchDecodeErasures(b *testing.B) {
	for _, s := range batchBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			_, bd, arena := batchBenchSetup(b, s)
			rng := rand.New(rand.NewSource(84))
			erasures := make([][]int, batchWords)
			type flip struct {
				pos int
				val gf.Elem
			}
			var flips []flip
			for w := 0; w < batchWords; w++ {
				positions := rng.Perm(s.n)[:s.erasures:s.erasures]
				erasures[w] = positions
				for _, p := range positions {
					flips = append(flips, flip{w*s.n + p, gf.Elem(1 + rng.Intn(255))})
				}
			}
			batch := Batch{Words: arena, Stride: s.n, Count: batchWords}
			// One untimed pass warms the erasure-set cache: the timed
			// loop then measures the steady-state scrub pass, where the
			// located sets repeat and per-word work is evaluation only.
			if _, err := bd.DecodeAll(batch, erasures); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(arena)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range flips {
					arena[f.pos] ^= f.val
				}
				res, err := bd.DecodeAll(batch, erasures)
				if err != nil {
					b.Fatal(err)
				}
				if res.Corrected != batchWords {
					b.Fatalf("%d corrected words, want %d", res.Corrected, batchWords)
				}
			}
		})
	}
}

// BenchmarkBatchDecodeErasuresShared is the stuck-column page model:
// every word of the arena carries the *same* erasure set (one located
// column list shared arena-wide), so the erasure-set cache resolves
// each word with one pointer compare and the per-word cost is pure
// evaluation.
func BenchmarkBatchDecodeErasuresShared(b *testing.B) {
	for _, s := range batchBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			_, bd, arena := batchBenchSetup(b, s)
			rng := rand.New(rand.NewSource(85))
			shared := rng.Perm(s.n)[:s.erasures:s.erasures]
			erasures := make([][]int, batchWords)
			type flip struct {
				pos int
				val gf.Elem
			}
			var flips []flip
			for w := 0; w < batchWords; w++ {
				erasures[w] = shared
				for _, p := range shared {
					flips = append(flips, flip{w*s.n + p, gf.Elem(1 + rng.Intn(255))})
				}
			}
			batch := Batch{Words: arena, Stride: s.n, Count: batchWords}
			if _, err := bd.DecodeAll(batch, erasures); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(arena)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range flips {
					arena[f.pos] ^= f.val
				}
				res, err := bd.DecodeAll(batch, erasures)
				if err != nil {
					b.Fatal(err)
				}
				if res.Corrected != batchWords {
					b.Fatalf("%d corrected words, want %d", res.Corrected, batchWords)
				}
			}
		})
	}
}
