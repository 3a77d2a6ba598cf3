// page_interleaving demonstrates the SSMM page organization of the
// paper's reference design (Cardarilli et al., ref [6]): striping a
// memory page across interleaved RS codewords so that physical burst
// faults — multi-bit upsets, failed column drivers — spread thinly
// over many codewords instead of overwhelming one.
//
// Run with: go run ./examples/page_interleaving
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"

	"repro/internal/gf"
	"repro/internal/interleave"
	"repro/internal/rs"
)

func main() {
	field := gf.MustField(8)
	code, err := rs.New(field, 18, 16)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))

	fmt.Println("burst tolerance of an RS(18,16) page vs interleaving depth:")
	fmt.Printf("%7s %12s %14s %16s\n", "depth", "page bytes", "burst (syms)", "verified")
	for _, depth := range []int{1, 2, 4, 8, 16} {
		page, err := interleave.New(code, depth)
		if err != nil {
			log.Fatal(err)
		}
		ok := verifyBurst(rng, page)
		fmt.Printf("%7d %12d %14d %16v\n",
			depth, page.DataSymbols(), page.CorrectableBurst(), ok)
	}

	fmt.Println()
	fmt.Println("scenario: a failed column driver corrupts one stored symbol of")
	fmt.Println("every stripe group — located by self-checking, so an erasure:")
	page, err := interleave.New(code, 8)
	if err != nil {
		log.Fatal(err)
	}
	arena, truth := writePage(rng, page)
	// Physical stored symbol column*depth+s, for every stripe s: the
	// address map puts it at position column of stripe s.
	n := code.N()
	column := 11
	erasures := make([][]int, page.Depth())
	erased := 0
	for s := 0; s < page.Depth(); s++ {
		stripe, pos := page.Addr(column*page.Depth() + s)
		arena[stripe*n+pos] = 0xFF
		erasures[stripe] = append(erasures[stripe], pos)
		erased++
	}
	intact := readPage(page, arena, truth, erasures)
	fmt.Printf("  %d erased symbols (one per stripe), page recovered: %v\n",
		erased, intact)
	fmt.Println("  each stripe sees exactly 1 erasure <= n-k=2: the whole column is free")
}

// writePage draws a random payload in data-index order into a
// stripe-major arena (stripe s at [s*n, (s+1)*n)) through the page's
// address map and encodes each stripe in place. It returns the arena
// and a copy of it as written.
func writePage(rng *rand.Rand, page *interleave.Page) (arena, truth []gf.Elem) {
	code := page.Code()
	n, k := code.N(), code.K()
	arena = make([]gf.Elem, page.StoredSymbols())
	for i := 0; i < page.DataSymbols(); i++ {
		s, j := page.Addr(i)
		arena[s*n+j] = gf.Elem(rng.Intn(256))
	}
	for s := 0; s < page.Depth(); s++ {
		word := arena[s*n : (s+1)*n]
		if err := code.EncodeTo(word, word[:k]); err != nil {
			log.Fatal(err)
		}
	}
	return arena, slices.Clone(arena)
}

// readPage decodes every stripe of the arena in place and reports
// whether the page's data came back exactly.
func readPage(page *interleave.Page, arena, truth []gf.Elem, erasures [][]int) bool {
	n, k := page.Code().N(), page.Code().K()
	res, err := page.Code().NewDecoder().DecodeAll(rs.Batch{Words: arena, Stride: n, Count: page.Depth()}, erasures)
	if err != nil || res.Failed > 0 {
		return false
	}
	for s := 0; s < page.Depth(); s++ {
		if !slices.Equal(arena[s*n:s*n+k], truth[s*n:s*n+k]) {
			return false
		}
	}
	return true
}

// verifyBurst injects a maximal-length burst of physical stored
// symbols at a random offset and checks full recovery.
func verifyBurst(rng *rand.Rand, page *interleave.Page) bool {
	arena, truth := writePage(rng, page)
	burst := page.CorrectableBurst()
	start := 0
	if n := page.StoredSymbols() - burst; n > 0 {
		start = rng.Intn(n)
	}
	n := page.Code().N()
	for i := start; i < start+burst; i++ {
		s, j := page.Addr(i)
		arena[s*n+j] ^= gf.Elem(1 + rng.Intn(255))
	}
	return readPage(page, arena, truth, nil)
}
