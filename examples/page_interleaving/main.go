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
	codec := page.NewCodec()
	data := make([]gf.Elem, page.DataSymbols())
	for i := range data {
		data[i] = gf.Elem(rng.Intn(256))
	}
	stored := make([]gf.Elem, page.StoredSymbols())
	if err := codec.EncodeTo(stored, data); err != nil {
		log.Fatal(err)
	}
	column := 11
	var erasures []int
	for s := 0; s < page.Depth(); s++ {
		idx := column*page.Depth() + s
		stored[idx] = 0xFF
		erasures = append(erasures, idx)
	}
	var res interleave.DecodeResult
	if err := codec.DecodeTo(&res, stored, erasures); err != nil {
		log.Fatal(err)
	}
	intact := len(res.FailedStripes) == 0
	for i := range data {
		if res.Data[i] != data[i] {
			intact = false
		}
	}
	fmt.Printf("  %d erased symbols (one per stripe), page recovered: %v\n",
		len(erasures), intact)
	fmt.Println("  each stripe sees exactly 1 erasure <= n-k=2: the whole column is free")
}

// verifyBurst injects a maximal-length burst at a random offset and
// checks full recovery.
func verifyBurst(rng *rand.Rand, page *interleave.Page) bool {
	codec := page.NewCodec()
	data := make([]gf.Elem, page.DataSymbols())
	for i := range data {
		data[i] = gf.Elem(rng.Intn(256))
	}
	stored := make([]gf.Elem, page.StoredSymbols())
	if err := codec.EncodeTo(stored, data); err != nil {
		return false
	}
	burst := page.CorrectableBurst()
	start := 0
	if n := page.StoredSymbols() - burst; n > 0 {
		start = rng.Intn(n)
	}
	for i := start; i < start+burst; i++ {
		stored[i] ^= gf.Elem(1 + rng.Intn(255))
	}
	var res interleave.DecodeResult
	if err := codec.DecodeTo(&res, stored, nil); err != nil || len(res.FailedStripes) != 0 {
		return false
	}
	for i := range data {
		if res.Data[i] != data[i] {
			return false
		}
	}
	return true
}
