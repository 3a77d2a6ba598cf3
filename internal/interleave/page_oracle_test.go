package interleave

import (
	"fmt"

	"repro/internal/gf"
)

// pageResult reports an oracle page decode. Stripes that fail to decode
// are listed in FailedStripes and contribute their received
// (uncorrected) data symbols, mirroring a controller that flags but
// still returns the page.
type pageResult struct {
	// Data is the recovered page payload, in data-index order.
	Data []gf.Elem
	// CorrectedSymbols is the total number of symbol corrections
	// across all stripes.
	CorrectedSymbols int
	// FailedStripes lists stripe indices whose codeword was
	// uncorrectable; Data is only trustworthy when empty.
	FailedStripes []int
}

// Encode encodes a page of depth*k data symbols into a stored page of
// depth*n symbols in the physical, codeword-interleaved layout (stored
// index i belongs to codeword i mod depth), allocating its result and
// scratch per call. With Decode it is the straightforward page codec
// the arena tests compare against, written without Addr.
func (p *Page) Encode(data []gf.Elem) ([]gf.Elem, error) {
	if len(data) != p.DataSymbols() {
		return nil, fmt.Errorf("interleave: page data has %d symbols, want %d", len(data), p.DataSymbols())
	}
	stored := make([]gf.Elem, p.StoredSymbols())
	stripeData := make([]gf.Elem, p.code.K())
	stripeCW := make([]gf.Elem, p.code.N())
	for s := 0; s < p.depth; s++ {
		for j := 0; j < p.code.K(); j++ {
			stripeData[j] = data[j*p.depth+s]
		}
		if err := p.code.EncodeTo(stripeCW, stripeData); err != nil {
			return nil, err
		}
		for j := 0; j < p.code.N(); j++ {
			stored[j*p.depth+s] = stripeCW[j]
		}
	}
	return stored, nil
}

// Decode recovers a physical-layout stored page one stripe at a time
// with rs.Decoder.Decode. Erasure positions index the stored page
// (0..depth*n-1).
func (p *Page) Decode(stored []gf.Elem, erasures []int) (*pageResult, error) {
	if len(stored) != p.StoredSymbols() {
		return nil, fmt.Errorf("interleave: stored page has %d symbols, want %d", len(stored), p.StoredSymbols())
	}
	perStripe := make([][]int, p.depth)
	for _, e := range erasures {
		if e < 0 || e >= p.StoredSymbols() {
			return nil, fmt.Errorf("interleave: erasure %d out of range [0,%d)", e, p.StoredSymbols())
		}
		perStripe[e%p.depth] = append(perStripe[e%p.depth], e/p.depth)
	}
	res := &pageResult{Data: make([]gf.Elem, p.DataSymbols())}
	stripeCW := make([]gf.Elem, p.code.N())
	rd := p.code.NewDecoder()
	for s := 0; s < p.depth; s++ {
		for j := 0; j < p.code.N(); j++ {
			stripeCW[j] = stored[j*p.depth+s]
		}
		dec, err := rd.Decode(stripeCW, perStripe[s])
		if err != nil {
			res.FailedStripes = append(res.FailedStripes, s)
			for j := 0; j < p.code.K(); j++ {
				res.Data[j*p.depth+s] = stripeCW[j]
			}
			continue
		}
		res.CorrectedSymbols += dec.Corrections
		for j := 0; j < p.code.K(); j++ {
			res.Data[j*p.depth+s] = dec.Data[j]
		}
	}
	return res, nil
}
