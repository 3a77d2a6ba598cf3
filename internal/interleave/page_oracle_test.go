package interleave

import (
	"fmt"

	"repro/internal/gf"
)

// Encode encodes a page of depth*k data symbols into a stored page of
// depth*n symbols, codeword-interleaved, allocating its result and
// scratch per call. With Decode it is the straightforward page codec
// the Codec tests compare against.
func (p *Page) Encode(data []gf.Elem) ([]gf.Elem, error) {
	if len(data) != p.DataSymbols() {
		return nil, fmt.Errorf("interleave: page data has %d symbols, want %d", len(data), p.DataSymbols())
	}
	stored := make([]gf.Elem, p.StoredSymbols())
	stripeData := make([]gf.Elem, p.code.K())
	stripeCW := make([]gf.Elem, p.code.N())
	if err := p.encodeInto(stored, data, stripeData, stripeCW); err != nil {
		return nil, err
	}
	return stored, nil
}

// Decode recovers a stored page one stripe at a time with
// rs.Decoder.Decode. Erasure positions index the stored page
// (0..depth*n-1). Stripes that fail to decode are reported in
// FailedStripes and contribute their received (uncorrected) data
// symbols, mirroring a controller that flags but still returns the
// page.
func (p *Page) Decode(stored []gf.Elem, erasures []int) (*DecodeResult, error) {
	if len(stored) != p.StoredSymbols() {
		return nil, fmt.Errorf("interleave: stored page has %d symbols, want %d", len(stored), p.StoredSymbols())
	}
	perStripe := make([][]int, p.depth)
	if err := p.splitErasures(perStripe, erasures); err != nil {
		return nil, err
	}
	res := &DecodeResult{Data: make([]gf.Elem, p.DataSymbols())}
	p.decodeInto(res, stored, perStripe, make([]gf.Elem, p.code.N()))
	return res, nil
}

// decodeInto runs the stripe loop into res with caller-owned scratch.
func (p *Page) decodeInto(res *DecodeResult, stored []gf.Elem, perStripe [][]int, stripeCW []gf.Elem) {
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
}
