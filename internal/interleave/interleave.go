// Package interleave implements block interleaving of Reed-Solomon
// codewords — the memory-page organization of solid-state mass
// memories (paper ref [6]): a page is striped across d codewords so
// that a physical burst (a failed column, a multi-bit upset spanning
// adjacent symbols) lands on at most ceil(burst/d) symbols of any one
// codeword, multiplying the correctable burst length by the
// interleaving depth.
//
// A Page describes the layout and a Codec encodes and decodes it on a
// reusable workspace, composing with internal/rs: data pages of
// depth*k symbols are encoded into depth*n stored symbols laid out
// codeword-interleaved (stored index i belongs to codeword i mod
// depth).
package interleave

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/rs"
)

// Page is an interleaved page layout: depth independent RS codewords
// striped symbol-by-symbol across the stored page. Its Codec encodes
// and decodes it.
type Page struct {
	code  *rs.Code
	depth int
}

// New builds a page codec with the given interleaving depth.
func New(code *rs.Code, depth int) (*Page, error) {
	if code == nil {
		return nil, fmt.Errorf("interleave: nil code")
	}
	if depth <= 0 {
		return nil, fmt.Errorf("interleave: nonpositive depth %d", depth)
	}
	return &Page{code: code, depth: depth}, nil
}

// Code returns the per-stripe Reed-Solomon code.
func (p *Page) Code() *rs.Code { return p.code }

// Depth returns the interleaving depth.
func (p *Page) Depth() int { return p.depth }

// DataSymbols returns the page payload size in symbols: depth*k.
func (p *Page) DataSymbols() int { return p.depth * p.code.K() }

// StoredSymbols returns the stored page size in symbols: depth*n.
func (p *Page) StoredSymbols() int { return p.depth * p.code.N() }

// CorrectableBurst returns the guaranteed-correctable burst length in
// stored symbols when no other faults are present: each codeword
// absorbs t = floor((n-k)/2) random errors, and a burst of length L
// touches at most ceil(L/depth) symbols per codeword, so
// L = depth*t bursts always correct (an L+1 burst can overload one
// stripe).
func (p *Page) CorrectableBurst() int { return p.depth * p.code.T() }

// encodeInto runs the stripe loop with caller-owned scratch.
func (p *Page) encodeInto(stored, data, stripeData, stripeCW []gf.Elem) error {
	for s := 0; s < p.depth; s++ {
		for j := 0; j < p.code.K(); j++ {
			stripeData[j] = data[j*p.depth+s]
		}
		if err := p.code.EncodeTo(stripeCW, stripeData); err != nil {
			return err
		}
		for j := 0; j < p.code.N(); j++ {
			stored[j*p.depth+s] = stripeCW[j]
		}
	}
	return nil
}

// DecodeResult reports a page decode. Stripes that fail to decode are
// listed in FailedStripes and contribute their received (uncorrected)
// data symbols, mirroring a controller that flags but still returns
// the page.
type DecodeResult struct {
	// Data is the recovered page payload.
	Data []gf.Elem
	// CorrectedSymbols is the total number of symbol corrections
	// across all stripes.
	CorrectedSymbols int
	// FailedStripes lists stripe indices whose codeword was
	// uncorrectable; Data is only trustworthy when empty.
	FailedStripes []int
}

// splitErasures validates stored-page erasure positions and appends
// each to its stripe's list (lists are extended, not reset).
func (p *Page) splitErasures(perStripe [][]int, erasures []int) error {
	for _, e := range erasures {
		if e < 0 || e >= p.StoredSymbols() {
			return fmt.Errorf("interleave: erasure %d out of range [0,%d)", e, p.StoredSymbols())
		}
		stripe := e % p.depth
		perStripe[stripe] = append(perStripe[stripe], e/p.depth)
	}
	return nil
}

// Codec is a reusable page encode/decode workspace: it owns the
// stripe scratch, the per-stripe erasure lists, a deinterleaved word
// arena and one rs.Decoder, so steady-state page traffic (the pagesim
// Monte Carlo, a controller model pushing millions of pages) performs
// no per-page heap allocation, and the page decodes as one arena
// (rs.Decoder.DecodeAll), in which a clean stripe costs only the
// syndrome screen. A Codec is not safe for concurrent use; campaigns
// hold one per worker goroutine.
type Codec struct {
	page       *Page
	dec        *rs.Decoder
	arena      []gf.Elem // depth words of n symbols, stride n
	stripeData []gf.Elem
	stripeCW   []gf.Elem
	perStripe  [][]int

	// last is the per-stripe outcome of the last DecodeTo, nil unless
	// that call completed; CorrectedStripe reads it.
	last *rs.BatchResult
}

// NewCodec builds a reusable workspace for the page layout.
func (p *Page) NewCodec() *Codec {
	c := &Codec{
		page:       p,
		dec:        p.code.NewDecoder(),
		arena:      make([]gf.Elem, p.depth*p.code.N()),
		stripeData: make([]gf.Elem, p.code.K()),
		stripeCW:   make([]gf.Elem, p.code.N()),
		perStripe:  make([][]int, p.depth),
	}
	for i := range c.perStripe {
		c.perStripe[i] = make([]int, 0, p.code.N())
	}
	return c
}

// EncodeTo encodes a page of depth*k data symbols into the
// caller-provided stored slice of depth*n symbols, allocation-free.
func (c *Codec) EncodeTo(stored, data []gf.Elem) error {
	p := c.page
	if len(data) != p.DataSymbols() {
		return fmt.Errorf("interleave: page data has %d symbols, want %d", len(data), p.DataSymbols())
	}
	if len(stored) != p.StoredSymbols() {
		return fmt.Errorf("interleave: stored page has %d symbols, want %d", len(stored), p.StoredSymbols())
	}
	return p.encodeInto(stored, data, c.stripeData, c.stripeCW)
}

// DecodeTo decodes a stored page into res, recycling res's buffers
// (Data and FailedStripes are resized in place, so the steady state
// allocates nothing). Erasure positions index the stored page
// (0..depth*n-1). Every stripe gets the outcome rs.Decoder.Decode
// would have produced for it — DecodeAll guarantees that — but the
// page is decoded as one word arena, so healthy stripes cost only the
// syndrome screen and the correction tail runs just for the stripes
// that need it.
func (c *Codec) DecodeTo(res *DecodeResult, stored []gf.Elem, erasures []int) error {
	p := c.page
	c.last = nil
	if len(stored) != p.StoredSymbols() {
		return fmt.Errorf("interleave: stored page has %d symbols, want %d", len(stored), p.StoredSymbols())
	}
	for s := range c.perStripe {
		c.perStripe[s] = c.perStripe[s][:0]
	}
	if err := p.splitErasures(c.perStripe, erasures); err != nil {
		return err
	}
	if cap(res.Data) < p.DataSymbols() {
		res.Data = make([]gf.Elem, p.DataSymbols())
	}
	res.Data = res.Data[:p.DataSymbols()]
	res.CorrectedSymbols = 0
	res.FailedStripes = res.FailedStripes[:0]

	n, k, depth := p.code.N(), p.code.K(), p.depth
	for s := 0; s < depth; s++ {
		word := c.arena[s*n : (s+1)*n]
		for j := 0; j < n; j++ {
			word[j] = stored[j*depth+s]
		}
	}
	// The per-stripe lists are not mutated until the next DecodeTo,
	// which satisfies the rs.Batch list-sharing contract for this call.
	bres, err := c.dec.DecodeAll(rs.Batch{Words: c.arena, Stride: n, Count: depth}, c.perStripe)
	if err != nil {
		return err
	}
	c.last = bres
	// Corrected stripes were repaired in the arena; failed stripes were
	// left as received, which is exactly what the per-stripe path
	// contributes for them.
	for s := 0; s < depth; s++ {
		if bres.Words[s].Err != nil {
			res.FailedStripes = append(res.FailedStripes, s)
		} else {
			res.CorrectedSymbols += bres.Words[s].Corrections
		}
		word := c.arena[s*n:]
		for j := 0; j < k; j++ {
			res.Data[j*depth+s] = word[j]
		}
	}
	return nil
}

// CorrectedStripe returns stripe s's codeword from the last DecodeTo
// if that decode succeeded and changed at least one symbol, else nil
// (the stripe was already a codeword, or failed). The n symbols are in
// codeword order (position j is stored index j*depth+s) and alias the
// codec's arena until the next DecodeTo. A scrub may store the word in
// place of a re-encode: a successful decode ends on a codeword, and
// systematic encoding makes that codeword the encode of its own data.
func (c *Codec) CorrectedStripe(s int) []gf.Elem {
	if c.last == nil {
		return nil
	}
	if r := c.last.Words[s]; r.Err != nil || r.Corrections == 0 {
		return nil
	}
	n := c.page.code.N()
	return c.arena[s*n : (s+1)*n : (s+1)*n]
}
