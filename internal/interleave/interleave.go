// Package interleave implements block interleaving of Reed-Solomon
// codewords — the memory-page organization of solid-state mass
// memories (paper ref [6]): a page is striped across d codewords so
// that a physical burst (a failed column, a multi-bit upset spanning
// adjacent symbols) lands on at most ceil(burst/d) symbols of any one
// codeword, multiplying the correctable burst length by the
// interleaving depth.
//
// A Page describes the layout as an address map. Physically the page
// is codeword-interleaved: stored symbol p, in the order a burst or a
// failed column sees, is position p/depth of stripe p mod depth.
// Simulators keep the page in the decoder's layout instead, stripe s
// at [s*n, (s+1)*n) of one rs.Batch arena, and send faults through
// Addr. So a stripe is encoded in place with rs.Code.EncodeTo and
// decoded in place with rs.Decoder.DecodeAll, and no symbol is ever
// copied between the two layouts. The page's data symbols use the same
// map: data index i is position i/depth of stripe i mod depth.
package interleave

import (
	"fmt"

	"repro/internal/rs"
)

// MaxStoredSymbols bounds a page's stored size, depth*n symbols. A
// simulator holds a few arrays of that length per worker, so an
// unbounded depth would let one configuration exhaust memory. The bound
// still admits a GF(2^16) RS(65535,k) page at depth 16.
const MaxStoredSymbols = 1 << 20

// Page is an interleaved page layout: depth independent RS codewords
// striped symbol-by-symbol across the stored page.
type Page struct {
	code  *rs.Code
	depth int
}

// New builds a page layout with the given interleaving depth. It
// refuses a page of more than MaxStoredSymbols stored symbols.
func New(code *rs.Code, depth int) (*Page, error) {
	if code == nil {
		return nil, fmt.Errorf("interleave: nil code")
	}
	if depth <= 0 {
		return nil, fmt.Errorf("interleave: nonpositive depth %d", depth)
	}
	if depth > MaxStoredSymbols/code.N() {
		return nil, fmt.Errorf("interleave: depth %d of n=%d codewords exceeds the page limit of %d stored symbols",
			depth, code.N(), MaxStoredSymbols)
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

// Addr maps physical stored symbol i (or data index i) to its stripe
// and its position in that stripe's codeword; in a stripe-major arena
// the symbol sits at stripe*n + pos.
func (p *Page) Addr(i int) (stripe, pos int) { return i % p.depth, i / p.depth }

// CorrectableBurst returns the guaranteed-correctable burst length in
// stored symbols when no other faults are present: each codeword
// absorbs t = floor((n-k)/2) random errors, and a burst of length L
// touches at most ceil(L/depth) symbols per codeword, so
// L = depth*t bursts always correct (an L+1 burst can overload one
// stripe).
func (p *Page) CorrectableBurst() int { return p.depth * p.code.T() }
