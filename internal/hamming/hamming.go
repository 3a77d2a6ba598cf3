// Package hamming implements extended Hamming SEC-DED codes — the
// classic memory EDAC baseline against which the paper's Reed-Solomon
// arrangements compete. A SEC-DED code corrects any single-bit error
// and detects any double-bit error in one protected word; memory
// vendors ship it as (39,32) and (72,64).
//
// The package provides both the codec (bit-exact encode/decode over
// uint64 datawords) and a word-level CTMC in the style of the paper's
// models (internal/simplex), so SEC-DED-protected memories drop into
// the same BER(t) analysis and the baseline comparison experiment
// (expdata "ext-baselines").
package hamming

import (
	"fmt"
	"math/bits"

	"repro/internal/markov"
)

// Code is an extended Hamming SEC-DED code for a fixed data width.
// Check bits occupy positions 1,2,4,8,... of the classic Hamming
// layout, the overall parity bit sits at position 0, and data bits
// fill the remaining positions in increasing order.
type Code struct {
	dataBits  int
	checkBits int // Hamming parity count, excluding overall parity
	total     int // codeword length including overall parity
	// dataPos[i] is the codeword position of data bit i.
	dataPos []int
	// cover[j] has a bit set for every codeword position the Hamming
	// parity bit 2^j covers (positions 1..dataBits+checkBits whose
	// index has bit j set, including the parity position itself).
	// Encode and Decode reduce each parity to one masked popcount
	// instead of walking the positions bit by bit.
	cover []uint64
}

// New builds a SEC-DED code for dataBits of payload (1..57, so the
// codeword fits in 64 bits; 57 data bits need 6+1 check bits).
func New(dataBits int) (*Code, error) {
	if dataBits < 1 || dataBits > 57 {
		return nil, fmt.Errorf("hamming: data width %d outside 1..57", dataBits)
	}
	r := 0
	for (1 << uint(r)) < dataBits+r+1 {
		r++
	}
	c := &Code{dataBits: dataBits, checkBits: r, total: dataBits + r + 1}
	for pos := 1; len(c.dataPos) < dataBits; pos++ {
		if pos&(pos-1) != 0 { // not a power of two: data position
			c.dataPos = append(c.dataPos, pos)
		}
	}
	c.cover = make([]uint64, r)
	for j := 0; j < r; j++ {
		for pos := 1; pos <= dataBits+r; pos++ {
			if pos&(1<<uint(j)) != 0 {
				c.cover[j] |= 1 << uint(pos)
			}
		}
	}
	// Positions run 1..dataBits+r in Hamming numbering; shift by the
	// overall-parity bit when mapping to the stored word: stored bit
	// index = Hamming position (position 0 holds overall parity).
	return c, nil
}

// MustNew is New for static configuration; it panics on error.
func MustNew(dataBits int) *Code {
	c, err := New(dataBits)
	if err != nil {
		panic(err)
	}
	return c
}

// CodewordBits returns the stored width in bits, including the
// Hamming check bits and the overall (DED) parity bit.
func (c *Code) CodewordBits() int { return c.total }

// String identifies the code like "SEC-DED(72,64)".
func (c *Code) String() string { return fmt.Sprintf("SEC-DED(%d,%d)", c.total, c.dataBits) }

// Encode produces the stored codeword for data (low dataBits bits
// significant; higher bits must be zero).
func (c *Code) Encode(data uint64) (uint64, error) {
	if c.dataBits < 64 && data>>uint(c.dataBits) != 0 {
		return 0, fmt.Errorf("hamming: data %#x wider than %d bits", data, c.dataBits)
	}
	var cw uint64
	for i := 0; i < c.dataBits; i++ {
		if data>>uint(i)&1 != 0 {
			cw |= 1 << uint(c.dataPos[i])
		}
	}
	// Hamming parity bits: parity bit at position 2^j covers all
	// positions with bit j set. Its own position is still zero in cw,
	// so the full coverage mask yields the parity of the data bits.
	for j := 0; j < c.checkBits; j++ {
		parity := uint64(bits.OnesCount64(cw&c.cover[j])) & 1
		cw |= parity << uint(1<<uint(j))
	}
	// Overall parity over positions 1..N at position 0.
	cw |= uint64(bits.OnesCount64(cw)) & 1
	return cw, nil
}

// Status classifies a decode outcome.
type Status int

const (
	// NoError: the stored word was a valid codeword.
	NoError Status = iota
	// Corrected: a single-bit error was corrected.
	Corrected
	// DetectedDouble: a double-bit error was detected (uncorrectable,
	// data unreliable).
	DetectedDouble
)

// String names the status.
func (s Status) String() string {
	switch s {
	case NoError:
		return "no-error"
	case Corrected:
		return "corrected"
	case DetectedDouble:
		return "detected-double"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Result reports a decode.
type Result struct {
	Data   uint64
	Status Status
	// FlippedBit is the corrected codeword position when Status is
	// Corrected, -1 otherwise.
	FlippedBit int
}

// Decode checks and corrects the stored word. Errors of three or more
// bits alias onto the single/double syndromes: like Reed-Solomon
// bounded-distance decoding, SEC-DED then mis-corrects or mis-detects
// — the memsim-style comparisons account for that.
func (c *Code) Decode(stored uint64) (*Result, error) {
	if c.total < 64 && stored>>uint(c.total) != 0 {
		return nil, fmt.Errorf("hamming: stored word wider than %d bits", c.total)
	}
	syndrome := 0
	for j := 0; j < c.checkBits; j++ {
		if bits.OnesCount64(stored&c.cover[j])&1 != 0 {
			syndrome |= 1 << uint(j)
		}
	}
	overall := uint64(bits.OnesCount64(stored)) & 1

	res := &Result{FlippedBit: -1}
	word := stored
	switch {
	case syndrome == 0 && overall == 0:
		res.Status = NoError
	case overall == 1:
		// Odd number of flipped bits: correct as a single. A syndrome
		// pointing outside the codeword can only come from three or
		// more aliased flips: report it as detected-uncorrectable
		// rather than corrupting a valid position.
		pos := syndrome // 0 means the overall parity bit itself
		if pos > c.dataBits+c.checkBits {
			res.Status = DetectedDouble
			return res, nil
		}
		word ^= 1 << uint(pos)
		res.Status = Corrected
		res.FlippedBit = pos
	default:
		// syndrome != 0 with even overall parity: double error.
		res.Status = DetectedDouble
		return res, nil
	}
	for i, pos := range c.dataPos {
		res.Data |= (word >> uint(pos) & 1) << uint(i)
	}
	return res, nil
}

// Params configures the word-level CTMC of a SEC-DED-protected memory
// word, mirroring the paper's simplex model: states count persistent
// (permanent-fault) and soft (SEU) bit errors; the word fails once two
// errors coexist (DED detects but cannot correct, and a third error
// mis-corrects). Scrubbing clears soft errors only. Rates per hour.
type Params struct {
	DataBits  int
	Lambda    float64 // SEU rate per bit per hour
	LambdaP   float64 // permanent fault rate per bit per hour
	ScrubRate float64 // 1/Tsc per hour; 0 disables scrubbing
}

// State is a CTMC state: persistent and soft error counts. Fail is
// absorbing.
type State struct {
	Perm int
	Soft int
	Fail bool
}

// String renders the state.
func (s State) String() string {
	if s.Fail {
		return "FAIL"
	}
	return fmt.Sprintf("H(%d,%d)", s.Perm, s.Soft)
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if _, err := New(p.DataBits); err != nil {
		return err
	}
	if p.Lambda < 0 || p.LambdaP < 0 || p.ScrubRate < 0 {
		return fmt.Errorf("hamming: negative rate")
	}
	return nil
}

// codewordBits computes the stored width for the model.
func (p Params) codewordBits() int {
	c := MustNew(p.DataBits)
	return c.CodewordBits()
}

// Transitions implements the markov model function.
func (p Params) Transitions(s State) []markov.Arc[State] {
	if s.Fail {
		return nil
	}
	n := p.codewordBits()
	clean := n - s.Perm - s.Soft
	fail := State{Fail: true}
	var arcs []markov.Arc[State]
	add := func(to State, rate float64) {
		if rate <= 0 {
			return
		}
		if !to.Fail && to.Perm+to.Soft > 1 {
			to = fail // two coexisting errors defeat SEC
		}
		if to != s {
			arcs = append(arcs, markov.Arc[State]{To: to, Rate: rate})
		}
	}
	if clean > 0 {
		add(State{Perm: s.Perm, Soft: s.Soft + 1}, p.Lambda*float64(clean))
		add(State{Perm: s.Perm + 1, Soft: s.Soft}, p.LambdaP*float64(clean))
	}
	// A permanent fault overtaking the soft-errored bit.
	if s.Soft > 0 {
		add(State{Perm: s.Perm + 1, Soft: s.Soft - 1}, p.LambdaP*float64(s.Soft))
	}
	if p.ScrubRate > 0 && s.Soft > 0 {
		add(State{Perm: s.Perm, Soft: 0}, p.ScrubRate)
	}
	return arcs
}

// FailProbabilities solves the SEC-DED word chain at the given times
// (hours, nondecreasing).
func FailProbabilities(p Params, times []float64) ([]float64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ex, err := markov.Build(State{}, p.Transitions, 16)
	if err != nil {
		return nil, err
	}
	series, err := ex.Chain.TransientSeries(ex.InitialVector(), times)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(times))
	for i, dist := range series {
		out[i] = ex.ProbabilityOf(dist, func(s State) bool { return s.Fail })
	}
	return out, nil
}
