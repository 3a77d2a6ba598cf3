// Package arbiter implements the duplex decision circuit of paper
// Section 3 (Figure 1): erasure recovery across the two replicated
// modules, independent Reed-Solomon decoding of both words, and the
// flag-and-compare output selection that distinguishes corrections
// from mis-corrections.
//
// The arbiter is the paper's hard-core component: it is assumed
// fault-free, and the simulator keeps it that way.
package arbiter

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/rs"
)

// Verdict classifies the arbiter's decision for observability in
// tests and the simulator.
type Verdict int

const (
	// NoError: neither decoder corrected anything; words agree.
	NoError Verdict = iota
	// CorrectedAgree: at least one flag set but the decoded words
	// agree — the correction is trusted.
	CorrectedAgree
	// FlagResolved: the words differ and exactly one flag is set; the
	// unflagged word is output (the flagged one mis-corrected).
	FlagResolved
	// OneWordFailed: one decoder reported a detected failure; the
	// other word is output.
	OneWordFailed
	// BothFlaggedDiffer: both flags set and the words differ — the
	// arbiter cannot discriminate and provides no output.
	BothFlaggedDiffer
	// DifferNoFlags: the words differ yet neither decoder corrected
	// anything (two distinct valid codewords): no basis to choose,
	// no output. Requires a corruption that crossed the full code
	// distance; the paper neglects it, the simulator counts it.
	DifferNoFlags
	// BothFailed: both decoders reported detected failures.
	BothFailed
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case NoError:
		return "no-error"
	case CorrectedAgree:
		return "corrected-agree"
	case FlagResolved:
		return "flag-resolved"
	case OneWordFailed:
		return "one-word-failed"
	case BothFlaggedDiffer:
		return "both-flagged-differ"
	case DifferNoFlags:
		return "differ-no-flags"
	case BothFailed:
		return "both-failed"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Result is the arbiter's output for one read.
type Result struct {
	// OK reports whether an output word was provided.
	OK bool
	// Data is the k-symbol output dataword when OK.
	Data []gf.Elem
	// Verdict classifies the decision path taken.
	Verdict Verdict
	// MaskedErasures counts single-module erasures recovered by
	// copying the twin symbol (the paper's Y positions).
	MaskedErasures int
	// SharedErasures counts positions erased in both modules (the
	// paper's X positions), passed to both decoders as erasures.
	SharedErasures int
	// Flag1, Flag2 are the per-word correction flags.
	Flag1, Flag2 bool
}

// Arbiter decodes replicated word pairs for a fixed code. It owns a
// decoding workspace per module (the repaired-word buffers, erasure
// bitsets and rs.Decoder scratch) and the Result it hands back, so a
// read whose words decode allocates nothing. An Arbiter is therefore
// NOT safe for concurrent use; create one per goroutine.
type Arbiter struct {
	code       *rs.Code
	dec1, dec2 *rs.Decoder
	w1, w2     []gf.Elem
	e1, e2     []bool
	shared     []int
	res        Result
}

// New returns an arbiter for the given code.
func New(code *rs.Code) (*Arbiter, error) {
	if code == nil {
		return nil, fmt.Errorf("arbiter: nil code")
	}
	n := code.N()
	return &Arbiter{
		code:   code,
		dec1:   code.NewDecoder(),
		dec2:   code.NewDecoder(),
		w1:     make([]gf.Elem, n),
		w2:     make([]gf.Elem, n),
		e1:     make([]bool, n),
		e2:     make([]bool, n),
		shared: make([]int, 0, n),
	}, nil
}

// Read performs the full arbiter operation of paper Section 3 on the
// two stored words and their located-erasure sets (symbol indices per
// module).
//
// Step 1 — erasure recovery: a position erased in exactly one module
// is replaced by the twin module's symbol (which may itself carry an
// undetected random error: that is the paper's b class). Positions
// erased in both modules stay erasures for both decoders.
//
// Step 2 — both repaired words are decoded independently; a completed
// correction sets that word's flag.
//
// Step 3 — flag-and-compare selection per the paper's four rules.
//
// The Result belongs to the Arbiter, and its Data aliases the winning
// decoder's workspace: both stay valid until the next Read; copy what
// must outlive it.
func (a *Arbiter) Read(word1, word2 []gf.Elem, erasures1, erasures2 []int) (*Result, error) {
	n := a.code.N()
	if len(word1) != n || len(word2) != n {
		return nil, fmt.Errorf("arbiter: words have %d/%d symbols, want n=%d", len(word1), len(word2), n)
	}
	if err := fillErasureSet(a.e1, erasures1); err != nil {
		return nil, err
	}
	if err := fillErasureSet(a.e2, erasures2); err != nil {
		return nil, err
	}

	a.res = Result{}
	res := &a.res
	copy(a.w1, word1)
	copy(a.w2, word2)
	shared := a.shared[:0]
	for i := 0; i < n; i++ {
		switch {
		case a.e1[i] && a.e2[i]:
			shared = append(shared, i)
		case a.e1[i]:
			a.w1[i] = a.w2[i]
			res.MaskedErasures++
		case a.e2[i]:
			a.w2[i] = a.w1[i]
			res.MaskedErasures++
		}
	}
	res.SharedErasures = len(shared)

	r1, err1 := a.dec1.Decode(a.w1, shared)
	r2, err2 := a.dec2.Decode(a.w2, shared)

	output := func(r *rs.Result) {
		res.OK = true
		res.Data = r.Data
	}
	switch {
	case err1 != nil && err2 != nil:
		res.Verdict = BothFailed
		return res, nil
	case err1 != nil:
		output(r2)
		res.Flag2 = r2.Flag
		res.Verdict = OneWordFailed
		return res, nil
	case err2 != nil:
		output(r1)
		res.Flag1 = r1.Flag
		res.Verdict = OneWordFailed
		return res, nil
	}

	res.Flag1, res.Flag2 = r1.Flag, r2.Flag
	equal := wordsEqual(r1.Codeword, r2.Codeword)
	switch {
	case !r1.Flag && !r2.Flag && equal:
		output(r1)
		res.Verdict = NoError
	case equal:
		output(r1)
		res.Verdict = CorrectedAgree
	case r1.Flag && r2.Flag:
		res.Verdict = BothFlaggedDiffer
	case r1.Flag:
		output(r2)
		res.Verdict = FlagResolved
	case r2.Flag:
		output(r1)
		res.Verdict = FlagResolved
	default:
		res.Verdict = DifferNoFlags
	}
	return res, nil
}

// fillErasureSet resets set and marks the given positions.
func fillErasureSet(set []bool, positions []int) error {
	for i := range set {
		set[i] = false
	}
	for _, p := range positions {
		if p < 0 || p >= len(set) {
			return fmt.Errorf("arbiter: erasure position %d out of range [0,%d)", p, len(set))
		}
		set[p] = true
	}
	return nil
}

func wordsEqual(a, b []gf.Elem) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
