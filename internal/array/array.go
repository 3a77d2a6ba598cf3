// Package array scales the paper's word-level analysis to a whole
// memory — the extension Section 4 calls "straightforward": a memory
// of W independently coded words fails its mission when any word
// becomes unrecoverable, so the word chain's Fail probability p(t)
// lifts to
//
//	R_memory(t)      = (1 - p(t))^W        (mission reliability)
//	P_any(t)         = 1 - R_memory(t)     (probability of data loss)
//	E[words lost](t) = W * p(t)
//
// all computed in log space so the astronomically small word
// probabilities of the paper's Figures 9-10 survive the
// exponentiation.
package array

import (
	"fmt"
	"math"

	"repro/internal/core"
)

// Memory describes a protected memory array: total data capacity and
// the per-word protection configuration.
type Memory struct {
	// DataBytes is the usable (pre-coding) capacity.
	DataBytes int64
	// Word is the per-word protection system; Word.Code fixes the
	// dataword size (k symbols of m bits).
	Word core.Config
}

// Validate checks the description.
func (m Memory) Validate() error {
	if err := m.Word.Validate(); err != nil {
		return err
	}
	if m.DataBytes <= 0 {
		return fmt.Errorf("array: nonpositive capacity %d", m.DataBytes)
	}
	if m.Word.Code.K*m.Word.Code.M%8 != 0 {
		return fmt.Errorf("array: dataword of %d bits is not byte-aligned", m.Word.Code.K*m.Word.Code.M)
	}
	return nil
}

// WordBytes returns the data bytes carried per coded word.
func (m Memory) WordBytes() int64 {
	return int64(m.Word.Code.K*m.Word.Code.M) / 8
}

// Words returns the number of protected words (capacity rounded up).
func (m Memory) Words() (int64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	wb := m.WordBytes()
	return (m.DataBytes + wb - 1) / wb, nil
}

// StoredBits returns the physical bits occupied, including check
// symbols and (for duplex) full duplication.
func (m Memory) StoredBits() (int64, error) {
	words, err := m.Words()
	if err != nil {
		return 0, err
	}
	perWord := int64(m.Word.Code.N * m.Word.Code.M)
	if m.Word.Arrangement == core.Duplex {
		perWord *= 2
	}
	return words * perWord, nil
}

// Overhead returns stored bits per data bit.
func (m Memory) Overhead() (float64, error) {
	stored, err := m.StoredBits()
	if err != nil {
		return 0, err
	}
	return float64(stored) / float64(m.DataBytes*8), nil
}

// Curve is the memory-level evaluation at a time grid.
type Curve struct {
	Hours             []float64
	WordFail          []float64 // per-word chain Fail probability
	AnyWordFail       []float64 // 1 - (1-p)^W
	Reliability       []float64 // (1-p)^W
	ExpectedWordsLost []float64 // W * p
}

// Evaluate lifts the word-level chain solution to the memory.
func (m Memory) Evaluate(hours []float64) (*Curve, error) {
	words, err := m.Words()
	if err != nil {
		return nil, err
	}
	wordCurve, err := core.Evaluate(m.Word, hours)
	if err != nil {
		return nil, err
	}
	w := float64(words)
	c := &Curve{
		Hours:             append([]float64(nil), hours...),
		WordFail:          wordCurve.PFail,
		AnyWordFail:       make([]float64, len(hours)),
		Reliability:       make([]float64, len(hours)),
		ExpectedWordsLost: make([]float64, len(hours)),
	}
	for i, p := range wordCurve.PFail {
		logSurvive := w * math.Log1p(-p)
		c.Reliability[i] = math.Exp(logSurvive)
		c.AnyWordFail[i] = -math.Expm1(logSurvive)
		c.ExpectedWordsLost[i] = w * p
	}
	return c, nil
}
