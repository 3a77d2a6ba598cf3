package array

import (
	"math"
	"testing"

	"repro/internal/core"
)

func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}

func baseMemory() Memory {
	return Memory{
		DataBytes: 1 << 20, // 1 MiB
		Word: core.Config{
			Arrangement:  core.Simplex,
			Code:         core.RS1816,
			SEUPerBitDay: 1.7e-5,
		},
	}
}

func TestValidate(t *testing.T) {
	if err := baseMemory().Validate(); err != nil {
		t.Fatalf("valid memory rejected: %v", err)
	}
	bad := baseMemory()
	bad.DataBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero capacity accepted")
	}
	odd := baseMemory()
	odd.Word.Code = core.CodeSpec{N: 7, K: 3, M: 3} // 9-bit datawords
	if err := odd.Validate(); err == nil {
		t.Error("non-byte-aligned dataword accepted")
	}
	invalid := baseMemory()
	invalid.Word.Code.K = invalid.Word.Code.N
	if err := invalid.Validate(); err == nil {
		t.Error("invalid code accepted")
	}
}

func TestGeometry(t *testing.T) {
	m := baseMemory()
	if m.WordBytes() != 16 {
		t.Errorf("WordBytes = %d, want 16", m.WordBytes())
	}
	words, err := m.Words()
	if err != nil {
		t.Fatal(err)
	}
	if words != (1<<20)/16 {
		t.Errorf("Words = %d, want %d", words, (1<<20)/16)
	}
	stored, err := m.StoredBits()
	if err != nil {
		t.Fatal(err)
	}
	if stored != words*18*8 {
		t.Errorf("StoredBits = %d, want %d", stored, words*18*8)
	}
	oh, err := m.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(oh, 18.0/16, 1e-12) {
		t.Errorf("Overhead = %v, want 1.125", oh)
	}
}

func TestGeometryDuplexDoubles(t *testing.T) {
	m := baseMemory()
	m.Word.Arrangement = core.Duplex
	oh, err := m.Overhead()
	if err != nil {
		t.Fatal(err)
	}
	if !relClose(oh, 2*18.0/16, 1e-12) {
		t.Errorf("duplex Overhead = %v, want 2.25", oh)
	}
}

func TestWordsRoundsUp(t *testing.T) {
	m := baseMemory()
	m.DataBytes = 17 // more than one 16-byte word
	words, err := m.Words()
	if err != nil {
		t.Fatal(err)
	}
	if words != 2 {
		t.Errorf("Words = %d, want 2", words)
	}
}

func TestEvaluateConsistency(t *testing.T) {
	m := baseMemory()
	hours := []float64{0, 24, 48}
	c, err := m.Evaluate(hours)
	if err != nil {
		t.Fatal(err)
	}
	words, _ := m.Words()
	w := float64(words)
	for i := range hours {
		p := c.WordFail[i]
		if !relClose(c.Reliability[i], math.Pow(1-p, w), 1e-9) && p > 1e-12 {
			t.Errorf("t=%v: reliability %v vs (1-p)^W %v", hours[i], c.Reliability[i], math.Pow(1-p, w))
		}
		if !relClose(c.AnyWordFail[i]+c.Reliability[i], 1, 1e-12) {
			t.Errorf("t=%v: P_any + R != 1", hours[i])
		}
		if !relClose(c.ExpectedWordsLost[i], w*p, 1e-12) {
			t.Errorf("t=%v: E[lost] inconsistent", hours[i])
		}
	}
	if c.AnyWordFail[0] != 0 || c.Reliability[0] != 1 {
		t.Error("t=0 should be pristine")
	}
	if c.AnyWordFail[2] <= c.AnyWordFail[1] {
		t.Error("loss probability should grow")
	}
}

func TestEvaluatePreservesTinyWordProbabilities(t *testing.T) {
	// Duplex under light permanent faults: word fail ~ 1e-41. With
	// 2^16 words the memory-level P_any ~ 6.5e-37 must survive.
	m := Memory{
		DataBytes: 1 << 20,
		Word: core.Config{
			Arrangement:         core.Duplex,
			Code:                core.RS1816,
			ErasurePerSymbolDay: 1e-10,
		},
	}
	c, err := m.Evaluate([]float64{17280}) // 24 months
	if err != nil {
		t.Fatal(err)
	}
	if c.WordFail[0] <= 0 {
		t.Fatal("word probability underflowed")
	}
	words, _ := m.Words()
	want := float64(words) * c.WordFail[0]
	if c.AnyWordFail[0] == 0 {
		t.Fatal("memory-level probability truncated to zero")
	}
	if !relClose(c.AnyWordFail[0], want, 1e-6) {
		t.Errorf("P_any = %g, want ~W*p = %g", c.AnyWordFail[0], want)
	}
}

func TestBiggerMemoryLessReliable(t *testing.T) {
	small := baseMemory()
	small.DataBytes = 1 << 16
	big := baseMemory()
	big.DataBytes = 1 << 24
	cs, err := small.Evaluate([]float64{48})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := big.Evaluate([]float64{48})
	if err != nil {
		t.Fatal(err)
	}
	if cb.AnyWordFail[0] <= cs.AnyWordFail[0] {
		t.Errorf("256x capacity should lose more: %g vs %g", cb.AnyWordFail[0], cs.AnyWordFail[0])
	}
	if cb.WordFail[0] != cs.WordFail[0] {
		t.Error("per-word probability must not depend on capacity")
	}
}

func BenchmarkEvaluateMemory(b *testing.B) {
	m := baseMemory()
	hours := []float64{12, 24, 48}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Evaluate(hours); err != nil {
			b.Fatal(err)
		}
	}
}
