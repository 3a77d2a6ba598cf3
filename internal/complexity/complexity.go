// Package complexity implements the decoder cost models of paper
// Section 6: decoding latency in clock cycles after the Altera
// Reed-Solomon compiler IP core (ref [5]) and a gate-area model linear
// in the symbol width and check-symbol count. These are the numbers
// behind the paper's closing trade-off: a duplex RS(18,16) system
// decodes more than four times faster than a simplex RS(36,16) system
// with the same total redundancy, and two RS(18,16) decoders are
// smaller than one RS(36,16) decoder.
package complexity

import "fmt"

// DecodeCycles returns the paper's decoding-latency estimate
//
//	Td ~= 3*n + 10*(n-k)
//
// in clock cycles, for a non-time-continuous access profile as
// applicable to memory (paper Section 6, after ref [5]).
func DecodeCycles(n, k int) (int, error) {
	if n <= 0 || k <= 0 || k >= n {
		return 0, fmt.Errorf("complexity: invalid code RS(%d,%d)", n, k)
	}
	return 3*n + 10*(n-k), nil
}

// DefaultGatesPerUnit is the proportionality constant of the area
// model in gates per (symbol bit x check symbol). The paper only
// states that area is "almost linearly dependent on m and the number
// of check symbols n-k"; the constant calibrates against the ~2k-gate
// class of compact FPGA RS decoder cores of the era and cancels in
// every comparison the paper makes.
const DefaultGatesPerUnit = 115.0

// DecoderGates returns the estimated gate count of one RS(n,k)
// decoder with m-bit symbols: gatesPerUnit * m * (n-k). A
// nonpositive gatesPerUnit selects DefaultGatesPerUnit.
func DecoderGates(m, n, k int, gatesPerUnit float64) (float64, error) {
	if n <= 0 || k <= 0 || k >= n {
		return 0, fmt.Errorf("complexity: invalid code RS(%d,%d)", n, k)
	}
	if m <= 0 || m > 16 {
		return 0, fmt.Errorf("complexity: invalid symbol width m=%d", m)
	}
	if gatesPerUnit <= 0 {
		gatesPerUnit = DefaultGatesPerUnit
	}
	return gatesPerUnit * float64(m) * float64(n-k), nil
}

// ArrangementCost summarizes the Section 6 metrics of one memory
// arrangement.
type ArrangementCost struct {
	Name         string
	N, K, M      int
	Decoders     int     // decoder instances (2 for duplex)
	DecodeCycles int     // latency of one read, cycles (decoders run in parallel)
	TotalGates   float64 // summed decoder area
	// RedundantSymbolsPerDataword counts total stored check symbols
	// per k-symbol dataword (duplex stores the dataword twice; its
	// redundancy is n-k per module plus the full second copy).
	RedundantSymbolsPerDataword int
}

// SimplexCost computes the Section 6 metrics for a simplex RS(n,k)
// arrangement.
func SimplexCost(n, k, m int) (ArrangementCost, error) {
	cycles, err := DecodeCycles(n, k)
	if err != nil {
		return ArrangementCost{}, err
	}
	gates, err := DecoderGates(m, n, k, 0)
	if err != nil {
		return ArrangementCost{}, err
	}
	return ArrangementCost{
		Name: fmt.Sprintf("simplex RS(%d,%d)", n, k),
		N:    n, K: k, M: m,
		Decoders:                    1,
		DecodeCycles:                cycles,
		TotalGates:                  gates,
		RedundantSymbolsPerDataword: n - k,
	}, nil
}

// DuplexCost computes the Section 6 metrics for a duplex RS(n,k)
// arrangement: two decoders operating in parallel (latency of one),
// twice the area, and n redundant symbols per dataword (the second
// copy plus both modules' check symbols).
func DuplexCost(n, k, m int) (ArrangementCost, error) {
	cycles, err := DecodeCycles(n, k)
	if err != nil {
		return ArrangementCost{}, err
	}
	gates, err := DecoderGates(m, n, k, 0)
	if err != nil {
		return ArrangementCost{}, err
	}
	return ArrangementCost{
		Name: fmt.Sprintf("duplex RS(%d,%d)", n, k),
		N:    n, K: k, M: m,
		Decoders:                    2,
		DecodeCycles:                cycles, // the two decoders work in parallel
		TotalGates:                  2 * gates,
		RedundantSymbolsPerDataword: 2*n - k,
	}, nil
}

// PaperComparison returns the three arrangements Section 6 compares —
// simplex RS(18,16), duplex RS(18,16) and simplex RS(36,16), all with
// byte symbols — in that order.
func PaperComparison() ([]ArrangementCost, error) {
	s18, err := SimplexCost(18, 16, 8)
	if err != nil {
		return nil, err
	}
	d18, err := DuplexCost(18, 16, 8)
	if err != nil {
		return nil, err
	}
	s36, err := SimplexCost(36, 16, 8)
	if err != nil {
		return nil, err
	}
	return []ArrangementCost{s18, d18, s36}, nil
}
