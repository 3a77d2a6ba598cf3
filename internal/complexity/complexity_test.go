package complexity

import "testing"

func TestDecodeCyclesPaperNumbers(t *testing.T) {
	// Paper Section 6: RS(36,16) -> 108 + 200 = 308 cycles;
	// RS(18,16) -> 54 + 20 = 74 cycles.
	got, err := DecodeCycles(36, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 308 {
		t.Errorf("Td(36,16) = %d, want 308", got)
	}
	got, err = DecodeCycles(18, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != 74 {
		t.Errorf("Td(18,16) = %d, want 74", got)
	}
	// The paper's conclusion: more than four times slower.
	ratio := 308.0 / 74.0
	if ratio <= 4 {
		t.Errorf("latency ratio %v, paper claims more than four times", ratio)
	}
}

func TestDecodeCyclesValidation(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {10, 10}, {10, 12}, {-5, -7}} {
		if _, err := DecodeCycles(c[0], c[1]); err == nil {
			t.Errorf("DecodeCycles(%d,%d) accepted", c[0], c[1])
		}
	}
}

func TestDecoderGatesLinear(t *testing.T) {
	g1, err := DecoderGates(8, 18, 16, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != 100*8*2 {
		t.Errorf("gates = %v, want 1600", g1)
	}
	// Linear in m.
	g2, _ := DecoderGates(16, 18, 16, 100)
	if g2 != 2*g1 {
		t.Errorf("doubling m should double gates: %v vs %v", g2, g1)
	}
	// Linear in n-k.
	g3, _ := DecoderGates(8, 36, 16, 100)
	if g3 != 10*g1 {
		t.Errorf("10x check symbols should 10x gates: %v vs %v", g3, g1)
	}
	// Default constant kicks in for nonpositive gatesPerUnit.
	g4, _ := DecoderGates(8, 18, 16, 0)
	if g4 != DefaultGatesPerUnit*8*2 {
		t.Errorf("default constant not applied: %v", g4)
	}
}

func TestDecoderGatesValidation(t *testing.T) {
	if _, err := DecoderGates(0, 18, 16, 1); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := DecoderGates(17, 18, 16, 1); err == nil {
		t.Error("m=17 accepted")
	}
	if _, err := DecoderGates(8, 16, 16, 1); err == nil {
		t.Error("k=n accepted")
	}
}

func TestPaperComparison(t *testing.T) {
	costs, err := PaperComparison()
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 {
		t.Fatalf("got %d arrangements, want 3", len(costs))
	}
	s18, d18, s36 := costs[0], costs[1], costs[2]

	if s18.Name != "simplex RS(18,16)" || d18.Name != "duplex RS(18,16)" || s36.Name != "simplex RS(36,16)" {
		t.Errorf("names: %q %q %q", s18.Name, d18.Name, s36.Name)
	}
	// Latency: duplex decodes in parallel, same 74 cycles; the wide
	// code takes 308.
	if s18.DecodeCycles != 74 || d18.DecodeCycles != 74 || s36.DecodeCycles != 308 {
		t.Errorf("cycles: %d %d %d", s18.DecodeCycles, d18.DecodeCycles, s36.DecodeCycles)
	}
	// Area: two RS(18,16) decoders must be smaller than one RS(36,16).
	if !(d18.TotalGates < s36.TotalGates) {
		t.Errorf("duplex pair (%v gates) should be smaller than one RS(36,16) decoder (%v gates)",
			d18.TotalGates, s36.TotalGates)
	}
	if d18.TotalGates != 2*s18.TotalGates {
		t.Errorf("duplex area should be exactly two simplex decoders")
	}
	if d18.Decoders != 2 || s18.Decoders != 1 || s36.Decoders != 1 {
		t.Error("decoder counts wrong")
	}
	// Redundancy bookkeeping: duplex RS(18,16) stores 2*18-16 = 20
	// redundant symbols per dataword — the same as simplex RS(36,16),
	// which is the paper's motivation for the comparison.
	if d18.RedundantSymbolsPerDataword != s36.RedundantSymbolsPerDataword {
		t.Errorf("equal-redundancy premise broken: duplex %d vs RS(36,16) %d",
			d18.RedundantSymbolsPerDataword, s36.RedundantSymbolsPerDataword)
	}
	if s18.RedundantSymbolsPerDataword != 2 {
		t.Errorf("simplex RS(18,16) redundancy = %d, want 2", s18.RedundantSymbolsPerDataword)
	}
}

func TestCostConstructorsValidate(t *testing.T) {
	if _, err := SimplexCost(5, 5, 8); err == nil {
		t.Error("SimplexCost accepted invalid code")
	}
	if _, err := DuplexCost(5, 5, 8); err == nil {
		t.Error("DuplexCost accepted invalid code")
	}
	if _, err := SimplexCost(18, 16, 0); err == nil {
		t.Error("SimplexCost accepted invalid m")
	}
}
