package rs_test

import (
	"fmt"

	"repro/internal/gf"
	"repro/internal/rs"
)

// ExampleDecoder_Decode walks the full errors-and-erasures cycle on
// the paper's RS(18,16) code.
func ExampleDecoder_Decode() {
	field := gf.MustField(8)
	code := rs.MustNew(field, 18, 16)
	dec := code.NewDecoder()

	data := make([]gf.Elem, 16)
	for i := range data {
		data[i] = gf.Elem(i)
	}
	word, _ := code.Encode(data)

	// An SEU flips bits in one symbol (a random error)...
	word[4] ^= 0x21
	res, _ := dec.Decode(word, nil)
	fmt.Println("corrected symbols:", res.Corrections, "flag:", res.Flag)

	// ...while located permanent faults are erasures: RS(18,16)
	// handles two of them, twice its random-error capability.
	word2, _ := code.Encode(data)
	word2[0], word2[17] = 0xAA, 0xBB
	res2, _ := dec.Decode(word2, []int{0, 17})
	fmt.Println("recovered from erasures:", res2.Corrections == 2)

	// Output:
	// corrected symbols: 1 flag: true
	// recovered from erasures: true
}
