// Package gf implements arithmetic over the finite fields GF(2^m) for
// 2 <= m <= 16.
//
// A field is described by a primitive polynomial p(x) of degree m over
// GF(2); elements are the residues of binary polynomials modulo p(x),
// represented as the unsigned integers 0 .. 2^m-1 whose bit i is the
// coefficient of x^i. Addition is bitwise XOR; multiplication is
// carried out through logarithm/antilogarithm tables indexed by the
// powers of the primitive element alpha = x.
//
// The package is the arithmetic substrate for the Reed-Solomon codec
// in internal/rs, which in turn underpins the fault-tolerant memory
// systems analyzed by the DATE'05 paper reproduced by this repository.
// Symbol widths used there are m = 8 (byte-organized memories), but
// the full range is supported and tested so other memory organizations
// can be explored.
package gf

import (
	"fmt"
	"sync"
)

// Elem is an element of a GF(2^m) field, valid in the range
// 0 .. 2^m-1 for the field it belongs to. Elements are plain values;
// all arithmetic is provided by the Field that created them.
type Elem uint16

// MaxM and MinM bound the supported field extensions. GF(2^16) tables
// occupy 512 KiB which is still comfortably cacheable; larger fields
// are outside the scope of memory-symbol coding.
const (
	MinM = 2
	MaxM = 16
)

// defaultPoly lists a conventional primitive polynomial for each
// supported m (index = m). The values are the standard polynomials
// used by CCSDS/DVB-style codecs; e.g. 0x11d is
// x^8 + x^4 + x^3 + x^2 + 1 for GF(256).
var defaultPoly = [MaxM + 1]uint32{
	2:  0x7,
	3:  0xb,
	4:  0x13,
	5:  0x25,
	6:  0x43,
	7:  0x89,
	8:  0x11d,
	9:  0x211,
	10: 0x409,
	11: 0x805,
	12: 0x1053,
	13: 0x201b,
	14: 0x4443,
	15: 0x8003,
	16: 0x1100b,
}

// Field holds the precomputed log/antilog tables for one GF(2^m).
// A Field is immutable after construction and safe for concurrent use.
type Field struct {
	m    int    // extension degree
	size int    // 2^m, number of elements
	n    int    // 2^m - 1, order of the multiplicative group
	poly uint32 // primitive polynomial including the x^m term

	// exp[i] = alpha^i for i in 0 .. 2n-1 (doubled so products of two
	// logarithms index without an explicit modulo reduction).
	exp []Elem
	// log[e] = i such that alpha^i = e, for e in 1 .. n. log[0] is a
	// sentinel that is never read by valid code paths.
	log []uint16
	// mul is the full multiplication table for small fields
	// (m <= mulTableMaxM): mul[int(a)<<m | int(b)] = a*b. It turns a
	// product into a single load, which is what the batch kernels and
	// the Reed-Solomon hot loops want; for larger fields it stays nil
	// and the log/exp path is used instead.
	mul []Elem
}

// mulTableMaxM bounds the fields for which the full multiplication
// table is precomputed. At m = 8 the table is 2^16 elements = 128 KiB,
// still cache-friendly; one step further would already be 8 MiB.
const mulTableMaxM = 8

// shared holds the field NewField returns for each m, built on the
// first call for that m. A Field is immutable, so every code, simulator
// and job in a process can read the same tables (128 KiB at m = 8).
var shared [MaxM + 1]struct {
	once sync.Once
	f    *Field
	err  error
}

// NewField returns the field GF(2^m) built from the package's default
// primitive polynomial for that m. The field is shared: it is built
// once per process, and every call with the same m returns the same
// immutable *Field.
func NewField(m int) (*Field, error) {
	if m < MinM || m > MaxM {
		return nil, fmt.Errorf("gf: unsupported extension degree m=%d (want %d..%d)", m, MinM, MaxM)
	}
	s := &shared[m]
	s.once.Do(func() { s.f, s.err = NewFieldPoly(m, defaultPoly[m]) })
	return s.f, s.err
}

// MustField is NewField for static configuration; it panics on error.
// It returns the same process-shared field as NewField.
func MustField(m int) *Field {
	f, err := NewField(m)
	if err != nil {
		panic(err)
	}
	return f
}

// NewFieldPoly builds a fresh field GF(2^m) defined by the given
// primitive polynomial (bit i of poly is the coefficient of x^i, and
// bit m must be set). The polynomial is verified to be primitive by
// checking that alpha = x generates the full multiplicative group; a
// merely irreducible but non-primitive polynomial is rejected.
func NewFieldPoly(m int, poly uint32) (*Field, error) {
	if m < MinM || m > MaxM {
		return nil, fmt.Errorf("gf: unsupported extension degree m=%d (want %d..%d)", m, MinM, MaxM)
	}
	if poly>>uint(m) != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x does not have degree %d", poly, m)
	}
	f := &Field{
		m:    m,
		size: 1 << uint(m),
		n:    1<<uint(m) - 1,
		poly: poly,
	}
	f.exp = make([]Elem, 2*f.n)
	f.log = make([]uint16, f.size)

	x := uint32(1)
	for i := 0; i < f.n; i++ {
		if x == 1 && i != 0 {
			return nil, fmt.Errorf("gf: polynomial %#x is not primitive over GF(2^%d): alpha has order %d", poly, m, i)
		}
		f.exp[i] = Elem(x)
		f.log[x] = uint16(i)
		x <<= 1
		if x&(1<<uint(m)) != 0 {
			x ^= poly
		}
	}
	if x != 1 {
		return nil, fmt.Errorf("gf: polynomial %#x is not primitive over GF(2^%d)", poly, m)
	}
	copy(f.exp[f.n:], f.exp[:f.n])
	if m <= mulTableMaxM {
		f.mul = make([]Elem, f.size*f.size)
		for a := 1; a < f.size; a++ {
			row := f.mul[a<<uint(m):]
			la := int(f.log[a])
			for b := 1; b < f.size; b++ {
				row[b] = f.exp[la+int(f.log[b])]
			}
		}
	}
	return f, nil
}

// M returns the extension degree m of the field.
func (f *Field) M() int { return f.m }

// Size returns the number of field elements, 2^m.
func (f *Field) Size() int { return f.size }

// N returns the order of the multiplicative group, 2^m - 1. This is
// also the maximum codeword length of a (non-extended) Reed-Solomon
// code over the field.
func (f *Field) N() int { return f.n }

// Valid reports whether e is a representable element of this field.
func (f *Field) Valid(e Elem) bool { return int(e) < f.size }

// Mul returns the product a*b.
func (f *Field) Mul(a, b Elem) Elem {
	if a == 0 || b == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+int(f.log[b])]
}

// MulRow returns the row view r of the multiplication table for the
// constant c: r[x] = c*x for every field element x. It returns nil for
// fields too large to carry a precomputed table (m > 8); callers fall
// back to Mul or the log-domain kernels. The returned slice is shared
// and must not be modified.
//
// A row view turns "multiply a stream of symbols by one constant" —
// the inner operation of LFSR encoding, syndrome accumulation and
// polynomial scaling — into one load per symbol with no branches.
func (f *Field) MulRow(c Elem) []Elem {
	if f.mul == nil {
		return nil
	}
	i := int(c) << uint(f.m)
	return f.mul[i : i+f.size : i+f.size]
}

// AddMulSlice sets dst[i] ^= c * src[i] for every i — the GF(2^m)
// multiply-accumulate at the heart of polynomial long division and
// Berlekamp-Massey updates. src must not be longer than dst; excess
// dst elements are untouched. It performs no allocation.
func (f *Field) AddMulSlice(dst, src []Elem, c Elem) {
	if len(src) > len(dst) {
		panic("gf: AddMulSlice source longer than destination")
	}
	if c == 0 {
		return
	}
	if row := f.MulRow(c); row != nil {
		for i, s := range src {
			dst[i] ^= row[s]
		}
		return
	}
	lc := int(f.log[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= f.exp[lc+int(f.log[s])]
		}
	}
}

// Div returns a/b. Division by zero panics, mirroring integer division;
// callers in decoding paths guard explicitly.
func (f *Field) Div(a, b Elem) Elem {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	return f.exp[int(f.log[a])+f.n-int(f.log[b])]
}

// Inv returns the multiplicative inverse of a. It panics when a is 0.
func (f *Field) Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return f.exp[f.n-int(f.log[a])]
}

// Exp returns alpha^i for any integer i (negative exponents allowed).
func (f *Field) Exp(i int) Elem {
	i %= f.n
	if i < 0 {
		i += f.n
	}
	return f.exp[i]
}

// Log returns the discrete logarithm of a to base alpha, in 0..n-1.
// It panics when a is 0, which has no logarithm.
func (f *Field) Log(a Elem) int {
	if a == 0 {
		panic("gf: logarithm of zero")
	}
	return int(f.log[a])
}

// Pow returns a^k for any integer k (with 0^0 = 1 by convention and
// 0^k = 0 for k > 0; 0^k for k < 0 panics).
func (f *Field) Pow(a Elem, k int) Elem {
	if a == 0 {
		if k == 0 {
			return 1
		}
		if k < 0 {
			panic("gf: negative power of zero")
		}
		return 0
	}
	l := int(f.log[a]) % f.n
	e := (l * (k % f.n)) % f.n
	if e < 0 {
		e += f.n
	}
	return f.exp[e]
}

// String identifies the field, e.g. "GF(2^8, poly=0x11d)".
func (f *Field) String() string {
	return fmt.Sprintf("GF(2^%d, poly=%#x)", f.m, f.poly)
}
