package gf

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewFieldAllSupportedM(t *testing.T) {
	for m := MinM; m <= MaxM; m++ {
		f, err := NewField(m)
		if err != nil {
			t.Fatalf("NewField(%d): %v", m, err)
		}
		if f.M() != m {
			t.Errorf("m=%d: M() = %d", m, f.M())
		}
		if f.Size() != 1<<uint(m) {
			t.Errorf("m=%d: Size() = %d, want %d", m, f.Size(), 1<<uint(m))
		}
		if f.N() != 1<<uint(m)-1 {
			t.Errorf("m=%d: N() = %d, want %d", m, f.N(), 1<<uint(m)-1)
		}
	}
}

// TestNewFieldShared: NewField returns one field per m, also when
// several goroutines make the first call for every m at once.
func TestNewFieldShared(t *testing.T) {
	clear(shared[:]) // make the calls below the process's first
	const goroutines = 8
	got := make([][MaxM + 1]*Field, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := MinM; m <= MaxM; m++ {
				f, err := NewField(m)
				if err != nil {
					t.Errorf("NewField(%d): %v", m, err)
					return
				}
				got[g][m] = f
			}
		}()
	}
	wg.Wait()
	for m := MinM; m <= MaxM; m++ {
		for g := range got {
			if got[g][m] == nil || got[g][m] != got[0][m] {
				t.Fatalf("m=%d: goroutine %d got field %p, goroutine 0 got %p", m, g, got[g][m], got[0][m])
			}
		}
		if MustField(m) != got[0][m] {
			t.Errorf("m=%d: MustField returned another field than NewField", m)
		}
	}
}

// TestNewFieldPolyFresh: NewFieldPoly builds a field of its own, which
// multiplies exactly like the shared field of the same polynomial.
func TestNewFieldPolyFresh(t *testing.T) {
	f := MustField(8)
	fresh, err := NewFieldPoly(8, 0x11d)
	if err != nil {
		t.Fatal(err)
	}
	if fresh == f {
		t.Fatal("NewFieldPoly(8, 0x11d) returned the shared field")
	}
	for a := 0; a < f.Size(); a++ {
		if !reflect.DeepEqual(fresh.MulRow(Elem(a)), f.MulRow(Elem(a))) {
			t.Fatalf("row %#x of the fresh field's multiplication table differs", a)
		}
		for b := 0; b < f.Size(); b++ {
			if fresh.Mul(Elem(a), Elem(b)) != f.Mul(Elem(a), Elem(b)) {
				t.Fatalf("%#x*%#x differs between the fresh and the shared field", a, b)
			}
		}
	}
}

func TestNewFieldRejectsBadM(t *testing.T) {
	for _, m := range []int{-1, 0, 1, 17, 32} {
		if _, err := NewField(m); err == nil {
			t.Errorf("NewField(%d) succeeded, want error", m)
		}
	}
}

func TestNewFieldPolyRejectsWrongDegree(t *testing.T) {
	if _, err := NewFieldPoly(8, 0x1d); err == nil {
		t.Error("poly without x^8 term accepted")
	}
	if _, err := NewFieldPoly(8, 0x21d); err == nil {
		t.Error("degree-9 poly accepted for m=8")
	}
}

func TestNewFieldPolyRejectsNonPrimitive(t *testing.T) {
	// x^8 + x^4 + x^3 + x + 1 (0x11b, the AES polynomial) is
	// irreducible but NOT primitive: x has order 51, not 255.
	if _, err := NewFieldPoly(8, 0x11b); err == nil {
		t.Error("non-primitive polynomial 0x11b accepted")
	}
	// x^4 + x^3 + x^2 + x + 1 (0x1f) is irreducible over GF(2) but x
	// has order 5 in GF(16), not 15.
	if _, err := NewFieldPoly(4, 0x1f); err == nil {
		t.Error("non-primitive polynomial 0x1f accepted")
	}
	// A reducible polynomial: x^4 + 1 = (x+1)^4.
	if _, err := NewFieldPoly(4, 0x11); err == nil {
		t.Error("reducible polynomial 0x11 accepted")
	}
}

func TestMustFieldPanicsOnBadM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustField(1) did not panic")
		}
	}()
	MustField(1)
}

func TestExpLogRoundTrip(t *testing.T) {
	for _, m := range []int{2, 3, 4, 8, 10} {
		f := MustField(m)
		for e := 1; e < f.Size(); e++ {
			l := f.Log(Elem(e))
			if got := f.Exp(l); got != Elem(e) {
				t.Fatalf("m=%d: Exp(Log(%d)) = %d", m, e, got)
			}
		}
		for i := 0; i < f.N(); i++ {
			e := f.Exp(i)
			if got := f.Log(e); got != i {
				t.Fatalf("m=%d: Log(Exp(%d)) = %d", m, i, got)
			}
		}
	}
}

func TestExpNegativeAndWrap(t *testing.T) {
	f := MustField(8)
	if f.Exp(-1) != f.Inv(f.Exp(1)) {
		t.Errorf("Exp(-1) = %d, want Inv(alpha) = %d", f.Exp(-1), f.Inv(f.Exp(1)))
	}
	if f.Exp(f.N()) != 1 {
		t.Errorf("Exp(n) = %d, want 1", f.Exp(f.N()))
	}
	if f.Exp(2*f.N()+3) != f.Exp(3) {
		t.Errorf("Exp wraparound broken")
	}
}

// mulCarryless computes a*b by schoolbook carry-less multiplication
// followed by reduction modulo the field polynomial: the slow
// reference that the table-driven Mul is checked against.
func mulCarryless(f *Field, a, b Elem) Elem {
	var acc uint32
	aa, bb := uint32(a), uint32(b)
	for bb != 0 {
		if bb&1 != 0 {
			acc ^= aa
		}
		bb >>= 1
		aa <<= 1
	}
	// Reduce acc (degree < 2m-1) modulo poly (degree m).
	for d := 2*f.m - 2; d >= f.m; d-- {
		if acc&(1<<uint(d)) != 0 {
			acc ^= f.poly << uint(d-f.m)
		}
	}
	return Elem(acc)
}

func TestMulAgainstCarryless(t *testing.T) {
	for _, m := range []int{2, 3, 4, 5, 8} {
		f := MustField(m)
		for a := 0; a < f.Size(); a++ {
			for b := 0; b < f.Size(); b++ {
				got := f.Mul(Elem(a), Elem(b))
				want := mulCarryless(f, Elem(a), Elem(b))
				if got != want {
					t.Fatalf("m=%d: Mul(%d,%d) = %d, want %d", m, a, b, got, want)
				}
			}
		}
	}
}

func TestMulAgainstCarrylessLargeFieldsSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []int{12, 16} {
		f := MustField(m)
		for i := 0; i < 20000; i++ {
			a := Elem(rng.Intn(f.Size()))
			b := Elem(rng.Intn(f.Size()))
			if got, want := f.Mul(a, b), mulCarryless(f, a, b); got != want {
				t.Fatalf("m=%d: Mul(%d,%d) = %d, want %d", m, a, b, got, want)
			}
		}
	}
}

// quickElems returns a quick.Config generating valid element pairs for f.
func quickCfg(f *Field, seed int64) *quick.Config {
	rng := rand.New(rand.NewSource(seed))
	return &quick.Config{
		MaxCount: 3000,
		Rand:     rng,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(Elem(r.Intn(f.Size())))
			}
		},
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	for _, m := range []int{3, 8, 11} {
		f := MustField(m)

		assoc := func(a, b, c Elem) bool {
			return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
		}
		if err := quick.Check(assoc, quickCfg(f, 11)); err != nil {
			t.Errorf("m=%d: multiplicative associativity: %v", m, err)
		}

		comm := func(a, b Elem) bool { return f.Mul(a, b) == f.Mul(b, a) }
		if err := quick.Check(comm, quickCfg(f, 12)); err != nil {
			t.Errorf("m=%d: multiplicative commutativity: %v", m, err)
		}

		dist := func(a, b, c Elem) bool {
			return f.Mul(a, b^c) == f.Mul(a, b)^f.Mul(a, c)
		}
		if err := quick.Check(dist, quickCfg(f, 13)); err != nil {
			t.Errorf("m=%d: distributivity: %v", m, err)
		}

		mulIdentity := func(a Elem) bool { return f.Mul(a, 1) == a }
		if err := quick.Check(mulIdentity, quickCfg(f, 15)); err != nil {
			t.Errorf("m=%d: multiplicative identity: %v", m, err)
		}

		invProp := func(a Elem) bool {
			if a == 0 {
				return true
			}
			return f.Mul(a, f.Inv(a)) == 1
		}
		if err := quick.Check(invProp, quickCfg(f, 16)); err != nil {
			t.Errorf("m=%d: inverse: %v", m, err)
		}

		divMul := func(a, b Elem) bool {
			if b == 0 {
				return true
			}
			return f.Mul(f.Div(a, b), b) == a
		}
		if err := quick.Check(divMul, quickCfg(f, 17)); err != nil {
			t.Errorf("m=%d: div/mul round trip: %v", m, err)
		}

		// Frobenius endomorphism: (a+b)^2 = a^2 + b^2.
		frob := func(a, b Elem) bool {
			lhs := f.Mul(a^b, a^b)
			rhs := f.Mul(a, a) ^ f.Mul(b, b)
			return lhs == rhs
		}
		if err := quick.Check(frob, quickCfg(f, 18)); err != nil {
			t.Errorf("m=%d: Frobenius: %v", m, err)
		}
	}
}

func TestPow(t *testing.T) {
	f := MustField(8)
	for _, a := range []Elem{1, 2, 3, 57, 255} {
		acc := Elem(1)
		for k := 0; k < 10; k++ {
			if got := f.Pow(a, k); got != acc {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, k, got, acc)
			}
			acc = f.Mul(acc, a)
		}
	}
	if f.Pow(0, 0) != 1 {
		t.Error("Pow(0,0) != 1")
	}
	if f.Pow(0, 5) != 0 {
		t.Error("Pow(0,5) != 0")
	}
	// Fermat: a^(2^m - 1) = 1 for a != 0.
	for a := 1; a < f.Size(); a++ {
		if f.Pow(Elem(a), f.N()) != 1 {
			t.Fatalf("Fermat fails for a=%d", a)
		}
	}
	// Negative exponent.
	if f.Pow(2, -1) != f.Inv(2) {
		t.Errorf("Pow(2,-1) = %d, want %d", f.Pow(2, -1), f.Inv(2))
	}
}

func TestPowNegativeZeroPanics(t *testing.T) {
	f := MustField(4)
	defer func() {
		if recover() == nil {
			t.Error("Pow(0,-1) did not panic")
		}
	}()
	f.Pow(0, -1)
}

func TestDivByZeroPanics(t *testing.T) {
	f := MustField(4)
	defer func() {
		if recover() == nil {
			t.Error("Div by zero did not panic")
		}
	}()
	f.Div(3, 0)
}

func TestInvZeroPanics(t *testing.T) {
	f := MustField(4)
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) did not panic")
		}
	}()
	f.Inv(0)
}

func TestLogZeroPanics(t *testing.T) {
	f := MustField(4)
	defer func() {
		if recover() == nil {
			t.Error("Log(0) did not panic")
		}
	}()
	f.Log(0)
}

func TestZeroAbsorbs(t *testing.T) {
	f := MustField(8)
	for a := 0; a < f.Size(); a++ {
		if f.Mul(Elem(a), 0) != 0 || f.Mul(0, Elem(a)) != 0 {
			t.Fatalf("zero does not absorb for a=%d", a)
		}
		if a != 0 && f.Div(0, Elem(a)) != 0 {
			t.Fatalf("0/a != 0 for a=%d", a)
		}
	}
}

func TestValid(t *testing.T) {
	f := MustField(4)
	if !f.Valid(15) {
		t.Error("15 should be valid in GF(16)")
	}
	if f.Valid(16) {
		t.Error("16 should be invalid in GF(16)")
	}
}

func TestString(t *testing.T) {
	f := MustField(8)
	if got := f.String(); got != "GF(2^8, poly=0x11d)" {
		t.Errorf("String() = %q", got)
	}
}

func TestMultiplicativeGroupIsCyclic(t *testing.T) {
	// Every nonzero element must appear exactly once among the powers
	// of alpha — this is the primitivity guarantee.
	for _, m := range []int{2, 6, 8} {
		f := MustField(m)
		seen := make(map[Elem]bool, f.N())
		for i := 0; i < f.N(); i++ {
			e := f.Exp(i)
			if e == 0 {
				t.Fatalf("m=%d: alpha^%d = 0", m, i)
			}
			if seen[e] {
				t.Fatalf("m=%d: duplicate power alpha^%d = %d", m, i, e)
			}
			seen[e] = true
		}
		if len(seen) != f.N() {
			t.Fatalf("m=%d: group has %d elements, want %d", m, len(seen), f.N())
		}
	}
}

func BenchmarkMul(b *testing.B) {
	f := MustField(8)
	x := Elem(57)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = f.Mul(x, 113) | 1
	}
	_ = x
}

func BenchmarkMulCarryless(b *testing.B) {
	f := MustField(8)
	x := Elem(57)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = mulCarryless(f, x, 113) | 1
	}
	_ = x
}

func BenchmarkInv(b *testing.B) {
	f := MustField(8)
	x := Elem(57)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x = f.Inv(x) | 1
	}
	_ = x
}

// TestMulRowMatchesMul checks the precomputed row views against Mul on
// a row-table field, and that oversized fields simply opt out.
func TestMulRowMatchesMul(t *testing.T) {
	f := MustField(8)
	for c := 0; c < f.Size(); c++ {
		row := f.MulRow(Elem(c))
		if row == nil {
			t.Fatalf("MulRow(%d) = nil for m=8", c)
		}
		if len(row) != f.Size() {
			t.Fatalf("MulRow(%d) has %d entries, want %d", c, len(row), f.Size())
		}
		for x := 0; x < f.Size(); x++ {
			if row[x] != f.Mul(Elem(c), Elem(x)) {
				t.Fatalf("MulRow(%d)[%d] = %d, want %d", c, x, row[x], f.Mul(Elem(c), Elem(x)))
			}
		}
	}
	big := MustField(12)
	if big.MulRow(3) != nil {
		t.Error("MulRow should be nil for m=12 (no row tables)")
	}
}

// TestBatchKernels checks AddMulSlice against elementwise Mul on
// row-table fields (m=4, m=8) and a log-domain field (m=12).
func TestBatchKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, m := range []int{4, 8, 12} {
		f := MustField(m)
		for trial := 0; trial < 50; trial++ {
			n := 1 + rng.Intn(40)
			src := make([]Elem, n)
			for i := range src {
				src[i] = Elem(rng.Intn(f.Size()))
			}
			c := Elem(rng.Intn(f.Size()))
			acc := make([]Elem, n)
			for i := range acc {
				acc[i] = Elem(rng.Intn(f.Size()))
			}
			want := make([]Elem, n)
			for i := range want {
				want[i] = acc[i] ^ f.Mul(c, src[i])
			}
			f.AddMulSlice(acc, src, c)
			for i := range acc {
				if acc[i] != want[i] {
					t.Fatalf("m=%d AddMulSlice[%d] = %d, want %d", m, i, acc[i], want[i])
				}
			}
		}
	}
}

// TestBatchKernelPanics pins the length-contract panic.
func TestBatchKernelPanics(t *testing.T) {
	f := MustField(8)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("AddMulSlice long source", func() {
		f.AddMulSlice(make([]Elem, 2), make([]Elem, 3), 1)
	})
}

func BenchmarkAddMulSlice(b *testing.B) {
	f := MustField(8)
	src := make([]Elem, 255)
	dst := make([]Elem, 255)
	rng := rand.New(rand.NewSource(22))
	for i := range src {
		src[i] = Elem(rng.Intn(f.Size()))
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.AddMulSlice(dst, src, Elem(i&0xff))
	}
}
