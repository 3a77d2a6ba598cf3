package gfpoly

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/gf"
)

var f8 = gf.MustField(8)

func ring() *Ring { return NewRing(f8) }

func randPoly(rng *rand.Rand, maxDeg int) Poly {
	deg := rng.Intn(maxDeg + 1)
	p := make(Poly, deg+1)
	for i := range p {
		p[i] = gf.Elem(rng.Intn(f8.Size()))
	}
	return trim(p)
}

func polyCfg(seed int64, maxDeg int) *quick.Config {
	rng := rand.New(rand.NewSource(seed))
	return &quick.Config{
		MaxCount: 800,
		Rand:     rng,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(randPoly(r, maxDeg))
			}
		},
	}
}

func TestDegreeAndZero(t *testing.T) {
	if !Zero().IsZero() {
		t.Error("Zero() not zero")
	}
	if Zero().Degree() != -1 {
		t.Error("zero degree != -1")
	}
	if One().Degree() != 0 {
		t.Error("One degree != 0")
	}
	p := Poly{1, 2, 0, 0}
	if p.Degree() != 1 {
		t.Errorf("Degree = %d, want 1", p.Degree())
	}
	if Monomial(3, 5).Degree() != 3 {
		t.Error("Monomial degree wrong")
	}
	if Monomial(3, 0).Degree() != -1 {
		t.Error("zero Monomial should be zero poly")
	}
}

func TestCoeffAndLead(t *testing.T) {
	p := Poly{7, 0, 3}
	if p.Coeff(0) != 7 || p.Coeff(1) != 0 || p.Coeff(2) != 3 {
		t.Error("Coeff wrong")
	}
	if p.Coeff(5) != 0 || p.Coeff(-1) != 0 {
		t.Error("out-of-range Coeff should be 0")
	}
	if p.Coeff(p.Degree()) != 3 {
		t.Error("lead coefficient wrong")
	}
	if z := Zero(); z.Coeff(z.Degree()) != 0 {
		t.Error("lead coefficient of zero poly should be 0")
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		p    Poly
		want string
	}{
		{nil, "0"},
		{Poly{1}, "1"},
		{Poly{0, 1}, "x"},
		{Poly{0, 3}, "3x"},
		{Poly{1, 0, 1}, "x^2 + 1"},
		{Poly{2, 1, 5}, "5x^2 + x + 2"},
	}
	for _, c := range cases {
		if got := c.p.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", []gf.Elem(c.p), got, c.want)
		}
	}
}

func TestAddProperties(t *testing.T) {
	r := ring()
	comm := func(p, q Poly) bool { return r.Add(p, q).Equal(r.Add(q, p)) }
	if err := quick.Check(comm, polyCfg(1, 12)); err != nil {
		t.Errorf("add commutativity: %v", err)
	}
	selfCancel := func(p Poly) bool { return r.Add(p, p).IsZero() }
	if err := quick.Check(selfCancel, polyCfg(2, 12)); err != nil {
		t.Errorf("p+p=0: %v", err)
	}
	zeroIdent := func(p Poly) bool { return r.Add(p, Zero()).Equal(p) }
	if err := quick.Check(zeroIdent, polyCfg(3, 12)); err != nil {
		t.Errorf("p+0=p: %v", err)
	}
}

func TestMulProperties(t *testing.T) {
	r := ring()
	comm := func(p, q Poly) bool { return r.Mul(p, q).Equal(r.Mul(q, p)) }
	if err := quick.Check(comm, polyCfg(4, 8)); err != nil {
		t.Errorf("mul commutativity: %v", err)
	}
	assoc := func(p, q, s Poly) bool {
		return r.Mul(r.Mul(p, q), s).Equal(r.Mul(p, r.Mul(q, s)))
	}
	if err := quick.Check(assoc, polyCfg(5, 6)); err != nil {
		t.Errorf("mul associativity: %v", err)
	}
	dist := func(p, q, s Poly) bool {
		return r.Mul(p, r.Add(q, s)).Equal(r.Add(r.Mul(p, q), r.Mul(p, s)))
	}
	if err := quick.Check(dist, polyCfg(6, 6)); err != nil {
		t.Errorf("distributivity: %v", err)
	}
	oneIdent := func(p Poly) bool { return r.Mul(p, One()).Equal(p) }
	if err := quick.Check(oneIdent, polyCfg(7, 10)); err != nil {
		t.Errorf("p*1=p: %v", err)
	}
	degreeAdds := func(p, q Poly) bool {
		if p.IsZero() || q.IsZero() {
			return r.Mul(p, q).IsZero()
		}
		return r.Mul(p, q).Degree() == p.Degree()+q.Degree()
	}
	if err := quick.Check(degreeAdds, polyCfg(8, 10)); err != nil {
		t.Errorf("deg(pq)=deg p+deg q: %v", err)
	}
}

func TestEvalIsRingHom(t *testing.T) {
	r := ring()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		p := randPoly(rng, 10)
		q := randPoly(rng, 10)
		x := gf.Elem(rng.Intn(f8.Size()))
		if r.Eval(r.Add(p, q), x) != r.F.Add(r.Eval(p, x), r.Eval(q, x)) {
			t.Fatal("Eval not additive")
		}
		if r.Eval(r.Mul(p, q), x) != r.F.Mul(r.Eval(p, x), r.Eval(q, x)) {
			t.Fatal("Eval not multiplicative")
		}
	}
}

func TestEvalKnown(t *testing.T) {
	r := ring()
	// p(x) = x^2 + 3x + 2 at x=1: 1 ^ 3 ^ 2 = 0 in GF(2^8).
	p := Poly{2, 3, 1}
	if got := r.Eval(p, 1); got != 0 {
		t.Errorf("Eval = %d, want 0", got)
	}
	if got := r.Eval(p, 0); got != 2 {
		t.Errorf("Eval(0) = %d, want constant term 2", got)
	}
	if got := r.Eval(nil, 17); got != 0 {
		t.Errorf("Eval(zero poly) = %d", got)
	}
}

func TestDivModIdentity(t *testing.T) {
	r := ring()
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		p := randPoly(rng, 20)
		d := randPoly(rng, 8)
		if d.IsZero() {
			continue
		}
		quo, rem := r.DivMod(p, d)
		if !rem.IsZero() && rem.Degree() >= d.Degree() {
			t.Fatalf("rem degree %d >= divisor degree %d", rem.Degree(), d.Degree())
		}
		recon := r.Add(r.Mul(quo, d), rem)
		if !recon.Equal(p) {
			t.Fatalf("quo*d + rem != p:\n p=%v\n d=%v\n quo=%v rem=%v", p, d, quo, rem)
		}
	}
}

func TestDivModByZeroPanics(t *testing.T) {
	r := ring()
	defer func() {
		if recover() == nil {
			t.Error("DivMod by zero did not panic")
		}
	}()
	r.DivMod(Poly{1, 2}, Zero())
}

func TestModXPow(t *testing.T) {
	r := ring()
	p := Poly{1, 2, 3, 4, 5}
	if got := r.ModXPow(p, 2); !got.Equal(Poly{1, 2}) {
		t.Errorf("ModXPow = %v", got)
	}
	if got := r.ModXPow(p, 10); !got.Equal(p) {
		t.Errorf("ModXPow with large k should be identity, got %v", got)
	}
	if got := r.ModXPow(p, 0); !got.IsZero() {
		t.Errorf("ModXPow(p,0) = %v, want 0", got)
	}
}

func TestMulXPow(t *testing.T) {
	r := ring()
	p := Poly{1, 2}
	got := r.MulXPow(p, 3)
	if !got.Equal(Poly{0, 0, 0, 1, 2}) {
		t.Errorf("MulXPow = %v", got)
	}
	if r.MulXPow(Zero(), 4) != nil {
		t.Error("MulXPow of zero should be zero")
	}
	// Consistency with Mul by monomial.
	if !got.Equal(r.Mul(p, Monomial(3, 1))) {
		t.Error("MulXPow differs from Mul by x^3")
	}
}

func TestDerivLeibnizQuick(t *testing.T) {
	r := ring()
	// Formal derivative satisfies (pq)' = p'q + pq'.
	leibniz := func(p, q Poly) bool {
		lhs := r.Deriv(r.Mul(p, q))
		rhs := r.Add(r.Mul(r.Deriv(p), q), r.Mul(p, r.Deriv(q)))
		return lhs.Equal(rhs)
	}
	if err := quick.Check(leibniz, polyCfg(11, 8)); err != nil {
		t.Errorf("Leibniz rule: %v", err)
	}
}

func TestDerivKnown(t *testing.T) {
	r := ring()
	// d/dx (x^3 + x^2 + x + 1) = 3x^2 + 2x + 1 -> in char 2: x^2 + 1
	// (even exponents vanish: derivative keeps odd-degree coefficients).
	p := Poly{1, 1, 1, 1}
	want := Poly{1, 0, 1}
	if got := r.Deriv(p); !got.Equal(want) {
		t.Errorf("Deriv = %v, want %v", got, want)
	}
	if r.Deriv(Poly{5}) != nil {
		t.Error("derivative of constant should be zero")
	}
}

func TestFromRoots(t *testing.T) {
	r := ring()
	roots := []gf.Elem{1, 2, 3}
	p := r.FromRoots(roots)
	if p.Degree() != 3 {
		t.Fatalf("degree = %d, want 3", p.Degree())
	}
	if p.Coeff(p.Degree()) != 1 {
		t.Error("FromRoots should be monic")
	}
	for _, root := range roots {
		if r.Eval(p, root) != 0 {
			t.Errorf("root %d not a root", root)
		}
	}
	// Non-roots must not evaluate to zero (all roots distinct here).
	if r.Eval(p, 4) == 0 {
		t.Error("4 should not be a root")
	}
	if !r.FromRoots(nil).Equal(One()) {
		t.Error("FromRoots(nil) != 1")
	}
}

func TestLocatorFromPositions(t *testing.T) {
	r := ring()
	positions := []int{0, 5, 17}
	loc := r.LocatorFromPositions(positions)
	if loc.Degree() != len(positions) {
		t.Fatalf("degree = %d, want %d", loc.Degree(), len(positions))
	}
	// Roots must be alpha^{-pos}.
	for _, pos := range positions {
		root := r.F.Exp(-pos)
		if r.Eval(loc, root) != 0 {
			t.Errorf("alpha^-%d is not a root", pos)
		}
	}
	if !r.LocatorFromPositions(nil).Equal(One()) {
		t.Error("empty locator != 1")
	}
}

func TestRoots(t *testing.T) {
	r := ring()
	p := r.FromRoots([]gf.Elem{7, 42})
	roots := r.Roots(p)
	if len(roots) != 2 || roots[0] != 7 || roots[1] != 42 {
		t.Errorf("Roots = %v, want [7 42]", roots)
	}
	if r.Roots(Zero()) != nil {
		t.Error("Roots of zero poly should be nil")
	}
	if got := r.Roots(One()); len(got) != 0 {
		t.Errorf("Roots of 1 = %v, want none", got)
	}
}

func TestScale(t *testing.T) {
	r := ring()
	p := Poly{1, 2, 3}
	if !r.Scale(p, 1).Equal(p) {
		t.Error("Scale by 1 not identity")
	}
	if r.Scale(p, 0) != nil {
		t.Error("Scale by 0 not zero")
	}
	got := r.Scale(p, 2)
	want := Poly{f8.Mul(1, 2), f8.Mul(2, 2), f8.Mul(3, 2)}
	if !got.Equal(want) {
		t.Errorf("Scale = %v, want %v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := Poly{1, 2, 3}
	q := p.Clone()
	q[0] = 99
	if p[0] != 1 {
		t.Error("Clone aliases original")
	}
	if Zero().Clone() != nil {
		t.Error("Clone of zero should be nil")
	}
}

func BenchmarkMulDeg20(b *testing.B) {
	r := ring()
	rng := rand.New(rand.NewSource(20))
	p := randPoly(rng, 20)
	q := randPoly(rng, 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Mul(p, q)
	}
}

func BenchmarkEvalDeg36(b *testing.B) {
	r := ring()
	rng := rand.New(rand.NewSource(21))
	p := randPoly(rng, 36)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Eval(p, 57)
	}
}
