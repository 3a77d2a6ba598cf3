package rs

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/gf"
)

// memoHolds reports whether the code memo has an entry for key.
func memoHolds(key codeKey) bool {
	codes.Lock()
	defer codes.Unlock()
	_, ok := codes.m[key]
	return ok
}

// TestCodeMemoShared: equal parameters return one code, also when
// goroutines race on the first call and on its first decode (which
// builds the packed table), and every part of the key — field, n, k,
// fcr — tells codes apart.
func TestCodeMemoShared(t *testing.T) {
	const goroutines = 8
	got := make([]*Code, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewWithFCR(f8, 57, 41, 3)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := c.NewDecoder().Decode(make([]gf.Elem, c.N()), nil); err != nil {
				t.Error(err)
			}
			got[g] = c
		}()
	}
	wg.Wait()
	for g, c := range got {
		if c == nil || c != got[0] {
			t.Fatalf("goroutine %d got code %p, goroutine 0 got %p", g, c, got[0])
		}
	}

	base := MustNew(f8, 18, 16)
	if c, _ := NewWithFCR(f8, 18, 16, 1); c != base {
		t.Error("New and NewWithFCR(fcr=1) returned different codes for RS(18,16)")
	}
	fresh, err := gf.NewFieldPoly(8, 0x11d)
	if err != nil {
		t.Fatal(err)
	}
	fcr0, err := NewWithFCR(f8, 18, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []struct {
		what string
		c    *Code
	}{
		{"another field", MustNew(fresh, 18, 16)},
		{"another n", MustNew(f8, 20, 16)},
		{"another k", MustNew(f8, 18, 15)},
		{"another fcr", fcr0},
	} {
		if other.c == base {
			t.Errorf("%s returned the RS(18,16) code", other.what)
		}
	}
}

// TestCodeMemoForgetsCollectedCodes: a code that nothing holds leaves
// the memo once the collector has run, and its packed table with it.
func TestCodeMemoForgetsCollectedCodes(t *testing.T) {
	key := codeKey{f: f8, n: 203, k: 190, fcr: 11}
	func() {
		c, err := NewWithFCR(key.f, key.n, key.k, key.fcr)
		if err != nil {
			t.Fatal(err)
		}
		c.batchSyndromeTable()
		if !memoHolds(key) {
			t.Fatal("a new code is missing from the memo")
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for memoHolds(key) {
		if time.Now().After(deadline) {
			t.Fatal("a collected code is still in the memo after 10s")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestCodeMemoStoresNoRefusedCode: a parameter set NewWithFCR refuses
// leaves no entry behind.
func TestCodeMemoStoresNoRefusedCode(t *testing.T) {
	for _, key := range []codeKey{
		{f: nil, n: 18, k: 16, fcr: 1},
		{f: f8, n: 0, k: 0, fcr: 1},
		{f: f8, n: 18, k: 18, fcr: 1},
		{f: f8, n: 256, k: 16, fcr: 1},
		{f: f8, n: 18, k: 16, fcr: -1},
	} {
		if _, err := NewWithFCR(key.f, key.n, key.k, key.fcr); err == nil {
			t.Errorf("NewWithFCR(%d, %d, %d) accepted", key.n, key.k, key.fcr)
		}
		if memoHolds(key) {
			t.Errorf("refused RS(%d,%d) fcr=%d left a memo entry", key.n, key.k, key.fcr)
		}
	}
}
