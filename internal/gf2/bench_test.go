package gf2

import (
	"math/rand"
	"testing"
)

// The host path of a binary-field census: one reduced multiplication or
// squaring per op on the census implementation (Comb), per NIST field.

func BenchmarkFieldMul(b *testing.B) {
	for _, name := range BinaryFieldNames {
		b.Run(name, func(b *testing.B) {
			f := NISTField(name, Comb)
			r := rand.New(rand.NewSource(1))
			x, y, z := randElem(r, f), randElem(r, f), New(f.K)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Mul(z, x, y)
			}
		})
	}
}

func BenchmarkFieldSqr(b *testing.B) {
	for _, name := range BinaryFieldNames {
		b.Run(name, func(b *testing.B) {
			f := NISTField(name, Comb)
			x, z := randElem(rand.New(rand.NewSource(1)), f), New(f.K)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Sqr(z, x)
			}
		})
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestFieldAllocs pins the census host path allocation-free: a reduced
// multiplication or squaring on every NIST field runs on stack scratch.
func TestFieldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, name := range BinaryFieldNames {
		f := NISTField(name, Comb)
		r := rand.New(rand.NewSource(1))
		x, y, z := randElem(r, f), randElem(r, f), New(f.K)
		if n := testing.AllocsPerRun(20, func() { f.Mul(z, x, y) }); n != 0 {
			t.Errorf("%s Mul = %.1f allocs/op, want 0", name, n)
		}
		if n := testing.AllocsPerRun(20, func() { f.Sqr(z, x) }); n != 0 {
			t.Errorf("%s Sqr = %.1f allocs/op, want 0", name, n)
		}
	}
}
