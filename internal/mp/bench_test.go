package mp

import (
	"math/rand"
	"testing"
)

// The host path of a prime-field census: one reduced multiplication or
// squaring per op on the census implementation (OSNIST), per NIST field.

func BenchmarkFieldMul(b *testing.B) {
	for _, name := range PrimeFieldNames {
		b.Run(name, func(b *testing.B) {
			f := NISTField(name, OSNIST)
			r := rand.New(rand.NewSource(1))
			x, y, z := randMod(r, f.P), randMod(r, f.P), New(f.K)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Mul(z, x, y)
			}
		})
	}
}

func BenchmarkFieldSqr(b *testing.B) {
	for _, name := range PrimeFieldNames {
		b.Run(name, func(b *testing.B) {
			f := NISTField(name, OSNIST)
			x, z := randMod(rand.New(rand.NewSource(1)), f.P), New(f.K)
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

// TestFieldAllocs pins the NIST-reduction host path allocation-free: a
// reduced multiplication or squaring on every NIST field, operand or
// product scanning, runs on stack scratch.
func TestFieldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, name := range PrimeFieldNames {
		for _, alg := range []MulAlg{OSNIST, PSNIST} {
			f := NISTField(name, alg)
			r := rand.New(rand.NewSource(1))
			x, y, z := randMod(r, f.P), randMod(r, f.P), New(f.K)
			if n := testing.AllocsPerRun(20, func() { f.Mul(z, x, y) }); n != 0 {
				t.Errorf("%s/%v Mul = %.1f allocs/op, want 0", name, alg, n)
			}
			if n := testing.AllocsPerRun(20, func() { f.Sqr(z, x) }); n != 0 {
				t.Errorf("%s/%v Sqr = %.1f allocs/op, want 0", name, alg, n)
			}
		}
	}
}

// TestMontgomeryFieldAllocs pins the Montgomery host path
// allocation-free: a CIOS or FIPS multiplication or squaring on every
// NIST field, P-521 included, runs its Montgomery multiplications on
// stack scratch.
func TestMontgomeryFieldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, name := range PrimeFieldNames {
		for _, alg := range []MulAlg{CIOS, FIPS} {
			f := NISTField(name, alg)
			r := rand.New(rand.NewSource(1))
			x, y, z := randMod(r, f.P), randMod(r, f.P), New(f.K)
			if n := testing.AllocsPerRun(20, func() { f.Mul(z, x, y) }); n != 0 {
				t.Errorf("%s/%v Mul = %.1f allocs/op, want 0", name, alg, n)
			}
			if n := testing.AllocsPerRun(20, func() { f.Sqr(z, x) }); n != 0 {
				t.Errorf("%s/%v Sqr = %.1f allocs/op, want 0", name, alg, n)
			}
		}
	}
}
