package sim

import (
	"slices"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf2"
	"repro/internal/mp"
)

// TestCurveTable checks every row of the curve table against the curve
// internal/ec constructs, on every multiplication algorithm of its
// family, and pins the family rule, Figure 7.7's security pairing (the
// prime and binary curve of each level) and the levels' strengths.
func TestCurveTable(t *testing.T) {
	if got, want := CurveNames(PrimeFamily), ec.PrimeCurveNames; !slices.Equal(got, want) {
		t.Errorf("prime curves %v, want %v", got, want)
	}
	if got, want := CurveNames(BinaryFamily), ec.BinaryCurveNames; !slices.Equal(got, want) {
		t.Errorf("binary curves %v, want %v", got, want)
	}
	type sizes struct{ k, bits, nbits int }
	for _, row := range curveTable {
		got := sizes{row.K, row.Bits, row.NBits}
		var want []sizes
		if row.Family == PrimeFamily {
			for _, alg := range []mp.MulAlg{mp.OSNIST, mp.PSNIST, mp.CIOS, mp.FIPS} {
				c := ec.NISTPrimeCurve(row.Name, alg)
				want = append(want, sizes{c.F.K, c.F.Bits, c.NBits})
			}
		} else {
			for _, alg := range []gf2.MulAlg{gf2.Comb, gf2.CLMul} {
				c := ec.NISTBinaryCurve(row.Name, alg)
				want = append(want, sizes{c.F.K, c.F.M, c.NBits})
			}
		}
		for _, w := range want {
			if got != w {
				t.Errorf("%s: table sizes %+v, constructed curve %+v", row.Name, got, w)
			}
		}
		if c, ok := LookupCurve(row.Name); !ok || c != row {
			t.Errorf("LookupCurve(%s) = %+v, %v", row.Name, c, ok)
		}
	}
	if _, ok := LookupCurve("P-999"); ok {
		t.Error("LookupCurve accepts P-999")
	}
	if IsPrimeCurve("P-999") {
		t.Error("IsPrimeCurve accepts P-999")
	}

	wantPairs := [][2]string{
		{"P-192", "B-163"},
		{"P-224", "B-233"},
		{"P-256", "B-283"},
		{"P-384", "B-409"},
		{"P-521", "B-571"},
	}
	if got := SecurityPairs(); !slices.Equal(got, wantPairs) {
		t.Errorf("security pairs %v, want %v", got, wantPairs)
	}
	wantBits := []int{96, 112, 128, 192, 256}
	for i, pair := range wantPairs {
		for _, name := range pair {
			if IsPrimeCurve(name) != (name == pair[0]) {
				t.Errorf("IsPrimeCurve(%s) = %t", name, IsPrimeCurve(name))
			}
			c, _ := LookupCurve(name)
			if c.Level != i+1 || c.SecurityBits != wantBits[i] {
				t.Errorf("%s: level %d at %d bits, want %d at %d", name, c.Level, c.SecurityBits, i+1, wantBits[i])
			}
		}
	}
}
