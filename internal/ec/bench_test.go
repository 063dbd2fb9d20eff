package ec

import (
	"testing"

	"repro/internal/gf2"
	"repro/internal/mp"
)

// pointOp is one curve's doubling and mixed addition on fixed finite
// points (q = 2G, r = G), on the field algorithms the census runs.
type pointOp struct {
	curve    string
	dbl, add func()
}

func pointOps() []pointOp {
	var ops []pointOp
	for _, name := range PrimeCurveNames {
		c := NISTPrimeCurve(name, mp.OSNIST)
		g := c.Generator()
		p, q := c.NewPoint(), c.NewPoint()
		c.Dbl(q, c.FromAffine(g))
		ops = append(ops, pointOp{name, func() { c.Dbl(p, q) }, func() { c.AddMixed(p, q, g) }})
	}
	for _, name := range BinaryCurveNames {
		c := NISTBinaryCurve(name, gf2.Comb)
		g := c.Generator()
		p, q := c.NewPoint(), c.NewPoint()
		c.Dbl(q, c.FromAffine(g))
		ops = append(ops, pointOp{name, func() { c.Dbl(p, q) }, func() { c.AddMixed(p, q, g) }})
	}
	return ops
}

// BenchmarkPointOps times the two point formulas a scalar multiplication
// spends its time in, per curve.
func BenchmarkPointOps(b *testing.B) {
	for _, op := range pointOps() {
		b.Run(op.curve+"/Dbl", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				op.dbl()
			}
		})
		b.Run(op.curve+"/AddMixed", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				op.add()
			}
		})
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestPointOpsAllocs pins the point formulas allocation-free: Dbl and
// AddMixed carve their temporaries from stack buffers on every NIST
// curve.
func TestPointOpsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, op := range pointOps() {
		if n := testing.AllocsPerRun(20, op.dbl); n != 0 {
			t.Errorf("%s Dbl = %.1f allocs/op, want 0", op.curve, n)
		}
		if n := testing.AllocsPerRun(20, op.add); n != 0 {
			t.Errorf("%s AddMixed = %.1f allocs/op, want 0", op.curve, n)
		}
	}
}
