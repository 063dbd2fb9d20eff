package ec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gf2"
	"repro/internal/mp"
)

// Property-based group-law tests: the curve operations must satisfy the
// Abelian-group axioms of Section 2.1.2 on random points.

func randomPrimePoint(r *rand.Rand, c *PrimeCurve) *AffinePoint {
	return c.ScalarMult(randScalar(r, c.N), c.Generator())
}

func TestPropPrimeCommutativity(t *testing.T) {
	c := NISTPrimeCurve("P-224", mp.PSNIST)
	r := rand.New(rand.NewSource(40))
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		p := randomPrimePoint(rr, c)
		q := randomPrimePoint(rr, c)
		pq := c.AddAffine(p, q)
		qp := c.AddAffine(q, p)
		return pq.Inf == qp.Inf && mp.Cmp(pq.X, qp.X) == 0 && mp.Cmp(pq.Y, qp.Y) == 0
	}, &quick.Config{MaxCount: 15})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropPrimeAssociativity(t *testing.T) {
	c := NISTPrimeCurve("P-192", mp.OSNIST)
	r := rand.New(rand.NewSource(41))
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		p := randomPrimePoint(rr, c)
		q := randomPrimePoint(rr, c)
		s := randomPrimePoint(rr, c)
		l := c.AddAffine(c.AddAffine(p, q), s)
		rt := c.AddAffine(p, c.AddAffine(q, s))
		return l.Inf == rt.Inf && mp.Cmp(l.X, rt.X) == 0 && mp.Cmp(l.Y, rt.Y) == 0
	}, &quick.Config{MaxCount: 10})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropPrimeInverseAndIdentity(t *testing.T) {
	c := NISTPrimeCurve("P-256", mp.PSNIST)
	r := rand.New(rand.NewSource(42))
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		p := randomPrimePoint(rr, c)
		// P + (-P) = O and P + O = P.
		if !c.AddAffine(p, c.NegAffine(p)).Inf {
			return false
		}
		o := &AffinePoint{X: mp.New(c.F.K), Y: mp.New(c.F.K), Inf: true}
		s := c.AddAffine(p, o)
		return mp.Cmp(s.X, p.X) == 0 && mp.Cmp(s.Y, p.Y) == 0
	}, &quick.Config{MaxCount: 15})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropScalarDistributivity(t *testing.T) {
	// (a+b)G = aG + bG — links scalar multiplication to the group law.
	c := NISTPrimeCurve("P-192", mp.PSNIST)
	r := rand.New(rand.NewSource(43))
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		a := randScalar(rr, c.N)
		b := randScalar(rr, c.N)
		sum := make(mp.Int, len(c.N))
		if mp.Add(sum, a, b) != 0 || mp.Cmp(sum, c.N) >= 0 {
			mp.Sub(sum, sum, c.N)
		}
		g := c.Generator()
		l := c.ScalarMult(sum, g)
		rt := c.AddAffine(c.ScalarMult(a, g), c.ScalarMult(b, g))
		return l.Inf == rt.Inf && (l.Inf || mp.Cmp(l.X, rt.X) == 0 && mp.Cmp(l.Y, rt.Y) == 0)
	}, &quick.Config{MaxCount: 6})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropBinaryGroupLaws(t *testing.T) {
	c := NISTBinaryCurve("B-163", gf2.CLMul)
	r := rand.New(rand.NewSource(44))
	g := c.Generator()
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		p := c.ScalarMult(randScalar(rr, mp.Int(c.N)), g)
		q := c.ScalarMult(randScalar(rr, mp.Int(c.N)), g)
		// Commutativity.
		pq := c.AddAffine(p, q)
		qp := c.AddAffine(q, p)
		if pq.Inf != qp.Inf || !gf2.Equal(pq.X, qp.X) || !gf2.Equal(pq.Y, qp.Y) {
			return false
		}
		// Inverse.
		if !c.AddAffine(p, c.NegAffine(p)).Inf {
			return false
		}
		// Closure: the sum stays on the curve.
		return c.OnCurve(pq)
	}, &quick.Config{MaxCount: 8})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBatchToAffineMatchesSingle(t *testing.T) {
	c := NISTPrimeCurve("P-256", mp.PSNIST)
	r := rand.New(rand.NewSource(45))
	var js []*JacobianPoint
	var want []*AffinePoint
	for i := 0; i < 7; i++ {
		j := c.FromAffine(c.Generator())
		for d := 0; d < i+1; d++ {
			c.Dbl(j, j)
		}
		js = append(js, j)
		want = append(want, c.ToAffine(j))
	}
	// Include an infinity in the batch.
	js = append(js, c.NewPoint())
	got := c.BatchToAffine(js)
	for i := range want {
		if got[i].Inf != want[i].Inf || mp.Cmp(got[i].X, want[i].X) != 0 ||
			mp.Cmp(got[i].Y, want[i].Y) != 0 {
			t.Fatalf("batch conversion differs at %d", i)
		}
	}
	if !got[len(got)-1].Inf {
		t.Error("batch conversion mishandled infinity")
	}
	_ = r
}

func TestBinaryBatchToAffineMatchesSingle(t *testing.T) {
	c := NISTBinaryCurve("B-233", gf2.CLMul)
	var lds []*LDPoint
	var want []*BinaryAffinePoint
	for i := 0; i < 5; i++ {
		j := c.FromAffine(c.Generator())
		for d := 0; d < i+1; d++ {
			c.Dbl(j, j)
		}
		lds = append(lds, j)
		want = append(want, c.ToAffine(j))
	}
	got := c.BatchToAffine(lds)
	for i := range want {
		if !gf2.Equal(got[i].X, want[i].X) || !gf2.Equal(got[i].Y, want[i].Y) {
			t.Fatalf("binary batch conversion differs at %d", i)
		}
	}
}
