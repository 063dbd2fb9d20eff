package ec

import (
	"math/rand"
	"testing"

	"repro/internal/gf2"
	"repro/internal/mp"
)

func randScalar(r *rand.Rand, n mp.Int) mp.Int {
	bits := n.BitLen()
	topBits := uint(bits % 32)
	for {
		z := mp.New(len(n))
		for i := range z {
			z[i] = r.Uint32()
		}
		for i := (bits + 31) / 32; i < len(z); i++ {
			z[i] = 0
		}
		if topBits != 0 {
			z[(bits-1)/32] &= (1 << topBits) - 1
		}
		if !z.IsZero() && mp.Cmp(z, n) < 0 {
			return z
		}
	}
}

func smallScalar(v uint32, k int) mp.Int {
	z := mp.New(k)
	z[0] = v
	return z
}

func TestPrimeCurveParamsValid(t *testing.T) {
	for _, name := range PrimeCurveNames {
		c := NISTPrimeCurve(name, mp.OSNIST)
		if !c.OnCurve(c.Generator()) {
			t.Errorf("%s: generator not on curve", name)
			continue
		}
		// n*G must be the point at infinity.
		res := c.ScalarMult(c.N, c.Generator())
		if !res.Inf {
			t.Errorf("%s: n*G != infinity", name)
		}
	}
}

func TestBinaryCurveParamsValid(t *testing.T) {
	for _, name := range BinaryCurveNames {
		c := NISTBinaryCurve(name, gf2.CLMul)
		if !c.OnCurve(c.Generator()) {
			t.Errorf("%s: generator not on curve", name)
			continue
		}
		res := c.ScalarMult(mp.Int(c.N), c.Generator())
		if !res.Inf {
			t.Errorf("%s: n*G != infinity", name)
		}
	}
}

func TestPrimeDblAddAgainstAffine(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, name := range PrimeCurveNames {
		c := NISTPrimeCurve(name, mp.PSNIST)
		g := c.Generator()
		// Build small multiples both ways and compare.
		jac := c.FromAffine(g)
		aff := g
		for i := 2; i <= 20; i++ {
			c.AddMixed(jac, jac, g)
			aff = c.AddAffine(aff, g)
			got := c.ToAffine(jac)
			if got.Inf != aff.Inf || mp.Cmp(got.X, aff.X) != 0 || mp.Cmp(got.Y, aff.Y) != 0 {
				t.Fatalf("%s: %d*G mismatch between Jacobian and affine", name, i)
			}
			if !c.OnCurve(got) {
				t.Fatalf("%s: %d*G not on curve", name, i)
			}
		}
		// Doubling: 2*(kG) computed by Dbl vs affine add.
		for i := 0; i < 5; i++ {
			k := randScalar(r, c.N)
			p := c.ScalarMult(k, g)
			d := c.NewPoint()
			c.Dbl(d, c.FromAffine(p))
			got := c.ToAffine(d)
			want := c.AddAffine(p, p)
			if got.Inf != want.Inf || mp.Cmp(got.X, want.X) != 0 || mp.Cmp(got.Y, want.Y) != 0 {
				t.Fatalf("%s: doubling mismatch", name)
			}
		}
	}
}

func TestBinaryDblAddAgainstAffine(t *testing.T) {
	for _, name := range BinaryCurveNames {
		c := NISTBinaryCurve(name, gf2.CLMul)
		g := c.Generator()
		ld := c.FromAffine(g)
		aff := g
		for i := 2; i <= 20; i++ {
			c.AddMixed(ld, ld, g)
			aff = c.AddAffine(aff, g)
			got := c.ToAffine(ld)
			if got.Inf != aff.Inf || !gf2.Equal(got.X, aff.X) || !gf2.Equal(got.Y, aff.Y) {
				t.Fatalf("%s: %d*G mismatch between LD and affine", name, i)
			}
			if !c.OnCurve(got) {
				t.Fatalf("%s: %d*G not on curve", name, i)
			}
		}
		// LD doubling against affine doubling.
		d := c.NewPoint()
		c.Dbl(d, c.FromAffine(g))
		got := c.ToAffine(d)
		want := c.AddAffine(g, g)
		if !gf2.Equal(got.X, want.X) || !gf2.Equal(got.Y, want.Y) {
			t.Fatalf("%s: LD doubling mismatch", name)
		}
	}
}

func TestWNAFRecoding(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(8)
		x := mp.New(k)
		for i := range x {
			x[i] = r.Uint32()
		}
		digits := wnaf(x, 4)
		// Reconstruct: sum digits[i] * 2^i must equal x.
		recon := mp.New(k + 1)
		for i := len(digits) - 1; i >= 0; i-- {
			mp.Shl1(recon, recon)
			d := digits[i]
			if d > 0 {
				addSmall(recon, uint32(d))
			} else if d < 0 {
				subSmall(recon, uint32(-d))
			}
			// Check digit constraints: odd, |d| < 8.
			if d != 0 && (d%2 == 0 || d > 7 || d < -7) {
				t.Fatalf("invalid wNAF digit %d", d)
			}
		}
		if mp.Cmp(recon[:k], x) != 0 || recon[k] != 0 {
			t.Fatalf("wNAF reconstruction failed")
		}
		// Non-adjacency: at most one nonzero in any w consecutive digits.
		for i := 0; i < len(digits); i++ {
			if digits[i] == 0 {
				continue
			}
			for j := i + 1; j < i+4 && j < len(digits); j++ {
				if digits[j] != 0 {
					t.Fatalf("wNAF adjacency violation at %d,%d", i, j)
				}
			}
		}
	}
}

func TestJSFRecoding(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(8)
		x := mp.New(k)
		y := mp.New(k)
		for i := range x {
			x[i] = r.Uint32()
			y[i] = r.Uint32()
		}
		d0, d1 := jsf(x, y)
		recon := func(d []int8, k int) mp.Int {
			v := mp.New(k + 1)
			for i := len(d) - 1; i >= 0; i-- {
				mp.Shl1(v, v)
				if d[i] > 0 {
					addSmall(v, uint32(d[i]))
				} else if d[i] < 0 {
					subSmall(v, uint32(-d[i]))
				}
			}
			return v
		}
		rx := recon(d0, k)
		ry := recon(d1, k)
		if mp.Cmp(rx[:k], x) != 0 || mp.Cmp(ry[:k], y) != 0 {
			t.Fatalf("JSF reconstruction failed")
		}
	}
}

func TestScalarMultAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	c := NISTPrimeCurve("P-192", mp.OSNIST)
	g := c.Generator()
	for trial := 0; trial < 10; trial++ {
		s := uint32(1 + r.Intn(100))
		got := c.ScalarMult(smallScalar(s, len(c.N)), g)
		want := &AffinePoint{X: mp.New(c.F.K), Y: mp.New(c.F.K), Inf: true}
		for i := uint32(0); i < s; i++ {
			want = c.AddAffine(want, g)
		}
		if got.Inf != want.Inf || mp.Cmp(got.X, want.X) != 0 || mp.Cmp(got.Y, want.Y) != 0 {
			t.Fatalf("P-192: %d*G mismatch", s)
		}
	}
}

func TestBinaryScalarMultAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := NISTBinaryCurve("B-163", gf2.CLMul)
	g := c.Generator()
	for trial := 0; trial < 10; trial++ {
		s := uint32(1 + r.Intn(100))
		got := c.ScalarMult(smallScalar(s, len(c.N)), g)
		want := &BinaryAffinePoint{X: gf2.New(c.F.K), Y: gf2.New(c.F.K), Inf: true}
		for i := uint32(0); i < s; i++ {
			want = c.AddAffine(want, g)
		}
		if got.Inf != want.Inf || !gf2.Equal(got.X, want.X) || !gf2.Equal(got.Y, want.Y) {
			t.Fatalf("B-163: %d*G mismatch", s)
		}
	}
}

func TestMontLadderAgainstSlidingWindow(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, name := range []string{"B-163", "B-283"} {
		c := NISTBinaryCurve(name, gf2.CLMul)
		g := c.Generator()
		for trial := 0; trial < 5; trial++ {
			k := randScalar(r, mp.Int(c.N))
			a := c.ScalarMult(k, g)
			b := c.MontLadderMult(k, g)
			if a.Inf != b.Inf || !gf2.Equal(a.X, b.X) || !gf2.Equal(a.Y, b.Y) {
				t.Fatalf("%s: ladder disagrees with sliding window", name)
			}
		}
		// Small-scalar edge cases.
		for _, s := range []uint32{1, 2, 3} {
			a := c.ScalarMult(smallScalar(s, len(c.N)), g)
			b := c.MontLadderMult(smallScalar(s, len(c.N)), g)
			if !gf2.Equal(a.X, b.X) || !gf2.Equal(a.Y, b.Y) {
				t.Fatalf("%s: ladder wrong for scalar %d", name, s)
			}
		}
	}
}

func TestTwinMultAgainstSeparate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := NISTPrimeCurve("P-224", mp.PSNIST)
	g := c.Generator()
	q := c.ScalarMult(randScalar(r, c.N), g)
	for trial := 0; trial < 5; trial++ {
		u0 := randScalar(r, c.N)
		u1 := randScalar(r, c.N)
		got := c.TwinMult(u0, g, u1, q)
		a := c.ScalarMult(u0, g)
		b := c.ScalarMult(u1, q)
		want := c.AddAffine(a, b)
		if got.Inf != want.Inf || mp.Cmp(got.X, want.X) != 0 || mp.Cmp(got.Y, want.Y) != 0 {
			t.Fatalf("twin mult mismatch")
		}
	}
}

func TestBinaryTwinMultAgainstSeparate(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	c := NISTBinaryCurve("B-233", gf2.CLMul)
	g := c.Generator()
	q := c.ScalarMult(randScalar(r, mp.Int(c.N)), g)
	for trial := 0; trial < 3; trial++ {
		u0 := randScalar(r, mp.Int(c.N))
		u1 := randScalar(r, mp.Int(c.N))
		got := c.TwinMult(u0, g, u1, q)
		a := c.ScalarMult(u0, g)
		b := c.ScalarMult(u1, q)
		want := c.AddAffine(a, b)
		if got.Inf != want.Inf || !gf2.Equal(got.X, want.X) || !gf2.Equal(got.Y, want.Y) {
			t.Fatalf("binary twin mult mismatch")
		}
	}
}

func TestScalarMultAllAlgsAgree(t *testing.T) {
	// The same scalar multiplication must produce identical points no
	// matter which field multiplication strategy backs it.
	r := rand.New(rand.NewSource(9))
	k := randScalar(r, NISTPrimeCurve("P-256", mp.OSNIST).N)
	var ref *AffinePoint
	for _, alg := range []mp.MulAlg{mp.OSNIST, mp.PSNIST, mp.CIOS, mp.FIPS} {
		c := NISTPrimeCurve("P-256", alg)
		got := c.ScalarMult(k, c.Generator())
		if ref == nil {
			ref = got
			continue
		}
		if mp.Cmp(got.X, ref.X) != 0 || mp.Cmp(got.Y, ref.Y) != 0 {
			t.Fatalf("alg %v disagrees", alg)
		}
	}
}

func TestInfinityHandling(t *testing.T) {
	c := NISTPrimeCurve("P-192", mp.OSNIST)
	g := c.Generator()
	inf := c.NewPoint()
	// inf + G = G.
	c.AddMixed(inf, inf, g)
	got := c.ToAffine(inf)
	if mp.Cmp(got.X, g.X) != 0 {
		t.Error("inf + G != G")
	}
	// G + (-G) = inf.
	j := c.FromAffine(g)
	c.AddMixed(j, j, c.NegAffine(g))
	if !j.IsInf() {
		t.Error("G + (-G) != inf")
	}
	// 2*inf = inf.
	d := c.NewPoint()
	c.Dbl(d, c.NewPoint())
	if !d.IsInf() {
		t.Error("2*inf != inf")
	}
}

func TestOpCountersAdvance(t *testing.T) {
	c := NISTPrimeCurve("P-192", mp.OSNIST)
	c.Ops.Reset()
	c.F.Counters.Reset()
	k := smallScalar(12345, len(c.N))
	c.ScalarMult(k, c.Generator())
	if c.Ops.Dbl == 0 || c.Ops.Add == 0 || c.Ops.ToAffine == 0 {
		t.Errorf("point op counters did not advance: %+v", c.Ops)
	}
	if c.F.Counters.Mul == 0 || c.F.Counters.Sqr == 0 {
		t.Errorf("field op counters did not advance: %+v", c.F.Counters)
	}
}
