package ec

import "repro/internal/mp"

// Scalar multiplication algorithms (Section 4.1), written once for both
// curve families: a signed sliding-window method with a small table of
// odd multiples for single multiplications (signatures) and
// joint-sparse-form twin multiplication for verification. The Montgomery
// ladder the paper evaluated for Billie (and found slower than the
// sliding window, Figure 7.14) is binary-only; its implementation is the
// tests' cross-check of ScalarMult (ladder_test.go), and billie prices it.

// wnaf recodes scalar x into width-w non-adjacent form: a digit stream
// (least significant first) of zeros and odd digits |d| < 2^(w-1).
func wnaf(x mp.Int, w uint) []int8 {
	// Work on a mutable copy with one spare word of headroom.
	v := make(mp.Int, len(x)+1)
	copy(v, x)
	var out []int8
	mod := uint32(1) << w
	half := int32(1) << (w - 1)
	for !v.IsZero() {
		var d int32
		if v.IsOdd() {
			d = int32(v[0] & (mod - 1))
			if d >= half {
				d -= int32(mod)
			}
			if d > 0 {
				subSmall(v, uint32(d))
			} else {
				addSmall(v, uint32(-d))
			}
		}
		out = append(out, int8(d))
		mp.Shr1(v, v)
	}
	return out
}

func subSmall(v mp.Int, d uint32) {
	var borrow uint64
	b := uint64(d)
	for i := range v {
		t := uint64(v[i]) - b - borrow
		v[i] = uint32(t)
		borrow = (t >> 32) & 1
		b = 0
		if borrow == 0 {
			break
		}
	}
}

func addSmall(v mp.Int, d uint32) {
	var carry uint64
	c := uint64(d)
	for i := range v {
		t := uint64(v[i]) + c + carry
		v[i] = uint32(t)
		carry = t >> 32
		c = 0
		if carry == 0 {
			break
		}
	}
}

// WindowWidth is the sliding-window width used for single scalar
// multiplication. Width 4 precomputes the odd multiples 3P, 5P, 7P.
const WindowWidth = 4

// curve is the point arithmetic the scalar-multiplication engine runs on,
// over projective points P and affine points A. PrimeCurve (Jacobian) and
// BinaryCurve (López-Dahab) both implement it, so each algorithm below has
// one body and the families differ only in their coordinate formulas.
type curve[P, A any] interface {
	NewPoint() P
	FromAffine(A) P
	ToAffine(P) A
	Dbl(p, q P)
	AddMixed(p, q P, r A)
	NegAffine(A) A
	AddAffine(a, b A) A
	BatchToAffine([]P) []A
}

// scalarMult computes x·p with the signed sliding-window method. Point
// subtraction costs one negation of a table entry on either family
// ("only marginally more costly than addition", Section 4.1).
func scalarMult[C curve[P, A], P, A any](c C, x mp.Int, p A) A {
	digits := wnaf(x, WindowWidth)
	// Precompute odd multiples P, 3P, 5P, 7P (affine, via the cheap
	// table path — in the real software these are computed once per
	// scalar multiplication).
	table := oddMultiples(c, p, 1<<(WindowWidth-1))
	neg := make([]A, len(table))
	for i, t := range table {
		neg[i] = c.NegAffine(t)
	}
	q := c.NewPoint()
	for i := len(digits) - 1; i >= 0; i-- {
		c.Dbl(q, q)
		d := digits[i]
		if d > 0 {
			c.AddMixed(q, q, table[d/2])
		} else if d < 0 {
			c.AddMixed(q, q, neg[(-d)/2])
		}
	}
	return c.ToAffine(q)
}

// oddMultiples returns [P, 3P, 5P, ...] with n entries. The multiples are
// accumulated in projective coordinates and converted to affine with a
// single shared inversion (Montgomery's simultaneous-inversion trick) —
// the way the paper's software builds its 3P/5P window table without
// paying one field inversion per point.
func oddMultiples[C curve[P, A], P, A any](c C, p A, n int) []A {
	table := make([]A, n)
	table[0] = p
	if n == 1 {
		return table
	}
	two := c.NewPoint()
	c.Dbl(two, c.FromAffine(p))
	twoP := c.ToAffine(two) // one inversion for 2P
	ps := make([]P, n-1)
	cur := c.FromAffine(p)
	for i := 1; i < n; i++ {
		next := c.NewPoint()
		c.AddMixed(next, cur, twoP)
		ps[i-1] = next
		cur = next
	}
	copy(table[1:], c.BatchToAffine(ps)) // one inversion for the whole table
	return table
}

// jsf computes the joint sparse form of scalars k0 and k1 (Solinas; Guide
// to ECC Algorithm 3.50): two digit streams over {-1, 0, 1}, least
// significant first, with joint density 1/2.
func jsf(k0, k1 mp.Int) (d0, d1 []int8) {
	a := make(mp.Int, len(k0)+1)
	copy(a, k0)
	b := make(mp.Int, len(k1)+1)
	copy(b, k1)
	var l0, l1 int8
	for !a.IsZero() || !b.IsZero() || l0 != 0 || l1 != 0 {
		// d = (l + x) mod 4 tracking via explicit carries l0, l1.
		m0 := int8(a[0]&7) + l0 // low 3 bits plus carry
		m1 := int8(b[0]&7) + l1
		var u0, u1 int8
		if m0&1 != 0 {
			u0 = 2 - (m0 & 3)
			if (m0&7 == 3 || m0&7 == 5) && m1&3 == 2 {
				u0 = -u0
			}
		}
		if m1&1 != 0 {
			u1 = 2 - (m1 & 3)
			if (m1&7 == 3 || m1&7 == 5) && m0&3 == 2 {
				u1 = -u1
			}
		}
		d0 = append(d0, u0)
		d1 = append(d1, u1)
		// a = (a + l0 - u0) / 2, tracked with small carries.
		l0 = shiftWithDigit(a, l0, u0)
		l1 = shiftWithDigit(b, l1, u1)
	}
	return d0, d1
}

// shiftWithDigit computes v' = (v + carryIn - d)/2 where carryIn-d is in
// {-2..2}; returns the new small carry so v stays non-negative.
func shiftWithDigit(v mp.Int, carryIn, d int8) int8 {
	adj := int32(carryIn) - int32(d)
	switch {
	case adj > 0:
		addSmall(v, uint32(adj))
	case adj < 0:
		// v + adj may momentarily dip negative only if v == 0 and
		// adj < 0, which JSF never produces for valid digits.
		subSmall(v, uint32(-adj))
	}
	if v.IsOdd() {
		panic("ec: JSF internal error — odd after digit subtraction")
	}
	mp.Shr1(v, v)
	return 0
}

// twinMult computes u0·p + u1·q with JSF twin multiplication using the
// precomputed points p+q and p−q (Section 4.1).
func twinMult[C curve[P, A], P, A any](c C, u0 mp.Int, p A, u1 mp.Int, q A) A {
	d0, d1 := jsf(u0, u1)
	sum := c.AddAffine(p, q)               // P+Q
	diff := c.AddAffine(p, c.NegAffine(q)) // P−Q
	// table[a+1][b+1] is the point added for the digit pair (a, b); the
	// pair (0, 0) adds nothing.
	var none A
	table := [3][3]A{
		{c.NegAffine(sum), c.NegAffine(p), c.NegAffine(diff)},
		{c.NegAffine(q), none, q},
		{diff, p, sum},
	}
	r := c.NewPoint()
	for i := max(len(d0), len(d1)) - 1; i >= 0; i-- {
		c.Dbl(r, r)
		var a, b int8
		if i < len(d0) {
			a = d0[i]
		}
		if i < len(d1) {
			b = d1[i]
		}
		if a != 0 || b != 0 {
			c.AddMixed(r, r, table[a+1][b+1])
		}
	}
	return c.ToAffine(r)
}

// ScalarMult computes x·P with the signed sliding-window method.
func (c *PrimeCurve) ScalarMult(x mp.Int, p *AffinePoint) *AffinePoint {
	return scalarMult(c, x, p)
}

// TwinMult computes u0·P + u1·Q with JSF twin multiplication (ECDSA
// verification).
func (c *PrimeCurve) TwinMult(u0 mp.Int, p *AffinePoint, u1 mp.Int, q *AffinePoint) *AffinePoint {
	return twinMult(c, u0, p, u1, q)
}

// ScalarMult computes x·P with the signed sliding-window method.
func (c *BinaryCurve) ScalarMult(x mp.Int, p *BinaryAffinePoint) *BinaryAffinePoint {
	return scalarMult(c, x, p)
}

// TwinMult computes u0·P + u1·Q with JSF twin multiplication (ECDSA
// verification).
func (c *BinaryCurve) TwinMult(u0 mp.Int, p *BinaryAffinePoint, u1 mp.Int, q *BinaryAffinePoint) *BinaryAffinePoint {
	return twinMult(c, u0, p, u1, q)
}
