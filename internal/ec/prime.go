// Package ec implements elliptic-curve arithmetic over the NIST prime and
// binary fields. Each family supplies only its coordinate formulas, in the
// systems the paper selects as optimal (Section 4.1): mixed Jacobian-affine
// for GF(p) (prime.go) and mixed López-Dahab-affine for GF(2^m)
// (binary.go). One scalar-multiplication engine (scalarmult.go) runs on
// both: signed sliding window with precomputation for single
// multiplication and joint-sparse-form twin multiplication for
// verification. The Montgomery ladder the paper evaluated for Billie is
// binary-only.
package ec

import (
	"fmt"

	"repro/internal/mp"
)

// PrimeCurve is a short-Weierstrass curve y^2 = x^3 - 3x + b over a NIST
// prime field (all NIST P-curves have a = -3).
type PrimeCurve struct {
	Name   string
	F      *mp.Field // the underlying prime field
	B      mp.Int
	Gx, Gy mp.Int
	N      mp.Int // group order (prime)
	NBits  int

	// Ops counts curve-level operations for the latency/energy model.
	Ops PointOpCounters
}

// PointOpCounters counts point-level operations.
type PointOpCounters struct {
	Dbl, Add, Neg, ToAffine uint64
}

// Reset zeroes the counters.
func (c *PointOpCounters) Reset() { *c = PointOpCounters{} }

// JacobianPoint is (X, Y, Z) with x = X/Z^2, y = Y/Z^3; Z == 0 encodes the
// point at infinity.
type JacobianPoint struct {
	X, Y, Z mp.Int
}

// AffinePoint is a plain (x, y) point; Inf marks the point at infinity.
type AffinePoint struct {
	X, Y mp.Int
	Inf  bool
}

// NewPoint returns the point at infinity in Jacobian coordinates.
func (c *PrimeCurve) NewPoint() *JacobianPoint {
	return &JacobianPoint{X: mp.New(c.F.K), Y: mp.New(c.F.K), Z: mp.New(c.F.K)}
}

// IsInf reports whether p is the point at infinity.
func (p *JacobianPoint) IsInf() bool { return p.Z.IsZero() }

// Set copies q into p.
func (p *JacobianPoint) Set(q *JacobianPoint) {
	copy(p.X, q.X)
	copy(p.Y, q.Y)
	copy(p.Z, q.Z)
}

// FromAffine converts a to Jacobian (Z = 1).
func (c *PrimeCurve) FromAffine(a *AffinePoint) *JacobianPoint {
	p := c.NewPoint()
	if a.Inf {
		return p
	}
	copy(p.X, a.X)
	copy(p.Y, a.Y)
	p.Z[0] = 1
	return p
}

// ToAffine converts p to affine coordinates, performing the single field
// inversion a scalar multiplication needs (Section 2.1.5).
func (c *PrimeCurve) ToAffine(p *JacobianPoint) *AffinePoint {
	c.Ops.ToAffine++
	f := c.F
	if p.IsInf() {
		return &AffinePoint{X: mp.New(f.K), Y: mp.New(f.K), Inf: true}
	}
	zi := mp.New(f.K)
	f.Inv(zi, p.Z)
	zi2 := mp.New(f.K)
	f.Sqr(zi2, zi)
	x := mp.New(f.K)
	f.Mul(x, p.X, zi2)
	zi3 := mp.New(f.K)
	f.Mul(zi3, zi2, zi)
	y := mp.New(f.K)
	f.Mul(y, p.Y, zi3)
	return &AffinePoint{X: x, Y: y}
}

// Dbl sets p = 2q in Jacobian coordinates using the a = -3 doubling
// (4M + 4S, Guide to ECC Algorithm 3.21).
func (c *PrimeCurve) Dbl(p, q *JacobianPoint) {
	c.Ops.Dbl++
	f := c.F
	if q.IsInf() {
		p.Set(q)
		return
	}
	k := f.K
	var buf [6 * primeStackWords]uint32
	s := mp.Int(scratch(buf[:], 6*k))
	t1, t2, t3 := s[:k], s[k:2*k], s[2*k:3*k]
	x3, y3, z3 := s[3*k:4*k], s[4*k:5*k], s[5*k:]

	f.Sqr(t1, q.Z)      // t1 = Z^2
	f.Sub(t2, q.X, t1)  // t2 = X - Z^2
	f.Add(t1, q.X, t1)  // t1 = X + Z^2
	f.Mul(t2, t2, t1)   // t2 = (X-Z^2)(X+Z^2) = X^2 - Z^4
	f.Add(t1, t2, t2)   //
	f.Add(t2, t1, t2)   // t2 = 3(X^2 - Z^4) = alpha
	f.Add(y3, q.Y, q.Y) // y3 = 2Y
	f.Mul(z3, y3, q.Z)  // Z3 = 2YZ
	f.Sqr(y3, y3)       // y3 = 4Y^2
	f.Mul(t3, y3, q.X)  // t3 = 4XY^2 = beta
	f.Sqr(y3, y3)       // y3 = 16Y^4
	halve(f, y3)        // y3 = 8Y^4
	f.Sqr(x3, t2)       // x3 = alpha^2
	f.Sub(x3, x3, t3)   //
	f.Sub(x3, x3, t3)   // X3 = alpha^2 - 2 beta
	f.Sub(t3, t3, x3)   // t3 = beta - X3
	f.Mul(t3, t3, t2)   // t3 = alpha (beta - X3)
	f.Sub(y3, t3, y3)   // Y3 = alpha(beta-X3) - 8Y^4
	copy(p.X, x3)
	copy(p.Y, y3)
	copy(p.Z, z3)
}

// The point formulas carve their temporaries from stack buffers sized for
// the largest NIST field of each family; a wider field's spill to the
// heap.
const (
	primeStackWords  = 17 // P-521
	binaryStackWords = 18 // B-571
)

// scratch returns buf[:n], or a fresh slice when n exceeds buf.
func scratch(buf []uint32, n int) []uint32 {
	if n > len(buf) {
		return make([]uint32, n)
	}
	return buf[:n]
}

// halve sets a = a/2 mod p.
func halve(f *mp.Field, a mp.Int) {
	if a.IsOdd() {
		carry := mp.Add(a, a, f.P)
		mp.Shr1(a, a)
		a[f.K-1] |= carry << 31
	} else {
		mp.Shr1(a, a)
	}
}

// AddMixed sets p = q + r where r is affine (mixed Jacobian-affine
// addition, 8M + 3S, Guide to ECC Algorithm 3.22).
func (c *PrimeCurve) AddMixed(p, q *JacobianPoint, r *AffinePoint) {
	c.Ops.Add++
	f := c.F
	if r.Inf {
		p.Set(q)
		return
	}
	if q.IsInf() {
		p.Set(c.FromAffine(r))
		return
	}
	k := f.K
	var buf [7 * primeStackWords]uint32
	s := mp.Int(scratch(buf[:], 7*k))
	t1, t2, t3, t4 := s[:k], s[k:2*k], s[2*k:3*k], s[3*k:4*k]
	x3, y3, z3 := s[4*k:5*k], s[5*k:6*k], s[6*k:]

	f.Sqr(t1, q.Z)     // t1 = Z1^2
	f.Mul(t2, t1, q.Z) // t2 = Z1^3
	f.Mul(t1, t1, r.X) // t1 = X2 Z1^2 = U2
	f.Mul(t2, t2, r.Y) // t2 = Y2 Z1^3 = S2
	f.Sub(t1, t1, q.X) // t1 = U2 - X1 = H
	f.Sub(t2, t2, q.Y) // t2 = S2 - Y1 = R
	if t1.IsZero() {
		if t2.IsZero() {
			c.Ops.Add--
			c.Dbl(p, q)
			return
		}
		// q = -r: result is infinity.
		z := c.NewPoint()
		p.Set(z)
		return
	}
	f.Mul(z3, q.Z, t1) // Z3 = Z1 H
	f.Sqr(t3, t1)      // t3 = H^2
	f.Mul(t4, t3, t1)  // t4 = H^3
	f.Mul(t3, t3, q.X) // t3 = X1 H^2
	f.Sqr(x3, t2)      // x3 = R^2
	f.Sub(x3, x3, t4)  // - H^3
	f.Sub(x3, x3, t3)  //
	f.Sub(x3, x3, t3)  // X3 = R^2 - H^3 - 2 X1 H^2
	f.Sub(t3, t3, x3)  // t3 = X1 H^2 - X3
	f.Mul(t3, t3, t2)  // t3 = R (X1 H^2 - X3)
	f.Mul(t4, t4, q.Y) // t4 = Y1 H^3
	f.Sub(y3, t3, t4)  // Y3
	copy(p.X, x3)
	copy(p.Y, y3)
	copy(p.Z, z3)
}

// BatchToAffine converts Jacobian points to affine with one shared field
// inversion (3 extra multiplications per point).
func (c *PrimeCurve) BatchToAffine(ps []*JacobianPoint) []*AffinePoint {
	f := c.F
	k := f.K
	out := make([]*AffinePoint, len(ps))
	// Prefix products of the Z coordinates, skipping infinities.
	prefix := make([]mp.Int, len(ps))
	acc := f.One.Clone()
	for i, p := range ps {
		prefix[i] = acc.Clone()
		if !p.IsInf() {
			t := mp.New(k)
			f.Mul(t, acc, p.Z)
			acc = t
		}
	}
	inv := mp.New(k)
	f.Inv(inv, acc)
	c.Ops.ToAffine++
	for i := len(ps) - 1; i >= 0; i-- {
		p := ps[i]
		if p.IsInf() {
			out[i] = &AffinePoint{X: mp.New(k), Y: mp.New(k), Inf: true}
			continue
		}
		zi := mp.New(k)
		f.Mul(zi, inv, prefix[i]) // 1/Z_i
		t := mp.New(k)
		f.Mul(t, inv, p.Z) // strip Z_i from the running inverse
		copy(inv, t)
		zi2 := mp.New(k)
		f.Sqr(zi2, zi)
		x := mp.New(k)
		f.Mul(x, p.X, zi2)
		zi3 := mp.New(k)
		f.Mul(zi3, zi2, zi)
		y := mp.New(k)
		f.Mul(y, p.Y, zi3)
		out[i] = &AffinePoint{X: x, Y: y}
	}
	return out
}

// NegAffine returns -a (x, -y).
func (c *PrimeCurve) NegAffine(a *AffinePoint) *AffinePoint {
	c.Ops.Neg++
	if a.Inf {
		return a
	}
	y := mp.New(c.F.K)
	c.F.Neg(y, a.Y)
	return &AffinePoint{X: a.X.Clone(), Y: y}
}

// AddAffine adds two affine points the slow textbook way (Equations
// 2.3–2.4); used only for small precomputation tables and tests.
func (c *PrimeCurve) AddAffine(a, b *AffinePoint) *AffinePoint {
	f := c.F
	k := f.K
	if a.Inf {
		return &AffinePoint{X: b.X.Clone(), Y: b.Y.Clone(), Inf: b.Inf}
	}
	if b.Inf {
		return &AffinePoint{X: a.X.Clone(), Y: a.Y.Clone(), Inf: a.Inf}
	}
	lam := mp.New(k)
	if mp.Cmp(a.X, b.X) == 0 {
		ny := mp.New(k)
		f.Neg(ny, b.Y)
		if mp.Cmp(a.Y, ny) == 0 {
			return &AffinePoint{X: mp.New(k), Y: mp.New(k), Inf: true}
		}
		// Doubling: lambda = (3x^2 + a) / 2y with a = -3.
		t := mp.New(k)
		f.Sqr(t, a.X)
		f.Add(lam, t, t)
		f.Add(lam, lam, t) // 3x^2
		three := mp.New(k)
		three[0] = 3
		f.Sub(lam, lam, three) // + a = -3
		d := mp.New(k)
		f.Add(d, a.Y, a.Y)
		f.Inv(t, d)
		f.Mul(lam, lam, t)
	} else {
		num := mp.New(k)
		f.Sub(num, b.Y, a.Y)
		den := mp.New(k)
		f.Sub(den, b.X, a.X)
		f.Inv(den, den)
		f.Mul(lam, num, den)
	}
	x3 := mp.New(k)
	f.Sqr(x3, lam)
	f.Sub(x3, x3, a.X)
	f.Sub(x3, x3, b.X)
	y3 := mp.New(k)
	f.Sub(y3, a.X, x3)
	f.Mul(y3, lam, y3)
	f.Sub(y3, y3, a.Y)
	return &AffinePoint{X: x3, Y: y3}
}

// OnCurve verifies y^2 = x^3 - 3x + b.
func (c *PrimeCurve) OnCurve(a *AffinePoint) bool {
	if a.Inf {
		return true
	}
	f := c.F
	k := f.K
	lhs := mp.New(k)
	f.Sqr(lhs, a.Y)
	rhs := mp.New(k)
	f.Sqr(rhs, a.X)
	f.Mul(rhs, rhs, a.X)
	t := mp.New(k)
	f.Add(t, a.X, a.X)
	f.Add(t, t, a.X)
	f.Sub(rhs, rhs, t)
	f.Add(rhs, rhs, c.B)
	return mp.Cmp(lhs, rhs) == 0
}

// Generator returns the curve's base point.
func (c *PrimeCurve) Generator() *AffinePoint {
	return &AffinePoint{X: c.Gx.Clone(), Y: c.Gy.Clone()}
}

func (c *PrimeCurve) String() string {
	return fmt.Sprintf("%s over %s", c.Name, c.F.Name)
}
