package gf2

import (
	"fmt"
	"slices"
)

// MulAlg selects the multiplication strategy the binary field uses,
// mirroring the paper's software-only vs ISA-extended configurations.
type MulAlg int

const (
	// Comb is the left-to-right comb method with 4-bit windows
	// (software-only baseline, Algorithm 6).
	Comb MulAlg = iota
	// CLMul uses the MULGF2/MADDGF2 carry-less product scanning
	// (ISA-extended).
	CLMul
)

func (a MulAlg) String() string {
	if a == Comb {
		return "comb-w4"
	}
	return "clmul-ps"
}

// Field is a binary field GF(2^m) defined by an irreducible trinomial or
// pentanomial f(x) = x^m + x^terms[0] + x^terms[1] + ... + 1.
type Field struct {
	Name  string
	M     int   // extension degree
	K     int   // words per element, ceil(m/32)
	Terms []int // middle exponents of f, descending, excluding m and 0
	Alg   MulAlg
	One   Elem

	// Counters tracks field-level operation counts for the
	// latency/energy model.
	Counters OpCounters
}

// OpCounters counts binary-field operations.
type OpCounters struct {
	Mul, Sqr, Add, Inv, Red uint64
}

// Reset zeroes the counters.
func (c *OpCounters) Reset() { *c = OpCounters{} }

// NIST binary fields (Equations 4.8–4.12).
var nistBinary = map[string]struct {
	m     int
	terms []int
}{
	"B-163": {163, []int{7, 6, 3}},
	"B-233": {233, []int{74}},
	"B-283": {283, []int{12, 7, 5}},
	"B-409": {409, []int{87}},
	"B-571": {571, []int{10, 5, 2}},
}

// BinaryFieldNames lists the NIST binary fields in ascending security order.
var BinaryFieldNames = []string{"B-163", "B-233", "B-283", "B-409", "B-571"}

// NISTField returns a fresh Field for the named NIST binary field.
func NISTField(name string, alg MulAlg) *Field {
	def, ok := nistBinary[name]
	if !ok {
		panic("gf2: unknown NIST binary field " + name)
	}
	return NewField(name, def.m, def.terms, alg)
}

// NewField builds a binary field GF(2^m) with reduction polynomial
// x^m + Σ x^terms + 1. It panics unless every term lies at least 64 bits
// below m, the condition the one-pass fold (fold) rests on; the five NIST
// polynomials meet it.
func NewField(name string, m int, terms []int, alg MulAlg) *Field {
	if m-slices.Max(append([]int{0}, terms...)) < 64 {
		panic(fmt.Sprintf("gf2: %s: reduction terms %v not all 64 bits below m = %d", name, terms, m))
	}
	k := (m + 31) / 32
	f := &Field{Name: name, M: m, K: k, Terms: append([]int(nil), terms...), Alg: alg}
	f.One = New(k)
	f.One[0] = 1
	return f
}

// Add sets z = a + b mod f (XOR; no reduction needed).
func (f *Field) Add(z, a, b Elem) {
	f.Counters.Add++
	Add(z, a, b)
}

// Mul sets z = a*b mod f. On Comb the operands are packed once and the
// product is formed and folded on 64-bit limbs; CLMul forms the 32-bit
// product word by word and folds it through ReduceFull.
func (f *Field) Mul(z, a, b Elem) {
	f.Counters.Mul++
	f.Counters.Red++
	if f.Alg != Comb {
		var buf [2 * stackWords]uint32
		c := scratch(buf[:], 2*f.K)
		MulCl(c, a, b)
		f.ReduceFull(z, c)
		return
	}
	var cbuf [2 * stackLimbs]uint64
	c := scratch(cbuf[:], 2*((f.K+1)/2))
	mulComb(c, a, b)
	f.fold(c)
	unpack(z, c)
}

// Sqr sets z = a^2 mod f. On Comb each word spreads through sqrTable
// straight into a 64-bit limb; CLMul squares word by word and folds the
// product through ReduceFull.
func (f *Field) Sqr(z, a Elem) {
	f.Counters.Sqr++
	f.Counters.Red++
	if f.Alg != Comb {
		var buf [2 * stackWords]uint32
		c := scratch(buf[:], 2*f.K)
		SqrCl(c, a)
		f.ReduceFull(z, c)
		return
	}
	var cbuf [stackWords]uint64
	c := scratch(cbuf[:], f.K)
	for i, w := range a {
		c[i] = spread(w)
	}
	f.fold(c)
	unpack(z, c)
}

// ReduceFull reduces the polynomial c (at most 2k words) modulo f into z
// (k words): it packs c into 64-bit limbs and runs fold, the NIST fast
// reduction every field operation ends in.
func (f *Field) ReduceFull(z Elem, c Elem) {
	var buf [stackWords]uint64
	t := scratch(buf[:], (len(c)+1)/2)
	pack(t, c)
	f.fold(t)
	unpack(z, t)
}

// fold reduces the 64-bit-limb polynomial t modulo f in place, leaving the
// residue in the limbs below m. It is the word-wise form of the NIST fast
// reduction routines (e.g. Algorithm 7 for B-163): every bit at position
// m+j folds back to positions j + e for e in {terms..., 0}. Limbs above
// m/64 fold from the top down, then the bits of the partial top limb at
// and above m. One pass suffices because every term lies at least 64 bits
// below m (NewField checks it): a folded limb lands wholly in lower limbs,
// and the partial limb's bits land below m.
func (f *Field) fold(t []uint64) {
	m := f.M
	top := m / 64
	for i := len(t) - 1; i > top; i-- {
		w := t[i]
		if w == 0 {
			continue
		}
		t[i] = 0
		base := 64*i - m
		for _, e := range f.Terms {
			xorShifted(t, w, base+e)
		}
		xorShifted(t, w, base)
	}
	sh := uint(m) % 64
	if w := t[top] >> sh; w != 0 {
		t[top] &= 1<<sh - 1
		for _, e := range f.Terms {
			xorShifted(t, w, e)
		}
		xorShifted(t, w, 0)
	}
}

// xorShifted xors the 64-bit value w, left-shifted by bit positions pos,
// into t.
func xorShifted(t []uint64, w uint64, pos int) {
	i, sh := pos/64, uint(pos)%64
	t[i] ^= w << sh
	if sh != 0 && i+1 < len(t) {
		t[i+1] ^= w >> (64 - sh)
	}
}

// Inv sets z = a^-1 mod f using the binary polynomial extended Euclidean
// algorithm (Guide to ECC Algorithm 2.48) — the software inversion.
func (f *Field) Inv(z, a Elem) {
	f.Counters.Inv++
	if a.IsZero() {
		panic("gf2: inverse of zero")
	}
	k := f.K
	u := a.Clone()
	v := f.modulus()
	g1 := New(k + 1)
	g1[0] = 1
	g2 := New(k + 1)
	for !u.IsOne() && !v.IsOne() {
		du, dv := u.Degree(), v.Degree()
		if du < dv {
			u, v = v, u
			g1, g2 = g2, g1
			du, dv = dv, du
		}
		j := du - dv
		// u += x^j * v ; g1 += x^j * g2
		xorPolyShift(u, v, j)
		xorPolyShift(g1, g2, j)
	}
	if u.IsOne() {
		f.ReduceFull(z, g1)
	} else {
		f.ReduceFull(z, g2)
	}
}

// modulus returns f(x) as a (k+1)-word polynomial.
func (f *Field) modulus() Elem {
	z := New(f.K + 1)
	z[0] = 1
	for _, e := range f.Terms {
		z[e/32] |= 1 << (uint(e) % 32)
	}
	z[f.M/32] |= 1 << (uint(f.M) % 32)
	return z
}

// xorPolyShift sets a ^= b << j (bit shift), in place; a must be long
// enough.
func xorPolyShift(a, b Elem, j int) {
	wi, sh := j/32, uint(j)%32
	for i := 0; i < len(b); i++ {
		if b[i] == 0 {
			continue
		}
		if i+wi < len(a) {
			a[i+wi] ^= b[i] << sh
		}
		if sh != 0 && i+wi+1 < len(a) {
			a[i+wi+1] ^= b[i] >> (32 - sh)
		}
	}
}

// String describes the field.
func (f *Field) String() string {
	return fmt.Sprintf("GF(2^%d) [%s]", f.M, f.Name)
}
