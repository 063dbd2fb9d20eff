package gf2

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// bigClMul multiplies two binary polynomials represented as big.Ints.
func bigClMul(a, b *big.Int) *big.Int {
	z := new(big.Int)
	t := new(big.Int)
	for i := 0; i <= a.BitLen(); i++ {
		if a.Bit(i) == 1 {
			t.Lsh(b, uint(i))
			z.Xor(z, t)
		}
	}
	return z
}

// bigMod reduces polynomial a modulo polynomial f.
func bigMod(a, f *big.Int) *big.Int {
	z := new(big.Int).Set(a)
	df := f.BitLen() - 1
	t := new(big.Int)
	for z.BitLen()-1 >= df && z.Sign() != 0 {
		sh := uint(z.BitLen() - 1 - df)
		t.Lsh(f, sh)
		z.Xor(z, t)
	}
	return z
}

func toBig(a Elem) *big.Int {
	z := new(big.Int)
	for i := len(a) - 1; i >= 0; i-- {
		z.Lsh(z, 32)
		z.Or(z, big.NewInt(int64(a[i])))
	}
	return z
}

func (f *Field) bigModulus() *big.Int {
	z := big.NewInt(1)
	z.SetBit(z, f.M, 1)
	for _, e := range f.Terms {
		z.SetBit(z, e, 1)
	}
	return z
}

func randElem(r *rand.Rand, f *Field) Elem {
	z := New(f.K)
	for i := range z {
		z[i] = r.Uint32()
	}
	// Clear bits >= m.
	top := uint(f.M) % 32
	if top != 0 {
		z[f.K-1] &= (1 << top) - 1
	}
	return z
}

func TestClMulWord(t *testing.T) {
	err := quick.Check(func(a, b uint32) bool {
		hi, lo := ClMulWord(a, b)
		want := bigClMul(big.NewInt(int64(a)), big.NewInt(int64(b)))
		got := new(big.Int).SetUint64(uint64(hi)<<32 | uint64(lo))
		return want.Cmp(got) == 0
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// clMulWordBitSerial is the bit-serial 32x32 -> 64 carry-less product:
// the oracle for ClMulWord's window method.
func clMulWordBitSerial(a, b uint32) (hi, lo uint32) {
	var p uint64
	bb := uint64(b)
	for i := 0; i < 32; i++ {
		if a&(1<<uint(i)) != 0 {
			p ^= bb << uint(i)
		}
	}
	return uint32(p >> 32), uint32(p)
}

// TestClMulWordMatchesBitSerial checks the window method against the
// bit-serial product on edge words (0, 1, all ones, every single set
// bit) paired with each other, and on random pairs.
func TestClMulWordMatchesBitSerial(t *testing.T) {
	edges := []uint32{0, 1, 0xffffffff}
	for i := 0; i < 32; i++ {
		edges = append(edges, 1<<i)
	}
	check := func(a, b uint32) {
		hi, lo := ClMulWord(a, b)
		wantHi, wantLo := clMulWordBitSerial(a, b)
		if hi != wantHi || lo != wantLo {
			t.Fatalf("ClMulWord(%#x, %#x) = %#x:%#x, want %#x:%#x", a, b, hi, lo, wantHi, wantLo)
		}
	}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1<<16; i++ {
		check(r.Uint32(), r.Uint32())
	}
}

// edgeOperands returns k-word operands that stress limb packing and the
// comb's window and shift carries: all-ones, top-bit-only and random.
func edgeOperands(r *rand.Rand, k int) []Elem {
	ones, top, rnd := New(k), New(k), New(k)
	for i := range ones {
		ones[i] = ^uint32(0)
		rnd[i] = r.Uint32()
	}
	top[k-1] = 1 << 31
	return []Elem{ones, top, rnd}
}

func TestMulVariantsAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	type tc struct {
		name string
		a, b Elem
	}
	var cases []tc
	for _, name := range BinaryFieldNames {
		f := NISTField(name, Comb)
		for i := 0; i < 50; i++ {
			cases = append(cases, tc{name, randElem(r, f), randElem(r, f)})
		}
	}
	// Every word count up to one past the stack bound: odd and even
	// 64-bit limb packing, and the heap-scratch path.
	for k := 1; k <= stackWords+1; k++ {
		ops := edgeOperands(r, k)
		for _, a := range ops {
			for _, b := range ops {
				cases = append(cases, tc{fmt.Sprintf("k=%d", k), a, b})
			}
		}
	}
	for _, c := range cases {
		k := len(c.a)
		want := bigClMul(toBig(c.a), toBig(c.b))
		zc := New(2 * k)
		MulComb(zc, c.a, c.b)
		if toBig(zc).Cmp(want) != 0 {
			t.Fatalf("%s MulComb mismatch\n a=%s\n b=%s\n got=%s\n want=%x",
				c.name, c.a.Hex(), c.b.Hex(), zc.Hex(), want)
		}
		zl := New(2 * k)
		MulCl(zl, c.a, c.b)
		if toBig(zl).Cmp(want) != 0 {
			t.Fatalf("%s MulCl mismatch\n a=%s\n b=%s", c.name, c.a.Hex(), c.b.Hex())
		}
	}
}

func TestSqrVariantsAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	type tc struct {
		name string
		a    Elem
	}
	var cases []tc
	for _, name := range BinaryFieldNames {
		f := NISTField(name, Comb)
		for i := 0; i < 50; i++ {
			cases = append(cases, tc{name, randElem(r, f)})
		}
	}
	for k := 1; k <= stackWords+1; k++ {
		for _, a := range edgeOperands(r, k) {
			cases = append(cases, tc{fmt.Sprintf("k=%d", k), a})
		}
	}
	for _, c := range cases {
		k := len(c.a)
		want := bigClMul(toBig(c.a), toBig(c.a))
		z1 := New(2 * k)
		SqrTable(z1, c.a)
		if toBig(z1).Cmp(want) != 0 {
			t.Fatalf("%s SqrTable mismatch: a=%s", c.name, c.a.Hex())
		}
		z2 := New(2 * k)
		SqrCl(z2, c.a)
		if toBig(z2).Cmp(want) != 0 {
			t.Fatalf("%s SqrCl mismatch: a=%s", c.name, c.a.Hex())
		}
	}
}

func TestReduction(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, name := range BinaryFieldNames {
		f := NISTField(name, Comb)
		fb := f.bigModulus()
		for i := 0; i < 100; i++ {
			c := New(2 * f.K)
			for j := range c {
				c[j] = r.Uint32()
			}
			z := New(f.K)
			f.ReduceFull(z, c)
			want := bigMod(toBig(c), fb)
			if toBig(z).Cmp(want) != 0 {
				t.Fatalf("%s reduce mismatch\n c=%s\n got=%s\n want=%x",
					name, c.Hex(), z.Hex(), want)
			}
		}
	}
}

// TestReductionEdgeOperands checks the one-pass fold on the operands
// that stress it, on every NIST field and on F-607, whose elements spill
// to heap scratch: the all-ones 2k-word product, a single set bit at each
// position from m-1 to m+64 (across the partial top limb and the first
// full limb above it) and at 2m-2 (the top of a reduced product), and
// zero.
func TestReductionEdgeOperands(t *testing.T) {
	for _, name := range append(BinaryFieldNames, "F-607") {
		f := wideField(Comb)
		if name != "F-607" {
			f = NISTField(name, Comb)
		}
		fb := f.bigModulus()
		ones := New(2 * f.K)
		for i := range ones {
			ones[i] = ^uint32(0)
		}
		cases := []Elem{ones, New(2 * f.K)}
		bits := []int{2*f.M - 2}
		for bit := f.M - 1; bit <= f.M+64; bit++ {
			bits = append(bits, bit)
		}
		for _, bit := range bits {
			c := New(2 * f.K)
			c[bit/32] = 1 << (bit % 32)
			cases = append(cases, c)
		}
		for _, c := range cases {
			z := New(f.K)
			f.ReduceFull(z, c)
			if want := bigMod(toBig(c), fb); toBig(z).Cmp(want) != 0 {
				t.Fatalf("%s reduce mismatch\n c=%s\n got=%s\n want=%x",
					name, c.Hex(), z.Hex(), want)
			}
		}
	}
}

// TestNewFieldRejectsCloseTerm pins the one-pass fold's precondition:
// NewField accepts a term exactly 64 bits below m, and reduces with it
// exactly, but panics on one 63 bits below.
func TestNewFieldRejectsCloseTerm(t *testing.T) {
	f := NewField("F-607/543", 607, []int{543}, Comb)
	c := New(2 * f.K)
	for i := range c {
		c[i] = ^uint32(0)
	}
	z := New(f.K)
	f.ReduceFull(z, c)
	if want := bigMod(toBig(c), f.bigModulus()); toBig(z).Cmp(want) != 0 {
		t.Fatalf("m - term = 64: reduce mismatch\n got=%s\n want=%x", z.Hex(), want)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewField with m - term = 63 should panic")
		}
	}()
	NewField("F-607/544", 607, []int{544}, Comb)
}

// wideField returns GF(2^607) by x^607 + x^105 + 1: 19 words, one past
// the stack scratch bound, so its field operations run on heap scratch.
func wideField(alg MulAlg) *Field { return NewField("F-607", 607, []int{105}, alg) }

func TestFieldMul(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, name := range append(BinaryFieldNames, "F-607") {
		fc, fl := wideField(Comb), wideField(CLMul)
		if name != "F-607" {
			fc, fl = NISTField(name, Comb), NISTField(name, CLMul)
		}
		fb := fc.bigModulus()
		for i := 0; i < 40; i++ {
			a, b := randElem(r, fc), randElem(r, fc)
			want := bigMod(bigClMul(toBig(a), toBig(b)), fb)
			z1, z2 := New(fc.K), New(fc.K)
			fc.Mul(z1, a, b)
			fl.Mul(z2, a, b)
			if toBig(z1).Cmp(want) != 0 || toBig(z2).Cmp(want) != 0 {
				t.Fatalf("%s field mul mismatch", name)
			}
			fc.Sqr(z1, a)
			ws := bigMod(bigClMul(toBig(a), toBig(a)), fb)
			if toBig(z1).Cmp(ws) != 0 {
				t.Fatalf("%s field sqr mismatch", name)
			}
		}
	}
}

// TestFieldMulAliasing covers the in-place forms the curve layer uses,
// f.Sqr(t, t) and f.Mul(t, t, h): the product must not be corrupted by
// writing z while a or b is still being read.
func TestFieldMulAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, name := range BinaryFieldNames {
		for _, alg := range []MulAlg{Comb, CLMul} {
			f := NISTField(name, alg)
			fb := f.bigModulus()
			for i := 0; i < 10; i++ {
				a, b := randElem(r, f), randElem(r, f)
				wantMul := bigMod(bigClMul(toBig(a), toBig(b)), fb)
				wantSqr := bigMod(bigClMul(toBig(a), toBig(a)), fb)
				za := a.Clone()
				f.Mul(za, za, b)
				zb := b.Clone()
				f.Mul(zb, a, zb)
				zs := a.Clone()
				f.Sqr(zs, zs)
				zm := a.Clone()
				f.Mul(zm, zm, zm)
				if toBig(za).Cmp(wantMul) != 0 || toBig(zb).Cmp(wantMul) != 0 {
					t.Fatalf("%s/%v: aliased Mul mismatch", name, alg)
				}
				if toBig(zs).Cmp(wantSqr) != 0 || toBig(zm).Cmp(wantSqr) != 0 {
					t.Fatalf("%s/%v: aliased Sqr mismatch", name, alg)
				}
			}
		}
	}
}

func TestInversion(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, name := range BinaryFieldNames {
		f := NISTField(name, CLMul)
		for i := 0; i < 10; i++ {
			a := randElem(r, f)
			if a.IsZero() {
				continue
			}
			inv := New(f.K)
			f.Inv(inv, a)
			chk := New(f.K)
			f.Mul(chk, a, inv)
			if !chk.IsOne() {
				t.Fatalf("%s EEA inverse wrong: a=%s", name, a.Hex())
			}
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	f := NISTField("B-163", Comb)
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) should panic")
		}
	}()
	f.Inv(New(f.K), New(f.K))
}

func TestAddSelfIsZero(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := NISTField("B-233", Comb)
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		a := randElem(rr, f)
		z := New(f.K)
		f.Add(z, a, a)
		return z.IsZero()
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSquareIsSelfMul(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, name := range BinaryFieldNames {
		f := NISTField(name, CLMul)
		for i := 0; i < 20; i++ {
			a := randElem(r, f)
			s, m := New(f.K), New(f.K)
			f.Sqr(s, a)
			f.Mul(m, a, a)
			if !Equal(s, m) {
				t.Fatalf("%s: a^2 != a*a", name)
			}
		}
	}
}

func TestFrobeniusLinear(t *testing.T) {
	// In GF(2^m), squaring is linear: (a+b)^2 = a^2 + b^2.
	r := rand.New(rand.NewSource(8))
	f := NISTField("B-283", CLMul)
	for i := 0; i < 50; i++ {
		a, b := randElem(r, f), randElem(r, f)
		s, sa, sb := New(f.K), New(f.K), New(f.K)
		f.Add(s, a, b)
		f.Sqr(s, s)
		f.Sqr(sa, a)
		f.Sqr(sb, b)
		f.Add(sa, sa, sb)
		if !Equal(s, sa) {
			t.Fatal("squaring not linear")
		}
	}
}

func TestDegreeAndBits(t *testing.T) {
	a := MustHex("10000000000000000000000000000000000000001", 6)
	if a.Degree() != 160 {
		t.Errorf("Degree = %d, want 160", a.Degree())
	}
	var z Elem = New(2)
	if z.Degree() != -1 {
		t.Error("zero degree should be -1")
	}
}

func TestHexRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := NISTField("B-571", Comb)
	for i := 0; i < 20; i++ {
		a := randElem(r, f)
		b, err := FromHex(a.Hex(), f.K)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(a, b) {
			t.Fatal("hex round trip failed")
		}
	}
}

func TestCounters(t *testing.T) {
	f := NISTField("B-163", CLMul)
	f.Counters.Reset()
	a := f.One.Clone()
	z := New(f.K)
	f.Mul(z, a, a)
	f.Sqr(z, a)
	f.Add(z, a, a)
	if f.Counters.Mul != 1 || f.Counters.Sqr != 1 || f.Counters.Add != 1 {
		t.Errorf("counters wrong: %+v", f.Counters)
	}
}

// Hex renders a as hexadecimal, the inverse of FromHex.
func (a Elem) Hex() string {
	var b strings.Builder
	started := false
	for i := len(a) - 1; i >= 0; i-- {
		if started {
			fmt.Fprintf(&b, "%08x", a[i])
		} else if a[i] != 0 {
			fmt.Fprintf(&b, "%x", a[i])
			started = true
		}
	}
	if !started {
		return "0"
	}
	return b.String()
}
