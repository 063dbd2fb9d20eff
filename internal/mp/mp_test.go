package mp

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func toBig(x Int) *big.Int {
	z := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		z.Lsh(z, 32)
		z.Or(z, big.NewInt(int64(x[i])))
	}
	return z
}

func fromBig(v *big.Int, k int) Int {
	z := New(k)
	t := new(big.Int).Set(v)
	mask := big.NewInt(0xffffffff)
	for i := 0; i < k; i++ {
		w := new(big.Int).And(t, mask)
		z[i] = uint32(w.Uint64())
		t.Rsh(t, 32)
	}
	return z
}

func randInt(r *rand.Rand, k int) Int {
	z := New(k)
	for i := range z {
		z[i] = r.Uint32()
	}
	return z
}

func randMod(r *rand.Rand, p Int) Int {
	bits := p.BitLen()
	topBits := uint(bits % 32)
	for {
		z := randInt(r, len(p))
		// Mask to the modulus bit length so the rejection rate is < 1/2.
		for i := (bits + 31) / 32; i < len(z); i++ {
			z[i] = 0
		}
		if topBits != 0 {
			z[(bits-1)/32] &= (1 << topBits) - 1
		}
		if Cmp(z, p) < 0 {
			return z
		}
	}
}

func TestHexRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		x := randInt(r, 6)
		y, err := FromHex(x.Hex(), 6)
		if err != nil {
			t.Fatal(err)
		}
		if Cmp(x, y) != 0 {
			t.Fatalf("round trip failed: %s != %s", x.Hex(), y.Hex())
		}
	}
}

func TestFromHexErrors(t *testing.T) {
	if _, err := FromHex("", 4); err == nil {
		t.Error("empty string should fail")
	}
	if _, err := FromHex("zz", 4); err == nil {
		t.Error("invalid digit should fail")
	}
	if _, err := FromHex("1ffffffff", 1); err == nil {
		t.Error("overflow should fail")
	}
	if v, err := FromHex("0x10", 1); err != nil || v[0] != 16 {
		t.Errorf("0x prefix: got %v, %v", v, err)
	}
}

func TestAddSubAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		k := 1 + r.Intn(20)
		a, b := randInt(r, k), randInt(r, k)
		z := New(k)
		carry := Add(z, a, b)
		want := new(big.Int).Add(toBig(a), toBig(b))
		got := toBig(z)
		got.Or(got, new(big.Int).Lsh(big.NewInt(int64(carry)), uint(32*k)))
		if want.Cmp(got) != 0 {
			t.Fatalf("add mismatch k=%d", k)
		}
		z2 := New(k)
		borrow := Sub(z2, a, b)
		diff := new(big.Int).Sub(toBig(a), toBig(b))
		if borrow == 1 {
			diff.Add(diff, new(big.Int).Lsh(big.NewInt(1), uint(32*k)))
		}
		if diff.Cmp(toBig(z2)) != 0 {
			t.Fatalf("sub mismatch k=%d", k)
		}
	}
}

func TestMulAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		k := 1 + r.Intn(18)
		a, b := randInt(r, k), randInt(r, k)
		want := new(big.Int).Mul(toBig(a), toBig(b))
		zos := New(2 * k)
		MulOS(zos, a, b)
		if toBig(zos).Cmp(want) != 0 {
			t.Fatalf("MulOS mismatch k=%d", k)
		}
		zps := New(2 * k)
		MulPS(zps, a, b)
		if toBig(zps).Cmp(want) != 0 {
			t.Fatalf("MulPS mismatch k=%d", k)
		}
	}
}

func TestSqrPSAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		k := 1 + r.Intn(18)
		a := randInt(r, k)
		want := new(big.Int).Mul(toBig(a), toBig(a))
		z := New(2 * k)
		SqrPS(z, a)
		if toBig(z).Cmp(want) != 0 {
			t.Fatalf("SqrPS mismatch k=%d a=%s", k, a.Hex())
		}
	}
}

func TestN0Inv32(t *testing.T) {
	err := quick.Check(func(n uint32) bool {
		n |= 1 // must be odd
		inv := N0Inv32(n)
		return n*inv == 0xffffffff+1-1 && n*inv+1 == 0 || n*(-inv) == 1
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNISTReduction(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, name := range PrimeFieldNames {
		f := NISTField(name, OSNIST)
		pb := toBig(f.P)
		for i := 0; i < 200; i++ {
			a, b := randMod(r, f.P), randMod(r, f.P)
			c := New(2 * f.K)
			MulOS(c, a, b)
			got := f.FastReduce(c)
			want := new(big.Int).Mul(toBig(a), toBig(b))
			want.Mod(want, pb)
			if toBig(got).Cmp(want) != 0 {
				t.Fatalf("%s: reduce mismatch\n a=%s\n b=%s\n got=%s\n want=%x",
					name, a.Hex(), b.Hex(), got.Hex(), want)
			}
		}
	}
}

func TestMontgomeryVariants(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, name := range PrimeFieldNames {
		f := NISTField(name, CIOS)
		pb := toBig(f.P)
		R := new(big.Int).Lsh(big.NewInt(1), uint(32*f.K))
		Rinv := new(big.Int).ModInverse(R, pb)
		for i := 0; i < 100; i++ {
			a, b := randMod(r, f.P), randMod(r, f.P)
			want := new(big.Int).Mul(toBig(a), toBig(b))
			want.Mul(want, Rinv)
			want.Mod(want, pb)
			z1 := New(f.K)
			MontMulCIOS(z1, a, b, f.P, f.N0Inv)
			if toBig(z1).Cmp(want) != 0 {
				t.Fatalf("%s CIOS mismatch", name)
			}
			z2 := New(f.K)
			MontMulFIPS(z2, a, b, f.P, f.N0Inv)
			if toBig(z2).Cmp(want) != 0 {
				t.Fatalf("%s FIPS mismatch", name)
			}
			// REDC of the full product should equal a*b*R^-1 too.
			c := New(2 * f.K)
			MulOS(c, a, b)
			z3 := New(f.K)
			MontREDC(z3, c, f.P, f.N0Inv)
			if toBig(z3).Cmp(want) != 0 {
				t.Fatalf("%s REDC mismatch", name)
			}
		}
	}
}

// TestMontgomeryScratchSizes checks CIOS, FIPS and REDC against math/big
// on random odd moduli at the stack scratch bound and one word above it,
// where the buffers come from the heap.
func TestMontgomeryScratchSizes(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, k := range []int{1, stackWords, stackWords + 1} {
		n := randInt(r, k)
		n[0] |= 1
		n[k-1] |= 1 << 31
		nb := toBig(n)
		n0inv := N0Inv32(n[0])
		Rinv := new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), uint(32*k)), nb)
		for i := 0; i < 20; i++ {
			a, b := randMod(r, n), randMod(r, n)
			want := new(big.Int).Mul(toBig(a), toBig(b))
			want.Mul(want, Rinv).Mod(want, nb)
			z := New(k)
			MontMulCIOS(z, a, b, n, n0inv)
			if toBig(z).Cmp(want) != 0 {
				t.Fatalf("k=%d CIOS mismatch", k)
			}
			MontMulFIPS(z, a, b, n, n0inv)
			if toBig(z).Cmp(want) != 0 {
				t.Fatalf("k=%d FIPS mismatch", k)
			}
			c := New(2 * k)
			MulOS(c, a, b)
			MontREDC(z, c, n, n0inv)
			if toBig(z).Cmp(want) != 0 {
				t.Fatalf("k=%d REDC mismatch", k)
			}
		}
	}
}

func TestGenericCIOSWidths(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, name := range []string{"P-192", "P-256", "P-384"} {
		f := NISTField(name, CIOS)
		pb := toBig(f.P)
		for _, w := range []uint{8, 16, 32, 64} {
			n := ToDigits(f.P, w)
			n0 := N0InvW(n[0], w)
			R := new(big.Int).Lsh(big.NewInt(1), uint(w)*uint(len(n)))
			Rinv := new(big.Int).ModInverse(R, pb)
			for i := 0; i < 25; i++ {
				a, b := randMod(r, f.P), randMod(r, f.P)
				got := GenericCIOS(ToDigits(a, w), ToDigits(b, w), n, w, n0)
				want := new(big.Int).Mul(toBig(a), toBig(b))
				want.Mul(want, Rinv)
				want.Mod(want, pb)
				gi := FromDigits(got, w, f.K)
				if toBig(gi).Cmp(want) != 0 {
					t.Fatalf("%s w=%d mismatch\n a=%s\n b=%s\n got=%s\n want=%x",
						name, w, a.Hex(), b.Hex(), gi.Hex(), want)
				}
			}
		}
	}
}

func TestFieldMulAllAlgsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, name := range PrimeFieldNames {
		fields := []*Field{
			NISTField(name, OSNIST), NISTField(name, PSNIST),
			NISTField(name, CIOS), NISTField(name, FIPS),
		}
		pb := toBig(fields[0].P)
		// p−1 is the largest operand: the widest product and the most
		// folds in every NIST reduction.
		pm1 := New(fields[0].K)
		Sub(pm1, fields[0].P, fields[0].One)
		pairs := [][2]Int{{pm1, pm1}, {pm1, fields[0].One}, {pm1, randMod(r, fields[0].P)}}
		for i := 0; i < 40; i++ {
			pairs = append(pairs, [2]Int{randMod(r, fields[0].P), randMod(r, fields[0].P)})
		}
		for _, pair := range pairs {
			a, b := pair[0], pair[1]
			want := new(big.Int).Mul(toBig(a), toBig(b))
			want.Mod(want, pb)
			for _, f := range fields {
				z := New(f.K)
				f.Mul(z, a, b)
				if toBig(z).Cmp(want) != 0 {
					t.Fatalf("%s alg=%v mul mismatch", name, f.Alg)
				}
				z2 := New(f.K)
				f.Sqr(z2, a)
				ws := new(big.Int).Mul(toBig(a), toBig(a))
				ws.Mod(ws, pb)
				if toBig(z2).Cmp(ws) != 0 {
					t.Fatalf("%s alg=%v sqr mismatch", name, f.Alg)
				}
			}
		}
	}
}

// TestFieldMulAliasing covers the in-place forms the curve layer uses,
// f.Sqr(t, t) and f.Mul(t, t, h), on every algorithm.
func TestFieldMulAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, name := range PrimeFieldNames {
		for _, alg := range []MulAlg{OSNIST, PSNIST, CIOS, FIPS} {
			f := NISTField(name, alg)
			pb := toBig(f.P)
			for i := 0; i < 10; i++ {
				a, b := randMod(r, f.P), randMod(r, f.P)
				wantMul := new(big.Int).Mul(toBig(a), toBig(b))
				wantMul.Mod(wantMul, pb)
				wantSqr := new(big.Int).Mul(toBig(a), toBig(a))
				wantSqr.Mod(wantSqr, pb)
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

func TestFieldAddSubNeg(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, name := range PrimeFieldNames {
		f := NISTField(name, OSNIST)
		pb := toBig(f.P)
		for i := 0; i < 100; i++ {
			a, b := randMod(r, f.P), randMod(r, f.P)
			z := New(f.K)
			f.Add(z, a, b)
			want := new(big.Int).Add(toBig(a), toBig(b))
			want.Mod(want, pb)
			if toBig(z).Cmp(want) != 0 {
				t.Fatalf("%s add mismatch", name)
			}
			f.Sub(z, a, b)
			want = new(big.Int).Sub(toBig(a), toBig(b))
			want.Mod(want, pb)
			if toBig(z).Cmp(want) != 0 {
				t.Fatalf("%s sub mismatch", name)
			}
			f.Neg(z, a)
			want = new(big.Int).Neg(toBig(a))
			want.Mod(want, pb)
			if toBig(z).Cmp(want) != 0 {
				t.Fatalf("%s neg mismatch", name)
			}
		}
	}
}

func TestInversion(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, name := range PrimeFieldNames {
		f := NISTField(name, OSNIST)
		for i := 0; i < 20; i++ {
			a := randMod(r, f.P)
			if a.IsZero() {
				continue
			}
			inv := New(f.K)
			f.Inv(inv, a)
			chk := New(f.K)
			f.Mul(chk, a, inv)
			if !chk.IsOne() {
				t.Fatalf("%s BEEA inverse wrong: a=%s inv=%s", name, a.Hex(), inv.Hex())
			}
			inv2 := New(f.K)
			f.InvFermat(inv2, a)
			if Cmp(inv, inv2) != 0 {
				t.Fatalf("%s Fermat inverse disagrees with BEEA", name)
			}
		}
	}
}

func TestMontInOut(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := NISTField("P-256", CIOS)
	for i := 0; i < 50; i++ {
		a := randMod(r, f.P)
		m := New(f.K)
		f.MontIn(m, a)
		back := New(f.K)
		f.MontOut(back, m)
		if Cmp(a, back) != 0 {
			t.Fatalf("Montgomery round trip failed")
		}
	}
}

func TestBitHelpers(t *testing.T) {
	x := MustHex("8000000000000001", 2)
	if x.BitLen() != 64 {
		t.Errorf("BitLen = %d, want 64", x.BitLen())
	}
	if x.Bit(0) != 1 || x.Bit(1) != 0 || x.Bit(63) != 1 || x.Bit(64) != 0 {
		t.Error("Bit() wrong")
	}
	if !x.IsOdd() {
		t.Error("IsOdd wrong")
	}
	var zero Int = New(3)
	if zero.BitLen() != 0 || !zero.IsZero() {
		t.Error("zero helpers wrong")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 50; i++ {
		k := 1 + r.Intn(17)
		x := randInt(r, k)
		y := FromBytes(x.Bytes(), k)
		if Cmp(x, y) != 0 {
			t.Fatalf("bytes round trip failed")
		}
	}
}

func TestShifts(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		k := 1 + r.Intn(10)
		x := randInt(r, k)
		want := new(big.Int).Lsh(toBig(x), 1)
		z := New(k)
		c := Shl1(z, x)
		got := toBig(z)
		got.Or(got, new(big.Int).Lsh(big.NewInt(int64(c)), uint(32*k)))
		if want.Cmp(got) != 0 {
			t.Fatal("Shl1 mismatch")
		}
		want = new(big.Int).Rsh(toBig(x), 1)
		Shr1(z, x)
		if want.Cmp(toBig(z)) != 0 {
			t.Fatal("Shr1 mismatch")
		}
	}
}

func TestPropMulCommutative(t *testing.T) {
	f := NISTField("P-192", OSNIST)
	r := rand.New(rand.NewSource(14))
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		a, b := randMod(rr, f.P), randMod(rr, f.P)
		z1, z2 := New(f.K), New(f.K)
		f.Mul(z1, a, b)
		f.Mul(z2, b, a)
		return Cmp(z1, z2) == 0
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPropDistributive(t *testing.T) {
	f := NISTField("P-256", PSNIST)
	r := rand.New(rand.NewSource(15))
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		a, b, c := randMod(rr, f.P), randMod(rr, f.P), randMod(rr, f.P)
		// a*(b+c) == a*b + a*c
		s, l, r1, r2 := New(f.K), New(f.K), New(f.K), New(f.K)
		f.Add(s, b, c)
		f.Mul(l, a, s)
		f.Mul(r1, a, b)
		f.Mul(r2, a, c)
		f.Add(r1, r1, r2)
		return Cmp(l, r1) == 0
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCounters(t *testing.T) {
	f := NISTField("P-192", OSNIST)
	f.Counters.Reset()
	a := f.One.Clone()
	z := New(f.K)
	f.Mul(z, a, a)
	f.Add(z, a, a)
	f.Sqr(z, a)
	if f.Counters.Mul != 1 || f.Counters.Add != 1 || f.Counters.Sqr != 1 {
		t.Errorf("counters wrong: %+v", f.Counters)
	}
}
