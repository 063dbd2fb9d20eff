package mp

import "fmt"

// MulAlg selects the multiplication/reduction strategy a Field uses, which
// is how the paper's hardware/software configurations differ at the field
// layer (Section 4.2.1): the baseline uses operand scanning + NIST fast
// reduction, the ISA-extended core uses product scanning + NIST fast
// reduction, and Monte runs CIOS Montgomery in microcode.
type MulAlg int

const (
	// OSNIST is operand scanning followed by NIST fast reduction
	// (baseline software).
	OSNIST MulAlg = iota
	// PSNIST is product scanning followed by NIST fast reduction
	// (ISA-extended software).
	PSNIST
	// CIOS is coarsely integrated operand-scanning Montgomery (Monte).
	CIOS
	// FIPS is finely integrated product-scanning Montgomery.
	FIPS
)

func (a MulAlg) String() string {
	switch a {
	case OSNIST:
		return "operand-scanning+NIST"
	case PSNIST:
		return "product-scanning+NIST"
	case CIOS:
		return "CIOS-Montgomery"
	case FIPS:
		return "FIPS-Montgomery"
	}
	return fmt.Sprintf("MulAlg(%d)", int(a))
}

// Field is a prime field GF(p) with a chosen multiplication strategy.
// Values are k-word Ints in [0, p). When Alg is a Montgomery variant, the
// field still presents a plain-domain API: Mul internally converts as
// needed so all strategies are interchangeable (the paper's Monte
// microcode likewise keeps operands in the Montgomery domain only inside a
// scalar multiplication; our EC layer batches domain conversions the same
// way via MontIn/MontOut).
type Field struct {
	Name   string
	Bits   int
	K      int // words per element
	P      Int
	Alg    MulAlg
	N0Inv  uint32 // -p^-1 mod 2^32
	RR     Int    // R^2 mod p, R = 2^(32k)
	One    Int
	reduce int // NIST prime whose fast reduction applies (192…521); 0 → Montgomery

	// Counters tracks how many of each field operation ran; the
	// simulation layer reads these to cost a workload.
	Counters OpCounters
}

// OpCounters counts field-level operations for the energy/latency model.
type OpCounters struct {
	Mul, Sqr, Add, Sub, Inv, Red uint64
}

// Reset zeroes the counters.
func (c *OpCounters) Reset() { *c = OpCounters{} }

// NewField builds a prime field for one of the NIST primes (or any odd
// modulus when no fast reduction exists).
func NewField(name string, bits int, p Int, alg MulAlg) *Field {
	k := len(p)
	f := &Field{Name: name, Bits: bits, K: k, P: p.Clone(), Alg: alg}
	f.N0Inv = N0Inv32(p[0])
	f.One = New(k)
	f.One[0] = 1
	switch name {
	case "P-192", "P-224", "P-256", "P-384", "P-521":
		f.reduce = bits
	}
	// RR = 2^(64k) mod p, computed by repeated doubling.
	rr := New(k)
	rr[0] = 1
	for i := 0; i < 64*k; i++ {
		c := Shl1(rr, rr)
		if c != 0 || Cmp(rr, p) >= 0 {
			Sub(rr, rr, p)
		}
	}
	f.RR = rr
	return f
}

// NIST prime moduli.
var (
	P192 = MustHex("fffffffffffffffffffffffffffffffeffffffffffffffff", 6)
	P224 = MustHex("ffffffffffffffffffffffffffffffff000000000000000000000001", 7)
	P256 = MustHex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff", 8)
	P384 = MustHex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffeffffffff0000000000000000ffffffff", 12)
	P521 = MustHex("1ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", 17)
)

// NISTField returns a fresh Field for the named NIST prime.
func NISTField(name string, alg MulAlg) *Field {
	switch name {
	case "P-192":
		return NewField(name, 192, P192, alg)
	case "P-224":
		return NewField(name, 224, P224, alg)
	case "P-256":
		return NewField(name, 256, P256, alg)
	case "P-384":
		return NewField(name, 384, P384, alg)
	case "P-521":
		return NewField(name, 521, P521, alg)
	}
	panic("mp: unknown NIST field " + name)
}

// PrimeFieldNames lists the NIST prime fields in ascending security order.
var PrimeFieldNames = []string{"P-192", "P-224", "P-256", "P-384", "P-521"}

// Add sets z = a + b mod p.
func (f *Field) Add(z, a, b Int) {
	f.Counters.Add++
	carry := Add(z, a, b)
	if carry != 0 || Cmp(z, f.P) >= 0 {
		Sub(z, z, f.P)
	}
}

// Sub sets z = a - b mod p.
func (f *Field) Sub(z, a, b Int) {
	f.Counters.Sub++
	borrow := Sub(z, a, b)
	if borrow != 0 {
		Add(z, z, f.P)
	}
}

// Mul sets z = a * b mod p using the field's strategy. Operands and result
// are in the plain domain.
func (f *Field) Mul(z, a, b Int) {
	f.Counters.Mul++
	switch f.Alg {
	case OSNIST, PSNIST:
		var buf [2 * stackWords]uint32
		c := scratch(buf[:], 2*f.K)
		if f.Alg == OSNIST {
			MulOS(c, a, b)
		} else {
			MulPS(c, a, b)
		}
		f.Counters.Red++
		f.fastReduce(z, c)
	case CIOS, FIPS:
		// aR * b * R^-1 = a*b; convert a into the Montgomery domain
		// first, then one more Montgomery multiply by b.
		var buf [stackWords]uint32
		t := scratch(buf[:], f.K)
		f.montMul(t, a, f.RR) // t = aR
		f.montMul(z, t, b)    // z = ab
	}
}

// Sqr sets z = a^2 mod p.
func (f *Field) Sqr(z, a Int) {
	f.Counters.Sqr++
	switch f.Alg {
	case OSNIST, PSNIST:
		var buf [2 * stackWords]uint32
		c := scratch(buf[:], 2*f.K)
		if f.Alg == OSNIST {
			MulOS(c, a, a)
		} else {
			SqrPS(c, a)
		}
		f.Counters.Red++
		f.fastReduce(z, c)
	default:
		var buf [stackWords]uint32
		t := scratch(buf[:], f.K)
		f.montMul(t, a, f.RR)
		f.montMul(z, t, a)
	}
}

func (f *Field) montMul(z, a, b Int) {
	if f.Alg == FIPS {
		MontMulFIPS(z, a, b, f.P, f.N0Inv)
	} else {
		MontMulCIOS(z, a, b, f.P, f.N0Inv)
	}
}

// MontIn converts a into the Montgomery domain (aR mod p).
func (f *Field) MontIn(z, a Int) { f.montMul(z, a, f.RR) }

// MontOut converts a out of the Montgomery domain (aR^-1... given aR it
// yields a).
func (f *Field) MontOut(z, a Int) { f.montMul(z, a, f.One) }

// MontMul sets z = a*b*R^-1 mod p directly (both operands already in the
// Montgomery domain), counting a single field multiplication.
func (f *Field) MontMul(z, a, b Int) {
	f.Counters.Mul++
	f.montMul(z, a, b)
}

// FastReduce reduces a full 2k-word product with the field's NIST routine
// (or Montgomery fallback); exported for the kernel cross-checks.
func (f *Field) FastReduce(c Int) Int {
	z := New(f.K)
	f.fastReduce(z, c)
	return z
}

// stackWords bounds the field size, in 32-bit words, whose product,
// Montgomery-domain and Montgomery-multiplication buffers live on the
// stack: P-521 is 17 words.
const stackWords = 17

// scratch returns buf[:n], or a fresh slice when n exceeds buf.
func scratch[T uint32 | uint64](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, n)
	}
	return buf[:n]
}

// fastReduce sets z = c mod p for a 2k-word c. The routine is chosen by a
// switch rather than a function value: through an indirect call the
// caller's product buffer would escape to the heap.
func (f *Field) fastReduce(z, c Int) {
	switch f.reduce {
	case 192:
		reduce192(z, f.P, c)
	case 224:
		reduce224(z, f.P, c)
	case 256:
		reduce256(z, f.P, c)
	case 384:
		reduce384(z, f.P, c)
	case 521:
		reduce521(z, f.P, c)
	default:
		// Moduli without a NIST routine: REDC gives c·R^-1, and one
		// Montgomery multiplication by RR = R^2 mod p restores c mod p.
		var buf [stackWords]uint32
		t := scratch(buf[:], f.K)
		MontREDC(t, c, f.P, f.N0Inv)
		MontMulCIOS(z, t, f.RR, f.P, f.N0Inv)
	}
}

// Inv sets z = a^-1 mod p using the binary extended Euclidean algorithm
// (the software inversion the paper uses outside the accelerators).
func (f *Field) Inv(z, a Int) {
	f.Counters.Inv++
	copy(z, f.invBEEA(a))
}

// InvFermat sets z = a^(p-2) mod p by square-and-multiply over Montgomery
// multiplication — the O(n^3) inversion Monte and Billie run in microcode
// (Section 4.2.4).
func (f *Field) InvFermat(z, a Int) {
	f.Counters.Inv++
	e := make(Int, f.K)
	Sub(e, f.P, f.One)
	Sub(e, e, f.One) // e = p - 2
	// Montgomery-domain exponentiation.
	base := make(Int, f.K)
	f.montMul(base, a, f.RR) // aR
	res := make(Int, f.K)
	f.montMul(res, f.One, f.RR) // 1 in the Montgomery domain is R mod p
	for i := e.BitLen() - 1; i >= 0; i-- {
		f.montMul(res, res, res)
		f.Counters.Sqr++
		if e.Bit(i) == 1 {
			f.montMul(res, res, base)
			f.Counters.Mul++
		}
	}
	f.montMul(z, res, f.One)
}

// invBEEA is Algorithm 2.22 from the Guide to ECC: binary inversion for an
// odd modulus.
func (f *Field) invBEEA(a Int) Int {
	k := f.K
	u := a.Clone()
	v := f.P.Clone()
	x1 := New(k)
	x1[0] = 1
	x2 := New(k)
	for !u.IsOne() && !v.IsOne() {
		for !u.IsOdd() && !u.IsZero() {
			Shr1(u, u)
			if x1.IsOdd() {
				c := Add(x1, x1, f.P)
				Shr1(x1, x1)
				x1[k-1] |= c << 31
			} else {
				Shr1(x1, x1)
			}
		}
		for !v.IsOdd() && !v.IsZero() {
			Shr1(v, v)
			if x2.IsOdd() {
				c := Add(x2, x2, f.P)
				Shr1(x2, x2)
				x2[k-1] |= c << 31
			} else {
				Shr1(x2, x2)
			}
		}
		if Cmp(u, v) >= 0 {
			f.Sub(u, u, v)
			f.Counters.Sub--
			f.Sub(x1, x1, x2)
			f.Counters.Sub--
		} else {
			f.Sub(v, v, u)
			f.Counters.Sub--
			f.Sub(x2, x2, x1)
			f.Counters.Sub--
		}
	}
	if u.IsOne() {
		return x1
	}
	return x2
}

// Neg sets z = -a mod p (z = p - a for a != 0).
func (f *Field) Neg(z, a Int) {
	if a.IsZero() {
		copy(z, a)
		return
	}
	Sub(z, f.P, a)
}
