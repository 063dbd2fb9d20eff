// Package gf2 implements the GF(2^m) "carry-less" binary-field arithmetic
// of Sections 2.1.4 and 4.2.2–4.2.3: comb multiplication with 4-bit
// windows (the software-only path), word-level carry-less multiplication
// (the MULGF2/MADDGF2 ISA-extension path), table-driven and CLMUL fast
// squaring, NIST fast reduction for the five binary fields, and inversion
// by the polynomial extended Euclidean algorithm. (The accelerators'
// Itoh–Tsujii inversion is priced, not executed: see sim and billie.)
//
// Elements are 32-bit words, the datapath the paper's kernels run on, but
// the host computes on 64-bit limbs: a Comb field multiplication packs
// its operands once, combs them into a 64-bit product on stack scratch
// and reduces it with fold, the one-pass 64-bit NIST fold; table squaring
// spreads words straight into 64-bit limbs for the same fold. The CLMul
// path and inversion reduce through ReduceFull, which runs fold too.
package gf2

import (
	"fmt"
	"strings"
)

// Elem is a binary polynomial of degree < m stored as little-endian 32-bit
// words (bit i of word j is the coefficient of x^(32j+i)).
type Elem []uint32

// New returns a zero element with k words.
func New(k int) Elem { return make(Elem, k) }

// Clone returns an independent copy.
func (a Elem) Clone() Elem {
	z := make(Elem, len(a))
	copy(z, a)
	return z
}

// IsZero reports whether a == 0.
func (a Elem) IsZero() bool {
	for _, w := range a {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsOne reports whether a == 1.
func (a Elem) IsOne() bool {
	if len(a) == 0 || a[0] != 1 {
		return false
	}
	for _, w := range a[1:] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Degree returns the degree of a, or -1 for the zero polynomial.
func (a Elem) Degree() int {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != 0 {
			n := 31
			for a[i]>>uint(n) == 0 {
				n--
			}
			return 32*i + n
		}
	}
	return -1
}

// Equal reports a == b (lengths may differ; missing words are zero).
func Equal(a, b Elem) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		var av, bv uint32
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if av != bv {
			return false
		}
	}
	return true
}

// FromHex parses hex into an Elem of k words.
func FromHex(s string, k int) (Elem, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	if s == "" {
		return nil, fmt.Errorf("gf2: empty hex string")
	}
	z := New(k)
	bit := 0
	for i := len(s) - 1; i >= 0; i-- {
		c := s[i]
		var v uint32
		switch {
		case c >= '0' && c <= '9':
			v = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint32(c-'A') + 10
		default:
			return nil, fmt.Errorf("gf2: invalid hex digit %q", c)
		}
		if v != 0 {
			w := bit / 32
			if w >= k {
				return nil, fmt.Errorf("gf2: value does not fit in %d words", k)
			}
			z[w] |= v << uint(bit%32)
		}
		bit += 4
	}
	return z, nil
}

// MustHex is FromHex that panics on error.
func MustHex(s string, k int) Elem {
	z, err := FromHex(s, k)
	if err != nil {
		panic(err)
	}
	return z
}

// Add sets z = a + b (bitwise XOR — binary-field addition needs no
// reduction, Section 2.1.4). z may alias a or b.
func Add(z, a, b Elem) {
	for i := range z {
		z[i] = a[i] ^ b[i]
	}
}

// ClMulWord is the 32x32 -> 64 carry-less multiplication the MULGF2
// instruction implements (Table 5.2). The host computes it with a 4-bit
// window: a table of b times every 4-bit polynomial, then one lookup per
// nibble of a, most significant first.
func ClMulWord(a, b uint32) (hi, lo uint32) {
	b1 := uint64(b)
	b2, b4, b8 := b1<<1, b1<<2, b1<<3
	b3, b12 := b2^b1, b8^b4
	tab := [16]uint64{
		0, b1, b2, b3, b4, b4 ^ b1, b4 ^ b2, b4 ^ b3,
		b8, b8 ^ b1, b8 ^ b2, b8 ^ b3, b12, b12 ^ b1, b12 ^ b2, b12 ^ b3,
	}
	var p uint64
	for s := 28; s >= 0; s -= 4 {
		p = p<<4 ^ tab[a>>uint(s)&15]
	}
	return uint32(p >> 32), uint32(p)
}

// MulCl sets z = a * b (unreduced, 2k words) using word-level carry-less
// multiplication in a product-scanning arrangement — the ISA-extended
// software path (Algorithm 3 with MADDGF2).
func MulCl(z, a, b Elem) {
	k := len(a)
	var u, v uint32
	for i := 0; i <= 2*k-2; i++ {
		lo := 0
		if i >= k {
			lo = i - k + 1
		}
		hi := i
		if hi > k-1 {
			hi = k - 1
		}
		for j := lo; j <= hi; j++ {
			ph, pl := ClMulWord(a[j], b[i-j])
			v ^= pl
			u ^= ph
		}
		z[i] = v
		v, u = u, 0
	}
	z[2*k-1] = v
}

// MulComb sets z = a * b (unreduced, 2k words) by the comb method
// (Algorithm 6): mulComb, the one comb Field.Mul also runs, unpacked to
// 32-bit words. z may alias a or b.
func MulComb(z, a, b Elem) {
	k := len(a)
	var cbuf [2 * stackLimbs]uint64
	c := scratch(cbuf[:], 2*((k+1)/2))
	mulComb(c, a, b)
	unpack(z[:2*k], c)
}

// mulComb sets c = a * b, on 64-bit limbs, using the left-to-right comb
// method with 4-bit windows (Algorithm 6), the software-only
// multiplication for processors without a carry-less multiplier. It packs
// the k-word operands into n = ceil(k/2) limbs and fills c's 2n limbs.
// The host runs the comb on 64-bit limbs, half the XOR and shift work of
// 32-bit ones; the Algorithm 6 kernel the model prices (kernels.MulComb)
// stays on the 32-bit datapath.
func mulComb(c []uint64, a32, b32 Elem) {
	const w = 4
	n := len(c) / 2
	var abuf, bbuf [stackLimbs]uint64
	a, b := scratch(abuf[:], n), scratch(bbuf[:], n)
	pack(a, a32)
	pack(b, b32)
	// Precompute rows[u] = u(x)·b(x) for all u of degree < 4, n+1 limbs
	// each (scratch starts zeroed).
	s := n + 1
	var tbuf [16 * (stackLimbs + 1)]uint64
	tab := scratch(tbuf[:], 16*s)
	var rows [16][]uint64
	for u := range rows {
		rows[u] = tab[u*s : (u+1)*s]
	}
	copy(rows[1], b)
	for u := 2; u < 16; u += 2 {
		// rows[u] = rows[u/2] << 1 ; rows[u+1] = rows[u] + b
		src, even, odd := rows[u/2], rows[u], rows[u+1]
		var carry uint64
		for i, sw := range src {
			even[i] = sw<<1 | carry
			carry = sw >> 63
		}
		copy(odd, even)
		for i, bw := range b {
			odd[i] ^= bw
		}
	}
	clear(c)
	for j := 64/w - 1; j >= 0; j-- {
		for i, aw := range a {
			if u := (aw >> uint(w*j)) & 0xf; u != 0 {
				row := rows[u]
				ci := c[i : i+len(row)]
				for l, t := range row {
					ci[l] ^= t
				}
			}
		}
		if j != 0 {
			// c <<= w
			var carry uint64
			for i, cw := range c {
				c[i] = cw<<w | carry
				carry = cw >> (64 - w)
			}
		}
	}
}

// stackWords bounds the field size, in 32-bit words, whose multiplication
// and reduction scratch lives on the stack: B-571 is 18 words, stackLimbs
// 64-bit limbs.
const (
	stackWords = 18
	stackLimbs = stackWords / 2
)

// scratch returns buf[:n], or a fresh slice when n exceeds buf.
func scratch[T uint32 | uint64](buf []T, n int) []T {
	if n > len(buf) {
		return make([]T, n)
	}
	return buf[:n]
}

// pack packs the 32-bit words of a into the 64-bit limbs z, low word first;
// an odd top word is zero-extended.
func pack(z []uint64, a Elem) {
	for i := range z {
		z[i] = uint64(a[2*i])
		if 2*i+1 < len(a) {
			z[i] |= uint64(a[2*i+1]) << 32
		}
	}
}

// unpack sets the 32-bit words of z from the low limbs of c.
func unpack(z Elem, c []uint64) {
	for i := range z {
		z[i] = uint32(c[i/2] >> (32 * uint(i%2)))
	}
}

// sqrTable maps an 8-bit polynomial to its 16-bit square (zeros interleaved)
// — the precomputed table the software-only squaring uses (Section 4.2.3).
var sqrTable = func() [256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		var s uint16
		for b := 0; b < 8; b++ {
			if i&(1<<uint(b)) != 0 {
				s |= 1 << uint(2*b)
			}
		}
		t[i] = s
	}
	return t
}()

// spread returns w^2 as a 64-bit polynomial, zeros interleaved through
// sqrTable.
func spread(w uint32) uint64 {
	return uint64(sqrTable[w&0xff]) | uint64(sqrTable[(w>>8)&0xff])<<16 |
		uint64(sqrTable[(w>>16)&0xff])<<32 | uint64(sqrTable[w>>24])<<48
}

// SqrTable sets z = a^2 (unreduced, 2k words) by interleaving zeros with an
// 8-bit lookup table.
func SqrTable(z, a Elem) {
	for i, w := range a {
		s := spread(w)
		z[2*i], z[2*i+1] = uint32(s), uint32(s>>32)
	}
}

// SqrCl sets z = a^2 (unreduced) using the carry-less multiplier with a
// 32-bit window, the ISA-extended squaring path.
func SqrCl(z, a Elem) {
	for i := 0; i < len(a); i++ {
		hi, lo := ClMulWord(a[i], a[i])
		z[2*i] = lo
		z[2*i+1] = hi
	}
}
