// Package gf2 implements the GF(2^m) "carry-less" binary-field arithmetic
// of Sections 2.1.4 and 4.2.2–4.2.3: comb multiplication with 4-bit
// windows (the software-only path), word-level carry-less multiplication
// (the MULGF2/MADDGF2 ISA-extension path), table-driven and CLMUL fast
// squaring, NIST fast reduction for the five binary fields, and inversion
// by the polynomial extended Euclidean algorithm. (The accelerators'
// Itoh–Tsujii inversion is priced, not executed: see sim and billie.)
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
// instruction implements (Table 5.2).
func ClMulWord(a, b uint32) (hi, lo uint32) {
	var p uint64
	bb := uint64(b)
	for i := 0; i < 32; i++ {
		if a&(1<<uint(i)) != 0 {
			p ^= bb << uint(i)
		}
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

// MulComb sets z = a * b (unreduced, 2k words) using the left-to-right comb
// method with 4-bit windows (Algorithm 6), the software-only multiplication
// for processors without a carry-less multiplier. z may alias a or b.
//
// The host runs the comb on 64-bit limbs, half the XOR and shift work of
// 32-bit ones; the Algorithm 6 kernel the model prices (kernels.MulComb)
// stays on the 32-bit datapath. Fields up to stackWords words run on stack
// scratch, larger ones on heap scratch.
func MulComb(z, a, b Elem) {
	const w = 4
	k := len(a)
	n := (k + 1) / 2 // 64-bit limbs per operand
	var abuf, bbuf [stackWords / 2]uint64
	var tbuf [16 * (stackWords/2 + 1)]uint64
	var cbuf [stackWords]uint64
	a64, b64 := scratch(abuf[:], n), scratch(bbuf[:], n)
	pack(a64, a)
	pack(b64, b)
	// Precompute Bu = u(x)·b(x) for all u of degree < 4, n+1 limbs each
	// (scratch starts zeroed).
	tab := scratch(tbuf[:], 16*(n+1))
	copy(tab[n+1:], b64)
	for u := 2; u < 16; u += 2 {
		// tab[u] = tab[u/2] << 1 ; tab[u+1] = tab[u] + b
		src, even, odd := tab[u/2*(n+1):][:n+1], tab[u*(n+1):][:n+1], tab[(u+1)*(n+1):][:n+1]
		var carry uint64
		for i := range even {
			even[i] = src[i]<<1 | carry
			carry = src[i] >> 63
		}
		copy(odd, even)
		for i, bw := range b64 {
			odd[i] ^= bw
		}
	}
	c := scratch(cbuf[:], 2*n)
	for j := 64/w - 1; j >= 0; j-- {
		for i, aw := range a64 {
			if u := (aw >> uint(w*j)) & 0xf; u != 0 {
				row, ci := tab[int(u)*(n+1):][:n+1], c[i:][:n+1]
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
	for i := range z[:2*k] {
		z[i] = uint32(c[i/2] >> (32 * uint(i%2)))
	}
}

// stackWords bounds the field size, in 32-bit words, whose multiplication
// and reduction scratch lives on the stack: B-571 is 18 words.
const stackWords = 18

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

// SqrTable sets z = a^2 (unreduced, 2k words) by interleaving zeros with an
// 8-bit lookup table.
func SqrTable(z, a Elem) {
	k := len(a)
	for i := 0; i < k; i++ {
		w := a[i]
		z[2*i] = uint32(sqrTable[w&0xff]) | uint32(sqrTable[(w>>8)&0xff])<<16
		z[2*i+1] = uint32(sqrTable[(w>>16)&0xff]) | uint32(sqrTable[(w>>24)&0xff])<<16
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
