// Package mp implements the multi-precision prime-field arithmetic that the
// paper's software stack runs on a 32-bit datapath: operand-scanning and
// product-scanning multiplication, Montgomery (CIOS/FIPS) multiplication,
// NIST fast reduction for the five prime fields, and modular inversion by
// both the binary extended Euclidean algorithm and Fermat's little theorem.
//
// Elements are little-endian arrays of 32-bit words, mirroring how the
// paper's C++ routines store big integers in RAM (Section 4.2).
package mp

import (
	"fmt"
	"strings"
)

// Int is a multi-precision unsigned integer stored as little-endian 32-bit
// words. The word width matches the 32-bit datapath of the evaluated
// microarchitectures.
type Int []uint32

// New returns a zero Int with k words.
func New(k int) Int { return make(Int, k) }

// FromHex parses a hexadecimal string (optionally 0x-prefixed) into an Int
// of exactly k words. It returns an error if the value does not fit.
func FromHex(s string, k int) (Int, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	if s == "" {
		return nil, fmt.Errorf("mp: empty hex string")
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
		case c == '_':
			continue
		default:
			return nil, fmt.Errorf("mp: invalid hex digit %q", c)
		}
		if v != 0 {
			w := bit / 32
			if w >= k {
				return nil, fmt.Errorf("mp: value does not fit in %d words", k)
			}
			z[w] |= v << uint(bit%32)
		}
		bit += 4
	}
	return z, nil
}

// MustHex is FromHex that panics on error; for package-level constants.
func MustHex(s string, k int) Int {
	z, err := FromHex(s, k)
	if err != nil {
		panic(err)
	}
	return z
}

// Hex renders x as a lowercase hexadecimal string without leading zeros.
func (x Int) Hex() string {
	var b strings.Builder
	started := false
	for i := len(x) - 1; i >= 0; i-- {
		if started {
			fmt.Fprintf(&b, "%08x", x[i])
		} else if x[i] != 0 {
			fmt.Fprintf(&b, "%x", x[i])
			started = true
		}
	}
	if !started {
		return "0"
	}
	return b.String()
}

// Clone returns an independent copy of x.
func (x Int) Clone() Int {
	z := make(Int, len(x))
	copy(z, x)
	return z
}

// SetUint64 sets x to v (x must have at least two words unless v fits one).
func (x Int) SetUint64(v uint64) Int {
	for i := range x {
		x[i] = 0
	}
	x[0] = uint32(v)
	if len(x) > 1 {
		x[1] = uint32(v >> 32)
	} else if v>>32 != 0 {
		panic("mp: uint64 does not fit in one word")
	}
	return x
}

// IsZero reports whether x == 0.
func (x Int) IsZero() bool {
	for _, w := range x {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsOne reports whether x == 1.
func (x Int) IsOne() bool {
	if len(x) == 0 || x[0] != 1 {
		return false
	}
	for _, w := range x[1:] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bit returns bit i of x (0 or 1).
func (x Int) Bit(i int) uint {
	w := i / 32
	if w >= len(x) {
		return 0
	}
	return uint(x[w]>>(uint(i)%32)) & 1
}

// BitLen returns the minimal number of bits needed to represent x.
func (x Int) BitLen() int {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != 0 {
			n := 0
			w := x[i]
			for w != 0 {
				n++
				w >>= 1
			}
			return 32*i + n
		}
	}
	return 0
}

// IsOdd reports whether the least significant bit of x is set.
func (x Int) IsOdd() bool { return len(x) > 0 && x[0]&1 == 1 }

// Cmp compares a and b (which may have different lengths), returning
// -1, 0 or +1.
func Cmp(a, b Int) int {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := n - 1; i >= 0; i-- {
		var av, bv uint32
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if av != bv {
			if av > bv {
				return 1
			}
			return -1
		}
	}
	return 0
}

// Add sets z = a + b and returns the carry-out. All slices must have the
// same length; z may alias a or b.
func Add(z, a, b Int) uint32 {
	var carry uint64
	for i := range z {
		s := uint64(a[i]) + uint64(b[i]) + carry
		z[i] = uint32(s)
		carry = s >> 32
	}
	return uint32(carry)
}

// Sub sets z = a - b and returns the borrow-out (1 if a < b).
func Sub(z, a, b Int) uint32 {
	var borrow uint64
	for i := range z {
		d := uint64(a[i]) - uint64(b[i]) - borrow
		z[i] = uint32(d)
		borrow = (d >> 32) & 1
	}
	return uint32(borrow)
}

// Shl1 sets z = x << 1 within the same word count and returns the shifted-out
// bit.
func Shl1(z, x Int) uint32 {
	var carry uint32
	for i := range z {
		nc := x[i] >> 31
		z[i] = x[i]<<1 | carry
		carry = nc
	}
	return carry
}

// Shr1 sets z = x >> 1.
func Shr1(z, x Int) {
	for i := 0; i < len(z)-1; i++ {
		z[i] = x[i]>>1 | x[i+1]<<31
	}
	z[len(z)-1] = x[len(z)-1] >> 1
}

// Bytes returns x as a big-endian byte slice of exactly 4*len(x) bytes.
func (x Int) Bytes() []byte {
	out := make([]byte, 4*len(x))
	for i, w := range x {
		off := len(out) - 4*(i+1)
		out[off] = byte(w >> 24)
		out[off+1] = byte(w >> 16)
		out[off+2] = byte(w >> 8)
		out[off+3] = byte(w)
	}
	return out
}

// FromBytes interprets big-endian bytes as an Int of k words, truncating
// high-order bytes that do not fit.
func FromBytes(b []byte, k int) Int {
	z := New(k)
	for i := 0; i < len(b); i++ {
		bit := 8 * (len(b) - 1 - i)
		w := bit / 32
		if w >= k {
			continue
		}
		z[w] |= uint32(b[i]) << uint(bit%32)
	}
	return z
}
