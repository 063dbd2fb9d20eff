package mp

import "math/bits"

// Montgomery multiplication, the reduction style Monte's FFAU executes in
// microcode (Section 5.4). CIOS (Coarsely Integrated Operand Scanning,
// Algorithm 5) interleaves one reduction pass per outer-loop iteration;
// FIPS (Finely Integrated Product Scanning) is the product-scanning variant
// the paper benchmarked against NIST fast reduction on the ISA-extended
// core (Section 4.2.1).

// N0Inv32 computes -n^-1 mod 2^32 for odd n, the per-modulus constant the
// CIOS inner reduction needs (n'0 in Algorithm 5).
func N0Inv32(n0 uint32) uint32 {
	// Newton iteration: x *= 2 - n0*x doubles the correct low bits.
	x := n0
	for i := 0; i < 5; i++ {
		x *= 2 - n0*x
	}
	return -x
}

// MontMulCIOS sets z = a * b * R^-1 mod n using CIOS with R = 2^(32k),
// exactly Algorithm 5. a, b, n, z all have k words; a and b must be < n.
// z may alias a or b.
func MontMulCIOS(z, a, b, n Int, n0inv uint32) {
	k := len(n)
	var tbuf [stackWords + 2]uint64
	t := scratch(tbuf[:], k+2) // t[k+1] holds the top carry word
	for i := 0; i < k; i++ {
		// Multiplication pass: t += a * b[i]
		var c uint64
		bi := uint64(b[i])
		for j := 0; j < k; j++ {
			s := uint64(a[j])*bi + t[j] + c
			t[j] = s & 0xffffffff
			c = s >> 32
		}
		s := t[k] + c
		t[k] = s & 0xffffffff
		t[k+1] = s >> 32
		// Reduction pass: m = t[0]*n'0 mod 2^32; t = (t + m*n) / 2^32
		m := uint64(uint32(t[0]) * n0inv)
		s = m*uint64(n[0]) + t[0]
		c = s >> 32
		for j := 1; j < k; j++ {
			s = m*uint64(n[j]) + t[j] + c
			t[j-1] = s & 0xffffffff
			c = s >> 32
		}
		s = t[k] + c
		t[k-1] = s & 0xffffffff
		t[k] = t[k+1] + s>>32
		t[k+1] = 0
	}
	// Final conditional subtraction.
	var rbuf [stackWords]uint32
	res := scratch(rbuf[:], k)
	for i := 0; i < k; i++ {
		res[i] = uint32(t[i])
	}
	if t[k] != 0 || Cmp(res, n) >= 0 {
		Sub(res, res, n)
	}
	copy(z, res)
}

// MontMulFIPS sets z = a * b * R^-1 mod n using finely integrated product
// scanning: the Montgomery reduction is folded into the Comba column sums,
// using the same (t,u,v) accumulator the ADDAU/SHA extensions provide.
func MontMulFIPS(z, a, b, n Int, n0inv uint32) {
	k := len(n)
	var mbuf [stackWords]uint32
	m := scratch(mbuf[:], k)
	var t, u, v uint32
	maddu := func(x, y uint32) {
		p := uint64(x) * uint64(y)
		s := uint64(v) + (p & 0xffffffff)
		v = uint32(s)
		s = uint64(u) + (p >> 32) + (s >> 32)
		u = uint32(s)
		t += uint32(s >> 32)
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			maddu(a[j], b[i-j])
			maddu(m[j], n[i-j])
		}
		maddu(a[i], b[0])
		m[i] = v * n0inv
		maddu(m[i], n[0])
		if v != 0 {
			panic("mp: FIPS column did not cancel")
		}
		v, u, t = u, t, 0
	}
	var rbuf [stackWords + 1]uint32
	res := scratch(rbuf[:], k+1)
	for i := k; i <= 2*k-1; i++ {
		for j := i - k + 1; j < k; j++ {
			maddu(a[j], b[i-j])
			maddu(m[j], n[i-j])
		}
		res[i-k] = v
		v, u, t = u, t, 0
	}
	res[k] = v
	if res[k] != 0 || Cmp(res[:k], n) >= 0 {
		Sub(res[:k], res[:k], n)
	}
	copy(z, res[:k])
}

// MontREDC reduces the 2k-word value c to c*R^-1 mod n (SOS-style separated
// reduction), used to convert out of the Montgomery domain.
func MontREDC(z Int, c Int, n Int, n0inv uint32) {
	k := len(n)
	var tbuf [2*stackWords + 1]uint64
	t := scratch(tbuf[:], 2*k+1)
	for i, w := range c {
		t[i] = uint64(w)
	}
	for i := 0; i < k; i++ {
		m := uint64(uint32(t[i]) * n0inv)
		var carry uint64
		for j := 0; j < k; j++ {
			s := m*uint64(n[j]) + t[i+j] + carry
			t[i+j] = s & 0xffffffff
			carry = s >> 32
		}
		for j := i + k; carry != 0; j++ {
			s := t[j] + carry
			t[j] = s & 0xffffffff
			carry = s >> 32
		}
	}
	var rbuf [stackWords + 1]uint32
	res := scratch(rbuf[:], k+1)
	for i := 0; i <= k; i++ {
		res[i] = uint32(t[k+i])
	}
	if res[k] != 0 || Cmp(res[:k], n) >= 0 {
		Sub(res[:k], res[:k], n)
	}
	copy(z, res[:k])
}

// GenericCIOS runs the CIOS algorithm with an arbitrary datapath width w
// (8, 16, 32 or 64 bits), the knob of the FFAU datapath-width study
// (Section 7.9 / Figure 7.15). Operands are little-endian arrays of w-bit
// digits stored in uint64s; len(n) digits each. Returns a*b*R^-1 mod n
// where R = 2^(w*k).
func GenericCIOS(a, b, n []uint64, w uint, n0inv uint64) []uint64 {
	k := len(n)
	mask := ^uint64(0)
	if w < 64 {
		mask = uint64(1)<<w - 1
	}
	// mulAdd2 returns (hi, lo) of x*y + u + v in w-bit digits.
	mulAdd2 := func(x, y, u, v uint64) (hi, lo uint64) {
		if w < 64 {
			s := x*y + u + v // ≤ (2^w-1)^2 + 2(2^w-1) = 2^2w-1, fits for w ≤ 32
			return s >> w, s & mask
		}
		h, l := bits.Mul64(x, y)
		l, c := bits.Add64(l, u, 0)
		h += c
		l, c = bits.Add64(l, v, 0)
		h += c
		return h, l
	}
	t := make([]uint64, k+2)
	for i := 0; i < k; i++ {
		var c uint64
		for j := 0; j < k; j++ {
			c, t[j] = mulAdd2(a[j], b[i], t[j], c)
		}
		s := t[k] + c
		if w < 64 {
			t[k] = s & mask
			t[k+1] = s >> w
		} else {
			var c2 uint64
			t[k], c2 = bits.Add64(t[k], c, 0)
			t[k+1] = c2
			s = t[k]
		}
		// Reduction pass.
		m := (t[0] * n0inv) & mask
		c, _ = mulAdd2(m, n[0], t[0], 0)
		for j := 1; j < k; j++ {
			c, t[j-1] = mulAdd2(m, n[j], t[j], c)
		}
		if w < 64 {
			s = t[k] + c
			t[k-1] = s & mask
			t[k] = t[k+1] + s>>w
		} else {
			var c2 uint64
			t[k-1], c2 = bits.Add64(t[k], c, 0)
			t[k] = t[k+1] + c2
		}
		t[k+1] = 0
	}
	res := make([]uint64, k)
	copy(res, t[:k])
	// Conditional subtraction: if t >= n, subtract n.
	ge := t[k] != 0
	if !ge {
		ge = true
		for i := k - 1; i >= 0; i-- {
			if res[i] != n[i] {
				ge = res[i] > n[i]
				break
			}
		}
	}
	if ge {
		var borrow uint64
		for i := 0; i < k; i++ {
			d, b2 := bits.Sub64(res[i], n[i], borrow)
			res[i] = d & mask
			borrow = b2
			if w < 64 {
				// Borrow for w-bit digits: detect via sign bit of the
				// full-width subtraction result.
				if d > mask {
					borrow = 1
				}
			}
		}
	}
	return res
}

// N0InvW computes -n^-1 mod 2^w for odd n and width w <= 64.
func N0InvW(n0 uint64, w uint) uint64 {
	x := n0
	for i := 0; i < 6; i++ {
		x *= 2 - n0*x
	}
	x = -x
	if w < 64 {
		x &= uint64(1)<<w - 1
	}
	return x
}

// ToDigits re-packs a 32-bit-word Int into w-bit digits for GenericCIOS.
func ToDigits(x Int, w uint) []uint64 {
	bits := 32 * len(x)
	k := (bits + int(w) - 1) / int(w)
	out := make([]uint64, k)
	for i := 0; i < bits; i++ {
		if x.Bit(i) == 1 {
			out[i/int(w)] |= 1 << (uint(i) % w)
		}
	}
	return out
}

// FromDigits converts w-bit digits back into a 32-bit-word Int of k words.
func FromDigits(d []uint64, w uint, k int) Int {
	z := New(k)
	for i := 0; i < len(d)*int(w); i++ {
		if (d[i/int(w)]>>(uint(i)%w))&1 == 1 {
			wi := i / 32
			if wi < k {
				z[wi] |= 1 << (uint(i) % 32)
			}
		}
	}
	return z
}
