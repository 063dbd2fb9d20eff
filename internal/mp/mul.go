package mp

// Multi-precision multiplication in the two broad styles the paper compares
// (Section 4.2.1): operand scanning (the baseline software choice) and
// product scanning (the ISA-extension choice, which maps onto the
// MADDU/SHA accumulator instructions). Both produce the full 2k-word
// product. A word-level Karatsuba multiplier mirrors the baseline
// hardware's multi-cycle multiply unit (Section 5.1.2).

// MulOS sets z = a * b using operand scanning (Algorithm 2). len(z) must be
// len(a)+len(b). z must not alias a or b.
func MulOS(z, a, b Int) {
	for i := range z {
		z[i] = 0
	}
	for i := 0; i < len(b); i++ {
		var u uint64
		bi := uint64(b[i])
		for j := 0; j < len(a); j++ {
			t := uint64(a[j])*bi + uint64(z[i+j]) + u
			z[i+j] = uint32(t)
			u = t >> 32
		}
		z[i+len(a)] = uint32(u)
	}
}

// MulPS sets z = a * b using product scanning (Algorithm 3), the Comba
// method. It accumulates column sums in a (t,u,v) triple-word accumulator,
// exactly what the MADDU/SHA ISA extensions implement in hardware.
// len(a) must equal len(b); len(z) = 2*len(a). z must not alias a or b.
func MulPS(z, a, b Int) {
	k := len(a)
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
		for j := 0; j <= i; j++ {
			maddu(a[j], b[i-j])
		}
		z[i] = v
		v, u, t = u, t, 0
	}
	for i := k; i <= 2*k-2; i++ {
		for j := i - k + 1; j <= k-1; j++ {
			maddu(a[j], b[i-j])
		}
		z[i] = v
		v, u, t = u, t, 0
	}
	z[2*k-1] = v
}

// SqrPS sets z = a * a using product scanning with the M2ADDU squaring
// optimization: off-diagonal partial products are computed once and doubled.
func SqrPS(z, a Int) {
	k := len(a)
	var t, u, v uint32
	acc := func(p uint64) {
		s := uint64(v) + (p & 0xffffffff)
		v = uint32(s)
		s = uint64(u) + (p >> 32) + (s >> 32)
		u = uint32(s)
		t += uint32(s >> 32)
	}
	m2addu := func(x, y uint32) {
		p := uint64(x) * uint64(y)
		// doubled partial product; the carry out of the 64-bit double
		// lands in the t register.
		hi := p >> 63
		p2 := p << 1
		acc(p2)
		t += uint32(hi)
	}
	for i := 0; i <= 2*k-2; i++ {
		lo := 0
		if i >= k {
			lo = i - k + 1
		}
		hi := i / 2
		for j := lo; j < hi; j++ {
			m2addu(a[j], a[i-j])
		}
		if i%2 == 0 {
			acc(uint64(a[i/2]) * uint64(a[i/2]))
		} else if hi >= lo {
			m2addu(a[hi], a[i-hi])
		}
		z[i] = v
		v, u, t = u, t, 0
	}
	z[2*k-1] = v
}

// KaratsubaWord multiplies two 32-bit words using the divide-and-conquer
// decomposition the baseline multi-cycle multiplier implements in hardware
// (Equation 5.1): three 16/17-bit multiplies instead of four.
// It returns the 64-bit product split into (hi, lo).
func KaratsubaWord(a, b uint32) (hi, lo uint32) {
	ah, al := a>>16, a&0xffff
	bh, bl := b>>16, b&0xffff
	// The hardware uses a 17x17 signed multiplier for the middle term.
	hh := uint64(ah) * uint64(bh)
	ll := uint64(al) * uint64(bl)
	// mid = (ah-al)*(bl-bh), signed 17-bit operands.
	da := int64(ah) - int64(al)
	db := int64(bl) - int64(bh)
	mid := da * db // fits in 34 bits signed
	sum := int64(hh) + int64(ll) + mid
	p := hh<<32 + uint64(sum)<<16 + ll
	return uint32(p >> 32), uint32(p)
}
