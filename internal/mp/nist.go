package mp

// NIST fast reduction for the five generalized-Mersenne primes (Section
// 4.2.1, Algorithm 4 and the Brown/Hankerson/López/Menezes 32-bit
// formulations). Each routine reduces a 2k-word product c into the k-word
// field element z by folding high words back with shifts, adds and
// subtracts — no division. The term vectors are stack literals: called
// directly (Field.fastReduce dispatches with a switch, not a function
// value), none of them escapes.

// reduce192 reduces c (12 words) modulo p192 = 2^192 - 2^64 - 1.
func reduce192(z, p, c Int) {
	// 64-bit chunks c0..c5; in 32-bit words (little-endian):
	// s1 = (c5,c4,c3,c2,c1,c0)
	// s2 = (0,0,c7,c6,c7,c6)
	// s3 = (c9,c8,c9,c8,0,0)
	// s4 = (c11,c10,c11,c10,c11,c10)
	s1 := Int{c[0], c[1], c[2], c[3], c[4], c[5]}
	s2 := Int{c[6], c[7], c[6], c[7], 0, 0}
	s3 := Int{0, 0, c[8], c[9], c[8], c[9]}
	s4 := Int{c[10], c[11], c[10], c[11], c[10], c[11]}
	foldSum(z, p, []Int{s1, s2, s3, s4}, nil)
}

// reduce224 reduces c (14 words) modulo p224 = 2^224 - 2^96 + 1.
func reduce224(z, p, c Int) {
	s1 := Int{c[0], c[1], c[2], c[3], c[4], c[5], c[6]}
	s2 := Int{0, 0, 0, c[7], c[8], c[9], c[10]}
	s3 := Int{0, 0, 0, c[11], c[12], c[13], 0}
	d1 := Int{c[7], c[8], c[9], c[10], c[11], c[12], c[13]}
	d2 := Int{c[11], c[12], c[13], 0, 0, 0, 0}
	foldSum(z, p, []Int{s1, s2, s3}, []Int{d1, d2})
}

// reduce256 reduces c (16 words) modulo p256 = 2^256 - 2^224 + 2^192 + 2^96 - 1.
func reduce256(z, p, c Int) {
	s1 := Int{c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]}
	s2 := Int{0, 0, 0, c[11], c[12], c[13], c[14], c[15]}
	s3 := Int{0, 0, 0, c[12], c[13], c[14], c[15], 0}
	s4 := Int{c[8], c[9], c[10], 0, 0, 0, c[14], c[15]}
	s5 := Int{c[9], c[10], c[11], c[13], c[14], c[15], c[13], c[8]}
	d1 := Int{c[11], c[12], c[13], 0, 0, 0, c[8], c[10]}
	d2 := Int{c[12], c[13], c[14], c[15], 0, 0, c[9], c[11]}
	d3 := Int{c[13], c[14], c[15], c[8], c[9], c[10], 0, c[12]}
	d4 := Int{c[14], c[15], 0, c[9], c[10], c[11], 0, c[13]}
	foldSum(z, p, []Int{s1, s2, s2, s3, s3, s4, s5}, []Int{d1, d2, d3, d4})
}

// reduce384 reduces c (24 words) modulo p384 = 2^384 - 2^128 - 2^96 + 2^32 - 1.
func reduce384(z, p, c Int) {
	s1 := Int{c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7], c[8], c[9], c[10], c[11]}
	s2 := Int{0, 0, 0, 0, c[21], c[22], c[23], 0, 0, 0, 0, 0}
	s3 := Int{c[12], c[13], c[14], c[15], c[16], c[17], c[18], c[19], c[20], c[21], c[22], c[23]}
	s4 := Int{c[21], c[22], c[23], c[12], c[13], c[14], c[15], c[16], c[17], c[18], c[19], c[20]}
	s5 := Int{0, c[23], 0, c[20], c[12], c[13], c[14], c[15], c[16], c[17], c[18], c[19]}
	s6 := Int{0, 0, 0, 0, c[20], c[21], c[22], c[23], 0, 0, 0, 0}
	s7 := Int{c[20], 0, 0, c[21], c[22], c[23], 0, 0, 0, 0, 0, 0}
	d1 := Int{c[23], c[12], c[13], c[14], c[15], c[16], c[17], c[18], c[19], c[20], c[21], c[22]}
	d2 := Int{0, c[20], c[21], c[22], c[23], 0, 0, 0, 0, 0, 0, 0}
	d3 := Int{0, 0, 0, c[23], c[23], 0, 0, 0, 0, 0, 0, 0}
	foldSum(z, p, []Int{s1, s2, s2, s3, s4, s5, s6, s7}, []Int{d1, d2, d3})
}

// reduce521 reduces c (34 words) modulo p521 = 2^521 - 1: the value is
// simply split at bit 521 and the two halves added.
func reduce521(z, p, c Int) {
	const k = 17
	var hi [k]uint32
	// hi = c >> 521
	for i := range hi {
		w := uint32(0)
		if 16+i < len(c) {
			w = c[16+i] >> 9
		}
		if 17+i < len(c) {
			w |= c[17+i] << 23
		}
		hi[i] = w
	}
	copy(z, c[:k])
	z[k-1] &= 0x1ff // keep bits 512..520
	carry := Add(z, z, hi[:])
	for carry != 0 || Cmp(z, p) >= 0 {
		carry -= Sub(z, z, p)
	}
}

// foldSum sets z = (Σ adds − Σ subs) mod p where every term has k = len(p)
// words. It accumulates in a signed double-word-safe form and then folds the
// small positive/negative overflow back with multiples of p.
func foldSum(z, p Int, adds, subs []Int) {
	k := len(p)
	var buf [stackWords + 1]int64
	acc := buf[:k+1]
	for _, s := range adds {
		var carry int64
		for i := 0; i < k; i++ {
			v := acc[i] + int64(s[i]) + carry
			acc[i] = v & 0xffffffff
			carry = v >> 32
		}
		acc[k] += carry
	}
	for _, d := range subs {
		var borrow int64
		for i := 0; i < k; i++ {
			v := acc[i] - int64(d[i]) + borrow
			acc[i] = v & 0xffffffff
			borrow = v >> 32 // arithmetic shift: -1 when v < 0
		}
		acc[k] += borrow
	}
	top := acc[k]
	for i := 0; i < k; i++ {
		z[i] = uint32(acc[i])
	}
	// top is a small signed count of 2^(32k) overflow units; fold with p.
	for top > 0 {
		top -= int64(Sub(z, z, p))
	}
	for top < 0 {
		top += int64(Add(z, z, p))
	}
	for Cmp(z, p) >= 0 {
		Sub(z, z, p)
	}
}
