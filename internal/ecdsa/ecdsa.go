// Package ecdsa implements the Elliptic Curve Digital Signature Algorithm
// (FIPS 186) over the NIST prime and binary curves — the benchmark workload
// of the paper (Section 4.1). A signature costs one single scalar point
// multiplication; a verification costs one twin scalar point
// multiplication; both also perform arithmetic modulo the group order,
// which always stays on the processor ("Pete") even in the accelerated
// configurations (a key Amdahl's-law observation of Section 7.3).
package ecdsa

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"

	"repro/internal/ec"
	"repro/internal/mp"
)

// PrivateKey is an ECDSA private key on a prime curve.
type PrivateKey struct {
	Curve *ec.PrimeCurve
	D     mp.Int          // secret scalar
	Q     *ec.AffinePoint // public point D*G
}

// Signature is an (r, s) ECDSA signature.
type Signature struct {
	R, S mp.Int
}

// newOrderField returns a fresh Montgomery field for arithmetic modulo
// the group order n (no NIST fast reduction exists for the orders). Each
// operation gets its own instance so its op counters are private — Sign,
// Verify and the profilers are safe to run concurrently (the parallel
// sweep engine relies on this).
func newOrderField(name string, n mp.Int, bits int) *mp.Field {
	return mp.NewField("order-"+name, bits, n, mp.CIOS)
}

// GenerateKey derives a private key deterministically from seed material —
// the simulated embedded system has no OS entropy source, matching the
// paper's bare-metal environment (Section 4.3).
func GenerateKey(curve *ec.PrimeCurve, seed []byte) *PrivateKey {
	n := curve.N
	d := hashToScalar(seed, n)
	q := curve.ScalarMult(d, curve.Generator())
	return &PrivateKey{Curve: curve, D: d, Q: q}
}

// hashToScalar maps bytes to a nonzero scalar in [1, n-1].
func hashToScalar(b []byte, n mp.Int) mp.Int {
	ctr := byte(0)
	for {
		h := sha256.New()
		h.Write([]byte{ctr})
		h.Write(b)
		sum := h.Sum(nil)
		// Widen to the order size by chained hashing.
		for len(sum) < 4*len(n) {
			h2 := sha256.New()
			h2.Write(sum)
			sum = append(sum, h2.Sum(nil)...)
		}
		d := mp.FromBytes(sum[:4*len(n)], len(n))
		// Clamp below n by clearing top bits.
		topBits := uint(n.BitLen() % 32)
		if topBits != 0 {
			d[(n.BitLen()-1)/32] &= (1 << topBits) - 1
			for i := (n.BitLen() + 31) / 32; i < len(d); i++ {
				d[i] = 0
			}
		}
		if !d.IsZero() && mp.Cmp(d, n) < 0 {
			return d
		}
		ctr++
	}
}

// nonce derives a deterministic per-message nonce k (RFC-6979-style HMAC
// construction) so the workload is reproducible run to run.
func nonce(d mp.Int, e mp.Int, n mp.Int) mp.Int {
	mac := hmac.New(sha256.New, d.Bytes())
	mac.Write(e.Bytes())
	return hashToScalar(mac.Sum(nil), n)
}

// hashToE converts a message digest to an integer modulo n (FIPS 186-4
// bits2int): it keeps the leftmost min(nbits, 8·len(digest)) bits of the
// digest. The digest is read at its full width before the shift, so a
// digest wider than n in words loses only its trailing bits.
func hashToE(digest []byte, n mp.Int) mp.Int {
	e := mp.FromBytes(digest, max(len(n), (len(digest)+3)/4))
	for s := 8*len(digest) - n.BitLen(); s > 0; s-- {
		mp.Shr1(e, e)
	}
	e = e[:len(n):len(n)] // the shifted value fits in n's words
	for mp.Cmp(e, n) >= 0 {
		mp.Sub(e, e, n)
	}
	return e
}

// Sign produces an ECDSA signature over digest (already hashed message).
func Sign(priv *PrivateKey, digest []byte) (*Signature, error) {
	curve := priv.Curve
	return signWith(newOrderField(curve.Name, curve.N, curve.NBits), priv, digest)
}

// signWith is Sign with the caller-supplied group-order field (the
// profiler reads its counters afterwards).
func signWith(of *mp.Field, priv *PrivateKey, digest []byte) (*Signature, error) {
	curve := priv.Curve
	n := curve.N
	e := hashToE(digest, n)
	for attempt := 0; attempt < 64; attempt++ {
		k := nonce(priv.D, e, n)
		if attempt > 0 {
			extra := append(k.Bytes(), byte(attempt))
			k = hashToScalar(extra, n)
		}
		// R = k*G; r = R.x mod n.
		R := curve.ScalarMult(k, curve.Generator())
		r := mp.New(len(n))
		copyTruncate(r, R.X)
		for mp.Cmp(r, n) >= 0 {
			mp.Sub(r, r, n)
		}
		if r.IsZero() {
			continue
		}
		// s = k^-1 (e + r d) mod n — the "protocol arithmetic modulo
		// the group order" that stays on Pete (Section 4.1).
		rd := mp.New(of.K)
		of.Mul(rd, r, priv.D)
		s := mp.New(of.K)
		of.Add(s, rd, e)
		kinv := mp.New(of.K)
		of.Inv(kinv, k)
		of.Mul(s, s, kinv)
		if s.IsZero() {
			continue
		}
		return &Signature{R: r, S: s}, nil
	}
	return nil, errors.New("ecdsa: could not produce a signature")
}

// copyTruncate copies src into dst (dst may be shorter).
func copyTruncate(dst, src mp.Int) {
	for i := range dst {
		if i < len(src) {
			dst[i] = src[i]
		}
	}
}

// Verify checks an ECDSA signature over digest.
func Verify(curve *ec.PrimeCurve, pub *ec.AffinePoint, digest []byte, sig *Signature) bool {
	return verifyWith(newOrderField(curve.Name, curve.N, curve.NBits), curve, pub, digest, sig)
}

// verifyWith is Verify with the caller-supplied group-order field.
func verifyWith(of *mp.Field, curve *ec.PrimeCurve, pub *ec.AffinePoint, digest []byte, sig *Signature) bool {
	n := curve.N
	if sig.R.IsZero() || sig.S.IsZero() ||
		mp.Cmp(sig.R, n) >= 0 || mp.Cmp(sig.S, n) >= 0 {
		return false
	}
	e := hashToE(digest, n)
	w := mp.New(of.K)
	of.Inv(w, sig.S)
	u1 := mp.New(of.K)
	of.Mul(u1, e, w)
	u2 := mp.New(of.K)
	of.Mul(u2, sig.R, w)
	// X = u1*G + u2*Q via twin multiplication (Section 4.1).
	X := curve.TwinMult(u1, curve.Generator(), u2, pub)
	if X.Inf {
		return false
	}
	v := mp.New(len(n))
	copyTruncate(v, X.X)
	for mp.Cmp(v, n) >= 0 {
		mp.Sub(v, v, n)
	}
	return mp.Cmp(v, sig.R) == 0
}
