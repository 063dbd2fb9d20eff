package ecdsa

import (
	"repro/internal/ec"
	"repro/internal/mp"
)

// OpProfile is the exact operation census of one ECDSA operation on
// either curve family: how many curve-field operations, point operations,
// and group-order ("protocol") operations ran. The simulation layer prices
// these counts with the per-operation cycle costs measured on the Pete
// simulator or on the accelerator models — the hierarchical methodology of
// Figure 4.1. A binary field has no subtraction, so its Field.Sub stays 0;
// the order arithmetic is integer (prime-field) work on both families
// (Section 2.1.4).
//
// Each profiled operation uses a private group-order field, so profiling
// is safe to run concurrently as long as each goroutine uses its own
// curve instance (the curve's field counters are per-instance state).
type OpProfile struct {
	Field mp.OpCounters      // curve-field ops
	Order mp.OpCounters      // arithmetic modulo the group order
	Point ec.PointOpCounters // point doubles/adds
}

// profilePrime runs op with the curve's counters zeroed and returns the
// curve-field and point operations it counted.
func profilePrime(curve *ec.PrimeCurve, op func()) OpProfile {
	curve.F.Counters.Reset()
	curve.Ops.Reset()
	op()
	return OpProfile{Field: curve.F.Counters, Point: curve.Ops}
}

// profileBinary is profilePrime on a binary curve.
func profileBinary(curve *ec.BinaryCurve, op func()) OpProfile {
	curve.F.Counters.Reset()
	curve.Ops.Reset()
	op()
	f := curve.F.Counters
	return OpProfile{
		Field: mp.OpCounters{Mul: f.Mul, Sqr: f.Sqr, Add: f.Add, Inv: f.Inv},
		Point: curve.Ops,
	}
}

// ProfileKeyGen runs GenerateKey while recording the operation census —
// one scalar base multiplication plus the deterministic seed hashing
// (which contributes no field operations).
func ProfileKeyGen(curve *ec.PrimeCurve, seed []byte) (priv *PrivateKey, p OpProfile) {
	p = profilePrime(curve, func() { priv = GenerateKey(curve, seed) })
	return priv, p
}

// ProfileSign runs Sign while recording the operation census.
func ProfileSign(priv *PrivateKey, digest []byte) (sig *Signature, p OpProfile, err error) {
	curve := priv.Curve
	of := newOrderField(curve.Name, curve.N, curve.NBits)
	p = profilePrime(curve, func() { sig, err = signWith(of, priv, digest) })
	p.Order = of.Counters
	return sig, p, err
}

// ProfileVerify runs Verify while recording the operation census.
func ProfileVerify(curve *ec.PrimeCurve, pub *ec.AffinePoint, digest []byte, sig *Signature) (ok bool, p OpProfile) {
	of := newOrderField(curve.Name, curve.N, curve.NBits)
	p = profilePrime(curve, func() { ok = verifyWith(of, curve, pub, digest, sig) })
	p.Order = of.Counters
	return ok, p
}

// ProfileKeyGenBinary runs GenerateBinaryKey while recording the census.
func ProfileKeyGenBinary(curve *ec.BinaryCurve, seed []byte) (priv *BinaryPrivateKey, p OpProfile) {
	p = profileBinary(curve, func() { priv = GenerateBinaryKey(curve, seed) })
	return priv, p
}

// ProfileSignBinary runs SignBinary while recording the census.
func ProfileSignBinary(priv *BinaryPrivateKey, digest []byte) (sig *Signature, p OpProfile, err error) {
	curve := priv.Curve
	of := newOrderField(curve.Name, binaryOrder(curve), curve.NBits)
	p = profileBinary(curve, func() { sig, err = signBinaryWith(of, priv, digest) })
	p.Order = of.Counters
	return sig, p, err
}

// ProfileVerifyBinary runs VerifyBinary while recording the census.
func ProfileVerifyBinary(curve *ec.BinaryCurve, pub *ec.BinaryAffinePoint, digest []byte, sig *Signature) (ok bool, p OpProfile) {
	of := newOrderField(curve.Name, binaryOrder(curve), curve.NBits)
	p = profileBinary(curve, func() { ok = verifyBinaryWith(of, curve, pub, digest, sig) })
	p.Order = of.Counters
	return ok, p
}
