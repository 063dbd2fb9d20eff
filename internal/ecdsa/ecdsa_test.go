package ecdsa

import (
	"crypto/sha256"
	"math/big"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf2"
	"repro/internal/mp"
)

func digestOf(msg string) []byte {
	d := sha256.Sum256([]byte(msg))
	return d[:]
}

func TestSignVerifyAllPrimeCurves(t *testing.T) {
	for _, name := range ec.PrimeCurveNames {
		curve := ec.NISTPrimeCurve(name, mp.PSNIST)
		priv := GenerateKey(curve, []byte("seed-"+name))
		msg := digestOf("the quick brown fox " + name)
		sig, err := Sign(priv, msg)
		if err != nil {
			t.Fatalf("%s: sign failed: %v", name, err)
		}
		if !Verify(curve, priv.Q, msg, sig) {
			t.Errorf("%s: valid signature rejected", name)
		}
		// Tampered digest must fail.
		if Verify(curve, priv.Q, digestOf("tampered"), sig) {
			t.Errorf("%s: tampered digest accepted", name)
		}
		// Tampered r must fail.
		badR := sig.R.Clone()
		badR[0] ^= 1
		if Verify(curve, priv.Q, msg, &Signature{R: badR, S: sig.S}) {
			t.Errorf("%s: tampered r accepted", name)
		}
		// Tampered s must fail.
		badS := sig.S.Clone()
		badS[0] ^= 1
		if Verify(curve, priv.Q, msg, &Signature{R: sig.R, S: badS}) {
			t.Errorf("%s: tampered s accepted", name)
		}
	}
}

func TestSignVerifyAllBinaryCurves(t *testing.T) {
	for _, name := range ec.BinaryCurveNames {
		curve := ec.NISTBinaryCurve(name, gf2.CLMul)
		priv := GenerateBinaryKey(curve, []byte("seed-"+name))
		msg := digestOf("binary fox " + name)
		sig, err := SignBinary(priv, msg)
		if err != nil {
			t.Fatalf("%s: sign failed: %v", name, err)
		}
		if !VerifyBinary(curve, priv.Q, msg, sig) {
			t.Errorf("%s: valid signature rejected", name)
		}
		if VerifyBinary(curve, priv.Q, digestOf("tampered"), sig) {
			t.Errorf("%s: tampered digest accepted", name)
		}
	}
}

func TestCrossAlgConsistency(t *testing.T) {
	// Signatures are deterministic, so two field strategies must produce
	// identical signatures — the cross-check that the baseline, ISA-ext
	// and Monte software paths compute the same cryptography.
	var ref *Signature
	msg := digestOf("consistency")
	for _, alg := range []mp.MulAlg{mp.OSNIST, mp.PSNIST, mp.CIOS} {
		curve := ec.NISTPrimeCurve("P-256", alg)
		priv := GenerateKey(curve, []byte("same-seed"))
		sig, err := Sign(priv, msg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = sig
			continue
		}
		if mp.Cmp(sig.R, ref.R) != 0 || mp.Cmp(sig.S, ref.S) != 0 {
			t.Fatalf("alg %v produced a different signature", alg)
		}
	}
}

func TestBinaryCrossAlgConsistency(t *testing.T) {
	var ref *Signature
	msg := digestOf("bin-consistency")
	for _, alg := range []gf2.MulAlg{gf2.Comb, gf2.CLMul} {
		curve := ec.NISTBinaryCurve("B-163", alg)
		priv := GenerateBinaryKey(curve, []byte("same-seed"))
		sig, err := SignBinary(priv, msg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = sig
			continue
		}
		if mp.Cmp(sig.R, ref.R) != 0 || mp.Cmp(sig.S, ref.S) != 0 {
			t.Fatalf("alg %v produced a different signature", alg)
		}
	}
}

func TestVerifyRejectsBadInputs(t *testing.T) {
	curve := ec.NISTPrimeCurve("P-192", mp.PSNIST)
	priv := GenerateKey(curve, []byte("k"))
	msg := digestOf("m")
	sig, _ := Sign(priv, msg)
	zero := mp.New(len(sig.R))
	if Verify(curve, priv.Q, msg, &Signature{R: zero, S: sig.S}) {
		t.Error("r = 0 accepted")
	}
	if Verify(curve, priv.Q, msg, &Signature{R: sig.R, S: zero}) {
		t.Error("s = 0 accepted")
	}
	big := curve.N.Clone()
	if Verify(curve, priv.Q, msg, &Signature{R: big, S: sig.S}) {
		t.Error("r = n accepted")
	}
	// Wrong public key.
	other := GenerateKey(curve, []byte("other"))
	if Verify(curve, other.Q, msg, sig) {
		t.Error("wrong public key accepted")
	}
}

func TestDeterministicSignatures(t *testing.T) {
	curve := ec.NISTPrimeCurve("P-224", mp.PSNIST)
	priv := GenerateKey(curve, []byte("det"))
	msg := digestOf("same message")
	s1, _ := Sign(priv, msg)
	s2, _ := Sign(priv, msg)
	if mp.Cmp(s1.R, s2.R) != 0 || mp.Cmp(s1.S, s2.S) != 0 {
		t.Error("signatures are not deterministic")
	}
	s3, _ := Sign(priv, digestOf("different message"))
	if mp.Cmp(s1.R, s3.R) == 0 {
		t.Error("different messages reused the nonce")
	}
}

func TestKeyGeneration(t *testing.T) {
	curve := ec.NISTPrimeCurve("P-192", mp.OSNIST)
	k1 := GenerateKey(curve, []byte("a"))
	k2 := GenerateKey(curve, []byte("b"))
	if mp.Cmp(k1.D, k2.D) == 0 {
		t.Error("different seeds produced the same key")
	}
	if !curve.OnCurve(k1.Q) || !curve.OnCurve(k2.Q) {
		t.Error("public key not on curve")
	}
	if k1.D.IsZero() || mp.Cmp(k1.D, curve.N) >= 0 {
		t.Error("private scalar out of range")
	}
}

// TestHashToE checks FIPS 186-4 bits2int against a math/big reference:
// the leftmost min(nbits, 8·len(digest)) bits of the digest, reduced
// modulo n, for digests shorter and longer than the order on curves whose
// order is narrower (P-192, P-224, B-163) and wider (P-521) than SHA-256.
func TestHashToE(t *testing.T) {
	orders := map[string]mp.Int{}
	for _, name := range []string{"P-192", "P-224", "P-521"} {
		orders[name] = ec.NISTPrimeCurve(name, mp.OSNIST).N
	}
	orders["B-163"] = mp.Int(ec.NISTBinaryCurve("B-163", gf2.Comb).N)
	for name, n := range orders {
		nb := toBig(n)
		for _, size := range []int{16, 20, 28, 32, 48, 64, 67} {
			digest := make([]byte, size)
			for i := range digest {
				digest[i] = byte(0xa5 ^ 37*i) // leading byte nonzero
			}
			want := new(big.Int).SetBytes(digest)
			if excess := 8*size - nb.BitLen(); excess > 0 {
				want.Rsh(want, uint(excess))
			}
			want.Mod(want, nb)
			e := hashToE(digest, n)
			if len(e) != len(n) || toBig(e).Cmp(want) != 0 {
				t.Errorf("%s, %d-byte digest: e = %x (%d words), want %x (%d words)",
					name, size, toBig(e), len(e), want, len(n))
			}
		}
	}
}
