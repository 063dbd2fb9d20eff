package ecdsa

import (
	"crypto/ecdh"
	stdecdsa "crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/sha256"
	"math/big"
	"testing"

	"repro/internal/ec"
	"repro/internal/mp"
)

func toBig(x mp.Int) *big.Int { return new(big.Int).SetBytes(x.Bytes()) }

// TestStdlibInterop cross-checks the prime curves Go's standard library
// implements against it: the curve parameters equal crypto/elliptic's,
// our signatures verify under crypto/ecdsa and its signatures under ours,
// and ECDH agrees with crypto/ecdh on the shared x-coordinate.
//
// P-192 and the binary curves have no stdlib reference. They rest on
// TestHashToE's bits2int table, which covers them, and on the group-law
// and n·G tests in internal/ec.
func TestStdlibInterop(t *testing.T) {
	for _, tc := range []struct {
		name string
		std  elliptic.Curve
		dh   ecdh.Curve // nil: crypto/ecdh has no P-224
	}{
		{"P-224", elliptic.P224(), nil},
		{"P-256", elliptic.P256(), ecdh.P256()},
		{"P-384", elliptic.P384(), ecdh.P384()},
		{"P-521", elliptic.P521(), ecdh.P521()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			curve := ec.NISTPrimeCurve(tc.name, mp.OSNIST)
			params := tc.std.Params()
			for _, c := range []struct {
				what string
				got  mp.Int
				want *big.Int
			}{
				{"p", curve.F.P, params.P}, {"n", curve.N, params.N}, {"b", curve.B, params.B},
				{"Gx", curve.Gx, params.Gx}, {"Gy", curve.Gy, params.Gy},
			} {
				if toBig(c.got).Cmp(c.want) != 0 {
					t.Errorf("%s = %x, crypto/elliptic has %x", c.what, toBig(c.got), c.want)
				}
			}
			if curve.NBits != params.N.BitLen() {
				t.Errorf("NBits = %d, crypto/elliptic's order has %d bits", curve.NBits, params.N.BitLen())
			}

			digest := digestOf("interop " + tc.name)
			priv := GenerateKey(curve, []byte("interop-"+tc.name))
			sig, err := Sign(priv, digest)
			if err != nil {
				t.Fatal(err)
			}
			pub := &stdecdsa.PublicKey{Curve: tc.std, X: toBig(priv.Q.X), Y: toBig(priv.Q.Y)}
			if !stdecdsa.Verify(pub, digest, toBig(sig.R), toBig(sig.S)) {
				t.Error("crypto/ecdsa rejects our signature")
			}

			std, err := stdecdsa.GenerateKey(tc.std, rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			r, s, err := stdecdsa.Sign(rand.Reader, std, digest)
			if err != nil {
				t.Fatal(err)
			}
			k, nk := curve.F.K, len(curve.N)
			stdPub := &ec.AffinePoint{X: mp.FromBytes(std.X.Bytes(), k), Y: mp.FromBytes(std.Y.Bytes(), k)}
			stdSig := &Signature{R: mp.FromBytes(r.Bytes(), nk), S: mp.FromBytes(s.Bytes(), nk)}
			if !Verify(curve, stdPub, digest, stdSig) {
				t.Error("we reject crypto/ecdsa's signature")
			}

			if tc.dh == nil {
				return
			}
			dhPriv, err := tc.dh.NewPrivateKey(toBig(priv.D).FillBytes(make([]byte, (curve.NBits+7)/8)))
			if err != nil {
				t.Fatal(err)
			}
			dhPeer, err := tc.dh.GenerateKey(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			secret, err := dhPriv.ECDH(dhPeer.PublicKey())
			if err != nil {
				t.Fatal(err)
			}
			// An uncompressed point is 0x04 || x || y.
			enc := dhPeer.PublicKey().Bytes()[1:]
			peer := &ec.AffinePoint{X: mp.FromBytes(enc[:len(enc)/2], k), Y: mp.FromBytes(enc[len(enc)/2:], k)}
			key, err := ECDH(priv, peer)
			if err != nil {
				t.Fatal(err)
			}
			// ECDH hashes the shared x-coordinate's fixed-width encoding.
			if want := sha256.Sum256(mp.FromBytes(secret, k).Bytes()); string(key) != string(want[:]) {
				t.Error("ECDH shared x-coordinate differs from crypto/ecdh's")
			}
		})
	}
}
