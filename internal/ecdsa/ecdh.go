package ecdsa

import (
	"crypto/sha256"
	"errors"

	"repro/internal/ec"
	"repro/internal/mp"
)

// Elliptic-curve Diffie-Hellman — the "session key establishment for
// secure communications" use the paper's introduction motivates: a single
// scalar point multiplication per side, after which traffic switches to
// symmetric encryption (Section 2.1.1's amortization argument).

// ECDH computes the shared secret d·Q on a prime curve and derives a
// 256-bit session key from the shared x-coordinate.
func ECDH(priv *PrivateKey, peer *ec.AffinePoint) ([]byte, error) {
	if peer.Inf || !priv.Curve.OnCurve(peer) {
		return nil, errors.New("ecdh: peer public key not on curve")
	}
	shared := priv.Curve.ScalarMult(priv.D, peer)
	if shared.Inf {
		return nil, errors.New("ecdh: degenerate shared point")
	}
	key := sha256.Sum256(shared.X.Bytes())
	return key[:], nil
}

// ECDHBinary is the binary-curve variant; the session key is derived from
// the fixed-width big-endian encoding of the shared x-coordinate.
func ECDHBinary(priv *BinaryPrivateKey, peer *ec.BinaryAffinePoint) ([]byte, error) {
	if peer.Inf || !priv.Curve.OnCurve(peer) {
		return nil, errors.New("ecdh: peer public key not on curve")
	}
	shared := priv.Curve.ScalarMult(priv.D, peer)
	if shared.Inf {
		return nil, errors.New("ecdh: degenerate shared point")
	}
	key := sha256.Sum256(mp.Int(shared.X).Bytes())
	return key[:], nil
}

// ECDHProfile runs ECDH while recording the operation census of one key
// agreement (one scalar multiplication plus the peer-key curve check),
// returning the derived session key so callers can cross-check agreement
// with the peer's side.
func ECDHProfile(priv *PrivateKey, peer *ec.AffinePoint) (key []byte, p OpProfile, err error) {
	p = profilePrime(priv.Curve, func() { key, err = ECDH(priv, peer) })
	if err != nil {
		return nil, OpProfile{}, err
	}
	return key, p, nil
}

// ECDHProfileBinary is the binary-curve variant of ECDHProfile.
func ECDHProfileBinary(priv *BinaryPrivateKey, peer *ec.BinaryAffinePoint) (key []byte, p OpProfile, err error) {
	p = profileBinary(priv.Curve, func() { key, err = ECDHBinary(priv, peer) })
	if err != nil {
		return nil, OpProfile{}, err
	}
	return key, p, nil
}
