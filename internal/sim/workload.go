package sim

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/mp"
)

// A workload is a named list of profiled phases. Each phase executes a
// real, functionally-verified cryptographic operation (the signature
// really verifies, the two ECDH sides really agree) while its exact
// operation census is recorded; the simulator then prices every phase
// through the same census → cycles/events → cache/energy pipeline. The
// paper evaluates a single scenario — one ECDSA signature plus one
// verification — but the design-space conclusions shift with the workload
// mix, so the scenario is a first-class axis here.

// Workload names accepted by Options.Workload and the dse Workloads axis.
const (
	// WorkloadSignVerify is the paper's evaluation scenario: one ECDSA
	// signature plus one verification (the default).
	WorkloadSignVerify = "sign-verify"
	// WorkloadKeyGen is one deterministic key generation — a single
	// scalar base multiplication (Section 4.3's bare-metal key setup).
	WorkloadKeyGen = "keygen"
	// WorkloadECDH is one Diffie-Hellman key agreement: a peer-key curve
	// check plus one scalar multiplication — the "session key
	// establishment" scenario the paper's introduction motivates.
	WorkloadECDH = "ecdh"
	// WorkloadHandshake is the full WSN mutual-authentication handshake:
	// key generation, ECDH key agreement, then one signature and one
	// verification over the transcript digest.
	WorkloadHandshake = "handshake"
)

// Phase names, as recorded in Result.Phases.
const (
	PhaseKeyGen = "keygen"
	PhaseECDH   = "ecdh"
	PhaseSign   = "sign"
	PhaseVerify = "verify"
)

// workloadDef names a workload's phases. A phase list containing
// PhaseVerify must list PhaseSign earlier: verification consumes the
// signature the sign phase produced (the profilers return a clean error
// otherwise).
type workloadDef struct {
	name   string
	phases []string
}

// workloadDefs lists the shipped workloads in canonical presentation
// order (the default first).
var workloadDefs = []workloadDef{
	{WorkloadSignVerify, []string{PhaseSign, PhaseVerify}},
	{WorkloadKeyGen, []string{PhaseKeyGen}},
	{WorkloadECDH, []string{PhaseECDH}},
	{WorkloadHandshake, []string{PhaseKeyGen, PhaseECDH, PhaseSign, PhaseVerify}},
}

// Workloads lists the known workload names, default first.
func Workloads() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.name
	}
	return out
}

// KnownWorkload reports whether name is a shipped workload ("" means the
// default Sign+Verify scenario).
func KnownWorkload(name string) bool {
	_, ok := workloadByName(name)
	return ok
}

// CanonicalWorkload maps "" to the default workload name and leaves every
// other name untouched.
func CanonicalWorkload(name string) string {
	if name == "" {
		return WorkloadSignVerify
	}
	return name
}

func workloadByName(name string) (workloadDef, bool) {
	name = CanonicalWorkload(name)
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// opCensus is the family-neutral operation census of one profiled phase:
// curve-field operations, group-order ("protocol") operations, and point
// operations. Prime and binary profiles both flatten into it, so a single
// pricing path serves both curve families.
type opCensus struct {
	mul, sqr, add, sub, inv uint64 // curve-field ops
	order                   mp.OpCounters
	point                   ec.PointOpCounters
}

func censusOf(p ecdsa.OpProfile) opCensus {
	return opCensus{
		mul: p.Field.Mul, sqr: p.Field.Sqr, add: p.Field.Add,
		sub: p.Field.Sub, inv: p.Field.Inv,
		order: p.Order, point: p.Point,
	}
}

// profiledPhase is one executed, profiled workload phase awaiting pricing.
type profiledPhase struct {
	name   string
	census opCensus
}

// familyOps is one curve family's profiled ecdsa operations, bound to one
// curve, over the family's private-key type K.
type familyOps[K any] struct {
	keyGen func(seed []byte) (K, ecdsa.OpProfile)
	ecdh   func(priv, peer K) ([]byte, ecdsa.OpProfile, error)
	sign   func(priv K, digest []byte) (*ecdsa.Signature, ecdsa.OpProfile, error)
	verify func(priv K, digest []byte, sig *ecdsa.Signature) (bool, ecdsa.OpProfile)
}

func primeOps(c *ec.PrimeCurve) familyOps[*ecdsa.PrivateKey] {
	return familyOps[*ecdsa.PrivateKey]{
		keyGen: func(seed []byte) (*ecdsa.PrivateKey, ecdsa.OpProfile) {
			return ecdsa.ProfileKeyGen(c, seed)
		},
		ecdh: func(priv, peer *ecdsa.PrivateKey) ([]byte, ecdsa.OpProfile, error) {
			return ecdsa.ECDHProfile(priv, peer.Q)
		},
		sign: ecdsa.ProfileSign,
		verify: func(priv *ecdsa.PrivateKey, digest []byte, sig *ecdsa.Signature) (bool, ecdsa.OpProfile) {
			return ecdsa.ProfileVerify(c, priv.Q, digest, sig)
		},
	}
}

func binaryOps(c *ec.BinaryCurve) familyOps[*ecdsa.BinaryPrivateKey] {
	return familyOps[*ecdsa.BinaryPrivateKey]{
		keyGen: func(seed []byte) (*ecdsa.BinaryPrivateKey, ecdsa.OpProfile) {
			return ecdsa.ProfileKeyGenBinary(c, seed)
		},
		ecdh: func(priv, peer *ecdsa.BinaryPrivateKey) ([]byte, ecdsa.OpProfile, error) {
			return ecdsa.ECDHProfileBinary(priv, peer.Q)
		},
		sign: ecdsa.ProfileSignBinary,
		verify: func(priv *ecdsa.BinaryPrivateKey, digest []byte, sig *ecdsa.Signature) (bool, ecdsa.OpProfile) {
			return ecdsa.ProfileVerifyBinary(c, priv.Q, digest, sig)
		},
	}
}

// profileWorkload executes the phases functionally, in order, on the
// named curve through its family's operations and returns their
// censuses. On error it returns the phases that completed before it.
func profileWorkload[K any](curve string, ops familyOps[K], phases []string) ([]profiledPhase, error) {
	seed := []byte("sim-key-" + curve)
	var priv K
	keyed := false
	ensureKey := func() {
		if !keyed {
			priv, _ = ops.keyGen(seed)
			keyed = true
		}
	}
	var sig *ecdsa.Signature
	reg := metrics()
	out := make([]profiledPhase, 0, len(phases))
	for _, ph := range phases {
		var phaseStart time.Time
		if reg != nil {
			phaseStart = time.Now()
		}
		var prof ecdsa.OpProfile
		switch ph {
		case PhaseKeyGen:
			priv, prof = ops.keyGen(seed)
			keyed = true
		case PhaseECDH:
			ensureKey()
			// The peer's half runs first: only the device side is
			// priced, but both sides must really agree.
			peer, _ := ops.keyGen([]byte("sim-peer-" + curve))
			peerKey, _, err := ops.ecdh(peer, priv)
			if err != nil {
				return out, err
			}
			var key []byte
			key, prof, err = ops.ecdh(priv, peer)
			if err != nil {
				return out, err
			}
			if string(key) != string(peerKey) {
				return out, fmt.Errorf("sim: ECDH sides disagree on %s", curve)
			}
		case PhaseSign:
			ensureKey()
			var err error
			sig, prof, err = ops.sign(priv, digest())
			if err != nil {
				return out, err
			}
		case PhaseVerify:
			if sig == nil {
				return out, fmt.Errorf("sim: phase list %q verifies before signing", phases)
			}
			var ok bool
			ok, prof = ops.verify(priv, digest(), sig)
			if !ok {
				return out, fmt.Errorf("sim: functional verification failed on %s", curve)
			}
		default:
			return out, fmt.Errorf("sim: unknown workload phase %q", ph)
		}
		if reg != nil {
			reg.Histogram("sim.profile." + ph).Observe(time.Since(phaseStart))
		}
		out = append(out, profiledPhase{name: ph, census: censusOf(prof)})
	}
	return out, nil
}

// workloadNamesForError renders the known names for error messages.
func workloadNamesForError() string { return strings.Join(Workloads(), ", ") }
