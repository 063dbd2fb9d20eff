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

func censusOfBinary(p ecdsa.BinaryOpProfile) opCensus {
	mul, sqr, add, inv := p.Field.Counts()
	return opCensus{
		mul: mul, sqr: sqr, add: add, inv: inv,
		order: p.Order, point: p.Point,
	}
}

// profiledPhase is one executed, profiled workload phase awaiting pricing.
type profiledPhase struct {
	name   string
	census opCensus
}

// profilePrimeWorkload executes the phases functionally, in order, on a
// prime curve and returns their censuses. On error it returns the phases
// that completed before it.
func profilePrimeWorkload(curve *ec.PrimeCurve, phases []string) ([]profiledPhase, error) {
	seed := []byte("sim-key-" + curve.Name)
	var priv *ecdsa.PrivateKey
	ensureKey := func() {
		if priv == nil {
			priv = ecdsa.GenerateKey(curve, seed)
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
		var census opCensus
		switch ph {
		case PhaseKeyGen:
			var prof ecdsa.OpProfile
			priv, prof = ecdsa.ProfileKeyGen(curve, seed)
			census = censusOf(prof)
		case PhaseECDH:
			ensureKey()
			// The peer's half runs un-profiled first: only the device
			// side is priced, but both sides must really agree.
			peer := ecdsa.GenerateKey(curve, []byte("sim-peer-"+curve.Name))
			peerKey, err := ecdsa.ECDH(peer, priv.Q)
			if err != nil {
				return out, err
			}
			key, prof, err := ecdsa.ECDHProfile(priv, peer.Q)
			if err != nil {
				return out, err
			}
			if string(key) != string(peerKey) {
				return out, fmt.Errorf("sim: ECDH sides disagree on %s", curve.Name)
			}
			census = censusOf(prof)
		case PhaseSign:
			ensureKey()
			var prof ecdsa.OpProfile
			var err error
			sig, prof, err = ecdsa.ProfileSign(priv, digest())
			if err != nil {
				return out, err
			}
			census = censusOf(prof)
		case PhaseVerify:
			if priv == nil || sig == nil {
				return out, fmt.Errorf("sim: phase list %q verifies before signing", phases)
			}
			ok, prof := ecdsa.ProfileVerify(curve, priv.Q, digest(), sig)
			if !ok {
				return out, fmt.Errorf("sim: functional verification failed on %s", curve.Name)
			}
			census = censusOf(prof)
		default:
			return out, fmt.Errorf("sim: unknown workload phase %q", ph)
		}
		if reg != nil {
			reg.Histogram("sim.profile." + ph).Observe(time.Since(phaseStart))
		}
		out = append(out, profiledPhase{name: ph, census: census})
	}
	return out, nil
}

// profileBinaryWorkload is the binary-curve twin of profilePrimeWorkload.
func profileBinaryWorkload(curve *ec.BinaryCurve, phases []string) ([]profiledPhase, error) {
	seed := []byte("sim-key-" + curve.Name)
	var priv *ecdsa.BinaryPrivateKey
	ensureKey := func() {
		if priv == nil {
			priv = ecdsa.GenerateBinaryKey(curve, seed)
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
		var census opCensus
		switch ph {
		case PhaseKeyGen:
			var prof ecdsa.BinaryOpProfile
			priv, prof = ecdsa.ProfileKeyGenBinary(curve, seed)
			census = censusOfBinary(prof)
		case PhaseECDH:
			ensureKey()
			peer := ecdsa.GenerateBinaryKey(curve, []byte("sim-peer-"+curve.Name))
			peerKey, err := ecdsa.ECDHBinary(peer, priv.Q)
			if err != nil {
				return out, err
			}
			key, prof, err := ecdsa.ECDHProfileBinary(priv, peer.Q)
			if err != nil {
				return out, err
			}
			if string(key) != string(peerKey) {
				return out, fmt.Errorf("sim: ECDH sides disagree on %s", curve.Name)
			}
			census = censusOfBinary(prof)
		case PhaseSign:
			ensureKey()
			var prof ecdsa.BinaryOpProfile
			var err error
			sig, prof, err = ecdsa.ProfileSignBinary(priv, digest())
			if err != nil {
				return out, err
			}
			census = censusOfBinary(prof)
		case PhaseVerify:
			if priv == nil || sig == nil {
				return out, fmt.Errorf("sim: phase list %q verifies before signing", phases)
			}
			ok, prof := ecdsa.ProfileVerifyBinary(curve, priv.Q, digest(), sig)
			if !ok {
				return out, fmt.Errorf("sim: functional verification failed on %s", curve.Name)
			}
			census = censusOfBinary(prof)
		default:
			return out, fmt.Errorf("sim: unknown workload phase %q", ph)
		}
		if reg != nil {
			reg.Histogram("sim.profile." + ph).Observe(time.Since(phaseStart))
		}
		out = append(out, profiledPhase{name: ph, census: census})
	}
	return out, nil
}

// workloadNamesForError renders the known names for error messages.
func workloadNamesForError() string { return strings.Join(Workloads(), ", ") }
