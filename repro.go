// Package repro is a full reproduction of "The Design Space of Ultra-low
// Energy Asymmetric Cryptography" (ISPASS 2014): an ECDSA implementation
// over all ten NIST curves backed by interchangeable software and
// accelerator arithmetic, a cycle-accounting simulator of the paper's
// embedded SoC ("Pete" plus the Monte and Billie accelerators and an
// instruction cache), and an energy model that regenerates every table
// and figure of the paper's evaluation chapter.
//
// Five layers are exposed:
//
//   - Cryptography: Curve / Key / Sign / Verify run real ECDSA on real
//     NIST curve parameters. Signing is deterministic (RFC-6979-style),
//     so results are reproducible across architectures.
//
//   - Workloads: a workload is a named list of profiled phases, each a
//     real, functionally-verified crypto operation. Four ship out of the
//     box: "sign-verify" (the paper's Sign+Verify scenario, the
//     default), "keygen", "ecdh", and WorkloadHandshake (the WSN
//     mutual-authentication sequence key-gen + ECDH + sign + verify).
//     Options.Workload selects one; results carry per-phase cycle and
//     energy slices.
//
//   - Simulation: Simulate prices the selected workload on one of the
//     paper's hardware/software configurations, returning per-phase
//     latency, per-component energy, and average power.
//
//   - Exploration: Sweep fans a declarative SweepSpec (architectures ×
//     curves × workloads × cache geometries × accelerator knobs,
//     including Monte's datapath width and Billie's digit size) out over
//     a parallel worker pool with a memoizing, optionally disk-backed
//     result cache, and Pareto / BestPerSecurity / RankByEDP analyze the
//     resulting point cloud — the paper's whole design-space study as
//     one operation:
//
//     res, _ := repro.Sweep(repro.FullSweepSpec(), repro.SweepOptions{})
//     frontier := repro.Pareto(res.Points)
//
//     Sweep results are deterministic: the same spec produces points in
//     the same order regardless of worker count, and repeated or
//     overlapping sweeps are served from the result cache.
//
//   - Experiments: Experiment and Experiments regenerate the paper's
//     tables and figures as formatted text, including the live-sweep
//     "bestdesign", "ffauwidth" and "handshake" comparisons.
//
// The package exports what the examples and the bench harness call.
// The dse command is built on internal/dse, internal/sim,
// internal/report and internal/telemetry directly; its flags, axis
// registry and -stats telemetry have no facade here.
package repro

import (
	"fmt"

	"repro/internal/dse"
	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/gf2"
	"repro/internal/mp"
	"repro/internal/report"
	"repro/internal/sim"
)

// Architecture selects a point on the paper's acceleration spectrum
// (Figure 1.1).
type Architecture = sim.Arch

// The evaluated configurations.
const (
	// ArchBaseline is compiled software on the plain RISC core.
	ArchBaseline = sim.Baseline
	// ArchISAExt adds the finite-field instruction-set extensions.
	ArchISAExt = sim.ISAExt
	// ArchISAExtCache adds a direct-mapped instruction cache on top.
	ArchISAExtCache = sim.ISAExtCache
	// ArchMonte adds the microcoded GF(p) accelerator (prime curves).
	ArchMonte = sim.WithMonte
	// ArchBillie adds the fixed-field GF(2^m) accelerator (binary
	// curves).
	ArchBillie = sim.WithBillie
)

// Options exposes the simulation knobs (cache geometry, prefetcher,
// Monte double-buffering and datapath width, Billie digit size, and the
// priced workload).
type Options = sim.Options

// WorkloadHandshake is the Options.Workload value for the full WSN
// mutual-authentication handshake: key-gen + ECDH + sign + verify.
const WorkloadHandshake = sim.WorkloadHandshake

// DefaultOptions returns the paper's headline settings: 4 KB cache,
// no prefetcher, double buffering on, digit size 3, 32-bit datapath.
func DefaultOptions() Options { return sim.DefaultOptions() }

// SimResult is the outcome of simulating a Sign+Verify on a
// configuration.
type SimResult = sim.Result

// Curve is a unified handle over prime and binary NIST curves.
type Curve struct {
	name   string
	prime  *ec.PrimeCurve
	binary *ec.BinaryCurve
}

// NewCurve returns a named NIST curve ("P-192".."P-521", "B-163".."B-571").
func NewCurve(name string) (*Curve, error) {
	c, ok := sim.LookupCurve(name)
	if !ok {
		return nil, fmt.Errorf("repro: unknown curve %q", name)
	}
	if c.Family == sim.PrimeFamily {
		return &Curve{name: name, prime: ec.NISTPrimeCurve(name, mp.PSNIST)}, nil
	}
	return &Curve{name: name, binary: ec.NISTBinaryCurve(name, gf2.Comb)}, nil
}

// Name returns the curve name.
func (c *Curve) Name() string { return c.name }

// SecurityBits returns the approximate symmetric-equivalent security.
func (c *Curve) SecurityBits() int {
	var n int
	if c.prime != nil {
		n = c.prime.NBits
	} else {
		n = c.binary.NBits
	}
	return n / 2
}

// Key is an ECDSA key pair on either curve family.
type Key struct {
	curve  *Curve
	prime  *ecdsa.PrivateKey
	binary *ecdsa.BinaryPrivateKey
}

// GenerateKey derives a deterministic key pair from seed material (the
// simulated device has no OS entropy source, matching the paper's
// bare-metal environment).
func (c *Curve) GenerateKey(seed []byte) *Key {
	k := &Key{curve: c}
	if c.prime != nil {
		k.prime = ecdsa.GenerateKey(c.prime, seed)
	} else {
		k.binary = ecdsa.GenerateBinaryKey(c.binary, seed)
	}
	return k
}

// Signature is an ECDSA (r, s) pair rendered as hex strings.
type Signature struct {
	R, S string
	raw  *ecdsa.Signature
}

// Sign produces an ECDSA signature over a message digest (e.g. a SHA-256
// sum).
func (k *Key) Sign(digest []byte) (*Signature, error) {
	var sig *ecdsa.Signature
	var err error
	if k.prime != nil {
		sig, err = ecdsa.Sign(k.prime, digest)
	} else {
		sig, err = ecdsa.SignBinary(k.binary, digest)
	}
	if err != nil {
		return nil, err
	}
	return &Signature{R: sig.R.Hex(), S: sig.S.Hex(), raw: sig}, nil
}

// Verify checks a signature over digest against this key's public point.
func (k *Key) Verify(digest []byte, sig *Signature) bool {
	if sig == nil || sig.raw == nil {
		return false
	}
	if k.prime != nil {
		return ecdsa.Verify(k.prime.Curve, k.prime.Q, digest, sig.raw)
	}
	return ecdsa.VerifyBinary(k.binary.Curve, k.binary.Q, digest, sig.raw)
}

// Simulate prices one ECDSA Sign+Verify on the given architecture and
// curve, returning latency, energy breakdown and power.
func Simulate(arch Architecture, curveName string, opt Options) (SimResult, error) {
	return sim.Run(arch, curveName, opt)
}

// Design-space exploration types, re-exported from internal/dse.
type (
	// SweepSpec declares a region of the design space as sets per axis;
	// the cross-product is explored with invalid and duplicate points
	// pruned.
	SweepSpec = dse.SweepSpec
	// SweepOptions tunes sweep execution (worker count, result cache).
	SweepOptions = dse.SweepOptions
	// SweepResult is an executed sweep: evaluated points in
	// deterministic spec order plus cache accounting.
	SweepResult = dse.SweepResult
	// SweepPoint is one evaluated design point with its derived
	// energy/latency/EDP metrics.
	SweepPoint = dse.Point
	// BestPerLevel holds the optimal design points for one security
	// level.
	BestPerLevel = dse.BestPerLevel
	// AdaptiveResult is the outcome of an adaptive exploration: the
	// evaluated cloud (shaped as a SweepResult), the per-security-level
	// frontiers, and the exploration economics.
	AdaptiveResult = dse.AdaptiveResult
)

// DefaultSweepSpec is every architecture × every curve at the paper's
// headline knob settings.
func DefaultSweepSpec() SweepSpec { return dse.DefaultSweep() }

// FullSweepSpec is the complete design-space grid: 10 curves × 5
// architectures with cache (1–16 KB, prefetcher on/off, ideal-cache
// bound), Monte double-buffering and datapath-width (8–64 bit), Billie
// digit-size (1–8), and accelerator idle-gating sub-sweeps.
func FullSweepSpec() SweepSpec { return dse.FullSweep() }

// Sweep explores the spec's cross-product on a parallel worker pool,
// serving repeated configurations from the process-wide result cache.
// Setting SweepOptions.CacheDir makes that cache persistent: results are
// loaded from disk before the sweep and flushed back after, so repeating
// a sweep is near-free even across process restarts.
func Sweep(spec SweepSpec, opt SweepOptions) (*SweepResult, error) {
	return dse.Sweep(spec, opt)
}

// AdaptiveSweep explores the spec coarse-to-fine instead of
// exhaustively: it seeds a coarse sub-grid, then each round refines
// only around the current per-security-level Pareto frontiers until no
// frontier moves. The returned frontiers are key-identical to the
// exhaustive grid's while a fraction of its configurations is priced;
// every evaluated point goes through the same execution core (result
// cache, disk store, telemetry) as Sweep.
func AdaptiveSweep(spec SweepSpec, opt SweepOptions) (*AdaptiveResult, error) {
	return dse.AdaptiveSweep(spec, opt)
}

// Pareto returns the energy-vs-latency Pareto frontier of a point set,
// sorted by ascending latency.
func Pareto(points []SweepPoint) []SweepPoint { return dse.Pareto(points) }

// BestPerSecurity returns the energy-, latency- and EDP-optimal design
// points for each of the paper's five security levels.
func BestPerSecurity(points []SweepPoint) []BestPerLevel {
	return dse.BestPerSecurity(points)
}

// RankByEDP returns the points sorted by ascending energy-delay product.
func RankByEDP(points []SweepPoint) []SweepPoint { return dse.ByEDP(points) }

// ResetSweepCache drops the process-wide result cache's contents and
// zeroes its counters, so the sweeps that follow start cold.
func ResetSweepCache() { dse.SharedCache().Reset() }

// Experiment regenerates one of the paper's tables or figures by
// identifier (see ExperimentNames).
func Experiment(name string) (string, error) { return report.Experiment(name) }

// ExperimentNames lists the regenerable tables and figures.
func ExperimentNames() []string { return report.Names() }

// Experiments regenerates the full evaluation chapter. An invalid
// configuration in any experiment surfaces as an error rather than a
// panic deep inside the simulator.
func Experiments() (string, error) { return report.All() }
