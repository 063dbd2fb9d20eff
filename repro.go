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
//     box: WorkloadSignVerify (the paper's Sign+Verify scenario, the
//     default), WorkloadKeyGen, WorkloadECDH, and WorkloadHandshake (the
//     WSN mutual-authentication sequence key-gen + ECDH + sign + verify).
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
package repro

import (
	"flag"
	"fmt"

	"repro/internal/dse"
	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/energy"
	"repro/internal/gf2"
	"repro/internal/mp"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/telemetry"
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

// The shipped workloads (Options.Workload / SweepSpec.Workloads values).
const (
	// WorkloadSignVerify is the paper's evaluation scenario: one ECDSA
	// signature plus one verification (the default).
	WorkloadSignVerify = sim.WorkloadSignVerify
	// WorkloadKeyGen is one deterministic key generation.
	WorkloadKeyGen = sim.WorkloadKeyGen
	// WorkloadECDH is one Diffie-Hellman key agreement.
	WorkloadECDH = sim.WorkloadECDH
	// WorkloadHandshake is the full WSN mutual-authentication handshake:
	// key-gen + ECDH + sign + verify.
	WorkloadHandshake = sim.WorkloadHandshake
)

// WorkloadNames lists the shipped workloads, default first.
func WorkloadNames() []string { return sim.Workloads() }

// PhaseResult is one priced workload phase (name, cycles, energy).
type PhaseResult = sim.PhaseResult

// DefaultOptions returns the paper's headline settings: 4 KB cache,
// no prefetcher, double buffering on, digit size 3, 32-bit datapath.
func DefaultOptions() Options { return sim.DefaultOptions() }

// SimResult is the outcome of simulating a Sign+Verify on a
// configuration.
type SimResult = sim.Result

// Breakdown is per-component energy in Joules.
type Breakdown = energy.Breakdown

// CurveNames lists all ten supported NIST curves, primes first.
func CurveNames() []string {
	out := append([]string{}, ec.PrimeCurveNames...)
	return append(out, ec.BinaryCurveNames...)
}

// Curve is a unified handle over prime and binary NIST curves.
type Curve struct {
	name   string
	prime  *ec.PrimeCurve
	binary *ec.BinaryCurve
}

// NewCurve returns a named NIST curve ("P-192".."P-521", "B-163".."B-571").
func NewCurve(name string) (*Curve, error) {
	if sim.IsPrimeCurve(name) {
		for _, n := range ec.PrimeCurveNames {
			if n == name {
				return &Curve{name: name, prime: ec.NISTPrimeCurve(name, mp.PSNIST)}, nil
			}
		}
	}
	for _, n := range ec.BinaryCurveNames {
		if n == name {
			return &Curve{name: name, binary: ec.NISTBinaryCurve(name, gf2.CLMul)}, nil
		}
	}
	return nil, fmt.Errorf("repro: unknown curve %q", name)
}

// Name returns the curve name.
func (c *Curve) Name() string { return c.name }

// IsBinary reports whether the curve is a GF(2^m) curve.
func (c *Curve) IsBinary() bool { return c.binary != nil }

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

// RegisterAxisFlags registers one CLI flag per design-space axis on fs
// (call before fs.Parse) and returns an apply function copying the
// parsed values into an Options. The flag names, defaults and usage
// strings come from the dse axis registry, so a newly registered axis
// surfaces on any CLI built this way without per-flag wiring.
func RegisterAxisFlags(fs *flag.FlagSet) func(*Options) {
	return dse.RegisterAxisFlags(fs)
}

// RegisterDimensionFlags registers the dimension axes' selection flags
// (-arch, -curve) on fs from the dse axis registry and returns the
// bound values keyed by flag name; convert them with ParseArchitecture
// / ParseCurveName, which reject typos with the registry's guidance.
func RegisterDimensionFlags(fs *flag.FlagSet) map[string]*string {
	return dse.RegisterDimensionFlags(fs)
}

// ParseArchitecture parses a CLI architecture name through the dse
// registry's arch dimension axis: the canonical names plus the
// historical short spellings ("isaext", "icache"), case-insensitively.
// A typo fails with an error listing the valid names.
func ParseArchitecture(s string) (Architecture, error) { return dse.ParseArch(s) }

// ParseCurveName validates a CLI curve name through the dse registry's
// curve dimension axis, failing with the same unknown-curve guidance
// sweep validation gives.
func ParseCurveName(s string) (string, error) { return dse.ParseCurve(s) }

// AxesHelp renders the design-space axis registry as help text: one
// line per axis — the arch/curve dimensions first, then the option
// knobs — with its CLI flag, description and value domain.
func AxesHelp() string { return dse.AxesHelp() }

// CheckAxisFlag checks a set int axis flag's value against its axis's
// modeled domain, with the message a sweep gives the same value.
func CheckAxisFlag(f *flag.Flag) error { return dse.CheckAxisFlag(f) }

// AxisFlagNames lists the CLI flag names RegisterAxisFlags generates
// (option axes only), in registry order.
func AxisFlagNames() []string { return dse.AxisFlagNames() }

// RelevantAxisFlags lists the option flags that can change a result on
// architecture a (the dse registry's arch-level relevance).
func RelevantAxisFlags(a Architecture) []string { return dse.RelevantAxisFlags(a) }

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
	// SweepConfig is one fully-specified design point.
	SweepConfig = dse.Config
	// BestPerLevel holds the optimal design points for one security
	// level.
	BestPerLevel = dse.BestPerLevel
	// LevelFrontier is the Pareto frontier within one security level.
	LevelFrontier = dse.LevelFrontier
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

// ParetoPerSecurity returns the energy-vs-latency frontier within each
// security level — the comparison at fixed key strength.
func ParetoPerSecurity(points []SweepPoint) []LevelFrontier {
	return dse.ParetoPerLevel(points)
}

// SweepFrontiersJSON renders the global and per-security-level Pareto
// frontiers of a point set as machine-readable indented JSON.
func SweepFrontiersJSON(points []SweepPoint) ([]byte, error) {
	return dse.FrontierJSONBytes(points)
}

// Telemetry types, re-exported from internal/telemetry. A Metrics
// registry attached to SweepOptions.Metrics (optionally propagated into
// the simulator with EnableSimMetrics) collects counters and latency
// histograms out-of-band: results, keys, hashes and store bytes are
// byte-identical with and without instrumentation.
type (
	// Metrics is a race-safe registry of named counters and
	// log-bucketed latency histograms.
	Metrics = telemetry.Registry
	// MetricsSnapshot is a point-in-time JSON-ready view of a registry.
	MetricsSnapshot = telemetry.Snapshot
)

// NewMetrics returns an empty telemetry registry.
func NewMetrics() *Metrics { return telemetry.New() }

// EnableSimMetrics points the simulator's per-phase instrumentation
// (profiling-vs-pricing split, assembly cost) at reg; nil disables it.
// The hook is process-wide because simulation runs under the sweep's
// memoizing cache — results must not depend on which caller triggered
// them, so the simulator cannot take per-call telemetry options.
func EnableSimMetrics(reg *Metrics) { sim.SetMetrics(reg) }

// SweepCacheStats returns the process-wide result cache's cumulative
// hit/miss counts and current size — every sweep that used the shared
// cache since process start. Per-sweep accounting lives on SweepResult.
func SweepCacheStats() (hits, misses uint64, entries int) {
	c := dse.SharedCache()
	hits, misses = c.Stats()
	return hits, misses, c.Len()
}

// ResetSweepCache drops the process-wide result cache's contents and
// zeroes its counters, scoping subsequent SweepCacheStats readings to
// the sweeps that follow.
func ResetSweepCache() { dse.SharedCache().Reset() }

// Experiment regenerates one of the paper's tables or figures by
// identifier (see ExperimentNames).
func Experiment(name string) (string, error) {
	out, ok, err := report.ByName(name)
	if !ok {
		return "", fmt.Errorf("repro: unknown experiment %q (have %v)", name, report.Names())
	}
	if err != nil {
		return "", fmt.Errorf("repro: experiment %q: %w", name, err)
	}
	return out, nil
}

// ExperimentNames lists the regenerable tables and figures.
func ExperimentNames() []string { return report.Names() }

// Experiments regenerates the full evaluation chapter. An invalid
// configuration in any experiment surfaces as an error rather than a
// panic deep inside the simulator.
func Experiments() (string, error) { return report.All() }
