package sim

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/ec"
	"repro/internal/energy"
)

// ramBytes is the modeled data-SRAM capacity (Chapter 6 system
// configuration). It feeds both the per-access/leakage energy accounting
// and the power-split leakage term, so it lives in one place.
const ramBytes = 16 * 1024

// PhaseResult is the priced outcome of one workload phase: its latency
// and per-component energy breakdown.
type PhaseResult struct {
	Name   string
	Cycles uint64
	Energy energy.Breakdown
}

// Seconds returns the phase's wall-clock time at the system clock.
func (p PhaseResult) Seconds() float64 {
	return float64(p.Cycles) / energy.SystemClockHz
}

// Result is the outcome of running a workload on one configuration:
// per-phase latency and energy breakdowns plus combined event totals and
// the average power split. The default workload is the paper's scenario —
// one ECDSA signature plus one verification — whose phases remain
// addressable through the Sign*/Verify* accessors.
type Result struct {
	Arch     Arch
	Curve    string
	Opt      Options
	Workload string

	// Phases holds one priced entry per workload phase, in workload
	// order.
	Phases []PhaseResult

	Power energy.PowerSplit // average over the whole workload

	// Event totals for the whole workload.
	InstFetches    uint64
	RAMReads       uint64
	RAMWrites      uint64
	AccelBusy      uint64
	CacheMissStall uint64
}

// Phase returns the named phase and whether the workload contains it.
func (r Result) Phase(name string) (PhaseResult, bool) {
	for _, p := range r.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseResult{}, false
}

// phaseCycles returns the named phase's cycles, or 0 if absent.
func (r Result) phaseCycles(name string) uint64 {
	p, _ := r.Phase(name)
	return p.Cycles
}

// SignCycles returns the signature phase's cycles (0 if the workload has
// no sign phase).
func (r Result) SignCycles() uint64 { return r.phaseCycles(PhaseSign) }

// VerifyCycles returns the verification phase's cycles (0 if absent).
func (r Result) VerifyCycles() uint64 { return r.phaseCycles(PhaseVerify) }

// SignEnergy returns the signature phase's energy breakdown (zero if the
// workload has no sign phase).
func (r Result) SignEnergy() energy.Breakdown {
	p, _ := r.Phase(PhaseSign)
	return p.Energy
}

// VerifyEnergy returns the verification phase's energy breakdown.
func (r Result) VerifyEnergy() energy.Breakdown {
	p, _ := r.Phase(PhaseVerify)
	return p.Energy
}

// TotalCycles returns the whole workload's cycles.
func (r Result) TotalCycles() uint64 {
	var total uint64
	for _, p := range r.Phases {
		total += p.Cycles
	}
	return total
}

// TotalEnergy returns the whole workload's energy in Joules.
func (r Result) TotalEnergy() float64 {
	var total float64
	for _, p := range r.Phases {
		total += p.Energy.Total()
	}
	return total
}

// CombinedBreakdown returns the component breakdown summed over every
// phase.
func (r Result) CombinedBreakdown() energy.Breakdown {
	var bd energy.Breakdown
	for _, p := range r.Phases {
		bd = bd.Add(p.Energy)
	}
	return bd
}

// TimeSeconds returns the whole workload's wall-clock time at the system
// clock.
func (r Result) TimeSeconds() float64 {
	return float64(r.TotalCycles()) / energy.SystemClockHz
}

// IsPrimeCurve reports whether name is a NIST prime curve.
func IsPrimeCurve(name string) bool { return strings.HasPrefix(name, "P-") }

// tally is the intermediate cycle/event accumulation for one operation.
type tally struct {
	cycles    uint64
	insts     uint64
	ramReads  uint64
	ramWrites uint64
	accel     uint64
}

func (t *tally) addOps(cost PerOp, n uint64) {
	t.cycles += cost.Cycles * n
	t.insts += cost.Insts * n
	t.ramReads += cost.RAMReads * n
	t.ramWrites += cost.RAMWrites * n
	t.accel += cost.Accel * n
}

// addOverhead adds glue cycles executed by Pete (point-op and protocol
// overhead) with typical instruction/memory density.
func (t *tally) addOverhead(cycles uint64) {
	t.cycles += cycles
	t.insts += cycles * 85 / 100
	t.ramReads += cycles / 6
	t.ramWrites += cycles / 10
}

// priceFieldOps converts an operation census into cycles/events.
func priceFieldOps(t *tally, c FieldCosts, mul, sqr, add, sub, inv uint64) {
	t.addOps(c.Mul, mul)
	t.addOps(c.Sqr, sqr)
	t.addOps(c.Add, add)
	t.addOps(c.Sub, sub)
	t.addOps(c.Inv, inv)
}

// pricePointOps adds the per-point-operation software glue; accelerated
// configurations keep coordinates out of Pete's hands and pay less.
func (t *tally) pricePointOps(p ec.PointOpCounters, accel bool) {
	ov := uint64(pointOpOverheadCycles)
	if accel {
		ov = pointOpOverheadAccel
	}
	t.addOverhead((p.Dbl + p.Add) * ov)
}

// Run executes the workload selected by opt.Workload (default: one ECDSA
// signature plus one verification of a SHA-256 digest) on the given
// configuration and curve, returning per-phase latency and energy. The
// cryptography is executed functionally — the signature really verifies,
// the ECDH sides really agree — while costs come from the measured
// kernels and accelerator models.
func Run(arch Arch, curveName string, opt Options) (Result, error) {
	if reg := metrics(); reg != nil {
		defer func(start time.Time) {
			reg.Histogram("sim.run").Observe(time.Since(start))
		}(time.Now())
	}
	if !ec.KnownCurve(curveName) {
		return Result{}, fmt.Errorf("sim: unknown curve %q", curveName)
	}
	if opt.CacheBytes == 0 {
		opt.CacheBytes = 4096
	}
	if opt.BillieDigit == 0 {
		opt.BillieDigit = 3
	}
	if opt.MonteWidth == 0 {
		opt.MonteWidth = DefaultMonteWidth
	}
	// The line axis normalizes the other way: the default is recorded as
	// 0, not filled in, so Result.Opt — and every disk-store entry built
	// from it — keeps the exact bytes of results that predate the axis.
	if opt.CacheLineBytes == DefaultCacheLineBytes {
		opt.CacheLineBytes = 0
	}
	opt.Workload = CanonicalWorkload(opt.Workload)
	if err := validateOptions(opt); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	// validateOptions already rejected unknown workload names.
	wl, _ := workloadByName(opt.Workload)
	return runWorkload(arch, curveName, opt, wl)
}

// MustRun is Run that panics on error (harness use).
func MustRun(arch Arch, curveName string, opt Options) Result {
	r, err := Run(arch, curveName, opt)
	if err != nil {
		panic(err)
	}
	return r
}

func digest() []byte {
	d := sha256.Sum256([]byte("ispass-2014 design-space reproduction workload"))
	return d[:]
}

// runWorkload prices the workload's memoized per-phase censuses for one
// configuration. A census depends only on (curve, phase), so serving it
// involves no architecture at all; the arch and options only price it.
func runWorkload(arch Arch, curveName string, opt Options, wl workloadDef) (Result, error) {
	prime := IsPrimeCurve(curveName)
	if prime && arch == WithBillie {
		return Result{}, fmt.Errorf("sim: Billie is a binary-field accelerator; cannot run %s", curveName)
	}
	if !prime && arch.HasMonte() {
		return Result{}, fmt.Errorf("sim: Monte is a prime-field accelerator; cannot run %s", curveName)
	}
	prof, err := censuses.get(curveName, wl.phases, profileCurve)
	if err != nil {
		return Result{}, err
	}

	kc, err := pinnedKernelCosts()
	if err != nil {
		return Result{}, err
	}
	var fieldCosts FieldCosts
	var accel bool
	if prime {
		fieldCosts, accel = kc.primeFieldCosts(arch, curveName, prof.bits, prof.k, opt), arch.HasMonte()
	} else {
		fieldCosts, accel = kc.binaryFieldCosts(arch, curveName, prof.bits, prof.k, opt), arch == WithBillie
	}
	orderCosts := kc.orderCosts(arch, prof.nbits, opt)
	if err := kc.err(); err != nil {
		return Result{}, err
	}
	tallies := priceWorkload(prof.phases, fieldCosts, orderCosts, accel)
	return assemble(arch, curveName, opt, wl, prof.phases, tallies, prof.bits)
}

// orderCosts prices group-order (protocol) arithmetic, which always
// runs in software on Pete — the Amdahl's-law bottleneck of Section 7.3.
// Accelerated configurations use the *baseline* core's software costs;
// ISA-extended configurations benefit from their extensions.
func (c *kernelCosts) orderCosts(arch Arch, nbits int, opt Options) FieldCosts {
	ow := (nbits + 31) / 32
	var swArch Arch
	switch arch {
	case ISAExt, ISAExtCache:
		swArch = ISAExt
	default:
		swArch = Baseline
	}
	// The order field has no NIST reduction; use the generic prime
	// software path, scaled.
	fc := c.primeFieldCosts(swArch, "order", nbits, ow, opt)
	return FieldCosts{
		Mul: fc.Mul.scale(orderCostFactor),
		Sqr: fc.Sqr.scale(orderCostFactor),
		Add: fc.Add,
		Sub: fc.Sub,
		Inv: fc.Inv,
	}
}

// priceCensus converts one phase's operation census into cycles/events —
// the single pricing path every workload phase of either curve family
// goes through. Every phase carries the fixed protocol overhead
// (hashing, nonce/seed derivation, glue), small next to its scalar
// multiplication.
func priceCensus(c opCensus, fc, oc FieldCosts, accel bool) tally {
	var t tally
	priceFieldOps(&t, fc, c.mul, c.sqr, c.add, c.sub, c.inv)
	priceFieldOps(&t, oc, c.order.Mul, c.order.Sqr, c.order.Add, c.order.Sub, c.order.Inv)
	t.pricePointOps(c.point, accel)
	t.addOverhead(ecdsaFixedOverheadCycles)
	return t
}

// priceWorkload prices every profiled phase. Per-phase pricing time is
// recorded as sim.price.<phase> when metrics are on — the counterpart
// of the sim.profile.<phase> census timing, quantifying how cheap
// pricing is next to profiling (the census-memoization case).
func priceWorkload(phases []profiledPhase, fc, oc FieldCosts, accel bool) []tally {
	reg := metrics()
	out := make([]tally, len(phases))
	for i, p := range phases {
		var start time.Time
		if reg != nil {
			start = time.Now()
		}
		out[i] = priceCensus(p.census, fc, oc, accel)
		if reg != nil {
			reg.Histogram("sim.price." + p.name).Observe(time.Since(start))
		}
	}
	return out
}

// assemble applies the cache model and converts the per-phase tallies
// into energy. fieldBits is the curve field size: Billie's register file
// scales with it and Monte's width-aware power model interpolates
// Table 7.3 by it.
func assemble(arch Arch, curveName string, opt Options, wl workloadDef, phases []profiledPhase, tallies []tally, fieldBits int) (Result, error) {
	if reg := metrics(); reg != nil {
		defer func(start time.Time) {
			reg.Histogram("sim.assemble").Observe(time.Since(start))
		}(time.Now())
	}
	res := Result{Arch: arch, Curve: curveName, Opt: opt, Workload: wl.name}

	// Line-size scaling (cache.EffectiveLine semantics): the miss ratio,
	// the per-miss stall, and the ROM beats per fill all derive from the
	// configured line. At the default 16-byte line every factor is
	// exactly 1x/3-cycle, so pre-axis results are bit-identical.
	line := opt.CacheLineBytes
	if line == 0 {
		line = DefaultCacheLineBytes
	}
	lineScale := lineMissScale(line)
	beats := float64(cache.BeatsPerFill(line))
	penalty := float64(cache.MissPenaltyFor(line))

	apply := func(t tally) (uint64, energy.Breakdown, uint64, uint64) {
		cycles := t.cycles
		var missStall, lineReads, cacheAccesses uint64
		if arch.HasCache() {
			cacheAccesses = t.insts
			if !opt.IdealCache {
				raw := float64(t.insts) * cacheMissRate(opt.CacheBytes) * lineScale
				stallMisses := raw
				if opt.Prefetch {
					stallMisses = raw * (1 - prefetchCoverage(opt.CacheBytes))
					lineReads = uint64(prefetchTrafficFactor * raw)
				} else {
					lineReads = uint64(raw)
				}
				missStall = uint64(stallMisses * penalty)
				cycles += missStall
			}
		}
		T := float64(cycles) / energy.SystemClockHz

		var bd energy.Breakdown
		// Pete: clock + static always; datapath scaled by activity. A
		// zero-cycle tally (a degenerate census) has no activity to
		// scale — dividing by cycles would poison the breakdown with
		// NaN; every *T term below is already exactly zero.
		swCycles := cycles - t.accel - missStall
		activity := 0.0
		if cycles > 0 {
			activity = (float64(swCycles) + energy.StallActivity*float64(t.accel+missStall)) / float64(cycles)
		}
		bd.Pete = (energy.PeteClockW+energy.PeteStaticW)*T + energy.PeteDatapathW*activity*T

		// ROM and cache/uncore. A fill crosses the 128-bit ROM port once
		// per beat, so longer lines pay proportionally more per fill.
		if arch.HasCache() {
			bd.ROM = float64(lineReads) * energy.ROMLineReadEnergy() * beats
			uncoreW := energy.UncoreBaseW + energy.UncoreCacheW + energy.UncoreStatic
			if opt.IdealCache {
				// The Figure 7.11 best-case model counts only the
				// cache arrays, not the real controller/buffers.
				uncoreW = energy.UncoreBaseW + energy.UncoreStatic
			}
			bd.Uncore = uncoreW*T +
				float64(cacheAccesses)*energy.ICacheReadEnergy(opt.CacheBytes) +
				energy.ICacheLeakage(opt.CacheBytes)*T
		} else {
			bd.ROM = float64(t.insts) * energy.ROMReadEnergy()
			bd.Uncore = (energy.UncoreBaseW + energy.UncoreStatic) * T
		}

		// RAM.
		bd.RAM = float64(t.ramReads)*energy.SRAMReadEnergy(ramBytes) +
			float64(t.ramWrites)*energy.SRAMWriteEnergy(ramBytes) +
			energy.SRAMLeakage(ramBytes)*T

		// Accelerator.
		switch {
		case arch.HasMonte():
			Tbusy := float64(t.accel) / energy.SystemClockHz
			idle := energy.MonteIdleWidth(opt.MonteWidth, fieldBits)
			static := energy.MonteStaticWidth(opt.MonteWidth, fieldBits)
			if opt.GateAccelIdle {
				// Clock gating kills the idle clock fringe; power
				// gating cuts leakage to a retention trickle.
				idle, static = 0, static*0.1
			}
			bd.Accel = energy.MonteDynamicWidth(opt.MonteWidth, fieldBits)*Tbusy +
				idle*(T-Tbusy) + static*T
		case arch == WithBillie:
			Tbusy := float64(t.accel) / energy.SystemClockHz
			idleW := energy.BillieIdleD(fieldBits, opt.BillieDigit)
			staticW := energy.BillieStaticD(fieldBits, opt.BillieDigit)
			if opt.GateAccelIdle {
				idleW, staticW = 0, staticW*0.1
			}
			bd.Accel = energy.BillieDynamicD(fieldBits, opt.BillieDigit)*Tbusy +
				idleW*(T-Tbusy) + staticW*T
		}
		return cycles, bd, missStall, lineReads
	}

	res.Phases = make([]PhaseResult, len(tallies))
	for i, t := range tallies {
		cycles, bd, miss, _ := apply(t)
		res.Phases[i] = PhaseResult{Name: phases[i].name, Cycles: cycles, Energy: bd}
		res.CacheMissStall += miss
		res.InstFetches += t.insts
		res.RAMReads += t.ramReads
		res.RAMWrites += t.ramWrites
		res.AccelBusy += t.accel
	}

	// Average power split (Figure 7.10).
	T := res.TimeSeconds()
	static := energy.PeteStaticW + energy.UncoreStatic + energy.SRAMLeakage(ramBytes)
	if arch.HasCache() {
		static += energy.ICacheLeakage(opt.CacheBytes)
	}
	// Gating cuts accelerator leakage to the same retention trickle the
	// energy accounting above charges.
	accelStaticScale := 1.0
	if opt.GateAccelIdle {
		accelStaticScale = 0.1
	}
	if arch.HasMonte() {
		static += energy.MonteStaticWidth(opt.MonteWidth, fieldBits) * accelStaticScale
	}
	if arch == WithBillie {
		static += energy.BillieStaticD(fieldBits, opt.BillieDigit) * accelStaticScale
	}
	// A zero-cycle workload (degenerate census) has no averaging window;
	// report zero dynamic power instead of the NaN a 0/0 would produce.
	dynamicW := 0.0
	if T > 0 {
		dynamicW = res.TotalEnergy()/T - static
	}
	res.Power = energy.PowerSplit{
		StaticW:  static,
		DynamicW: dynamicW,
	}
	return res, nil
}
