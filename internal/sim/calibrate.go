package sim

import "math"

// Calibration constants. Every number here models software structure the
// kernel measurements cannot see (the paper's C++ runtime: virtual calls,
// argument marshalling, point-coordinate copies, loop glue) or scales a
// measured kernel to a field the kernel was not hand-written for. They
// are the *only* fitted quantities in the simulation; everything else is
// measured on the pipeline simulator or computed from the accelerator
// timing models. The fit anchors are the latency Tables 7.1/7.2.
const (
	// callOverheadCycles is the per-field-operation software overhead on
	// the baseline and ISA-extended cores: C++ virtual dispatch
	// (Section 5.1 notes the virtual-function table lookups), argument
	// setup, and result copy.
	callOverheadCycles = 42

	// callOverheadInsts approximates the instructions in that overhead
	// (the rest of the cycles are pipeline effects).
	callOverheadInsts = 34

	// callOverheadRAM is the RAM accesses in the call overhead
	// (spills, this-pointers, result copies).
	callOverheadRAM = 10

	// pointOpOverheadCycles is the per-point-operation glue: coordinate
	// shuffling, infinity checks, loop control in the scalar-multiply
	// driver.
	pointOpOverheadCycles = 150

	// ecdsaFixedOverheadCycles covers hashing, nonce derivation and
	// protocol glue per sign/verify — small next to the scalar
	// multiplication.
	ecdsaFixedOverheadCycles = 24000

	// accelCallOverheadCycles is Pete's per-operation driver cost when
	// feeding Monte (address setup + cop2 issue beyond the modeled
	// issue overhead).
	accelCallOverheadCycles = 10

	// billieCallOverheadCycles is the same for Billie, whose
	// register-file model needs no per-op DMA.
	billieCallOverheadCycles = 10

	// orderCostFactor scales curve-field software costs to the group-
	// order field (no NIST fast reduction exists for n, so reduction is
	// Montgomery-based and slightly dearer).
	orderCostFactor = 1.15

	// beeaCyclesPerBitBase is the binary extended-Euclidean inversion
	// cost model: cycles ≈ bits × (beeaCyclesPerBitBase +
	// beeaCyclesPerBitWord × k). Fitted to the paper's observation that
	// inversion is 1–2 orders of magnitude above multiplication.
	beeaCyclesPerBitBase = 30
	beeaCyclesPerBitWord = 11

	// Loop-structure factors scale the rolled generic kernels to the
	// paper's hand-tuned hot loops (the paper reports 374 cycles for
	// the k=6 MADDU product scan and 376 for its MULGF2 twin; our
	// rolled kernels measure higher). Fitted to Tables 7.1/7.2.
	mulOSFactor  = 1.10
	mulPSFactor  = 0.88
	mulGF2Factor = 0.72

	// baselineSqrFactor: the baseline operand-scanning squaring still
	// skips symmetric partial products in the paper's library, saving a
	// little over a full multiplication.
	baselineSqrFactor = 0.88

	// pointOpOverheadAccel is the per-point-op glue on the accelerated
	// configurations: coordinates stay in shared memory / the register
	// file, so the driver only computes addresses and issues cop2 ops.
	pointOpOverheadAccel = 60

	// redScale scales the measured P-192 NIST reduction kernel to the
	// other fields: cycles ≈ measured × (k/6) × factor. P-256 has many
	// more fold terms; P-521 is a single cheap fold.
	redScaleP192 = 1.00
	redScaleP224 = 1.05
	redScaleP256 = 1.55
	redScaleP384 = 1.30
	redScaleP521 = 0.50

	// redScaleOrder is the same factor for the group-order field's
	// reduction (orderCosts), which has no NIST routine. Its value,
	// 1.03 ≈ 100/97, is Section 4.2.2's binary-to-prime reduction cycle
	// ratio; the Table 7.1/7.2 cells it was fitted to are not recorded.
	redScaleOrder = 1.03

	// binaryBEEAFactor scales the binary extended-Euclidean inversion
	// model (beeaCost) for polynomial inversion in GF(2^m) on the
	// software cores: the degree bookkeeping of the polynomial EEA. The
	// Table 7.1/7.2 cells it was fitted to are not recorded.
	binaryBEEAFactor = 1.1

	// gatedRetention is the share of an accelerator's leakage left when
	// GateAccelIdle power-gates it: the retention trickle of the Chapter
	// 8 what-if. No Table 7.1/7.2 cell measures gating; its source is
	// not recorded.
	gatedRetention = 0.1
)

// orderField names the group-order field to redScale.
const orderField = "order"

// redScale returns the reduction scale factor for a named prime field or
// the group-order field.
func redScale(name string) float64 {
	switch name {
	case "P-192":
		return redScaleP192
	case "P-224":
		return redScaleP224
	case "P-256":
		return redScaleP256
	case "P-384":
		return redScaleP384
	case "P-521":
		return redScaleP521
	case orderField:
		return redScaleOrder
	}
	panic("sim: no reduction scale for field " + name)
}

// Instruction-cache behavior model (Section 7.5). The cache hardware
// model in internal/cache is exact, but the full 128 KB ECDSA program
// image does not exist in this reproduction (kernels alone fit in any
// cache), so the miss ratios come from the paper's own measured deltas:
// 1→2 KB cuts misses 33.7%, 2→4 KB cuts 65.2%, 4→8 KB cuts 18.3% (the
// working set is "somewhere around 4 KB"), anchored at a fitted 1 KB
// baseline miss rate.
const baseMissRate1KB = 0.058

// prefetchTrafficFactor is total ROM line reads (demand + stream-buffer)
// relative to raw misses when prefetching.
const prefetchTrafficFactor = 1.4 // misses per fetch, 1 KB cache

// cacheMissRate returns misses/fetch for a capacity in bytes.
func cacheMissRate(sizeBytes int) float64 {
	switch {
	case sizeBytes <= 1024:
		return baseMissRate1KB
	case sizeBytes <= 2048:
		return baseMissRate1KB * (1 - 0.337)
	case sizeBytes <= 4096:
		return baseMissRate1KB * (1 - 0.337) * (1 - 0.652)
	default:
		return baseMissRate1KB * (1 - 0.337) * (1 - 0.652) * (1 - 0.183)
	}
}

// Line-size behavior model. The Section 7.5 miss ratios above are
// measured with the Section 5.3 16-byte line; other line sizes scale
// them. Instruction fetch is mostly sequential, so misses fall nearly
// inversely with line length, damped by the conflict-miss share that
// longer lines do not help (and make slightly worse through fewer sets).
const lineMissExponent = 0.85

// lineMissScale scales the miss ratio from the default 16-byte line to
// lineBytes (exactly 1 at the default, so pre-axis results are
// bit-identical).
func lineMissScale(lineBytes int) float64 {
	if lineBytes == DefaultCacheLineBytes {
		return 1
	}
	return math.Pow(float64(DefaultCacheLineBytes)/float64(lineBytes), lineMissExponent)
}

// The ROM beats per fill and the per-miss stall come from the ROM port
// formulas the exact ICache also calls (energy.BeatsPerFill,
// energy.MissPenaltyFor), so the analytic pricing here and the hardware
// model never drift apart.

// prefetchCoverage is the fraction of misses the stream buffer converts to
// hits; sequential fetch makes it high for small caches and lower once
// only conflict misses remain (Section 7.5: prefetching helps 11.5% at
// 1 KB, 2.0% at 8 KB, and turns slightly negative past 4 KB in energy).
func prefetchCoverage(sizeBytes int) float64 {
	switch {
	case sizeBytes <= 1024:
		return 0.80
	case sizeBytes <= 2048:
		return 0.70
	case sizeBytes <= 4096:
		return 0.55
	default:
		return 0.35
	}
}
