// Package sim composes the substrates — the Pete CPU simulator and its
// measured kernels, the instruction cache, the Monte and Billie
// accelerator models, and the energy model — into the six system
// configurations the paper evaluates, and runs the ECDSA workload through
// them to produce the cycles- and Joules-per-operation numbers behind
// every table and figure of Chapter 7.
//
// Methodology (mirrors Chapter 6): a real ECDSA signature/verification is
// executed functionally while its exact operation census is recorded
// (internal/ecdsa.Profile*); each operation is then priced with cycle and
// memory-event costs measured by running the corresponding assembly kernel
// on the pipeline simulator (internal/kernels) or with the accelerator
// timing models; software structure overheads (call/point-op/protocol
// glue) are the documented calibration constants in calibrate.go.
package sim

import (
	"fmt"

	"repro/internal/billie"
	"repro/internal/energy"
)

// Arch is a hardware/software configuration on the Figure 1.1 spectrum.
type Arch int

const (
	// Baseline is pure software on the unextended core (Section 5.1).
	Baseline Arch = iota
	// ISAExt adds the prime- or binary-field instruction extensions
	// (Section 5.2).
	ISAExt
	// ISAExtCache is ISAExt plus the direct-mapped instruction cache
	// (Section 5.3).
	ISAExtCache
	// WithMonte is the baseline core plus the microcoded GF(p)
	// accelerator (Section 5.4). Prime curves only.
	WithMonte
	// WithBillie is the baseline core plus the fixed-field GF(2^m)
	// accelerator (Section 5.5). Binary curves only.
	WithBillie
	// BaselineCache is the unextended core plus the instruction cache
	// (used by the cache studies of Section 7.5).
	BaselineCache
	// MonteCache pairs Monte with an instruction cache (ideal-cache
	// study, Figure 7.11).
	MonteCache
)

func (a Arch) String() string {
	switch a {
	case Baseline:
		return "baseline"
	case ISAExt:
		return "isa-ext"
	case ISAExtCache:
		return "isa-ext+icache"
	case WithMonte:
		return "monte"
	case WithBillie:
		return "billie"
	case BaselineCache:
		return "baseline+icache"
	case MonteCache:
		return "monte+icache"
	}
	return fmt.Sprintf("arch(%d)", int(a))
}

// Options tunes a configuration.
type Options struct {
	CacheBytes   int  // I-cache capacity (default 4096)
	Prefetch     bool // stream-buffer prefetcher (Section 5.3.3)
	IdealCache   bool // never-miss cache (Figure 7.11)
	DoubleBuffer bool // Monte DMA/compute overlap (Section 7.7)
	BillieDigit  int  // digit-serial multiplier width (default 3)
	// MonteWidth is the FFAU datapath width in bits (8/16/32/64; default
	// 32, the system configuration of Section 7.1). Narrower datapaths
	// trade Equation 5.2 cycles against the Table 7.3 power/area points.
	MonteWidth int
	// GateAccelIdle clock/power-gates the accelerator while idle — the
	// paper's stated future work ("we plan on modeling our system such
	// that we can turn off Billie when she is not in use", Chapter 8).
	GateAccelIdle bool
	// CacheLineBytes is the I-cache line size in bytes; 0 means the
	// paper's 16-byte line (Section 5.3: four 32-bit words, one 128-bit
	// ROM port beat). Longer lines exploit the sequential fetch stream
	// (fewer misses) but pay more ROM beats per fill; the paper only
	// fixes this knob, so it is an axis the paper never swept. The
	// default is recorded as 0 — not filled in — so results and stores
	// predating the axis keep their exact bytes (hence omitempty).
	CacheLineBytes int `json:",omitempty"`
	// Workload selects the priced scenario: WorkloadSignVerify (the
	// paper's Sign+Verify evaluation, the default when empty),
	// WorkloadKeyGen, WorkloadECDH, or WorkloadHandshake (see
	// workload.go). Every workload runs its cryptography functionally
	// before pricing.
	Workload string
}

// DefaultOptions matches the headline evaluation settings.
func DefaultOptions() Options {
	return Options{CacheBytes: DefaultCacheBytes, DoubleBuffer: true, BillieDigit: DefaultBillieDigit, MonteWidth: DefaultMonteWidth}
}

// Modeled option ranges: the cache, digit-size and datapath-width models
// are calibrated inside these bounds and Run rejects values outside them
// rather than silently extrapolating.
const (
	MinCacheBytes      = 256
	MaxCacheBytes      = 64 << 10
	DefaultCacheBytes  = 4096
	MinBillieDigit     = 1
	MaxBillieDigit     = 8
	DefaultBillieDigit = billie.DefaultDigit
	MinMonteWidth      = 8
	MaxMonteWidth      = 64
	DefaultMonteWidth  = 32

	// Cache line sizes: the Section 5.3 hardware uses 16-byte lines (one
	// 128-bit ROM beat); the miss-ratio and fill-cost scaling is modeled
	// for power-of-two lines in this range.
	MinCacheLineBytes     = 8
	MaxCacheLineBytes     = 128
	DefaultCacheLineBytes = 16
)

// KnownMonteWidth reports whether w is a synthesized FFAU datapath width
// (8/16/32/64, Table 7.3) — the widths the power model is calibrated for.
func KnownMonteWidth(w int) bool { return energy.KnownMonteWidth(w) }

// HasCache reports whether the configuration includes the I-cache.
func (a Arch) HasCache() bool {
	return a == ISAExtCache || a == BaselineCache || a == MonteCache
}

// HasMonte reports whether the configuration includes Monte.
func (a Arch) HasMonte() bool { return a == WithMonte || a == MonteCache }
