// Package monte models "Monte", the microcoded, run-time reconfigurable
// GF(p) accelerator of Section 5.4: a Finite-Field Arithmetic Unit (FFAU)
// built around a 2-stage pipelined multiply-add core, dual scratchpad
// memories (AB and T), index-register address generation, a 64-entry
// microcode control store, a DMA engine to the shared dual-port RAM, and a
// double-buffering scheme that overlaps operand movement with computation.
//
// The cycle model is the paper's Equation 5.2 for CIOS Montgomery
// multiplication — cc = 2k² + 6k + (k+1)p + 22 — which reproduces the
// measured execution times of Table 7.4 to within one cycle. The tests
// hold the executable models that check it: a functional accelerator
// running real CIOS arithmetic (internal/mp), and the FFAU micro-engine
// running the CIOS microprogram cycle by cycle.
package monte

import "repro/internal/mp"

// PipelineDepth is the FFAU arithmetic-core latency p in Equation 5.2
// (two pipeline stages plus the output register).
const PipelineDepth = 3

// Config describes one FFAU instance.
type Config struct {
	WidthBits    int  // datapath width w (8/16/32/64); system config uses 32
	DoubleBuffer bool // overlap DMA with computation (Section 7.7)
}

// Monte is one accelerator instance bound to a prime field.
type Monte struct {
	Cfg Config
	F   *mp.Field // CIOS-configured field

	k   int // words per element at the configured datapath width
	k32 int // words per element on the 32-bit shared-RAM port
}

// New builds a Monte instance for the given prime field. The field is
// reconstructed in CIOS mode — the only algorithm in the microcode store.
func New(cfg Config, fieldName string) *Monte {
	f := mp.NISTField(fieldName, mp.CIOS)
	k := (f.Bits + cfg.WidthBits - 1) / cfg.WidthBits
	return &Monte{Cfg: cfg, F: f, k: k, k32: (f.Bits + 31) / 32}
}

// K returns the element word count at the configured datapath width.
func (m *Monte) K() int { return m.k }

// K32 returns the element word count on the 32-bit shared-RAM port —
// the DMA transfer unit, independent of the FFAU's internal width.
func (m *Monte) K32() int { return m.k32 }

// CIOSCycles is Equation 5.2: the FFAU compute cycles for one Montgomery
// multiplication at word length k and pipeline depth p.
func CIOSCycles(k, p int) uint64 {
	return uint64(2*k*k + 6*k + (k+1)*p + 22)
}

// AddSubCycles models the microcoded modular add/subtract: one pass plus a
// conditional correction pass and pipeline fill/drain.
func AddSubCycles(k, p int) uint64 {
	return uint64(2*k + p + 10)
}

// GenericMontMulCycles returns the FFAU execution time in cycles for one
// CIOS multiplication at datapath width w bits on a key of `bits` bits —
// the quantity Table 7.4 reports (at 100 MHz, 10 ns per cycle).
func GenericMontMulCycles(bits, w int) uint64 {
	k := (bits + w - 1) / w
	return CIOSCycles(k, PipelineDepth)
}
