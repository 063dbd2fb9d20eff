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

// PipelineDepth is the FFAU arithmetic-core latency p in Equation 5.2
// (two pipeline stages plus the output register).
const PipelineDepth = 3

// Words returns the word count of a bits-bit element on a w-bit
// datapath: the FFAU's k at its configured width, and at w = 32 the words
// the DMA moves over the 32-bit shared-RAM port whatever the FFAU's width.
func Words(bits, w int) int { return (bits + w - 1) / w }

// issueOverhead models Pete's coprocessor-2 instruction issue and
// synchronization per operation (cop2ld/cop2mul/cop2st decode + dispatch).
const issueOverhead = 8

// BusyCycles returns the wall-clock cycles one Monte operation occupies
// as seen by Pete: compute FFAU cycles and dma cycles of operand movement
// plus the issue overhead. With double buffering the data movement
// overlaps the computation and the longer one wins (Section 5.4.1's
// reordering example); without it they add.
func BusyCycles(compute, dma uint64, doubleBuffer bool) uint64 {
	if doubleBuffer {
		return max(compute, dma) + issueOverhead
	}
	return compute + dma + issueOverhead
}

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
	return CIOSCycles(Words(bits, w), PipelineDepth)
}
