// Package billie models "Billie", the non-configurable GF(2^m) accelerator
// of Section 5.5: a 16-entry, full-field-width register file, a
// digit-serial multiplier (Algorithm 8) with field-specific reduction
// folded in, a single-cycle hardwired squaring unit, a single-cycle
// full-width adder, and a load/store unit buffering between the m-bit
// register file and the 32-bit shared-RAM port. Pete feeds it coprocessor
// instructions through a four-entry queue (Table 5.6).
//
// The package is Billie's timing model, computed from the field degree m
// and the digit size alone: digit count, issue overhead, and load/store
// serialization (DigitSerialCycles, ScalarMultCycles). Its tests hold a
// functional model of the register file and its instructions, checked
// bit-exact against internal/gf2.
package billie

// DefaultDigit is the energy-optimal multiplier digit size (3 bits,
// Section 7.6 citing Kumar et al.).
const DefaultDigit = 3

// issueCycles models Pete fetching and feeding one coprocessor instruction
// through the queue (Section 5.5.1's control-bottleneck mitigation).
const issueCycles = 2

// DigitSerialCycles is the latency of one digit-serial multiplication in
// GF(2^m) with digit size d: ceil(m/d) iterations plus the final
// reduction and result write-back.
func DigitSerialCycles(m, d int) uint64 { return uint64((m+d-1)/d) + 3 }

// ScalarMultCycles estimates one m-bit scalar point multiplication on
// Billie with the sliding-window algorithm (the Figure 7.14 primitive):
// per-bit one LD doubling (4M+5S) and per window-hit one mixed addition
// (8M+5S), plus the initial loads and final inversion (Itoh–Tsujii:
// m-1 squarings + ~log2(m)+wt(m-1) multiplies) and store-back, for
// GF(2^m) with digit size d. A load or store moves the element's
// ceil(m/32) words across the 32-bit shared-RAM port.
func ScalarMultCycles(m, d int, algorithm string) uint64 {
	bits := uint64(m)
	mul := DigitSerialCycles(m, d) + issueCycles
	sqr := uint64(1 + issueCycles)
	add := uint64(1 + issueCycles)
	ldst := uint64((m+31)/32) + issueCycles
	var cycles uint64
	switch algorithm {
	case "sliding-window":
		dbl := 4*mul + 5*sqr
		madd := 8*mul + 5*sqr + 2*add
		adds := bits / 5 // window-4 signed density ≈ 1/5
		cycles = bits*dbl + adds*madd
		// Precompute 3P,5P,7P: three additions' worth.
		cycles += 3 * (8*mul + 5*sqr)
	case "montgomery":
		// Ladder step: 6M + 5S per bit (Section 4.1 found it
		// slower on Billie than the window method).
		step := 6*mul + 5*sqr + 2*add
		cycles = bits * step
		// y-recovery: ~10 multiplies and an inversion share.
		cycles += 10 * mul
	default:
		panic("billie: unknown algorithm " + algorithm)
	}
	// Final affine conversion: one Itoh–Tsujii inversion plus 2 muls.
	itMuls := uint64(10) // ≈ log2(m) + wt(m-1)
	cycles += (bits-1)*sqr + itMuls*mul + 2*mul
	// Operand staging: ~8 loads + 2 stores.
	cycles += 10 * ldst
	return cycles
}
