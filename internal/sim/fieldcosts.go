package sim

import (
	"repro/internal/billie"
	"repro/internal/monte"
)

// The kernel cost table rows the model prices, by the name of the Pete
// kernel each row measures (internal/kernels; the test side maps every
// name to its program).
const (
	kernelAddMP          = "add_mp"
	kernelAddGF2         = "add_gf2"
	kernelMulOS          = "mul_os_baseline"
	kernelMulPSExt       = "mul_ps_ext"
	kernelSqrPSExt       = "sqr_ps_ext"
	kernelMulComb        = "mul_comb_sw"
	kernelMulGF2Ext      = "mul_gf2_ext"
	kernelSqrGF2TableHot = "sqr_gf2_table_hot"
	kernelSqrGF2Cl       = "sqr_gf2_cl"
	kernelRedP192        = "red_p192"
	kernelRedB163        = "red_b163"
)

// redCost prices the NIST fast reduction for a field with k words: the
// hand-written P-192 and B-163 kernels are measured, other fields scale by
// word count and fold-complexity factor (calibrate.go).
func (c *kernelCosts) redCost(fieldName string, k int) PerOp {
	base := c.of(kernelRedP192, 6)
	f := float64(k) / 6.0 * redScale(fieldName)
	return base.scale(f)
}

// redCostBinary prices binary-field reduction from the measured B-163
// kernel (Algorithm 7), scaled by word count.
func (c *kernelCosts) redCostBinary(k int) PerOp {
	base := c.of(kernelRedB163, 6)
	return base.scale(float64(k) / 6.0)
}

// callOv is the per-operation software overhead.
var callOv = PerOp{
	Cycles:    callOverheadCycles,
	Insts:     callOverheadInsts,
	RAMReads:  callOverheadRAM / 2,
	RAMWrites: callOverheadRAM / 2,
}

// addModCost prices a modular add/sub: the multi-precision add kernel plus
// an average half conditional correction pass.
func (c *kernelCosts) addModCost(k int) PerOp {
	a := c.of(kernelAddMP, k)
	return a.plus(a.scale(0.5)).plus(callOv)
}

// beeaCost models binary-extended-Euclidean inversion (software, all
// configurations' protocol arithmetic; Section 4.2.4).
func beeaCost(bits, k int) PerOp {
	cyc := uint64(bits) * uint64(beeaCyclesPerBitBase+beeaCyclesPerBitWord*k)
	return PerOp{
		Cycles:    cyc,
		Insts:     cyc * 8 / 10,
		RAMReads:  cyc / 6,
		RAMWrites: cyc / 9,
	}
}

// primeFieldCosts builds the cost table for a prime field under an
// architecture.
func (c *kernelCosts) primeFieldCosts(arch Arch, fieldName string, bits, k int, opt Options) FieldCosts {
	red := c.redCost(fieldName, k)
	switch arch {
	case Baseline, BaselineCache:
		m := c.of(kernelMulOS, k).scale(mulOSFactor)
		mul := m.plus(red).plus(callOv)
		return FieldCosts{
			Mul: mul,
			Sqr: m.scale(baselineSqrFactor).plus(red).plus(callOv),
			Add: c.addModCost(k),
			Sub: c.addModCost(k),
			Inv: beeaCost(bits, k),
		}
	case ISAExt, ISAExtCache:
		m := c.of(kernelMulPSExt, k).scale(mulPSFactor)
		mul := m.plus(red).plus(callOv)
		sqr := c.of(kernelSqrPSExt, k).scale(mulPSFactor).plus(red).plus(callOv)
		return FieldCosts{
			Mul: mul,
			Sqr: sqr,
			Add: c.addModCost(k),
			Sub: c.addModCost(k),
			Inv: beeaCost(bits, k),
		}
	case WithMonte, MonteCache:
		// Compute time is Equation 5.2 at the configured datapath width;
		// DMA always crosses the 32-bit shared-RAM port regardless of the
		// FFAU's internal width, so its word count is width-independent.
		kw := monte.Words(bits, opt.MonteWidth)
		cc := monte.CIOSCycles(kw, monte.PipelineDepth)
		k32 := monte.Words(bits, 32)
		dma := uint64(3 * k32)
		busy := monte.BusyCycles(cc, dma, opt.DoubleBuffer)
		mulCyc := busy + accelCallOverheadCycles
		// Pete only issues a handful of instructions per op; shared-RAM
		// traffic is the DMA's 3k words.
		mul := PerOp{Cycles: mulCyc, Insts: 12, RAMReads: uint64(2 * k32), RAMWrites: uint64(k32), Accel: busy}
		addBusy := monte.BusyCycles(monte.AddSubCycles(kw, monte.PipelineDepth), dma, opt.DoubleBuffer)
		add := PerOp{Cycles: addBusy + accelCallOverheadCycles, Insts: 10,
			RAMReads: uint64(2 * k32), RAMWrites: uint64(k32), Accel: addBusy}
		// Fermat inversion in microcode: ~bits squarings + ~bits/2
		// multiplies, operands resident (Section 7.1's O(n^3) term).
		steps := uint64(bits-1) + uint64(bits)/2
		inv := PerOp{Cycles: monte.BusyCycles(steps*(cc+2), dma, false), Insts: 20,
			RAMReads: uint64(k32), RAMWrites: uint64(k32),
			Accel: steps * (cc + 2)}
		return FieldCosts{Mul: mul, Sqr: mul, Add: add, Sub: add, Inv: inv}
	}
	panic("sim: architecture cannot run prime fields: " + arch.String())
}

// binaryFieldCosts builds the cost table for a binary field under an
// architecture.
func (c *kernelCosts) binaryFieldCosts(arch Arch, m, k int, opt Options) FieldCosts {
	red := c.redCostBinary(k)
	addGF2 := c.of(kernelAddGF2, k).plus(callOv)
	switch arch {
	case Baseline, BaselineCache:
		mul := c.of(kernelMulComb, k).plus(red).plus(callOv)
		sqr := c.of(kernelSqrGF2TableHot, k)
		return FieldCosts{
			Mul: mul,
			Sqr: sqr.plus(red).plus(callOv),
			Add: addGF2,
			Sub: addGF2,
			Inv: beeaCost(m, k).scale(binaryBEEAFactor),
		}
	case ISAExt, ISAExtCache:
		mul := c.of(kernelMulGF2Ext, k).scale(mulGF2Factor).plus(red).plus(callOv)
		sqr := c.of(kernelSqrGF2Cl, k)
		return FieldCosts{
			Mul: mul,
			Sqr: sqr.plus(red).plus(callOv),
			Add: addGF2,
			Sub: addGF2,
			Inv: beeaCost(m, k).scale(binaryBEEAFactor),
		}
	case WithBillie:
		busy := billie.DigitSerialCycles(m, opt.BillieDigit)
		mulCyc := busy + 2 + billieCallOverheadCycles
		mul := PerOp{Cycles: mulCyc, Insts: 4, Accel: busy}
		one := PerOp{Cycles: 3 + billieCallOverheadCycles, Insts: 3, Accel: 1}
		// Itoh–Tsujii on Billie: m-1 single-cycle squarings plus ~11
		// multiplies; operands live in the register file.
		invCyc := uint64(m-1)*(3) + 11*mulCyc + uint64(2*k)
		inv := PerOp{Cycles: invCyc, Insts: uint64(m), Accel: invCyc - uint64(2*k)}
		return FieldCosts{Mul: mul, Sqr: one, Add: one, Sub: one, Inv: inv}
	}
	panic("sim: architecture cannot run binary fields: " + arch.String())
}
