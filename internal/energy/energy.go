// Package energy is the CMOS power/energy model of Chapter 6: per-access
// memory energies in the style of Cacti, per-component static and dynamic
// power for the synthesized logic, and the accounting that turns simulated
// cycle/event counts into the Joules-per-operation numbers every figure in
// Chapter 7 reports.
//
// The paper extracted these constants from Synopsys PrimeTime post-
// synthesis runs on a 45 nm library and from Cacti 6.0; we cannot run
// either, so the constants below are calibrated to every absolute anchor
// the paper publishes (Tables 7.3–7.5) and to the §7.4 power ratios, and
// are kept in this single file so the provenance of every number is
// auditable. All relative results (the factors between configurations)
// emerge from simulated counts, not from these constants.
package energy

import (
	"fmt"
	"math"
)

// Clock rates (Chapter 6).
const (
	SystemClockHz = 333e6 // 3 ns period, core + memories
	FFAUClockHz   = 100e6 // the width study of §7.9 runs at 100 MHz
)

// Memory model: Cacti-style scaling of access energy and leakage with
// capacity for 45 nm SRAM. Access energy grows ~sqrt(capacity); leakage
// grows linearly.
const (
	ramBaseReadJ  = 1.05e-12 // J per 32-bit read of a 1 KB array
	ramBaseWriteJ = 1.15e-12
	ramLeakWPerKB = 7.5e-6 // W of leakage per KB
)

// SRAMReadEnergy returns J per 32-bit read of an SRAM of sizeBytes.
func SRAMReadEnergy(sizeBytes int) float64 {
	return ramBaseReadJ * math.Sqrt(float64(sizeBytes)/1024)
}

// SRAMWriteEnergy returns J per 32-bit write.
func SRAMWriteEnergy(sizeBytes int) float64 {
	return ramBaseWriteJ * math.Sqrt(float64(sizeBytes)/1024)
}

// SRAMLeakage returns W of leakage for an SRAM of sizeBytes.
func SRAMLeakage(sizeBytes int) float64 {
	return ramLeakWPerKB * float64(sizeBytes) / 1024
}

// ROM model: per Chapter 6, ROM dynamic energy is assumed equal to a
// same-size RAM and ROM static power is assumed zero (a stated
// conservative assumption of the paper).
const romBytes = 256 * 1024

// ROMReadEnergy is J per 32-bit instruction/data read of the 256 KB ROM.
func ROMReadEnergy() float64 { return SRAMReadEnergy(romBytes) }

// ROMLineReadEnergy is J per 128-bit line fill on the widened single port
// (Section 5.3.2): wider reads amortize decode, costing ~2x a word read
// rather than 4x.
func ROMLineReadEnergy() float64 { return 2.0 * SRAMReadEnergy(romBytes) }

// ROM port timing (Sections 5.3.2 and 7.5), shared by the exact cache
// model (internal/cache) and sim's analytic miss pricing: a fill crosses
// the 128-bit port one beat at a time, and a single-beat fill stalls
// the core three cycles.
const (
	ROMPortBytes = 16 // bytes per ROM port beat
	ROMFillStall = 3  // core stall cycles for a single-beat fill
)

// BeatsPerFill is how many ROM port beats one fill of a lineBytes-sized
// line takes; lines narrower than the port still cost one full beat.
func BeatsPerFill(lineBytes int) int { return max(lineBytes/ROMPortBytes, 1) }

// MissPenaltyFor is the core stall per miss at a line size: the
// single-beat stall plus one cycle per extra pipelined beat.
func MissPenaltyFor(lineBytes int) int { return ROMFillStall + BeatsPerFill(lineBytes) - 1 }

// Pete core power (45 nm, 333 MHz). The clock network and registers
// dominate and stay active even while stalled (Section 7.1's observation
// about Monte configurations).
const (
	PeteClockW    = 1.40e-3 // clock tree + registers, burns whenever clocked
	PeteDatapathW = 1.10e-3 // ALU/forwarding/multiplier at full activity
	PeteStaticW   = 0.45e-3
	// StallActivity is the datapath activity factor while the core is
	// stalled waiting on an accelerator.
	StallActivity = 0.42
)

// Uncore power: ROM controller, bus muxes, instruction/data buffers.
// The cache configurations add the wider ROM port and line buffers
// (Section 5.3.2).
const (
	UncoreBaseW  = 0.22e-3
	UncoreCacheW = 0.78e-3 // additional uncore logic with the I-cache
	UncoreStatic = 0.10e-3
)

// Monte (FFAU + DMA + queue) at the 32-bit system configuration. Scaled
// from the 100 MHz Table 7.3 measurements (659.9 µW dynamic, 159.1 µW
// static at 0.9 V) to the 333 MHz system clock: dynamic scales with f.
const (
	MonteDynamicW = 3.40e-3 // while computing, 333 MHz
	MonteIdleW    = 0.60e-3 // clock fringe while idle (no clock gating)
	MonteStaticW  = 0.16e-3
	monteRefWidth = 32 // the datapath width the constants above describe
)

// MonteWidths lists the FFAU datapath widths the paper synthesized
// (Table 7.3) — the only widths the power model is calibrated for.
var MonteWidths = []int{8, 16, 32, 64}

// KnownMonteWidth reports whether w is one of the modeled datapath
// widths.
func KnownMonteWidth(w int) bool {
	_, ok := FFAUPower[w]
	return ok
}

// nearestFFAUKeySize maps a field size in bits onto the closest key size
// the Table 7.3 synthesis runs measured ({192, 256, 384}), ties toward
// the smaller size.
func nearestFFAUKeySize(bits int) int {
	best, bestD := 192, 1<<30
	for _, ks := range []int{192, 256, 384} {
		d := bits - ks
		if d < 0 {
			d = -d
		}
		if d < bestD {
			best, bestD = ks, d
		}
	}
	return best
}

// monteWidthRatio scales a 32-bit-reference power component to datapath
// width w using the paper's own Table 7.3 measurements at the nearest
// synthesized key size. The ratio is exactly 1.0 at the reference width,
// so default-width results are bit-identical to the fixed-power model —
// the same calibration discipline as BillieDynamicD at D=3. Unmodeled
// widths panic rather than silently extrapolating: callers are expected
// to validate with KnownMonteWidth first (sim.Run does).
func monteWidthRatio(w, bits int, pick func(FFAUPowerEntry) float64) float64 {
	if w == 0 {
		w = monteRefWidth
	}
	ks := nearestFFAUKeySize(bits)
	num, ok := FFAUPower[w][ks]
	if !ok {
		panic(fmt.Sprintf("energy: Monte datapath width %d has no Table 7.3 synthesis point (want one of %v)",
			w, MonteWidths))
	}
	return pick(num) / pick(FFAUPower[monteRefWidth][ks])
}

// MonteDynamicWidth returns Monte's busy dynamic power at datapath width
// w for a field of the given bit size (333 MHz system clock).
func MonteDynamicWidth(w, bits int) float64 {
	return MonteDynamicW * monteWidthRatio(w, bits, func(e FFAUPowerEntry) float64 { return e.DynamicW })
}

// MonteIdleWidth returns Monte's idle clock-fringe power at width w —
// the fringe tracks the clocked area, so it scales with the dynamic
// measurement.
func MonteIdleWidth(w, bits int) float64 {
	return MonteIdleW * monteWidthRatio(w, bits, func(e FFAUPowerEntry) float64 { return e.DynamicW })
}

// MonteStaticWidth returns Monte's leakage at width w (leakage tracks
// the synthesized cell area, which Table 7.3's static column measures).
func MonteStaticWidth(w, bits int) float64 {
	return MonteStaticW * monteWidthRatio(w, bits, func(e FFAUPowerEntry) float64 { return e.StaticW })
}

// Billie: power grows approximately linearly with the field size because
// the datapath and the flip-flop register file are full field width
// (Section 7.4). The synthesized register file is the dominant consumer
// (Section 8's future-work observation).
const (
	billieRefM       = 163.0
	BillieDynamicW   = 9.50e-3 // busy, m = 163 (flip-flop register file dominates)
	BillieIdleFactor = 0.55    // idle clock power fraction (no gating)
	BillieStaticW    = 0.80e-3 // m = 163
)

// BillieDynamic returns Billie's busy dynamic power for field degree m.
func BillieDynamic(m int) float64 { return BillieDynamicW * float64(m) / billieRefM }

// BillieStatic returns Billie's leakage for field degree m.
func BillieStatic(m int) float64 { return BillieStaticW * float64(m) / billieRefM }

// The digit-serial multiplier's area and switching grow approximately
// linearly with the digit width d (d × m partial-product AND gates plus
// the accumulate tree), while the rest of Billie — dominated by the
// full-width flip-flop register file — is digit-independent. The factors
// below scale only the multiplier's share of each power component and are
// normalized to 1.0 at the paper's headline D=3, so default-configuration
// results are bit-identical to the fixed-power model. This is what makes
// the digit axis a real energy/latency trade-off: wide digits finish
// multiplications sooner but clock and leak more area the whole time,
// which is how the paper lands on a small energy-optimal digit.
const (
	billieDigitRef       = 3.0
	billieMulDynShare    = 0.45 // multiplier share of dynamic power at D=3
	billieMulStaticShare = 0.50 // multiplier share of leakage at D=3
)

func billieDigitFactor(share float64, d int) float64 {
	if d <= 0 {
		d = int(billieDigitRef)
	}
	return (1 - share) + share*float64(d)/billieDigitRef
}

// BillieDynamicD returns Billie's busy dynamic power for field degree m
// and multiplier digit size d.
func BillieDynamicD(m, d int) float64 {
	return BillieDynamic(m) * billieDigitFactor(billieMulDynShare, d)
}

// BillieIdleD returns Billie's idle power for field degree m and digit
// size d (the clock fringe tracks the clocked area).
func BillieIdleD(m, d int) float64 { return BillieDynamicD(m, d) * BillieIdleFactor }

// BillieStaticD returns Billie's leakage for field degree m and digit
// size d.
func BillieStaticD(m, d int) float64 {
	return BillieStatic(m) * billieDigitFactor(billieMulStaticShare, d)
}

// ICacheReadEnergy returns J per access of a direct-mapped I-cache of
// sizeBytes (tag + data arrays).
func ICacheReadEnergy(sizeBytes int) float64 {
	return 1.12 * SRAMReadEnergy(sizeBytes)
}

// ICacheLeakage returns W for the cache arrays.
func ICacheLeakage(sizeBytes int) float64 {
	return 1.1 * SRAMLeakage(sizeBytes)
}

// Breakdown is energy by sub-component, the unit of Figures 7.2/7.3/7.4/
// 7.6/7.8/7.9/7.13.
type Breakdown struct {
	Pete   float64 // processor core
	ROM    float64 // program ROM reads
	RAM    float64 // data RAM
	Uncore float64 // cache + ROM controller + buffers + muxes
	Accel  float64 // Monte or Billie
}

// Total returns the summed energy in Joules.
func (b Breakdown) Total() float64 {
	return b.Pete + b.ROM + b.RAM + b.Uncore + b.Accel
}

// Add returns the component-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Pete:   b.Pete + o.Pete,
		ROM:    b.ROM + o.ROM,
		RAM:    b.RAM + o.RAM,
		Uncore: b.Uncore + o.Uncore,
		Accel:  b.Accel + o.Accel,
	}
}

// PowerSplit reports average static and dynamic power in W given a
// breakdown and the execution time — Figure 7.10's quantity.
type PowerSplit struct {
	StaticW  float64
	DynamicW float64
}

// Total returns total average power.
func (p PowerSplit) Total() float64 { return p.StaticW + p.DynamicW }

// FFAU width-study constants (Table 7.3, 100 MHz, 0.9 V logic / 0.7 V
// memory). Indexed by datapath width in bits. Static/dynamic in Watts,
// area in cell units; these are the paper's own measurements, used to
// parameterize the model that regenerates Tables 7.3/7.4 and Figure 7.15.
type FFAUPowerEntry struct {
	AreaCells int
	StaticW   float64
	DynamicW  float64
}

// FFAUPower maps width → key size → measurement.
var FFAUPower = map[int]map[int]FFAUPowerEntry{
	8: {
		192: {2091, 32.3e-6, 166.2e-6},
		256: {2091, 34.0e-6, 186.2e-6},
		384: {2168, 35.4e-6, 197.1e-6},
	},
	16: {
		192: {4244, 59.3e-6, 311.9e-6},
		256: {4244, 61.6e-6, 310.2e-6},
		384: {4322, 65.0e-6, 321.6e-6},
	},
	32: {
		192: {11329, 159.1e-6, 659.9e-6},
		256: {11327, 161.4e-6, 684.4e-6},
		384: {11405, 164.3e-6, 888.5e-6},
	},
	64: {
		192: {36582, 530.6e-6, 1472.7e-6},
		256: {36582, 532.9e-6, 1613.4e-6},
		384: {36664, 535.7e-6, 1686.5e-6},
	},
}

// ARM Cortex-M3 comparator (Table 7.5): 4.5 mW at 100 MHz / 0.9 V, with
// the measured modular-multiplication times.
const ARMCortexM3PowerW = 4.5e-3

// ARMModMulTimeNs maps key size → measured execution time (Table 7.5).
var ARMModMulTimeNs = map[int]float64{
	192: 13870,
	256: 23010,
	384: 48530,
}
