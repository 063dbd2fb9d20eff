package energy

import (
	"math"
	"testing"
)

func TestSRAMScaling(t *testing.T) {
	// Access energy grows sub-linearly (~sqrt), leakage linearly.
	r1, r4 := SRAMReadEnergy(1024), SRAMReadEnergy(4096)
	if r4 <= r1 || r4 >= 4*r1 {
		t.Errorf("read energy scaling wrong: 1KB=%.3g 4KB=%.3g", r1, r4)
	}
	if math.Abs(r4/r1-2.0) > 1e-9 {
		t.Errorf("sqrt scaling expected: ratio %.3f", r4/r1)
	}
	if l := SRAMLeakage(4096) / SRAMLeakage(1024); math.Abs(l-4) > 1e-9 {
		t.Errorf("leakage should scale linearly, got %.2f", l)
	}
	if SRAMWriteEnergy(1024) <= SRAMReadEnergy(1024) {
		t.Error("writes should cost more than reads")
	}
}

func TestROMAssumptions(t *testing.T) {
	// Chapter 6: ROM dynamic = same-size RAM; a 128-bit line read costs
	// less than four word reads.
	if ROMReadEnergy() != SRAMReadEnergy(256*1024) {
		t.Error("ROM read should equal same-size RAM read")
	}
	if ROMLineReadEnergy() >= 4*ROMReadEnergy() {
		t.Error("line read should amortize below 4 word reads")
	}
	if ROMLineReadEnergy() <= ROMReadEnergy() {
		t.Error("line read should cost more than one word read")
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	a := Breakdown{Pete: 1, ROM: 2, RAM: 3, Uncore: 4, Accel: 5}
	b := Breakdown{Pete: 1, ROM: 1, RAM: 1, Uncore: 1, Accel: 1}
	s := a.Add(b)
	if s.Total() != 20 {
		t.Errorf("Add/Total wrong: %v", s.Total())
	}
}

func TestBilliePowerScalesLinearly(t *testing.T) {
	d163 := BillieDynamic(163)
	d571 := BillieDynamic(571)
	if math.Abs(d571/d163-571.0/163.0) > 1e-9 {
		t.Errorf("Billie dynamic power should scale with m: %.3f", d571/d163)
	}
	if BillieIdleD(163, 3) >= d163 {
		t.Error("idle power should be below busy power")
	}
	if BillieStatic(571) <= BillieStatic(163) {
		t.Error("static power should grow with m")
	}
}

func TestBillieDigitFactorNormalizedAtHeadline(t *testing.T) {
	// The digit-aware model must reproduce the fixed-power model exactly
	// at the paper's headline D=3 (and when the digit is unset), so the
	// evaluation-chapter numbers are unchanged.
	for _, m := range []int{163, 283, 571} {
		for _, d := range []int{0, 3} {
			if BillieDynamicD(m, d) != BillieDynamic(m) {
				t.Errorf("BillieDynamicD(%d,%d) != BillieDynamic(%d)", m, d, m)
			}
			if BillieIdleD(m, d) != BillieDynamic(m)*BillieIdleFactor {
				t.Errorf("BillieIdleD(%d,%d) != BillieDynamic(%d)*BillieIdleFactor", m, d, m)
			}
			if BillieStaticD(m, d) != BillieStatic(m) {
				t.Errorf("BillieStaticD(%d,%d) != BillieStatic(%d)", m, d, m)
			}
		}
	}
	// Wider digits clock and leak more area.
	if BillieDynamicD(163, 8) <= BillieDynamic(163) {
		t.Error("D=8 should burn more dynamic power than D=3")
	}
	if BillieStaticD(163, 1) >= BillieStatic(163) {
		t.Error("D=1 should leak less than D=3")
	}
}

func TestFFAUTableComplete(t *testing.T) {
	for _, w := range []int{8, 16, 32, 64} {
		for _, bits := range []int{192, 256, 384} {
			p, ok := FFAUPower[w][bits]
			if !ok {
				t.Fatalf("missing FFAU entry w=%d bits=%d", w, bits)
			}
			if p.AreaCells <= 0 || p.StaticW <= 0 || p.DynamicW <= p.StaticW {
				t.Errorf("implausible entry w=%d bits=%d: %+v", w, bits, p)
			}
		}
	}
	// Area quadruples-ish per width doubling (Table 7.3).
	if a8, a64 := FFAUPower[8][192].AreaCells, FFAUPower[64][192].AreaCells; a64 < 10*a8 {
		t.Error("area should grow superlinearly with width")
	}
}

func TestPowerSplit(t *testing.T) {
	p := PowerSplit{StaticW: 0.5e-3, DynamicW: 5.5e-3}
	if math.Abs(p.Total()-6e-3) > 1e-12 {
		t.Error("PowerSplit total wrong")
	}
}

func TestARMReference(t *testing.T) {
	// Table 7.5 energies: 62.4, 103.6, 218.4 nJ.
	want := map[int]float64{192: 62.4e-9, 256: 103.6e-9, 384: 218.4e-9}
	for bits, e := range want {
		got := ARMCortexM3PowerW * ARMModMulTimeNs[bits] * 1e-9
		if math.Abs(got-e)/e > 0.01 {
			t.Errorf("ARM %d-bit energy %.4g J, want %.4g", bits, got, e)
		}
	}
}

func TestCacheEnergyBelowROM(t *testing.T) {
	// The entire premise of Section 7.5: a small cache access is far
	// cheaper than a 256 KB ROM access.
	for _, kb := range []int{1, 2, 4, 8} {
		if ICacheReadEnergy(kb*1024) >= ROMReadEnergy() {
			t.Errorf("%dKB cache access not cheaper than ROM", kb)
		}
	}
}
