package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/gf2"
	"repro/internal/mem"
	"repro/internal/mp"
)

const (
	resAddr = mem.RAMBase + 0x000
	aAddr   = mem.RAMBase + 0x400
	bAddr   = mem.RAMBase + 0x800
	pAddr   = mem.RAMBase + 0xc00
)

func randWords(r *rand.Rand, k int) []uint32 {
	w := make([]uint32, k)
	for i := range w {
		w[i] = r.Uint32()
	}
	return w
}

func TestMulOSKernelMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, k := range []int{2, 6, 8, 12, 17} {
		runner := NewRunner()
		a := randWords(r, k)
		b := randWords(r, k)
		runner.StoreWords(aAddr, a)
		runner.StoreWords(bAddr, b)
		stats, err := runner.Run(MulOS, resAddr, aAddr, bAddr, uint32(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got := runner.LoadWords(resAddr, 2*k)
		want := mp.New(2 * k)
		mp.MulOS(want, mp.Int(a), mp.Int(b))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d word %d: got %#x want %#x", k, i, got[i], want[i])
			}
		}
		if stats.Cycles == 0 || stats.Cycles < stats.Insts {
			t.Fatalf("k=%d: implausible stats %+v", k, stats)
		}
		t.Logf("mul_os k=%d: %d cycles, %d insts, CPI=%.2f",
			k, stats.Cycles, stats.Insts, float64(stats.Cycles)/float64(stats.Insts))
	}
}

func TestMulPSExtKernelMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, k := range []int{2, 6, 8, 12, 17} {
		runner := NewRunner()
		a := randWords(r, k)
		b := randWords(r, k)
		runner.StoreWords(aAddr, a)
		runner.StoreWords(bAddr, b)
		stats, err := runner.Run(MulPSExt, resAddr, aAddr, bAddr, uint32(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got := runner.LoadWords(resAddr, 2*k)
		want := mp.New(2 * k)
		mp.MulPS(want, mp.Int(a), mp.Int(b))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d word %d: got %#x want %#x", k, i, got[i], want[i])
			}
		}
		t.Logf("mul_ps_ext k=%d: %d cycles", k, stats.Cycles)
	}
}

func TestMulPSExtFasterThanBaseline(t *testing.T) {
	// The ISA extensions must beat the baseline multiply (that is the
	// whole premise of Table 5.1).
	r := rand.New(rand.NewSource(3))
	k := 6
	a := randWords(r, k)
	b := randWords(r, k)
	r1 := NewRunner()
	r1.StoreWords(aAddr, a)
	r1.StoreWords(bAddr, b)
	base, _ := r1.Run(MulOS, resAddr, aAddr, bAddr, uint32(k))
	r2 := NewRunner()
	r2.StoreWords(aAddr, a)
	r2.StoreWords(bAddr, b)
	ext, _ := r2.Run(MulPSExt, resAddr, aAddr, bAddr, uint32(k))
	if ext.Cycles >= base.Cycles {
		t.Errorf("ISA-extended multiply (%d cycles) not faster than baseline (%d)",
			ext.Cycles, base.Cycles)
	}
}

func TestMulGF2ExtKernelMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, k := range []int{2, 6, 9, 13, 18} {
		runner := NewRunner()
		a := randWords(r, k)
		b := randWords(r, k)
		runner.StoreWords(aAddr, a)
		runner.StoreWords(bAddr, b)
		stats, err := runner.Run(MulGF2Ext, resAddr, aAddr, bAddr, uint32(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got := runner.LoadWords(resAddr, 2*k)
		want := gf2.New(2 * k)
		gf2.MulCl(want, gf2.Elem(a), gf2.Elem(b))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d word %d: got %#x want %#x", k, i, got[i], want[i])
			}
		}
		t.Logf("mul_gf2_ext k=%d: %d cycles", k, stats.Cycles)
	}
}

func TestMulCombKernelMatchesGo(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, k := range []int{2, 6, 9, 13, 18} {
		runner := NewRunner()
		a := randWords(r, k)
		b := randWords(r, k)
		runner.StoreWords(aAddr, a)
		runner.StoreWords(bAddr, b)
		stats, err := runner.Run(MulComb, resAddr, aAddr, bAddr, uint32(k))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got := runner.LoadWords(resAddr, 2*k)
		want := gf2.New(2 * k)
		gf2.MulComb(want, gf2.Elem(a), gf2.Elem(b))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d word %d: got %#x want %#x", k, i, got[i], want[i])
			}
		}
		t.Logf("mul_comb k=%d: %d cycles", k, stats.Cycles)
	}
}

func TestCombMuchSlowerThanCLMul(t *testing.T) {
	// Software comb multiplication must be several times slower than the
	// carry-less ISA path — the core finding of Section 7.2.
	r := rand.New(rand.NewSource(6))
	k := 6
	a := randWords(r, k)
	b := randWords(r, k)
	r1 := NewRunner()
	r1.StoreWords(aAddr, a)
	r1.StoreWords(bAddr, b)
	comb, _ := r1.Run(MulComb, resAddr, aAddr, bAddr, uint32(k))
	r2 := NewRunner()
	r2.StoreWords(aAddr, a)
	r2.StoreWords(bAddr, b)
	cl, _ := r2.Run(MulGF2Ext, resAddr, aAddr, bAddr, uint32(k))
	ratio := float64(comb.Cycles) / float64(cl.Cycles)
	if ratio < 2.5 {
		t.Errorf("comb/clmul cycle ratio %.2f too small (cycles %d vs %d)",
			ratio, comb.Cycles, cl.Cycles)
	}
	t.Logf("comb=%d clmul=%d ratio=%.2f", comb.Cycles, cl.Cycles, ratio)
}

func TestAddSubKernels(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 6, 12, 17} {
		runner := NewRunner()
		a := randWords(r, k)
		b := randWords(r, k)
		runner.StoreWords(aAddr, a)
		runner.StoreWords(bAddr, b)
		if _, err := runner.Run(AddMP, resAddr, aAddr, bAddr, uint32(k)); err != nil {
			t.Fatal(err)
		}
		got := runner.LoadWords(resAddr, k)
		want := mp.New(k)
		carry := mp.Add(want, mp.Int(a), mp.Int(b))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("add k=%d word %d mismatch", k, i)
			}
		}
		if runner.CPU.Regs[2] != carry {
			t.Fatalf("add k=%d carry: got %d want %d", k, runner.CPU.Regs[2], carry)
		}
		// Subtraction.
		runner2 := NewRunner()
		runner2.StoreWords(aAddr, a)
		runner2.StoreWords(bAddr, b)
		if _, err := runner2.Run(SubMP, resAddr, aAddr, bAddr, uint32(k)); err != nil {
			t.Fatal(err)
		}
		got = runner2.LoadWords(resAddr, k)
		wantS := mp.New(k)
		borrow := mp.Sub(wantS, mp.Int(a), mp.Int(b))
		for i := range wantS {
			if got[i] != wantS[i] {
				t.Fatalf("sub k=%d word %d mismatch", k, i)
			}
		}
		if runner2.CPU.Regs[2] != borrow {
			t.Fatalf("sub k=%d borrow mismatch", k)
		}
		// Binary add (XOR).
		runner3 := NewRunner()
		runner3.StoreWords(aAddr, a)
		runner3.StoreWords(bAddr, b)
		if _, err := runner3.Run(AddGF2, resAddr, aAddr, bAddr, uint32(k)); err != nil {
			t.Fatal(err)
		}
		got = runner3.LoadWords(resAddr, k)
		for i := range got {
			if got[i] != a[i]^b[i] {
				t.Fatalf("gf2 add k=%d word %d mismatch", k, i)
			}
		}
	}
}

func TestRedP192Kernel(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	f := mp.NISTField("P-192", mp.OSNIST)
	for trial := 0; trial < 30; trial++ {
		runner := NewRunner()
		c := randWords(r, 12)
		runner.StoreWords(bAddr, c)
		runner.StoreWords(pAddr, f.P)
		stats, err := runner.Run(RedP192, resAddr, bAddr, pAddr)
		if err != nil {
			t.Fatal(err)
		}
		got := runner.LoadWords(resAddr, 6)
		full := make(mp.Int, 12)
		copy(full, mp.Int(c))
		// Reference: reduce via the Go NIST routine.
		ref := f.FastReduce(full)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d word %d: got %#x want %#x", trial, i, got[i], ref[i])
			}
		}
		if trial == 0 {
			t.Logf("red_p192: %d cycles", stats.Cycles)
		}
	}
}

func TestKernelCyclesScaleQuadratically(t *testing.T) {
	// Multiplication is O(k^2): doubling k should roughly quadruple
	// cycles (within loop-overhead slack).
	r := rand.New(rand.NewSource(9))
	cyc := func(k int) uint64 {
		runner := NewRunner()
		runner.StoreWords(aAddr, randWords(r, k))
		runner.StoreWords(bAddr, randWords(r, k))
		s, err := runner.Run(MulOS, resAddr, aAddr, bAddr, uint32(k))
		if err != nil {
			t.Fatal(err)
		}
		return s.Cycles
	}
	c6, c12 := cyc(6), cyc(12)
	ratio := float64(c12) / float64(c6)
	if ratio < 3.0 || ratio > 4.6 {
		t.Errorf("scaling ratio %.2f outside quadratic band (c6=%d c12=%d)", ratio, c6, c12)
	}
}

func TestMemoryAccessCounting(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	k := 6
	runner := NewRunner()
	runner.StoreWords(aAddr, randWords(r, k))
	runner.StoreWords(bAddr, randWords(r, k))
	stats, err := runner.Run(MulOS, resAddr, aAddr, bAddr, uint32(k))
	if err != nil {
		t.Fatal(err)
	}
	ms := runner.Mem.Stats
	if ms.ROMInstReads != stats.Insts {
		t.Errorf("instruction fetches %d != instructions %d", ms.ROMInstReads, stats.Insts)
	}
	if ms.RAMReads == 0 || ms.RAMWrites == 0 {
		t.Error("RAM accesses not counted")
	}
	if ms.RAMReads != stats.Loads || ms.RAMWrites != stats.Stores {
		t.Errorf("RAM counters (%d,%d) disagree with CPU (%d,%d)",
			ms.RAMReads, ms.RAMWrites, stats.Loads, stats.Stores)
	}
}

// LoadWords reads words from RAM.
func (r *Runner) LoadWords(addr uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = r.Mem.PeekRAM(addr + uint32(4*i))
	}
	return out
}
