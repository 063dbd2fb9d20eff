package sim

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/ec"
	"repro/internal/kernels"
	"repro/internal/mem"
)

const (
	mresAddr = mem.RAMBase + 0x000
	maAddr   = mem.RAMBase + 0x400
	mbAddr   = mem.RAMBase + 0x800
	mpAddr   = mem.RAMBase + 0xc00
)

// kernelPrograms maps every kernel cost table row the model prices
// (fieldcosts.go) to the Pete program whose measurement the row pins.
var kernelPrograms = map[string]*kernels.Kernel{
	kernelAddMP:          kernels.AddMP,
	kernelAddGF2:         kernels.AddGF2,
	kernelMulOS:          kernels.MulOS,
	kernelMulPSExt:       kernels.MulPSExt,
	kernelSqrPSExt:       kernels.SqrPSExt,
	kernelMulComb:        kernels.MulComb,
	kernelMulGF2Ext:      kernels.MulGF2Ext,
	kernelSqrGF2TableHot: kernels.SqrGF2TableHot,
	kernelSqrGF2Cl:       kernels.SqrGF2Cl,
	kernelRedP192:        kernels.RedP192,
	kernelRedB163:        kernels.RedB163,
}

// measureKernel runs a kernel once on the pipeline simulator with
// representative worst-case-ish operands and returns its cost: the
// measurement a kernels.golden row pins.
func measureKernel(k *kernels.Kernel, kWords int) (PerOp, error) {
	r := kernels.NewRunner()
	a := make([]uint32, kWords)
	b := make([]uint32, kWords)
	// Dense operands: every bit pattern non-trivial so data-dependent
	// paths (window hits in the comb) run at realistic density.
	s := uint32(0x9e3779b9)
	for i := range a {
		a[i] = s ^ uint32(i*0x85ebca6b)
		b[i] = s + uint32(i*0xc2b2ae35) | 1
		s = s*1664525 + 1013904223
	}
	r.StoreWords(maAddr, a)
	r.StoreWords(mbAddr, b)
	// Boot-time square table for the hot table-squaring kernel.
	tbl := make([]uint32, 128)
	for u := 0; u < 256; u++ {
		var sq uint32
		for bit := 0; bit < 8; bit++ {
			if u&(1<<bit) != 0 {
				sq |= 1 << (2 * bit)
			}
		}
		if u%2 == 0 {
			tbl[u/2] = sq
		} else {
			tbl[u/2] |= sq << 16
		}
	}
	r.StoreWords(mem.RAMBase+0x3c00, tbl)
	var st cpu.Stats
	var err error
	if k == kernels.RedP192 || k == kernels.RedB163 {
		// Reduction kernel signature: (res, c, p) with c of 2k words.
		c12 := make([]uint32, 2*kWords)
		for i := range c12 {
			c12[i] = s ^ uint32(i*0x27d4eb2f)
			s = s*22695477 + 1
		}
		r.StoreWords(mbAddr, c12)
		// P-192 modulus (the only hand-written reduction kernel).
		pr := []uint32{0xffffffff, 0xffffffff, 0xfffffffe, 0xffffffff, 0xffffffff, 0xffffffff}
		r.StoreWords(mpAddr, pr)
		st, err = r.Run(k, mresAddr, mbAddr, mpAddr)
	} else {
		st, err = r.Run(k, mresAddr, maAddr, mbAddr, uint32(kWords))
	}
	if err != nil {
		return PerOp{}, fmt.Errorf("kernel %s/%d: %w", k.Name, kWords, err)
	}
	return PerOp{Cycles: st.Cycles, Insts: st.Insts, RAMReads: st.Loads, RAMWrites: st.Stores}, nil
}

// pricedKernelCalls returns every (kernel, word count) the model prices,
// sorted by kernel name and word count: the rows kernels.golden must
// hold. Kernel costs depend on the architecture and the curve's sizes
// only, so pricing every valid (arch, curve) pair's field and order
// costs from an empty table names each of them as missing.
func pricedKernelCalls() []kernelCall {
	var kc kernelCosts
	opt := DefaultOptions()
	for arch := Baseline; arch <= MonteCache; arch++ {
		for _, curve := range allCurves() {
			if IsPrimeCurve(curve) {
				if arch == WithBillie {
					continue
				}
				c := ec.NISTPrimeCurve(curve, censusPrimeAlg)
				kc.primeFieldCosts(arch, curve, c.F.Bits, c.F.K, opt)
				kc.orderCosts(arch, c.NBits, opt)
			} else {
				if arch.HasMonte() {
					continue
				}
				c := ec.NISTBinaryCurve(curve, censusBinaryAlg)
				kc.binaryFieldCosts(arch, c.F.M, c.F.K, opt)
				kc.orderCosts(arch, c.NBits, opt)
			}
		}
	}
	calls := slices.SortedFunc(slices.Values(kc.missing), func(a, b kernelCall) int {
		return cmp.Or(cmp.Compare(a.kernel, b.kernel), cmp.Compare(a.words, b.words))
	})
	return slices.Compact(calls)
}

const kernelsGoldenHeader = `# Pete pipeline-simulator cost of one call of each hand-written kernel at
# each word count the model prices, on dense operands. Served by
# internal/sim/costs.go; regenerate (and review the diff) with
#   go test ./internal/sim/ -run TestKernelGolden -update
`

// TestKernelGolden is the kernel cost table's drift check: it re-runs
// the pipeline simulator for every row the model prices and requires
// testdata/kernels.golden to hold exactly those measurements, and the
// served table to parse back to them. A kernel, assembler or core-model
// change must regenerate the file with -update.
func TestKernelGolden(t *testing.T) {
	calls := pricedKernelCalls()
	var b strings.Builder
	b.WriteString(kernelsGoldenHeader)
	want := kernelTable{index: make(map[kernelKey]PerOp)}
	for _, c := range calls {
		k, ok := kernelPrograms[c.kernel]
		if !ok {
			t.Fatalf("the model prices kernel %q, which kernelPrograms maps to no program", c.kernel)
		}
		if k.Name != c.kernel {
			t.Fatalf("kernelPrograms maps %q to the program %q", c.kernel, k.Name)
		}
		cost, err := measureKernel(k, c.words)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s/%d cycles=%d insts=%d reads=%d writes=%d\n",
			c.kernel, c.words, cost.Cycles, cost.Insts, cost.RAMReads, cost.RAMWrites)
		want.rows = append(want.rows, KernelCost{c.kernel, c.words, cost})
		want.index[kernelKey{c.kernel, c.words}] = cost
	}
	got := b.String()
	path := filepath.Join("testdata", "kernels.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d rows)", path, len(calls))
		return
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(file), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("the model prices %d kernel rows (%d lines), %s has %d lines", len(calls), len(gotLines), path, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n  measured: %s\n  pinned:   %s", i+1, gotLines[i], wantLines[i])
		}
	}
	served, err := pinnedKernels()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served, want) {
		t.Errorf("served table differs from the measurements:\n  served:   %v\n  measured: %v", served.rows, want.rows)
	}
}

// TestKernelCostMissingRow checks that pricing a word count the table
// has no row for is an error naming that row, not a zero cost.
func TestKernelCostMissingRow(t *testing.T) {
	kc, err := pinnedKernelCosts()
	if err != nil {
		t.Fatal(err)
	}
	if err := kc.err(); err != nil {
		t.Fatalf("fresh pricing reports %v", err)
	}
	kc.primeFieldCosts(Baseline, orderField, 999, 32, DefaultOptions())
	err = kc.err()
	if err == nil || !strings.Contains(err.Error(), "mul_os_baseline/32") {
		t.Errorf("pricing a 32-word prime field: err = %v, want one naming mul_os_baseline/32", err)
	}

	kc, _ = pinnedKernelCosts()
	kc.binaryFieldCosts(ISAExt, 999, 32, DefaultOptions())
	if err := kc.err(); err == nil || !strings.Contains(err.Error(), "add_gf2/32") {
		t.Errorf("pricing a 32-word binary field: err = %v, want one naming add_gf2/32", err)
	}
}

// TestRedScaleNamesUnknownField checks that pricing a prime field with
// no reduction scale panics naming the field instead of borrowing
// another field's factor.
func TestRedScaleNamesUnknownField(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "P-999") {
			t.Errorf("redScale(P-999) recovered %v, want a panic naming P-999", r)
		}
	}()
	redScale("P-999")
}

// TestParseKernelTableRejects pins the table parser's errors: a
// malformed row or a repeated key fails with its line number.
func TestParseKernelTableRejects(t *testing.T) {
	for _, text := range []string{
		"add_mp/6 cycles=1 insts=2 reads=3\n",
		"add_mp cycles=1 insts=2 reads=3 writes=4\n",
		"add_mp/x cycles=1 insts=2 reads=3 writes=4\n",
		"# c\nadd_mp/6 cycles=1 insts=2 reads=3 writes=4\nadd_mp/6 cycles=1 insts=2 reads=3 writes=4\n",
	} {
		if _, err := parseKernelTable(text); err == nil || !strings.Contains(err.Error(), "kernels.golden line") {
			t.Errorf("parseKernelTable(%q) err = %v, want a line error", text, err)
		}
	}
}
