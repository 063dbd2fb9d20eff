package sim

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// PerOp is the simulated cost of one field operation.
type PerOp struct {
	Cycles    uint64
	Insts     uint64
	RAMReads  uint64
	RAMWrites uint64
	// Accel is the portion of Cycles during which an accelerator
	// datapath is busy (zero for pure-software operations).
	Accel uint64
}

func (p PerOp) scale(f float64) PerOp {
	return PerOp{
		Cycles:    uint64(float64(p.Cycles) * f),
		Insts:     uint64(float64(p.Insts) * f),
		RAMReads:  uint64(float64(p.RAMReads) * f),
		RAMWrites: uint64(float64(p.RAMWrites) * f),
		Accel:     uint64(float64(p.Accel) * f),
	}
}

func (p PerOp) plus(q PerOp) PerOp {
	return PerOp{p.Cycles + q.Cycles, p.Insts + q.Insts,
		p.RAMReads + q.RAMReads, p.RAMWrites + q.RAMWrites,
		p.Accel + q.Accel}
}

// FieldCosts prices every field-level operation for one configuration.
type FieldCosts struct {
	Mul PerOp
	Sqr PerOp
	Add PerOp
	Sub PerOp
	Inv PerOp
}

// The kernel cost table: what one call of each hand-written Pete kernel
// costs at each word count the model prices, as the cycle-accurate
// pipeline simulator measures it on dense operands. The measurement is
// deterministic, so it is run once, when the table is regenerated, and
// every process serves the pinned rows; pricing runs no Pete simulation.
//
// testdata/kernels.golden is the one copy of the table, embedded here
// and parsed on first use. Rows are keyed by kernel name (fieldcosts.go
// names the rows the model prices), so pricing needs no kernel program;
// the map from names to internal/kernels programs lives on the test
// side, in kernels_golden_test.go. TestKernelGolden is the drift check:
// it re-runs the pipeline simulator for every row the model prices and
// fails on a priced name with no program or on any difference, so a
// kernel, assembler or core-model change must regenerate the file with
// -update (and show its diff) to land. A row the table lacks is an
// error naming it, never a silent zero.
//
//go:embed testdata/kernels.golden
var kernelsGolden string

// KernelCost is one row of the kernel cost table: a kernel, by name, at
// a word count.
type KernelCost struct {
	Kernel string
	Words  int
	Cost   PerOp
}

type kernelKey struct {
	kernel string
	words  int
}

type kernelTable struct {
	rows  []KernelCost
	index map[kernelKey]PerOp
}

var pinnedKernels = sync.OnceValues(func() (kernelTable, error) {
	return parseKernelTable(kernelsGolden)
})

// KernelCosts returns the rows of the kernel cost table in file order.
func KernelCosts() ([]KernelCost, error) {
	t, err := pinnedKernels()
	return append([]KernelCost(nil), t.rows...), err
}

// parseKernelTable reads kernels.golden: after '#' comment lines, one
// "kernel/words cycles=C insts=I reads=R writes=W" row per line.
func parseKernelTable(text string) (kernelTable, error) {
	t := kernelTable{index: make(map[kernelKey]PerOp)}
	for i, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var key string
		var c PerOp
		_, err := fmt.Sscanf(line, "%s cycles=%d insts=%d reads=%d writes=%d",
			&key, &c.Cycles, &c.Insts, &c.RAMReads, &c.RAMWrites)
		name, words, _ := strings.Cut(key, "/")
		n, nerr := strconv.Atoi(words)
		_, dup := t.index[kernelKey{name, n}]
		switch {
		case err != nil:
		case name == "" || nerr != nil:
			err = fmt.Errorf("key %q is not kernel/words", key)
		case dup:
			err = fmt.Errorf("repeated row %s", key)
		}
		if err != nil {
			return kernelTable{}, fmt.Errorf("sim: kernels.golden line %d: %w", i+1, err)
		}
		t.rows = append(t.rows, KernelCost{name, n, c})
		t.index[kernelKey{name, n}] = c
	}
	return t, nil
}

// kernelCosts serves one pricing's kernel costs from a table,
// remembering every row the table lacks.
type kernelCosts struct {
	index   map[kernelKey]PerOp
	missing []kernelCall
}

// kernelCall is a kernel, by row name, priced at a word count.
type kernelCall struct {
	kernel string
	words  int
}

// pinnedKernelCosts prices from the pinned table.
func pinnedKernelCosts() (kernelCosts, error) {
	t, err := pinnedKernels()
	return kernelCosts{index: t.index}, err
}

// of returns one call of the named kernel at the given word count.
func (c *kernelCosts) of(kernel string, words int) PerOp {
	cost, ok := c.index[kernelKey{kernel, words}]
	if !ok {
		c.missing = append(c.missing, kernelCall{kernel, words})
	}
	return cost
}

// err reports the first row a pricing looked up and the table lacked.
func (c *kernelCosts) err() error {
	if len(c.missing) == 0 {
		return nil
	}
	m := c.missing[0]
	return fmt.Errorf("sim: kernel cost table has no row %s/%d (regenerate testdata/kernels.golden with go test ./internal/sim/ -run TestKernelGolden -update)",
		m.kernel, m.words)
}
