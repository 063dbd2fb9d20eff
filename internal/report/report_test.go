package report

import (
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func TestEveryExperimentRenders(t *testing.T) {
	for _, name := range Names() {
		out, ok, err := ByName(name)
		if !ok {
			t.Errorf("%s: not found", name)
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(out) < 80 {
			t.Errorf("%s: output suspiciously short (%d bytes)", name, len(out))
		}
		if !strings.Contains(out, "\n") {
			t.Errorf("%s: no rows", name)
		}
	}
	if _, ok, _ := ByName("fig9.9"); ok {
		t.Error("unknown experiment should not resolve")
	}
}

func TestTable74ReproducesPaperRows(t *testing.T) {
	// Spot-check the FFAU model against the paper's Table 7.4 rows.
	cases := []struct {
		bits, width int
		wantNJ      float64
	}{
		{192, 8, 2.763},
		{192, 32, 1.245},
		{256, 64, 1.782},
		{384, 16, 5.347},
	}
	for _, c := range cases {
		_, _, e := FFAUMontMul(c.bits, c.width)
		nj := e * 1e9
		// Equation 5.2 drifts up to 10 cycles from the paper's table
		// at 256/384 bits (see monte's anchor test); ±13% covers it.
		if nj < c.wantNJ*0.87 || nj > c.wantNJ*1.13 {
			t.Errorf("FFAU %d-bit w=%d: %.3f nJ, paper %.3f", c.bits, c.width, nj, c.wantNJ)
		}
	}
}

func TestFig715FFAUBeatsARM(t *testing.T) {
	// The FFAU must be far more energy-efficient than the Cortex-M3
	// reference at every key size.
	out, err := Fig7_15()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ARM") {
		t.Fatal("figure 7.15 missing the ARM reference series")
	}
	_, _, e := FFAUMontMul(192, 32)
	armE := 4.5e-3 * 13870e-9
	if e >= armE/10 {
		t.Errorf("FFAU (%.3g J) should be >>10x below ARM (%.3g J)", e, armE)
	}
}

func TestTable71ContainsAllRows(t *testing.T) {
	out, err := Table7_1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"baseline", "isa-ext", "monte", "P-192", "P-521"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 7.1 missing %q", want)
		}
	}
}

func TestAllIncludesEverything(t *testing.T) {
	out, err := All()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Table 7.1", "Table 7.5", "Figure 7.1", "Figure 7.15",
		"Double-buffer",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("All() missing %q", want)
		}
	}
}

// TestAllMatchesLazyRender pins the report's census warm-up: from a
// reset census memo and result cache, All equals the lazily rendered
// concatenation of every experiment in Names order, profiles the same
// 28 (curve, phase) censuses, and counts every phase lookup its Runs
// make as exactly one hit or miss.
func TestAllMatchesLazyRender(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment twice from a cold memo")
	}
	render := func(all bool) (out string, hits, misses, lookups uint64) {
		sim.ResetCensusMemo()
		dse.SharedCache().Reset()
		reg := telemetry.New()
		sim.SetMetrics(reg)
		defer sim.SetMetrics(nil)
		if all {
			var err error
			if out, err = All(); err != nil {
				t.Fatal(err)
			}
		} else {
			var parts []string
			for _, name := range Names() {
				part, _, err := ByName(name)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				parts = append(parts, part)
			}
			out = strings.Join(parts, "\n")
		}
		for name, h := range reg.Snapshot().Histograms {
			if strings.HasPrefix(name, "sim.price.") {
				lookups += uint64(h.Count)
			}
		}
		hits, misses = sim.CensusMemoStats()
		return out, hits, misses, lookups
	}
	defer sim.ResetCensusMemo()
	lazy, lazyHits, lazyMisses, _ := render(false)
	got, hits, misses, lookups := render(true)
	if got != lazy {
		t.Error("All differs from the lazily rendered experiments")
	}
	if misses != 28 || hits+misses != lookups {
		t.Errorf("All counted %d hits / %d misses over %d lookups, want 28 misses and hits + misses = lookups", hits, misses, lookups)
	}
	if hits != lazyHits || misses != lazyMisses {
		t.Errorf("All counted %d hits / %d misses, the lazy render %d / %d", hits, misses, lazyHits, lazyMisses)
	}
}
