package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro"
)

func TestPercentileOf40PicksP75WithTenBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	p75 := percentile(xs, 0.75)
	beyond := 0
	for _, x := range xs {
		if x > p75 {
			beyond++
		}
	}
	if p75 != 30 || beyond != 10 {
		t.Fatalf("p75 of 1..40 = %v with %d beyond, want 30 with 10", p75, beyond)
	}
	if got := median(xs); got != 20.5 {
		t.Fatalf("median of 1..40 = %v, want 20.5", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64 // statistics.quantiles(xs, n=4)[0], [2]
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	tight := []float64{0.99, 1.0, 1.01}
	shifted := func(f float64) []float64 {
		out := make([]float64, len(tight))
		for i, x := range tight {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{0.6, 0.8, 1.0, 1.2, 1.4}
	for _, c := range []struct {
		name           string
		higherIsBetter bool
		oldMed, newMed float64
		oldRuns        []float64
		newRuns        []float64
		want           string
	}{
		{"within bound", false, 1.0, 1.1, tight, shifted(1.1), unchanged},
		{"slower", false, 1.0, 1.3, tight, shifted(1.3), worse},
		{"faster", false, 1.0, 0.7, tight, shifted(0.7), improved},
		{"higher is better", true, 1.0, 0.7, tight, shifted(0.7), worse},
		{"noisy and interleaved", false, 1.0, 1.3, wide, wide, unresolved},
		{"noisy but separated", false, 1.0, 3.0, wide, []float64{2.9, 3.0, 3.1}, worse},
	} {
		if got := judge(0.15, c.higherIsBetter, c.oldMed, c.newMed, c.oldRuns, c.newRuns); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
	for _, c := range []struct {
		old, new float64
		want     string
	}{{0, 0, unchanged}, {0, 0.1, worse}, {0.1, 0, improved}} {
		if got := judgeFailures(c.old, c.new); got != c.want {
			t.Errorf("judgeFailures(%v, %v) = %s, want %s", c.old, c.new, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	run := func(wall float64, failed int) *results {
		return &results{Workloads: map[string]*workloadResult{"cold-sweep": {
			Attempted: 10, Failed: failed,
			Metrics: map[string]value{"wall_s": {wall, "s"}},
		}}}
	}
	decl := write("decl.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15},
	}})
	olds := write("a.json", run(1.0, 0)) + "," + write("b.json", run(1.1, 0))
	var out strings.Builder
	anyWorse, err := compareFiles(olds, write("new.json", run(1.1, 1)), decl, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !anyWorse {
		t.Errorf("a new failure must make the comparison worse")
	}
	// The old side's median is 1.05, so 1.1 is within the bound.
	for _, want := range []string{"cold-sweep       wall_s", "1.05", "unchanged", "fail_ratio", "worse"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if _, err := compareFiles(olds, write("empty.json", &results{}), decl, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "missing") {
		t.Errorf("a workload missing from the new side must be reported:\n%s", out.String())
	}
}

func fixture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestParsersOnCapturedOutput(t *testing.T) {
	cold, warm := fixture(t, "cold-sweep.txt"), fixture(t, "warm-restart.txt")
	if err := checkSweep(cold, 530, 0, 530); err != nil {
		t.Error(err)
	}
	if err := checkSweep(warm, 530, 530, 0); err != nil {
		t.Error(err)
	}
	if err := checkSweep(cold, 530, 530, 0); err == nil {
		t.Error("a cold header passed as a warm one")
	}
	rows := pointRows(cold)
	if len(rows) != 3 || !strings.HasPrefix(rows[0], "baseline         P-192") {
		t.Errorf("cold rows = %q", rows)
	}
	if err := sameTable(warm, strings.Join(rows, "\n")); err != nil {
		t.Error(err)
	}

	adaptive := fixture(t, "adaptive-multi.txt")
	evaluated, grid, err := parseAdaptiveHeader(adaptive)
	if err != nil || evaluated != 725 || grid != 2120 {
		t.Errorf("adaptive header = %d/%d, %v", evaluated, grid, err)
	}
	if rows := pointRows(adaptive); len(rows) != 5 || !strings.Contains(rows[4], "B-571") {
		t.Errorf("adaptive rows = %q", rows)
	}

	stats := fixture(t, "sweep-stats.txt")
	hits, misses, err := parseCensusStats(stats)
	if err != nil || hits != 505 || misses != 25 {
		t.Errorf("census stats = %d hits / %d misses, %v", hits, misses, err)
	}
	if rows := pointRows(stats); len(rows) != 3 {
		t.Errorf("the point table must end at the blank line before the stats, got %d rows", len(rows))
	}
	if _, _, err := parseCensusStats(cold); err == nil {
		t.Error("found a census line in output without -stats")
	}
}

func TestContainsGoldensMasksCacheCounts(t *testing.T) {
	golden := "best design\nswept 330 unique configurations (N cache hits, N misses)\n"
	if err := containsGoldens("x\nbest design\nswept 330 unique configurations (12 cache hits, 318 misses)\ny", []string{golden}); err != nil {
		t.Error(err)
	}
	if err := containsGoldens("best design\nswept 331 unique configurations (12 cache hits, 318 misses)\n", []string{golden}); err == nil {
		t.Error("a changed report passed")
	}
}

// TestBenchmarkDeclaration checks BENCHMARK.json against the names the
// harness emits.
func TestBenchmarkDeclaration(t *testing.T) {
	var decl benchmarkDecl
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &decl); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	check := func(name string) {
		if !valid.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or repeated", name)
		}
		seen[name] = true
	}
	var declWorkloads, wantWorkloads []string
	for _, w := range decl.Workloads {
		check(w.Name)
		declWorkloads = append(declWorkloads, w.Name)
	}
	for _, w := range workloads() {
		wantWorkloads = append(wantWorkloads, w.name)
	}
	if !slices.Equal(declWorkloads, wantWorkloads) {
		t.Errorf("declared workloads %v, harness runs %v", declWorkloads, wantWorkloads)
	}

	var declared, emitted []string
	for _, m := range decl.EndToEnd {
		check(m.Name)
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for _, m := range endToEnd {
		emitted = append(emitted, m.name+" "+m.unit)
	}
	for _, m := range decl.PerLayer {
		check(m.Name)
		declared = append(declared, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		emitted = append(emitted, m.name+" "+m.unit)
	}
	slices.Sort(declared)
	slices.Sort(emitted)
	if !slices.Equal(declared, emitted) {
		t.Errorf("declared metrics\n%v\ndiffer from emitted\n%v", declared, emitted)
	}
	if !slices.Equal(experiments, repro.ExperimentNames()) {
		t.Errorf("experiments %v, want repro.ExperimentNames() %v", experiments, repro.ExperimentNames())
	}
}
