package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

const lifecycleGolden = "testdata/lifecycle.golden"

// lifecycleSpec is small enough to pin in a golden file yet makes the
// adaptive explorer run several rounds (ordered width and digit axes
// with interior values for refinement to step to).
func lifecycleSpec() SweepSpec {
	return SweepSpec{
		Archs:        []sim.Arch{sim.WithMonte, sim.WithBillie},
		Curves:       []string{"P-192", "B-163"},
		MonteWidths:  []int{8, 16, 32, 64},
		BillieDigits: []int{1, 2, 4, 8},
	}
}

// TestSweepLifecycle pins everything a sweep reports about itself, for
// a cold and then a warm Sweep and AdaptiveSweep over a persistent store
// with Metrics, Journal and Progress all attached:
//   - the journal event stream, with the timing fields (t, seconds)
//     dropped and the store directory normalized;
//   - the full Progress (done, total, cached) stream;
//   - every non-Timing SweepResult field (points by key here; their
//     values must equal an uninstrumented run's);
//   - the registry's final counters, gauges and histogram counts.
//
// Timing must be present and split every evaluated point into exactly
// one of its simulated/cached histograms. Regenerate with
//
//	go test ./internal/dse/ -run TestSweepLifecycle -update
func TestSweepLifecycle(t *testing.T) {
	spec := lifecycleSpec()
	var b strings.Builder
	for _, mode := range []string{"sweep", "adaptive"} {
		run := func(opt SweepOptions) (*SweepResult, *AdaptiveResult) {
			t.Helper()
			if mode == "sweep" {
				res, err := Sweep(spec, opt)
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				return res, nil
			}
			ar, err := AdaptiveSweep(spec, opt)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			return ar.Result, ar
		}
		plain, _ := run(SweepOptions{Workers: 2, Cache: NewCache()})
		if plain.Timing != nil {
			t.Errorf("%s: uninstrumented run has Timing", mode)
		}
		plainPoints, err := PointsJSON(plain.Points)
		if err != nil {
			t.Fatal(err)
		}

		dir := t.TempDir()
		for _, phase := range []string{"cold", "warm"} {
			var journal bytes.Buffer
			var mu sync.Mutex
			var progress []string
			reg := telemetry.New()
			res, ar := run(SweepOptions{
				Workers: 2, Cache: NewCache(), CacheDir: dir, Metrics: reg,
				Journal: telemetry.NewJournal(&journal),
				Progress: func(done, total int, cached bool) {
					mu.Lock()
					progress = append(progress, fmt.Sprintf("%d/%d cached=%t", done, total, cached))
					mu.Unlock()
				},
			})
			fmt.Fprintf(&b, "== %s %s\n", mode, phase)

			b.WriteString("journal:\n")
			for _, line := range strings.Split(strings.TrimSpace(journal.String()), "\n") {
				var ev map[string]any
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatalf("journal line %q: %v", line, err)
				}
				delete(ev, "t")
				delete(ev, "seconds")
				out, _ := json.Marshal(ev)
				fmt.Fprintf(&b, "  %s\n", strings.ReplaceAll(string(out), dir, "$DIR"))
			}
			b.WriteString("progress:\n")
			for _, p := range progress {
				fmt.Fprintf(&b, "  %s\n", p)
			}

			if !reflect.DeepEqual(res.Spec, spec) {
				t.Errorf("%s %s: result spec %+v, want %+v", mode, phase, res.Spec, spec)
			}
			fmt.Fprintf(&b, "result: rawPoints=%d configs=%d workers=%d hits=%d misses=%d diskLoaded=%d diskSaved=%d diskUnchanged=%t\n",
				res.RawPoints, res.Configs, res.Workers, res.CacheHits, res.CacheMisses,
				res.DiskLoaded, res.DiskSaved, res.DiskUnchanged)
			evaluated := res.Configs
			if ar != nil {
				evaluated = ar.Evaluated
				fmt.Fprintf(&b, "adaptive: rounds=%d evaluated=%d grid=%d pruned=%d moves=%d budgetHit=%t\n",
					ar.Rounds, ar.Evaluated, ar.GridConfigs, ar.Pruned, ar.FrontierMoves, ar.BudgetHit)
			}
			b.WriteString("points:\n")
			for _, p := range res.Points {
				fmt.Fprintf(&b, "  %s\n", p.Config.Key())
			}
			if got, err := PointsJSON(res.Points); err != nil || !bytes.Equal(got, plainPoints) {
				t.Errorf("%s %s: points differ from the uninstrumented run (err %v)", mode, phase, err)
			}

			if tm := res.Timing; tm == nil {
				t.Errorf("%s %s: instrumented run has no Timing", mode, phase)
			} else if n := tm.Simulated.Count + tm.Cached.Count; n != int64(evaluated) {
				t.Errorf("%s %s: Timing splits %d simulated + %d cached points, want %d",
					mode, phase, tm.Simulated.Count, tm.Cached.Count, evaluated)
			}

			s := reg.Snapshot()
			b.WriteString("metrics:\n")
			for _, k := range slices.Sorted(maps.Keys(s.Counters)) {
				fmt.Fprintf(&b, "  counter %s=%d\n", k, s.Counters[k])
			}
			for _, k := range slices.Sorted(maps.Keys(s.Gauges)) {
				fmt.Fprintf(&b, "  gauge %s=%d\n", k, s.Gauges[k])
			}
			for _, k := range slices.Sorted(maps.Keys(s.Histograms)) {
				fmt.Fprintf(&b, "  histogram %s count=%d\n", k, s.Histograms[k].Count)
			}
		}
	}

	if *update {
		if err := os.WriteFile(lifecycleGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(lifecycleGolden)
	if err != nil {
		t.Fatalf("missing lifecycle golden (regenerate with -update): %v", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("sweep lifecycle differs from %s (regenerate with -update if intended):\n%s",
			lifecycleGolden, lineDiff(string(want), got))
	}
}

// lineDiff reports the first line where two renderings diverge.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl, gl)
		}
	}
	return "(identical lines)"
}
