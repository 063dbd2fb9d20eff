package dse

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// exhaustiveFrontiers prices every config the spec's brute-force
// expansion defines through the given cache and returns the per-level
// frontiers — the oracle the adaptive explorer is checked against.
func exhaustiveFrontiers(t *testing.T, spec SweepSpec, cache *Cache) []LevelFrontier {
	t.Helper()
	cfgs := spec.expandBrute()
	points := make([]Point, 0, len(cfgs))
	for _, cfg := range cfgs {
		res, _, err := cache.GetOrRun(cfg)
		if err != nil {
			t.Fatalf("pricing %s: %v", cfg.Key(), err)
		}
		points = append(points, newPoint(cfg, res))
	}
	return ParetoPerLevel(points)
}

// TestAdaptiveMatchesExhaustiveFullSweep is the acceptance cross-check:
// on the full 530-config grid, for every workload, the adaptive
// frontier must be point-identical (same canonical keys per security
// level) to the exhaustive one while evaluating at most half the grid.
func TestAdaptiveMatchesExhaustiveFullSweep(t *testing.T) {
	for _, wl := range sim.Workloads() {
		t.Run(wl, func(t *testing.T) {
			spec := FullSweep()
			spec.Workloads = []string{wl}
			cache := NewCache()
			exh, err := Sweep(spec, SweepOptions{Cache: cache})
			if err != nil {
				t.Fatalf("exhaustive sweep: %v", err)
			}
			want := ParetoPerLevel(exh.Points)

			ar, err := AdaptiveSweep(spec, SweepOptions{Cache: cache})
			if err != nil {
				t.Fatalf("adaptive sweep: %v", err)
			}
			if got, wantF := frontierFingerprint(ar.Frontiers), frontierFingerprint(want); got != wantF {
				t.Errorf("adaptive frontier differs from exhaustive:\n--- adaptive ---\n%s--- exhaustive ---\n%s", got, wantF)
			}
			if ar.GridConfigs != exh.Configs {
				t.Errorf("GridConfigs = %d, exhaustive evaluated %d", ar.GridConfigs, exh.Configs)
			}
			if 2*ar.Evaluated > ar.GridConfigs {
				t.Errorf("adaptive evaluated %d of %d configs (> 50%%)", ar.Evaluated, ar.GridConfigs)
			}
			if ar.Evaluated != len(ar.Result.Points) {
				t.Errorf("Evaluated = %d but Result has %d points", ar.Evaluated, len(ar.Result.Points))
			}
			t.Logf("workload %s: %d/%d configs evaluated (%.0f%%), %d rounds, %d pruned",
				wl, ar.Evaluated, ar.GridConfigs,
				100*float64(ar.Evaluated)/float64(ar.GridConfigs), ar.Rounds, ar.Pruned)
		})
	}
}

// TestAdaptiveRandomizedSubspecs is the property test: on random axis
// subsets/values the adaptive frontier key set must equal the
// brute-force expansion's, for every generated spec. Seeds are logged
// so a failure replays deterministically.
func TestAdaptiveRandomizedSubspecs(t *testing.T) {
	cache := NewCache()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng)
		if err := spec.Validate(); err != nil {
			// randomSpec draws from the expansion tests' value pools,
			// which include canonical aliases (cache 0 = 4096) that a
			// sweep rejects up front; those seeds exercise nothing here.
			continue
		}
		t.Logf("seed %d: %+v", seed, spec)
		want := exhaustiveFrontiers(t, spec, cache)
		ar, err := AdaptiveSweep(spec, SweepOptions{Cache: cache})
		if err != nil {
			t.Fatalf("seed %d: adaptive sweep: %v", seed, err)
		}
		if got, wantF := frontierFingerprint(ar.Frontiers), frontierFingerprint(want); got != wantF {
			t.Errorf("seed %d: adaptive frontier differs from exhaustive:\n--- adaptive ---\n%s--- exhaustive ---\n%s",
				seed, got, wantF)
		}
		gridKeys := make(map[string]bool)
		for _, cfg := range spec.Expand() {
			gridKeys[cfg.Key()] = true
		}
		if ar.Evaluated > len(gridKeys) {
			t.Errorf("seed %d: evaluated %d of a %d-config grid", seed, ar.Evaluated, len(gridKeys))
		}
		for _, p := range ar.Result.Points {
			if !gridKeys[p.Config.Key()] {
				t.Errorf("seed %d: evaluated %s, which is outside the spec's grid", seed, p.Config.Key())
			}
		}
	}
}

// TestAdaptiveDeterministic: two explorations of the same spec must
// evaluate the identical config sequence regardless of cache warmth —
// the exploration path may depend on results, never on timing.
func TestAdaptiveDeterministic(t *testing.T) {
	spec := FullSweep()
	a, err := AdaptiveSweep(spec, SweepOptions{Cache: NewCache(), Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	warm := NewCache()
	if _, err := Sweep(spec, SweepOptions{Cache: warm}); err != nil {
		t.Fatal(err)
	}
	b, err := AdaptiveSweep(spec, SweepOptions{Cache: warm, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Evaluated != b.Evaluated || a.Rounds != b.Rounds || a.Pruned != b.Pruned {
		t.Fatalf("cold (%d evaluated, %d rounds, %d pruned) != warm (%d, %d, %d)",
			a.Evaluated, a.Rounds, a.Pruned, b.Evaluated, b.Rounds, b.Pruned)
	}
	for i := range a.Result.Points {
		if a.Result.Points[i].Config.Key() != b.Result.Points[i].Config.Key() {
			t.Fatalf("point %d: cold evaluated %s, warm %s",
				i, a.Result.Points[i].Config.Key(), b.Result.Points[i].Config.Key())
		}
	}
	if b.Result.CacheMisses != 0 {
		t.Errorf("warm adaptive run simulated %d points", b.Result.CacheMisses)
	}
}

// TestAdaptiveBudget: the budget caps evaluations exactly and is
// reported as the stop reason.
func TestAdaptiveBudget(t *testing.T) {
	spec := FullSweep()
	const budget = 40
	ar, err := AdaptiveSweep(spec, SweepOptions{Cache: NewCache(), AdaptiveBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if !ar.BudgetHit {
		t.Errorf("BudgetHit = false with budget %d on a %d-config grid", budget, ar.GridConfigs)
	}
	if ar.Evaluated != budget {
		t.Errorf("evaluated %d configs, budget %d", ar.Evaluated, budget)
	}
	if len(ar.Result.Points) != budget {
		t.Errorf("result holds %d points, budget %d", len(ar.Result.Points), budget)
	}
}

// TestAdaptivePrunesMonotoneAxes: on a grid sweeping only prunable
// axes (double-buffer, gate) the explorer must record prune skips and
// still match the exhaustive frontier.
func TestAdaptivePrunesMonotoneAxes(t *testing.T) {
	spec := SweepSpec{
		Archs:         []sim.Arch{sim.WithMonte, sim.WithBillie},
		Curves:        AllCurves(),
		DoubleBuffer:  []bool{true, false},
		GateAccelIdle: []bool{false, true},
		BillieDigits:  []int{1, 2, 3, 4, 5, 6, 7, 8},
	}
	cache := NewCache()
	want := exhaustiveFrontiers(t, spec, cache)
	ar, err := AdaptiveSweep(spec, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got, wantF := frontierFingerprint(ar.Frontiers), frontierFingerprint(want); got != wantF {
		t.Errorf("frontier differs:\n--- adaptive ---\n%s--- exhaustive ---\n%s", got, wantF)
	}
	if ar.Pruned == 0 {
		t.Errorf("no prune skips recorded sweeping MonotonePrunable axes (evaluated %d/%d)",
			ar.Evaluated, ar.GridConfigs)
	}
}

// TestAdaptiveWarmDiskUnchanged: re-running an adaptive exploration
// over its own store (fresh process simulated by a fresh Cache) must be
// all hits and must not rewrite the store — including rounds after the
// first, where the load adds nothing new to the already-warm cache.
func TestAdaptiveWarmDiskUnchanged(t *testing.T) {
	dir := t.TempDir()
	spec := smallSpec()
	cold, err := AdaptiveSweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Result.DiskSaved != cold.Evaluated || cold.Result.DiskUnchanged {
		t.Fatalf("cold run: DiskSaved = %d (evaluated %d), DiskUnchanged = %v",
			cold.Result.DiskSaved, cold.Evaluated, cold.Result.DiskUnchanged)
	}
	warm, err := AdaptiveSweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Result.CacheMisses != 0 {
		t.Errorf("warm run simulated %d points", warm.Result.CacheMisses)
	}
	if !warm.Result.DiskUnchanged || warm.Result.DiskSaved != 0 {
		t.Errorf("warm run: DiskUnchanged = %v, DiskSaved = %d; want unchanged store across all %d rounds",
			warm.Result.DiskUnchanged, warm.Result.DiskSaved, warm.Rounds)
	}
}

// TestAdaptiveJournalErrorPath: an exploration that fails mid-round
// journals the failing point, the partial flush of the round's
// completed points, the round's error, and an adaptive_end carrying the
// error the caller sees.
func TestAdaptiveJournalErrorPath(t *testing.T) {
	spec := smallSpec()
	cache := NewCache()
	boom := errors.New("injected simulator failure")
	poisoned := spec.Expand()[0]
	cache.mu.Lock()
	cache.m[poisoned.Hash()] = cacheEntry{err: boom}
	cache.mu.Unlock()

	var buf bytes.Buffer
	_, err := AdaptiveSweep(spec, SweepOptions{Workers: 1, Cache: cache, CacheDir: t.TempDir(),
		Journal: telemetry.NewJournal(&buf)})
	if !errors.Is(err, boom) {
		t.Fatalf("adaptive error = %v, want the injected failure", err)
	}
	events := journalLines(t, &buf)
	var pointErrs int
	for _, e := range events {
		if e["event"] == "point" && e["error"] != nil {
			pointErrs++
		}
		if e["event"] == "store_flush" && e["partial"] != true {
			t.Errorf("failed round's flush not marked partial: %v", e)
		}
	}
	if pointErrs != 1 {
		t.Errorf("journaled %d point errors, want 1", pointErrs)
	}
	names := eventNames(events)
	if len(names) < 3 || names[len(names)-3] != "store_flush" ||
		names[len(names)-2] != "adaptive_round" || names[len(names)-1] != "adaptive_end" {
		t.Fatalf("error-path sequence ends %v, want store_flush, adaptive_round, adaptive_end", names)
	}
	for _, e := range events[len(events)-2:] {
		if msg, _ := e["error"].(string); !strings.Contains(msg, "injected") {
			t.Errorf("%s lost the error: %v", e["event"], e)
		}
	}
}

// TestAdaptiveTelemetry: the dse.adaptive.* counters and the
// adaptive_start/adaptive_round/adaptive_end journal events must agree
// with the returned economics — and telemetry must not change the
// exploration (same evaluated count as an uninstrumented run).
func TestAdaptiveTelemetry(t *testing.T) {
	spec := FullSweep()
	cache := NewCache()
	bare, err := AdaptiveSweep(spec, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	var buf bytes.Buffer
	journal := telemetry.NewJournal(&buf)
	ar, err := AdaptiveSweep(spec, SweepOptions{Cache: cache, Metrics: reg, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Evaluated != bare.Evaluated || ar.Rounds != bare.Rounds {
		t.Errorf("instrumented run evaluated %d in %d rounds; uninstrumented %d in %d",
			ar.Evaluated, ar.Rounds, bare.Evaluated, bare.Rounds)
	}
	checks := []struct {
		counter string
		want    int64
	}{
		{"dse.adaptive.rounds", int64(ar.Rounds)},
		{"dse.adaptive.evaluated", int64(ar.Evaluated)},
		{"dse.adaptive.pruned", int64(ar.Pruned)},
		{"dse.adaptive.frontier_moves", int64(ar.FrontierMoves)},
	}
	for _, c := range checks {
		if got := reg.Counter(c.counter).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.counter, got, c.want)
		}
	}
	if got := reg.Gauge("dse.adaptive.grid").Value(); got != int64(ar.GridConfigs) {
		t.Errorf("dse.adaptive.grid = %d, want %d", got, ar.GridConfigs)
	}
	if ar.Result.Timing == nil {
		t.Error("instrumented adaptive run returned no Timing")
	}

	var starts, roundEvents, ends int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		switch ev.Event {
		case "adaptive_start":
			starts++
		case "adaptive_round":
			roundEvents++
		case "adaptive_end":
			ends++
		}
	}
	if starts != 1 || ends != 1 || roundEvents != ar.Rounds {
		t.Errorf("journal: %d adaptive_start, %d adaptive_round, %d adaptive_end; want 1, %d, 1",
			starts, roundEvents, ends, ar.Rounds)
	}
	if err := journal.Err(); err != nil {
		t.Fatalf("journal error: %v", err)
	}
}
