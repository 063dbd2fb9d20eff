package dse

import (
	"math/rand"
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

// TestAdaptiveTelemetry: telemetry must not change the exploration
// (same evaluated count as an uninstrumented run), and the registry
// times candidate generation as the expansion stage.
func TestAdaptiveTelemetry(t *testing.T) {
	spec := FullSweep()
	cache := NewCache()
	bare, err := AdaptiveSweep(spec, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	ar, err := AdaptiveSweep(spec, SweepOptions{Cache: cache, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Evaluated != bare.Evaluated || ar.Rounds != bare.Rounds {
		t.Errorf("instrumented run evaluated %d in %d rounds; uninstrumented %d in %d",
			ar.Evaluated, ar.Rounds, bare.Evaluated, bare.Rounds)
	}
	// Candidate generation is adaptive's expansion stage: the coarse
	// seed, then one neighbor generation per round that moved a frontier.
	if got, want := reg.Snapshot().Histograms["sweep.expand"].Count, int64(1+ar.FrontierMoves); got != want {
		t.Errorf("sweep.expand observed %d times, want %d", got, want)
	}
}

// TestMonotonePrunableHolds checks the premise of monotone pruning on
// the full four-workload grid: along each MonotonePrunable axis, the
// value its declaration says never loses (double buffering on, an idle
// accelerator gated) weakly dominates its sibling — the same canonical
// configuration with only that axis changed — on energy and latency
// alike.
func TestMonotonePrunableHolds(t *testing.T) {
	better := map[string]bool{"double-buffer": true, "gate": true}
	spec := FullSweep()
	spec.Workloads = sim.Workloads()
	res, err := Sweep(spec, SweepOptions{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]Point, len(res.Points))
	for _, p := range res.Points {
		byKey[p.Config.Key()] = p
	}
	checks := 0
	for _, ax := range axes {
		if !ax.Strategy.MonotonePrunable {
			continue
		}
		want, ok := better[ax.Name]
		if !ok {
			t.Errorf("axis %s is MonotonePrunable but this test declares no better value for it", ax.Name)
			continue
		}
		for _, p := range res.Points {
			cfg := p.Config
			if ax.relevant != nil && !ax.relevant(&cfg) {
				continue
			}
			sib := cfg
			sib.key = ""
			ax.set(&sib, boolVal(want))
			sib.canonicalize()
			if sib.Key() == cfg.Key() {
				continue // p already holds the better value
			}
			sp, ok := byKey[sib.Key()]
			if !ok {
				t.Errorf("%s: sibling %s is not in the grid", cfg.Key(), sib.Key())
				continue
			}
			checks++
			if sp.EnergyJ > p.EnergyJ || sp.TimeS > p.TimeS {
				t.Errorf("%s=%v does not dominate: %s (%.6g J, %.6g s) vs %s (%.6g J, %.6g s)",
					ax.Name, want, sp.Config.Key(), sp.EnergyJ, sp.TimeS, cfg.Key(), p.EnergyJ, p.TimeS)
			}
		}
	}
	if checks == 0 {
		t.Fatal("no sibling pairs checked")
	}
	t.Logf("%d sibling checks over %d points", checks, len(res.Points))
}
