package dse

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
)

// smallSpec is a fast two-level spec that still exercises pruning,
// canonical dedup and the accelerator axes.
func smallSpec() SweepSpec {
	return SweepSpec{
		Archs:        []sim.Arch{sim.Baseline, sim.ISAExtCache, sim.WithMonte, sim.WithBillie},
		Curves:       []string{"P-192", "B-163"},
		CacheBytes:   []int{1 << 10, 4 << 10},
		DoubleBuffer: []bool{true, false},
		BillieDigits: []int{1, 3},
	}
}

func TestExpandPrunesAndDedupes(t *testing.T) {
	cfgs := smallSpec().Expand()
	// Baseline: 2 curves ................................ 2
	// ISAExtCache: 2 curves x 2 cache sizes ............. 4
	// Monte: P-192 only x db on/off ..................... 2
	// Billie: B-163 only x digits {1,3} ................. 2
	if len(cfgs) != 10 {
		t.Fatalf("Expand() = %d configs, want 10: %v", len(cfgs), cfgs)
	}
	seen := make(map[string]bool)
	for _, c := range cfgs {
		if !c.Valid() {
			t.Errorf("invalid config survived pruning: %s", c.Key())
		}
		k := c.Key()
		if seen[k] {
			t.Errorf("duplicate canonical config: %s", k)
		}
		seen[k] = true
	}
}

func TestCanonicalCollapsesIrrelevantKnobs(t *testing.T) {
	// Cache geometry must not distinguish uncached configs, digit size
	// must not distinguish non-Billie configs, double buffering must not
	// distinguish non-Monte configs.
	a := Config{Arch: sim.Baseline, Curve: "P-192", Opt: sim.Options{CacheBytes: 1024, Prefetch: true, BillieDigit: 7, DoubleBuffer: true, GateAccelIdle: true}}
	b := Config{Arch: sim.Baseline, Curve: "P-192", Opt: sim.Options{CacheBytes: 8192, BillieDigit: 2}}
	if a.Key() != b.Key() || a.Hash() != b.Hash() {
		t.Errorf("canonical keys differ for physically identical configs:\n  %s\n  %s", a.Key(), b.Key())
	}
	// But knobs that do matter must distinguish.
	c := Config{Arch: sim.ISAExtCache, Curve: "P-192", Opt: sim.Options{CacheBytes: 1024}}
	d := Config{Arch: sim.ISAExtCache, Curve: "P-192", Opt: sim.Options{CacheBytes: 8192}}
	if c.Key() == d.Key() {
		t.Error("cache size must distinguish cached configs")
	}
}

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := smallSpec()
	var first []byte
	for _, workers := range []int{1, 3, 8} {
		res, err := Sweep(spec, SweepOptions{Workers: workers, Cache: NewCache()})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out, err := res.MarshalJSON()
		if err != nil {
			t.Fatalf("workers=%d: marshal: %v", workers, err)
		}
		// Workers appears in the JSON; normalize it away so the
		// comparison checks ordering and values only.
		res.Workers = 0
		norm, _ := res.MarshalJSON()
		if first == nil {
			first = norm
		} else if !bytes.Equal(first, norm) {
			t.Errorf("workers=%d: sweep output differs from workers=1", workers)
		}
		_ = out
	}
}

func TestSweepResultsMatchDirectRun(t *testing.T) {
	res, err := Sweep(SweepSpec{
		Archs:  []sim.Arch{sim.WithMonte},
		Curves: []string{"P-224"},
	}, SweepOptions{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("got %d points, want 1", len(res.Points))
	}
	direct, err := sim.Run(sim.WithMonte, "P-224", sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	if p.Result.SignCycles() != direct.SignCycles() || p.EnergyJ != direct.TotalEnergy() {
		t.Errorf("sweep point diverges from direct sim.Run: %v vs %v", p.Result, direct)
	}
	if p.TimeS != direct.TimeSeconds() {
		t.Errorf("TimeS = %g, want %g", p.TimeS, direct.TimeSeconds())
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Sweep(SweepSpec{Curves: []string{"P-999"}}, SweepOptions{Cache: NewCache()}); err == nil {
		t.Error("unknown curve should fail validation")
	}
	if _, err := Sweep(SweepSpec{BillieDigits: []int{9}}, SweepOptions{Cache: NewCache()}); err == nil {
		t.Error("digit 9 should fail validation")
	}
	if _, err := Sweep(SweepSpec{CacheBytes: []int{128}}, SweepOptions{Cache: NewCache()}); err == nil {
		t.Error("128-byte cache should fail validation")
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	cache := NewCache()
	spec := SweepSpec{
		Archs:  []sim.Arch{sim.Baseline, sim.ISAExt},
		Curves: []string{"P-192", "B-163"},
	}
	res1, err := Sweep(spec, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res1.CacheMisses != uint64(res1.Configs) || res1.CacheHits != 0 {
		t.Errorf("cold sweep: hits=%d misses=%d, want 0/%d",
			res1.CacheHits, res1.CacheMisses, res1.Configs)
	}

	// The identical sweep again: every config is served from cache.
	res2, err := Sweep(spec, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHits != uint64(res2.Configs) || res2.CacheMisses != 0 {
		t.Errorf("warm sweep: hits=%d misses=%d, want %d/0",
			res2.CacheHits, res2.CacheMisses, res2.Configs)
	}

	// An overlapping sweep: one new arch, the rest cached.
	res3, err := Sweep(SweepSpec{
		Archs:  []sim.Arch{sim.Baseline, sim.ISAExt, sim.ISAExtCache},
		Curves: []string{"P-192", "B-163"},
	}, SweepOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res3.CacheHits != 4 || res3.CacheMisses != 2 {
		t.Errorf("overlap sweep: hits=%d misses=%d, want 4/2", res3.CacheHits, res3.CacheMisses)
	}
	if cache.Len() != 6 {
		t.Errorf("cache holds %d entries, want 6", cache.Len())
	}

	// Warm-vs-cold results must be identical (hit/miss counters
	// legitimately differ; zero them for the comparison).
	res1.CacheHits, res1.CacheMisses = 0, 0
	res2.CacheHits, res2.CacheMisses = 0, 0
	j1, _ := res1.MarshalJSON()
	j2, _ := res2.MarshalJSON()
	if !bytes.Equal(j1, j2) {
		t.Error("cached results differ from freshly simulated ones")
	}

	cache.Reset()
	if cache.Len() != 0 {
		t.Error("Reset did not clear the cache")
	}
	if h, m := cache.Stats(); h != 0 || m != 0 {
		t.Errorf("Reset did not zero counters: %d/%d", h, m)
	}
}

func TestCacheConcurrentSameConfig(t *testing.T) {
	// Many workers asking for the same config must trigger exactly one
	// simulation; the rest are hits (possibly after waiting on the
	// in-flight run).
	cache := NewCache()
	cfg := Config{Arch: sim.Baseline, Curve: "P-192"}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, _, err := cache.GetOrRun(cfg)
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := cache.Stats()
	if misses != 1 || hits != 7 {
		t.Errorf("hits=%d misses=%d, want 7/1", hits, misses)
	}
}

func TestFullSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is slow")
	}
	spec := FullSweep()
	if raw := spec.RawPoints(); raw != 384000 {
		t.Errorf("FullSweep raw cross-product = %d, want 384000 (5x10x5x2x2x2x4x8x2x3)", raw)
	}
	cfgs := spec.Expand()
	// Unique physical configs: baseline 10 + isa-ext 10 +
	// isa-ext+icache 10x5 cache x(2 prefetch x 3 lines + 1 ideal) +
	// monte 5x(2 db x 4 widths x 2 gate) + billie 5x(8 digits x 2 gate)
	// = 10 + 10 + 350 + 80 + 80 = 530.
	if len(cfgs) != 530 {
		t.Errorf("FullSweep unique configs = %d, want 530", len(cfgs))
	}
	res, err := Sweep(spec, SweepOptions{Workers: 4, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	frontier := Pareto(res.Points)
	if len(frontier) == 0 || len(frontier) >= len(res.Points) {
		t.Errorf("frontier size %d of %d points looks wrong", len(frontier), len(res.Points))
	}
	// The frontier must be sorted by ascending latency with strictly
	// descending energy.
	for i := 1; i < len(frontier); i++ {
		if frontier[i].TimeS < frontier[i-1].TimeS {
			t.Error("frontier not sorted by latency")
		}
		if frontier[i].EnergyJ >= frontier[i-1].EnergyJ {
			t.Error("frontier energy not strictly decreasing")
		}
	}
	best := BestPerSecurity(res.Points)
	if len(best) != 5 {
		t.Errorf("BestPerSecurity found %d levels, want 5", len(best))
	}
}

// TestSweepFlushesPartialResultsOnError is the regression test for the
// flush-on-error bug: a sweep that dies on its final configuration must
// still persist every earlier result, not discard the whole run.
func TestSweepFlushesPartialResultsOnError(t *testing.T) {
	spec := diskSpec()
	cfgs := spec.Expand()
	if len(cfgs) < 2 {
		t.Fatalf("spec too small: %d configs", len(cfgs))
	}
	last := cfgs[len(cfgs)-1]

	// Poison the final configuration so the sweep fails exactly there.
	cache := NewCache()
	boom := errors.New("injected simulator failure")
	cache.mu.Lock()
	cache.m[last.Hash()] = cacheEntry{err: boom}
	cache.mu.Unlock()

	dir := t.TempDir()
	_, err := Sweep(spec, SweepOptions{Workers: 1, Cache: cache, CacheDir: dir})
	if !errors.Is(err, boom) {
		t.Fatalf("sweep error = %v, want the injected failure", err)
	}

	// Every successfully simulated point survived in the store; the
	// failed config was not persisted and will be retried next run.
	fresh := NewCache()
	n, err := fresh.LoadFile(DiskCachePath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cfgs) - 1; n != want {
		t.Errorf("store holds %d results after failed sweep, want %d", n, want)
	}
	if _, ok := fresh.lookup(last.Hash()); ok {
		t.Error("failed config was persisted")
	}
	for _, cfg := range cfgs[:len(cfgs)-1] {
		if _, ok := fresh.lookup(cfg.Hash()); !ok {
			t.Errorf("store lost successfully simulated config %q", cfg.Key())
		}
	}
}

// TestKernelTableCoversGrids checks that the kernel cost table holds
// every row the design space prices: every configuration of the full
// grid and of the four-workload grid runs, none failing on a missing
// row.
func TestKernelTableCoversGrids(t *testing.T) {
	multi := FullSweep()
	multi.Workloads = sim.Workloads()
	for _, spec := range []SweepSpec{FullSweep(), multi} {
		cfgs := spec.Expand()
		warmCensuses(cfgs, 0)
		for _, cfg := range cfgs {
			if _, err := sim.Run(cfg.Arch, cfg.Curve, cfg.Opt); err != nil {
				t.Errorf("%s: %v", cfg.Key(), err)
			}
		}
	}
}
