package dse

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/sim"
)

// TestCacheErrorEntriesNotHits pins GetOrRun's error-entry contract: a
// failed configuration is remembered (the simulation never re-runs) and
// its error re-served, but a remembered error is neither a hit nor a
// fresh miss — hits count only successful results served from cache, so
// SweepResult accounting and the sweep.point.cached histogram stay
// truthful.
func TestCacheErrorEntriesNotHits(t *testing.T) {
	c := NewCache()
	bad := Config{Arch: sim.WithMonte, Curve: "B-163"} // prime accel, binary curve

	_, hit, err := c.GetOrRun(bad)
	if err == nil {
		t.Fatal("Monte on a binary curve should fail")
	}
	if hit {
		t.Error("discovering run reported hit=true")
	}
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Errorf("after discovering run: %d hits / %d misses, want 0 / 1", h, m)
	}

	_, hit, err2 := c.GetOrRun(bad)
	if err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("re-served error = %v, want remembered %v", err2, err)
	}
	if hit {
		t.Error("remembered error reported hit=true")
	}
	if h, m := c.Stats(); h != 0 || m != 1 {
		t.Errorf("re-serving an error moved the counters: %d hits / %d misses, want 0 / 1", h, m)
	}

	// A successful config still counts normally next to the error entry.
	good := Config{Arch: sim.Baseline, Curve: "P-192"}
	if _, hit, err := c.GetOrRun(good); err != nil || hit {
		t.Fatalf("first good run: hit=%t err=%v, want false/nil", hit, err)
	}
	if _, hit, err := c.GetOrRun(good); err != nil || !hit {
		t.Fatalf("second good run: hit=%t err=%v, want true/nil", hit, err)
	}
	if h, m := c.Stats(); h != 1 || m != 2 {
		t.Errorf("final counters = %d hits / %d misses, want 1 / 2", h, m)
	}
}

// TestSweepStoreBytesUnchangedByCensusMemo is the tentpole's disk-level
// bit-exactness pin: the v2 store a sweep flushes must be byte-for-byte
// identical whether censuses come from the memo or from fresh profile
// runs. The fresh side resets the memo before pricing each configuration
// into its own cache and saves that cache with SaveFile. Keys, hashes
// and every serialized result ride on this.
func TestSweepStoreBytesUnchangedByCensusMemo(t *testing.T) {
	spec := SweepSpec{
		Archs:       []sim.Arch{sim.Baseline, sim.WithMonte, sim.WithBillie},
		Curves:      []string{"P-192", "B-163"},
		MonteWidths: []int{16, 32},
		Workloads:   []string{"sign-verify", "handshake"},
	}

	sim.ResetCensusMemo()
	defer sim.ResetCensusMemo()
	memoDir := t.TempDir()
	memoRes, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: memoDir})
	if err != nil {
		t.Fatal(err)
	}

	cfgs := spec.Expand()
	if len(memoRes.Points) != len(cfgs) {
		t.Fatalf("point counts differ: %d vs %d", len(memoRes.Points), len(cfgs))
	}
	fresh := NewCache()
	freshPath := DiskCachePath(t.TempDir())
	for i, cfg := range cfgs {
		sim.ResetCensusMemo()
		res, _, err := fresh.GetOrRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m := memoRes.Points[i]
		if m.Config.Hash() != cfg.Hash() {
			t.Errorf("point %d: hash %s (memo) != %s (fresh)", i, m.Config.Hash(), cfg.Hash())
		}
		if f := newPoint(cfg, res); m.EnergyJ != f.EnergyJ || m.TimeS != f.TimeS {
			t.Errorf("point %d: memo (%g J, %g s) != fresh (%g J, %g s)",
				i, m.EnergyJ, m.TimeS, f.EnergyJ, f.TimeS)
		}
	}
	if _, err := fresh.SaveFile(freshPath); err != nil {
		t.Fatal(err)
	}

	memoBytes, err := os.ReadFile(DiskCachePath(memoDir))
	if err != nil {
		t.Fatal(err)
	}
	freshBytes, err := os.ReadFile(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memoBytes, freshBytes) {
		t.Errorf("store bytes differ between memo-served and fresh censuses (%d vs %d bytes)",
			len(memoBytes), len(freshBytes))
	}
}

// TestSweepHammersCensusMemo runs a parallel sweep against a cold census
// memo (under -race in CI): many workers racing on a handful of (curve,
// phase) entries must profile each entry exactly once and price
// everything else from the memo.
func TestSweepHammersCensusMemo(t *testing.T) {
	sim.ResetCensusMemo()
	defer sim.ResetCensusMemo()

	spec := SweepSpec{
		Archs:        []sim.Arch{sim.WithMonte},
		Curves:       []string{"P-192"},
		MonteWidths:  []int{8, 16, 32, 64},
		DoubleBuffer: []bool{true, false},
		Workloads:    []string{"sign-verify", "ecdh"},
	}
	res, err := Sweep(spec, SweepOptions{Cache: NewCache(), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// One census per (curve, phase): sign-verify and ecdh on one curve ->
	// three profiled entries; every other phase lookup is a memo hit.
	hits, misses := sim.CensusMemoStats()
	if misses != 3 {
		t.Errorf("census misses = %d, want 3 (sign, verify and ecdh)", misses)
	}
	lookups := 0
	for _, p := range res.Points {
		lookups += len(p.Result.Phases)
	}
	if want := uint64(lookups) - misses; hits != want {
		t.Errorf("census hits = %d, want %d (every other phase memo-served)", hits, want)
	}
}

// TestSweepWarmSkipsCachedConfigs checks that a sweep warms only the
// censuses its result cache will not serve: a second Sweep over a cache
// holding every configuration profiles nothing, even on a cold census
// memo, and one that adds a curve profiles only that curve.
func TestSweepWarmSkipsCachedConfigs(t *testing.T) {
	sim.ResetCensusMemo()
	defer sim.ResetCensusMemo()

	spec := SweepSpec{Archs: []sim.Arch{sim.Baseline, sim.ISAExt}, Curves: []string{"P-192", "B-163"}}
	cache := NewCache()
	if _, err := Sweep(spec, SweepOptions{Cache: cache, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	sim.ResetCensusMemo()
	res, err := Sweep(spec, SweepOptions{Cache: cache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != 0 {
		t.Fatalf("second sweep missed %d configs, want every one cached", res.CacheMisses)
	}
	if _, m := sim.CensusMemoStats(); m != 0 || sim.CensusMemoLen() != 0 {
		t.Errorf("fully cached sweep profiled %d entries (%d misses), want none", sim.CensusMemoLen(), m)
	}

	spec.Curves = append(spec.Curves, "P-224")
	if _, err := Sweep(spec, SweepOptions{Cache: cache, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if _, m := sim.CensusMemoStats(); m != 2 || sim.CensusMemoLen() != 2 {
		t.Errorf("adding P-224 profiled %d entries (%d misses), want its sign and verify only", sim.CensusMemoLen(), m)
	}
}
