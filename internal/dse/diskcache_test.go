package dse

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// diskSpec is a small, fast spec used by the persistence tests.
func diskSpec() SweepSpec {
	return SweepSpec{
		Archs:       []sim.Arch{sim.Baseline, sim.WithMonte},
		Curves:      []string{"P-192"},
		MonteWidths: []int{16, 32},
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1 := NewCache()
	res1, err := Sweep(diskSpec(), SweepOptions{Cache: c1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res1.DiskLoaded != 0 {
		t.Errorf("cold sweep loaded %d entries, want 0", res1.DiskLoaded)
	}
	if res1.DiskSaved != res1.Configs {
		t.Errorf("flushed %d entries, want %d", res1.DiskSaved, res1.Configs)
	}
	if res1.CacheMisses != uint64(res1.Configs) {
		t.Errorf("cold sweep misses = %d, want %d", res1.CacheMisses, res1.Configs)
	}

	// A fresh in-memory cache simulates a process restart: everything
	// must be served from disk, with zero misses.
	c2 := NewCache()
	res2, err := Sweep(diskSpec(), SweepOptions{Cache: c2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res2.DiskLoaded != res1.DiskSaved {
		t.Errorf("restart loaded %d entries, want %d", res2.DiskLoaded, res1.DiskSaved)
	}
	if res2.CacheHits != uint64(res2.Configs) || res2.CacheMisses != 0 {
		t.Errorf("restart sweep: hits=%d misses=%d, want %d/0",
			res2.CacheHits, res2.CacheMisses, res2.Configs)
	}
	if !res2.DiskUnchanged || res2.DiskSaved != 0 {
		t.Errorf("restart sweep rewrote a complete store: saved=%d unchanged=%t, want 0/true",
			res2.DiskSaved, res2.DiskUnchanged)
	}

	// Results served from disk must be identical to freshly simulated
	// ones (normalize the legitimately differing cache counters).
	res1.CacheHits, res1.CacheMisses, res1.DiskLoaded, res1.DiskSaved = 0, 0, 0, 0
	res2.CacheHits, res2.CacheMisses, res2.DiskLoaded, res2.DiskSaved = 0, 0, 0, 0
	res1.DiskUnchanged, res2.DiskUnchanged = false, false
	j1, _ := res1.MarshalJSON()
	j2, _ := res2.MarshalJSON()
	if !bytes.Equal(j1, j2) {
		t.Error("disk-cached results differ from freshly simulated ones")
	}
}

func TestDiskCacheTruncatedFileRecovers(t *testing.T) {
	dir := t.TempDir()
	c := NewCache()
	if _, err := Sweep(diskSpec(), SweepOptions{Cache: c, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	path := DiskCachePath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("store has %d lines, need >= 3 (header + 2 entries)", len(lines))
	}
	// Chop the last entry in half, as an interrupted write would.
	last := lines[len(lines)-1]
	truncated := append(bytes.Join(lines[:len(lines)-1], []byte("\n")), '\n')
	truncated = append(truncated, last[:len(last)/2]...)
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := NewCache()
	n, err := fresh.LoadFile(path)
	if err != nil {
		t.Fatalf("truncated store must load without error, got %v", err)
	}
	if want := len(lines) - 2; n != want {
		t.Errorf("loaded %d entries from truncated store, want %d", n, want)
	}
	if fresh.Len() != len(lines)-2 {
		t.Errorf("cache holds %d entries, want %d", fresh.Len(), len(lines)-2)
	}
}

func TestDiskCacheCorruptOrForeignFileIgnored(t *testing.T) {
	cases := map[string]string{
		"garbage":          "not json at all\n{]\n",
		"foreign format":   `{"format":"something-else","version":1}` + "\n",
		"future version":   `{"format":"dse-result-cache","version":999}` + "\n",
		"empty file":       "",
		"binary junk":      "\x00\x01\x02\xff\xfe\n\x00",
		"header then junk": `{"format":"dse-result-cache","version":1}` + "\n\x00\x00garbage",
	}
	for name, content := range cases {
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), DiskCacheFile)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			c := NewCache()
			n, err := c.LoadFile(path)
			if err != nil {
				t.Fatalf("corrupt store must be ignored, not fail: %v", err)
			}
			if n != 0 || c.Len() != 0 {
				t.Errorf("corrupt store yielded %d entries", n)
			}
		})
	}
}

func TestDiskCacheMissingFileAndDirCreation(t *testing.T) {
	// Loading from a directory that does not exist yet is a clean cold
	// start; saving creates it.
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	c := NewCache()
	if n, err := c.LoadFile(DiskCachePath(dir)); n != 0 || err != nil {
		t.Fatalf("missing store: n=%d err=%v, want 0/nil", n, err)
	}
	res, err := Sweep(SweepSpec{Archs: []sim.Arch{sim.Baseline}, Curves: []string{"P-192"}},
		SweepOptions{Cache: c, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskSaved != 1 {
		t.Errorf("saved %d entries, want 1", res.DiskSaved)
	}
	if _, err := os.Stat(DiskCachePath(dir)); err != nil {
		t.Errorf("store file not created: %v", err)
	}
}

// rerunDir is shared by every run of TestDiskCachePersistsAcrossReruns
// within one test-binary process, so `go test -count=2` makes the second
// pass consume the store the first pass wrote — a real cross-run
// persistence and stale-state check (t.TempDir would reset it per run).
var rerunDir = sync.OnceValue(func() string {
	dir, err := os.MkdirTemp("", "dse-rerun-cache-*")
	if err != nil {
		panic(err)
	}
	return dir
})

func TestDiskCachePersistsAcrossReruns(t *testing.T) {
	dir := rerunDir()
	res, err := Sweep(diskSpec(), SweepOptions{Cache: NewCache(), CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskLoaded > 0 {
		// A later -count pass (or an earlier run of this test): the
		// store must satisfy the whole sweep and match fresh results.
		if res.CacheHits != uint64(res.Configs) || res.CacheMisses != 0 {
			t.Errorf("rerun against existing store: hits=%d misses=%d, want %d/0",
				res.CacheHits, res.CacheMisses, res.Configs)
		}
		// Nothing new was simulated, so nothing was written — the
		// accounting must say so instead of reporting a phantom flush.
		if !res.DiskUnchanged || res.DiskSaved != 0 {
			t.Errorf("rerun against complete store: saved=%d unchanged=%t, want 0/true",
				res.DiskSaved, res.DiskUnchanged)
		}
		fresh, err := Sweep(diskSpec(), SweepOptions{Cache: NewCache()})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Points {
			if res.Points[i].EnergyJ != fresh.Points[i].EnergyJ ||
				res.Points[i].Result.SignCycles() != fresh.Points[i].Result.SignCycles() {
				t.Errorf("stale store result at point %d: %+v vs fresh %+v",
					i, res.Points[i], fresh.Points[i])
			}
		}
	} else if res.DiskSaved != res.Configs {
		t.Errorf("flushed %d entries, want %d", res.DiskSaved, res.Configs)
	}
}

func TestDiskCacheStaleModelIgnored(t *testing.T) {
	// A store written under a different simulation model must be
	// discarded, not served: rewrite the header with a wrong
	// fingerprint and reload.
	dir := t.TempDir()
	c := NewCache()
	if _, err := Sweep(diskSpec(), SweepOptions{Cache: c, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	path := DiskCachePath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitN(data, []byte("\n"), 2)
	stale := append([]byte(`{"format":"dse-result-cache","version":1,"model":"0000000000000000"}`+"\n"), lines[1]...)
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := NewCache()
	n, err := fresh.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || fresh.Len() != 0 {
		t.Errorf("stale-model store yielded %d entries, want 0", n)
	}
}

// TestFingerprintHashesKernelTable checks that the model fingerprint's
// input covers the whole kernel cost table: perturbing any one field of
// any row changes it, including the rows no fingerprint probe prices.
func TestFingerprintHashesKernelTable(t *testing.T) {
	rows, err := sim.KernelCosts()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty kernel cost table")
	}
	var base bytes.Buffer
	hashKernelTable(&base, rows)
	for i, r := range rows {
		for f, bump := range []func(*sim.PerOp){
			func(c *sim.PerOp) { c.Cycles++ }, func(c *sim.PerOp) { c.Insts++ },
			func(c *sim.PerOp) { c.RAMReads++ }, func(c *sim.PerOp) { c.RAMWrites++ },
			func(c *sim.PerOp) { c.Accel++ },
		} {
			perturbed := slices.Clone(rows)
			bump(&perturbed[i].Cost)
			var b bytes.Buffer
			hashKernelTable(&b, perturbed)
			if bytes.Equal(b.Bytes(), base.Bytes()) {
				t.Errorf("row %s/%d field %d perturbed: fingerprint input unchanged", r.Kernel, r.Words, f)
			}
		}
	}
}

func TestDiskCacheLoadCountsOnlyNewEntries(t *testing.T) {
	// Loading into a cache that already holds every hash must report 0
	// merged entries, not the file's line count.
	dir := t.TempDir()
	c := NewCache()
	res, err := Sweep(diskSpec(), SweepOptions{Cache: c, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	n, err := c.LoadFile(DiskCachePath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("reloading into a warm cache merged %d entries, want 0 (store has %d)",
			n, res.DiskSaved)
	}
}

func TestDiskCacheSkipsErrorEntries(t *testing.T) {
	// Failed simulations must not be persisted: force an error entry
	// into the cache alongside a good one and flush.
	c := NewCache()
	good := Config{Arch: sim.Baseline, Curve: "P-192"}
	if _, _, err := c.GetOrRun(good); err != nil {
		t.Fatal(err)
	}
	bad := Config{Arch: sim.WithMonte, Curve: "B-163"} // invalid pairing
	if _, _, err := c.GetOrRun(bad); err == nil {
		t.Fatal("Monte on a binary curve should fail")
	}
	path := filepath.Join(t.TempDir(), DiskCacheFile)
	n, err := c.SaveFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("persisted %d entries, want 1 (error entry skipped)", n)
	}
	fresh := NewCache()
	if got, _ := fresh.LoadFile(path); got != 1 {
		t.Errorf("reloaded %d entries, want 1", got)
	}
}

func TestSweepMonteWidthAxis(t *testing.T) {
	// The Monte datapath-width axis must produce distinct design points
	// whose default-width member is bit-identical to a width-free sweep.
	spec := SweepSpec{
		Archs:       []sim.Arch{sim.WithMonte},
		Curves:      []string{"P-192"},
		MonteWidths: []int{8, 16, 32, 64},
	}
	res, err := Sweep(spec, SweepOptions{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("width sweep produced %d points, want 4", len(res.Points))
	}
	// Narrower datapaths take more cycles; energies must all differ.
	seenE := make(map[float64]bool)
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Result.TotalCycles() >= res.Points[i-1].Result.TotalCycles() {
			t.Errorf("width %d not faster than width %d",
				res.Points[i].Config.Opt.MonteWidth, res.Points[i-1].Config.Opt.MonteWidth)
		}
	}
	for _, p := range res.Points {
		if seenE[p.EnergyJ] {
			t.Errorf("duplicate energy %g across widths", p.EnergyJ)
		}
		seenE[p.EnergyJ] = true
	}

	// The w=32 point equals the default sweep's Monte point exactly.
	def, err := Sweep(SweepSpec{Archs: []sim.Arch{sim.WithMonte}, Curves: []string{"P-192"}},
		SweepOptions{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	var w32 Point
	for _, p := range res.Points {
		if p.Config.Opt.MonteWidth == 32 {
			w32 = p
		}
	}
	d := def.Points[0]
	if w32.Config.Hash() != d.Config.Hash() {
		t.Errorf("w=32 hash %s != default-width hash %s", w32.Config.Hash(), d.Config.Hash())
	}
	if w32.EnergyJ != d.EnergyJ || w32.TimeS != d.TimeS ||
		w32.Result.SignCycles() != d.Result.SignCycles() {
		t.Errorf("w=32 point diverges from the default-width point: %+v vs %+v", w32, d)
	}
}
