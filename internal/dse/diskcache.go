package dse

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/sim"
)

// On-disk result-cache format: a line-oriented JSON file. The first line
// is a header naming the format and version; every following line is one
// {hash, key, result} entry. Line-orientation is what makes the store
// corruption-tolerant: a process killed mid-flush leaves at most one
// truncated trailing line, which LoadFile drops while keeping every
// complete entry before it. Writes go through a temp file + rename, so a
// reader never observes a half-written file at the canonical path.
//
// The version covers both the entry schema (sim.Result's JSON shape) and
// the canonical Key format the hashes were computed under; the model
// fingerprint covers the simulation and energy models themselves. A
// mismatch of either means the file is ignored wholesale and rewritten
// on the next flush — never silently reinterpreted.
const (
	diskFormatName = "dse-result-cache"
	// Version 2: sim.Result grew the workload axis (per-phase
	// cycle/energy slices replacing the fixed Sign/Verify fields), so v1
	// stores are rejected wholesale instead of silently decoded into
	// empty phase lists.
	diskFormatVersion = 2

	// DiskCacheFile is the file name used inside a cache directory.
	DiskCacheFile = "results.v2.jsonl"
)

type diskHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Model fingerprints the simulation + energy models the results were
	// computed under, so a store written before a calibration or model
	// change is discarded instead of silently serving stale numbers.
	Model string `json:"model"`
}

// modelFingerprint hashes probe simulations spanning every model path a
// sweep can persist (software core, ISA extensions, cache + prefetcher,
// ideal cache, Monte at a non-default width with and without double
// buffering and gating, Billie at a non-default digit with gating, and
// every non-default workload — keygen, ecdh, handshake — on both curve
// families): any model or
// calibration change that alters results anywhere changes the
// fingerprint and invalidates on-disk caches. Computed once per process;
// the first call warms the probes' censuses on a pool of the given width
// (0 = GOMAXPROCS) before running them.
//
// The probe set is load-bearing: adding a probe changes the fingerprint
// and discards every existing store, so new axes must NOT add probes
// when their default reproduces pre-axis results bit-for-bit (the
// line-size axis rides the cache probes this way). A change to a
// non-default-only model path (e.g. recalibrating lineMissScale) is
// invisible to these probes and needs a diskFormatVersion bump instead.
// The kernel cost table is not left to the probes, which price 22 of
// its 59 rows: every row is hashed in (hashKernelTable).
func modelFingerprint(workers int) string {
	fingerprint.once.Do(func() { fingerprint.sum = fingerprintProbes(workers) })
	return fingerprint.sum
}

var fingerprint struct {
	once sync.Once
	sum  string
}

func fingerprintProbes(workers int) string {
	probes := []struct {
		arch  sim.Arch
		curve string
		opt   func(*sim.Options)
	}{
		{sim.Baseline, "P-192", func(o *sim.Options) {}},
		{sim.ISAExt, "B-163", func(o *sim.Options) {}},
		{sim.ISAExtCache, "P-256", func(o *sim.Options) { o.CacheBytes = 1 << 10; o.Prefetch = true }},
		{sim.ISAExtCache, "P-192", func(o *sim.Options) { o.IdealCache = true }},
		{sim.WithMonte, "P-192", func(o *sim.Options) { o.MonteWidth = 8 }},
		{sim.WithMonte, "P-256", func(o *sim.Options) { o.DoubleBuffer = false; o.GateAccelIdle = true }},
		{sim.WithBillie, "B-163", func(o *sim.Options) { o.BillieDigit = 1; o.GateAccelIdle = true }},
		{sim.WithMonte, "P-192", func(o *sim.Options) { o.Workload = sim.WorkloadHandshake }},
		{sim.WithBillie, "B-163", func(o *sim.Options) { o.Workload = sim.WorkloadECDH }},
		{sim.ISAExt, "P-256", func(o *sim.Options) { o.Workload = sim.WorkloadKeyGen }},
		{sim.Baseline, "B-233", func(o *sim.Options) { o.Workload = sim.WorkloadKeyGen }},
		{sim.ISAExt, "P-384", func(o *sim.Options) { o.Workload = sim.WorkloadECDH }},
		{sim.WithBillie, "B-283", func(o *sim.Options) { o.Workload = sim.WorkloadHandshake }},
	}
	cfgs := make([]Config, len(probes))
	for i, p := range probes {
		o := sim.DefaultOptions()
		p.opt(&o)
		cfgs[i] = Config{Arch: p.arch, Curve: p.curve, Opt: o}
	}
	warmCensuses(cfgs, workers)

	h := sha256.New()
	fmt.Fprintf(h, "keyfmt:%s;", Config{Arch: sim.WithMonte, Curve: "P-192"}.Key())
	fmt.Fprintf(h, "keyfmt-wl:%s;", Config{Arch: sim.WithMonte, Curve: "P-192",
		Opt: sim.Options{Workload: sim.WorkloadHandshake}}.Key())
	rows, err := sim.KernelCosts()
	if err != nil {
		fmt.Fprintf(h, "err:%v;", err)
	}
	hashKernelTable(h, rows)
	for _, c := range cfgs {
		r, err := sim.Run(c.Arch, c.Curve, c.Opt)
		if err != nil {
			fmt.Fprintf(h, "err:%v;", err)
			continue
		}
		fmt.Fprintf(h, "%s|%s|%s:", c.Arch, c.Curve, r.Workload)
		for _, ph := range r.Phases {
			fmt.Fprintf(h, "%s=%d,", ph.Name, ph.Cycles)
		}
		fmt.Fprintf(h, "%.17g,%.17g;", r.TotalEnergy(), r.Power.StaticW)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// hashKernelTable writes every row of the kernel cost table into the
// fingerprint, so regenerating any row invalidates every store.
func hashKernelTable(w io.Writer, rows []sim.KernelCost) {
	for _, r := range rows {
		c := r.Cost
		fmt.Fprintf(w, "kernel:%s/%d=%d,%d,%d,%d,%d;", r.Kernel, r.Words,
			c.Cycles, c.Insts, c.RAMReads, c.RAMWrites, c.Accel)
	}
}

type diskEntry struct {
	Hash string `json:"hash"`
	// Key is the human-readable canonical configuration, stored for
	// auditability (the hash alone is opaque); LoadFile trusts the hash.
	Key    string     `json:"key"`
	Result sim.Result `json:"result"`
}

// loadEntry is the decode-side view of diskEntry: it omits the Key
// field so the warm-load path never allocates and copies the audit
// string it would immediately discard (encoding/json skips JSON fields
// with no struct destination).
type loadEntry struct {
	Hash   string     `json:"hash"`
	Result sim.Result `json:"result"`
}

// scanBufPool recycles LoadFile's scanner buffer across loads: the
// store is read once per sweep (once per adaptive round), and a fresh 64 KB
// allocation per call was the single largest allocation on the
// decode-bound warm-disk path.
var scanBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 64*1024)
		return &b
	},
}

// DiskCachePath returns the store path inside a cache directory.
func DiskCachePath(dir string) string { return filepath.Join(dir, DiskCacheFile) }

// LoadFile merges previously persisted results from path into the cache
// and returns how many entries were actually added (hashes already in
// memory are left untouched and not counted). A missing file, a foreign,
// version-mismatched or model-mismatched header, and a truncated or
// corrupted tail are all non-fatal: the valid prefix (possibly empty) is
// loaded and the rest ignored, so a damaged or stale store costs
// re-simulation, never a failed sweep.
func (c *Cache) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("dse: open result cache: %w", err)
	}
	defer f.Close()

	buf := scanBufPool.Get().(*[]byte)
	defer scanBufPool.Put(buf)
	sc := bufio.NewScanner(f)
	sc.Buffer(*buf, 4*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return 0, fmt.Errorf("dse: read result cache: %w", err)
		}
		return 0, nil // empty file
	}
	var hdr diskHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil ||
		hdr.Format != diskFormatName || hdr.Version != diskFormatVersion ||
		hdr.Model != modelFingerprint(0) {
		return 0, nil // foreign format, stale schema, or stale model: start fresh
	}

	n := 0
	// One entry struct for the whole load, reset per line. The reset is
	// mandatory, not just hygiene: Unmarshal reuses an existing
	// Result.Phases backing array when capacity allows, and the previous
	// line's Result — already stored in the cache map — shares it.
	var e loadEntry
	for sc.Scan() {
		e = loadEntry{}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil || e.Hash == "" {
			return n, nil // truncated/corrupted tail: keep what parsed so far
		}
		c.mu.Lock()
		if _, ok := c.m[e.Hash]; !ok {
			c.m[e.Hash] = cacheEntry{res: e.Result}
			n++
		}
		c.mu.Unlock()
	}
	// A real read failure is not corruption: the on-disk suffix may be
	// intact, and silently succeeding here would let the post-sweep
	// flush rewrite the store without it. Surface it instead.
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("dse: read result cache: %w", err)
	}
	return n, nil
}

// SaveFile atomically persists every successful cached result to path,
// creating parent directories as needed, and returns how many entries
// were written. Entries are written in hash order, so two stores holding
// the same results are byte-identical. Error entries are not persisted —
// a config that failed to simulate is retried by the next process rather
// than remembered.
func (c *Cache) SaveFile(path string) (int, error) {
	c.mu.Lock()
	entries := make([]diskEntry, 0, len(c.m))
	for h, e := range c.m {
		if e.err != nil {
			continue
		}
		entries = append(entries, diskEntry{Hash: h, Result: e.res})
	}
	c.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Hash < entries[j].Hash })
	for i := range entries {
		cfg := Config{Arch: entries[i].Result.Arch, Curve: entries[i].Result.Curve, Opt: entries[i].Result.Opt}
		entries[i].Key = cfg.Key()
	}

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("dse: create cache dir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("dse: write result cache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w) // Encode appends the newline delimiter
	if err := enc.Encode(diskHeader{Format: diskFormatName, Version: diskFormatVersion, Model: modelFingerprint(0)}); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("dse: write result cache: %w", err)
	}
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("dse: write result cache: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("dse: write result cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("dse: write result cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("dse: write result cache: %w", err)
	}
	return len(entries), nil
}
