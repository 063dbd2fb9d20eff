package dse

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// SweepOptions tunes how a sweep executes.
type SweepOptions struct {
	// Workers is the worker-pool width; 0 means GOMAXPROCS.
	Workers int
	// Cache is the memoizing result cache; nil means the process-wide
	// shared cache.
	Cache *Cache
	// CacheDir, when non-empty, makes the result cache persistent:
	// previously saved results are loaded from CacheDir before the sweep
	// (counting as cache hits) and the merged cache is flushed back
	// afterwards, so repeating a sweep is near-free even across process
	// restarts.
	CacheDir string
	// Metrics, when non-nil, records sweep telemetry into the registry:
	// per-point simulate-vs-cached durations, expansion, census warm-up,
	// and store fingerprint/load/flush timing. Telemetry is carried
	// out-of-band: results, keys, hashes and store bytes are identical
	// with and without it.
	Metrics *telemetry.Registry
	// Journal, when non-nil, receives one JSONL lifecycle event per
	// sweep stage: sweep_start, store_load, one point event per
	// configuration in specification order (with duration, cache-hit
	// flag, and the error for a failed point), store_flush (including
	// the partial flush of a failed sweep), and sweep_end. Best-effort:
	// journal write errors never fail the sweep (check Journal.Err).
	Journal *telemetry.Journal
}

// SweepResult is the outcome of exploring one SweepSpec.
type SweepResult struct {
	Spec SweepSpec

	// Points holds one evaluated point per unique configuration, in
	// deterministic specification order (independent of Workers).
	Points []Point

	RawPoints int // size of the un-pruned cross-product
	Configs   int // unique valid configurations this run evaluated
	Workers   int // pool width actually used

	// Cache accounting for this sweep only (not cumulative; the cache's
	// own Stats method is the process-cumulative view).
	CacheHits   uint64
	CacheMisses uint64

	// Disk-cache accounting when SweepOptions.CacheDir was set.
	DiskLoaded int // entries loaded from the persistent store
	DiskSaved  int // entries flushed back to it
	// DiskUnchanged reports that the flush was skipped because the store
	// already held exactly the cache content (nothing was written, so
	// DiskSaved is 0).
	DiskUnchanged bool
}

// Sweep explores the spec's cross-product on a worker pool. Each unique
// configuration is simulated (or served from cache) exactly once;
// results are assembled in specification order so output is
// byte-identical for any worker count.
func Sweep(spec SweepSpec, opt SweepOptions) (*SweepResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	run := newSweepRun(opt)
	cfgs := spec.Expand()
	expand := time.Since(run.start)
	// Expansion economics: raw − pruned − unique is what canonical
	// deduplication collapsed.
	raw, pruned, unique := spec.RawPoints(), spec.PrunedPoints(), len(cfgs)
	deduped := raw - pruned - unique
	if m := opt.Metrics; m != nil {
		m.Histogram("sweep.expand").Observe(expand)
		m.Counter("dse.expand.raw").Add(int64(raw))
		m.Counter("dse.expand.pruned").Add(int64(pruned))
		m.Counter("dse.expand.deduped").Add(int64(deduped))
		m.Counter("dse.expand.unique").Add(int64(unique))
	}
	opt.Journal.Emit("sweep_start", map[string]any{
		"configs": len(cfgs), "rawPoints": raw, "workers": run.poolWidth(len(cfgs)),
		"pruned": pruned, "deduped": deduped, "unique": unique,
	})

	points, err := run.price(cfgs)
	if opt.Metrics != nil {
		opt.Metrics.Counter("sweep.runs").Inc()
	}
	end := map[string]any{
		"configs": len(cfgs), "cacheHits": run.hits, "cacheMisses": run.misses,
		"seconds": time.Since(run.start).Seconds(),
	}
	if err != nil {
		end["error"] = err.Error()
	}
	opt.Journal.Emit("sweep_end", end)
	if err != nil {
		return nil, err
	}
	return run.result(spec, points), nil
}

// sweepRun is one observed sweep execution: Sweep prices its whole
// expansion through one, AdaptiveSweep prices every round's candidates
// through one. It owns what accumulates across those batches — the
// cache, the hit/miss and disk counters and the store bookkeeping — so
// the SweepResult is built in one place (result).
type sweepRun struct {
	opt   SweepOptions
	cache *Cache
	start time.Time

	configs      int // configurations priced so far, across batches
	workers      int // widest pool any batch used
	hits, misses uint64

	diskLoaded, diskSaved int
	flushes, flushSkips   int
	// storeSynced records that the store holds exactly the cache's
	// entries (the load filled an empty cache with it, or the last
	// batch flushed or verified it), so a batch that simulates nothing
	// can skip its flush.
	storeSynced bool
}

func newSweepRun(opt SweepOptions) *sweepRun {
	cache := opt.Cache
	if cache == nil {
		cache = sharedCache
	}
	return &sweepRun{opt: opt, cache: cache, start: time.Now()}
}

// poolWidth is the worker-pool width for a batch of n configurations.
func (r *sweepRun) poolWidth(n int) int {
	workers := r.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n && n > 0 {
		workers = n
	}
	return workers
}

// price evaluates one batch of expanded configurations on the worker
// pool: store load (before the first batch only: later batches would
// re-read what the last flush wrote), census warm-up, cached-or-simulated
// pricing, the batch's journal point events in input order, and store
// flush. It returns the batch's points in input order, or the first
// failure. Journal point events number the batch's own points.
func (r *sweepRun) price(cfgs []Config) ([]Point, error) {
	opt := r.opt
	workers := r.poolWidth(len(cfgs))
	if r.configs == 0 {
		if err := r.load(workers); err != nil {
			return nil, err
		}
	}
	r.workers = max(r.workers, workers)
	r.configs += len(cfgs)
	if m := opt.Metrics; m != nil {
		m.Gauge("sweep.configs").Set(int64(r.configs))
		m.Gauge("sweep.workers").Set(int64(workers))
	}
	r.warm(cfgs, workers)

	points := make([]Point, len(cfgs))
	errs := make([]error, len(cfgs))
	durNS := make([]int64, len(cfgs))
	cached := make([]bool, len(cfgs))

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cfg := cfgs[i]
				pointStart := time.Now()
				res, hit, err := r.cache.GetOrRun(cfg)
				d := time.Since(pointStart)
				durNS[i], cached[i] = int64(d), hit
				if m := opt.Metrics; m != nil {
					name := "sweep.point.simulate"
					if hit {
						name = "sweep.point.cached"
					}
					m.Histogram(name).Observe(d)
				}
				if err != nil {
					errs[i] = fmt.Errorf("dse: %s: %w", cfg.Key(), err)
				} else {
					points[i] = newPoint(cfg, res)
				}
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	// The batch's outcomes are read back in input order: the hit/miss
	// tally, the first failure, and the journal's point events, which
	// are therefore deterministic for any worker count.
	var hits, misses uint64
	var sweepErr error
	for i, cfg := range cfgs {
		if cached[i] {
			hits++
		} else {
			misses++
		}
		if sweepErr == nil {
			sweepErr = errs[i]
		}
		if opt.Journal != nil {
			f := map[string]any{
				"i": i + 1, "of": len(cfgs), "key": cfg.Key(),
				"cached": cached[i], "seconds": float64(durNS[i]) / 1e9,
			}
			if errs[i] != nil {
				f["error"] = errs[i].Error()
			}
			opt.Journal.Emit("point", f)
		}
	}
	r.hits += hits
	r.misses += misses
	if m := opt.Metrics; m != nil {
		m.Counter("sweep.points.simulated").Add(int64(misses))
		m.Counter("sweep.points.cached").Add(int64(hits))
	}
	if flushErr := r.flush(sweepErr != nil, misses == 0); flushErr != nil {
		if sweepErr == nil {
			return nil, flushErr
		}
		return nil, fmt.Errorf("%w (and flushing partial results failed: %v)", sweepErr, flushErr)
	}
	if sweepErr != nil {
		return nil, sweepErr
	}
	return points, nil
}

// warm profiles the censuses the batch's uncached configurations will
// price, before any of them is priced, and observes it as the
// sweep.warm stage. Configurations the result cache holds (from the
// store, say) price no census, so they warm nothing.
func (r *sweepRun) warm(cfgs []Config, workers int) {
	start := time.Now()
	var uncached []Config
	for _, cfg := range cfgs {
		if _, ok := r.cache.lookup(cfg.Hash()); !ok {
			uncached = append(uncached, cfg)
		}
	}
	warmCensuses(uncached, workers)
	if m := r.opt.Metrics; m != nil {
		m.Histogram("sweep.warm").Observe(time.Since(start))
	}
}

// warmCensuses warms, through sim.WarmCensuses, every census the
// configurations price: one pass per curve over the union of its
// configurations' workloads, so each curve generates its key once.
func warmCensuses(cfgs []Config, workers int) {
	workloads := make(map[string][]string)
	for _, cfg := range cfgs {
		wl := sim.CanonicalWorkload(cfg.Opt.Workload)
		if !slices.Contains(workloads[cfg.Curve], wl) {
			workloads[cfg.Curve] = append(workloads[cfg.Curve], wl)
		}
	}
	sim.WarmCensuses(workloads, workers)
}

// load merges the persistent store into the cache before the first
// batch. The model fingerprint warms its probes' censuses on the
// batch's pool width.
func (r *sweepRun) load(workers int) error {
	if r.opt.CacheDir == "" {
		return nil
	}
	m := r.opt.Metrics
	// Every store read and write checks the model fingerprint, whose
	// probe simulations run once per process. Computing it up front
	// gives that cost its own stage instead of hiding it in the load
	// (or, for a new store, in the flush).
	start := time.Now()
	modelFingerprint(workers)
	d := time.Since(start)
	if m != nil {
		m.Histogram("store.fingerprint").Observe(d)
	}

	path := DiskCachePath(r.opt.CacheDir)
	start = time.Now()
	n, err := r.cache.LoadFile(path)
	if err != nil {
		return err
	}
	r.diskLoaded = n
	r.storeSynced = r.cache.Len() == n
	// A cold sweep has no store yet; LoadFile treats that as zero
	// entries, and the journal/metrics skip it too rather than record a
	// phantom load.
	if size := fileSize(path); n > 0 || size > 0 {
		d := time.Since(start)
		if m != nil {
			m.Histogram("store.load").Observe(d)
			m.Counter("store.load.entries").Add(int64(n))
			m.Counter("store.load.bytes").Add(size)
		}
		r.opt.Journal.Emit("store_load", map[string]any{
			"path": path, "entries": n, "seconds": d.Seconds(), "bytes": size,
		})
	}
	return nil
}

// flush writes the cache back to the persistent store after a batch.
// It runs even when the batch failed: every successfully simulated
// point is persisted before the error propagates, so a sweep that dies
// on its last configuration costs one retry, not a full re-simulation.
// (SaveFile never persists error entries.)
func (r *sweepRun) flush(failed, allHits bool) error {
	if r.opt.CacheDir == "" {
		return nil
	}
	path := DiskCachePath(r.opt.CacheDir)
	// When the store already satisfied the whole batch and the
	// in-memory cache holds nothing beyond what it served, the flush
	// would rewrite identical bytes — skip it and report an unchanged
	// store (not a phantom save).
	if !failed && allHits && r.storeSynced {
		r.flushSkips++
		r.opt.Journal.Emit("store_flush", map[string]any{
			"path": path, "entries": 0, "unchanged": true,
		})
		return nil
	}
	start := time.Now()
	n, err := r.cache.SaveFile(path)
	d := time.Since(start)
	size := fileSize(path)
	if m := r.opt.Metrics; m != nil {
		m.Histogram("store.flush").Observe(d)
		m.Counter("store.flush.entries").Add(int64(n))
		m.Counter("store.flush.bytes").Add(size)
	}
	f := map[string]any{"path": path, "entries": n, "seconds": d.Seconds(), "bytes": size}
	if failed {
		// A failed sweep still flushes its completed points; the
		// journal records that partial flush explicitly.
		f["partial"] = true
	}
	if err != nil {
		f["error"] = err.Error()
	}
	r.opt.Journal.Emit("store_flush", f)
	if err != nil {
		return err
	}
	r.flushes++
	// Each flush rewrites the whole store, so the last one holds the
	// run's final entry count.
	if n > 0 {
		r.diskSaved = n
	}
	r.storeSynced = n > 0
	return nil
}

// result builds the run's SweepResult over the points it priced.
func (r *sweepRun) result(spec SweepSpec, points []Point) *SweepResult {
	return &SweepResult{
		Spec:          spec,
		Points:        points,
		RawPoints:     spec.RawPoints(),
		Configs:       r.configs,
		Workers:       r.workers,
		CacheHits:     r.hits,
		CacheMisses:   r.misses,
		DiskLoaded:    r.diskLoaded,
		DiskSaved:     r.diskSaved,
		DiskUnchanged: r.flushSkips > 0 && r.flushes == 0,
	}
}

// fileSize returns a file's byte size for telemetry, or 0 if it cannot
// be measured — store accounting is best-effort observability, never a
// sweep failure.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
