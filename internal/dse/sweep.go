package dse

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
	// Progress, when non-nil, streams per-point completion for long
	// sweeps: it is invoked once per configuration, in deterministic
	// specification order regardless of the worker count, with the
	// number of points completed so far, the total, and whether that
	// point was served from cache. Calls are serialized and ordered, but
	// run outside the sweep's internal bookkeeping lock: a slow callback
	// (a renderer, a journal write) delays later callbacks, not the
	// worker pool.
	Progress func(done, total int, cached bool)
	// Metrics, when non-nil, records sweep telemetry into the registry
	// (per-point simulate-vs-cached durations, worker-pool occupancy,
	// expansion and store load/flush timing) and fills SweepResult.Timing.
	// Telemetry is carried out-of-band: results, keys, hashes and store
	// bytes are identical with and without it.
	Metrics *telemetry.Registry
	// Journal, when non-nil, receives one JSONL lifecycle event per
	// sweep stage: sweep_start, store_load, one point event per
	// configuration in specification order (with duration, cache-hit
	// flag, and the error for a failed point), store_flush (including
	// the partial flush of a failed sweep), and sweep_end. Best-effort:
	// journal write errors never fail the sweep (check Journal.Err).
	Journal *telemetry.Journal
	// AdaptiveBudget, when positive, caps how many unique
	// configurations an AdaptiveSweep may evaluate; the run stops
	// (reporting BudgetHit) once the cap is reached. Zero means
	// unlimited — the exploration stops when a round moves no frontier.
	AdaptiveBudget int
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

	// Timing is the wall-clock breakdown of this sweep, present only
	// when SweepOptions.Metrics was set. It is carried alongside the
	// results, never inside them: an uninstrumented sweep's JSON is
	// byte-identical to the pre-telemetry wire form.
	Timing *SweepTiming
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
	run.timing.ExpandSeconds = expand.Seconds()
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
// cache, the hit/miss, disk and progress counters, the store
// bookkeeping, and the per-point histograms and stage timings — so the
// SweepResult and its SweepTiming are built in one place (result).
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
	// entries (the last batch flushed or verified it), so a batch that
	// loads nothing new and simulates nothing can skip its flush.
	// LoadFile counts only fresh inserts, so from the second batch on
	// the cache.Len() == loaded check alone cannot prove that.
	storeSynced bool

	// timing accumulates the stage timings; result fills in the total
	// and the per-point histogram snapshots.
	timing              SweepTiming
	simHist, cachedHist telemetry.Histogram
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
// pool: store load, cached-or-simulated pricing with ordered
// progress/journal delivery, and store flush. It returns the batch's
// points in input order, or the first failure. Journal point events
// number the batch's own points; Progress counts across every batch of
// the run, its total growing as batches are added.
func (r *sweepRun) price(cfgs []Config) ([]Point, error) {
	opt := r.opt
	workers := r.poolWidth(len(cfgs))
	r.workers = max(r.workers, workers)
	offset := r.configs
	r.configs += len(cfgs)
	var busy *telemetry.Gauge
	if m := opt.Metrics; m != nil {
		m.Gauge("sweep.configs").Set(int64(r.configs))
		m.Gauge("sweep.workers").Set(int64(workers))
		busy = m.Gauge("sweep.workers.busy")
	}
	loaded, err := r.load()
	if err != nil {
		return nil, err
	}

	points := make([]Point, len(cfgs))
	errs := make([]error, len(cfgs))
	durNS := make([]int64, len(cfgs))
	var hits, misses atomic.Uint64

	// Progress/journal bookkeeping: completions arrive in worker order,
	// but delivery fires in specification order — each finished point is
	// parked until every earlier point has finished too, so the (done,
	// total, cached) stream and the journal's point events are
	// deterministic for any worker count. The lock guards only the
	// bookkeeping; the callbacks themselves run outside it (one
	// deliverer at a time drains the ready prefix), so a slow Progress
	// callback or journal write delays later deliveries, never the
	// worker pool.
	wantDelivery := opt.Progress != nil || opt.Journal != nil
	var progressMu sync.Mutex
	finished := make([]bool, len(cfgs))
	wasHit := make([]bool, len(cfgs))
	nextToReport := 0
	delivering := false
	deliver := func(j int) {
		if opt.Journal != nil {
			f := map[string]any{
				"i": j + 1, "of": len(cfgs), "key": cfgs[j].Key(),
				"cached": wasHit[j], "seconds": float64(durNS[j]) / 1e9,
			}
			if errs[j] != nil {
				f["error"] = errs[j].Error()
			}
			opt.Journal.Emit("point", f)
		}
		if opt.Progress != nil {
			opt.Progress(offset+j+1, offset+len(cfgs), wasHit[j])
		}
	}
	reportProgress := func(i int, hit bool) {
		if !wantDelivery {
			return
		}
		progressMu.Lock()
		finished[i] = true
		wasHit[i] = hit
		if delivering {
			// Another worker is mid-delivery outside the lock; it will
			// pick this point up on its next drain pass.
			progressMu.Unlock()
			return
		}
		delivering = true
		for {
			start := nextToReport
			for nextToReport < len(cfgs) && finished[nextToReport] {
				nextToReport++
			}
			ready := nextToReport
			if ready == start {
				delivering = false
				progressMu.Unlock()
				return
			}
			progressMu.Unlock()
			for j := start; j < ready; j++ {
				deliver(j)
			}
			progressMu.Lock()
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cfg := cfgs[i]
				if opt.Metrics != nil {
					busy.Add(1)
				}
				pointStart := time.Now()
				res, hit, err := r.cache.GetOrRun(cfg)
				d := time.Since(pointStart)
				durNS[i] = int64(d)
				hist, name := &r.simHist, "sweep.point.simulate"
				if hit {
					hist, name = &r.cachedHist, "sweep.point.cached"
					hits.Add(1)
				} else {
					misses.Add(1)
				}
				hist.Observe(d)
				if opt.Metrics != nil {
					opt.Metrics.Histogram(name).Observe(d)
					busy.Add(-1)
				}
				if err != nil {
					errs[i] = fmt.Errorf("dse: %s: %w", cfg.Key(), err)
				} else {
					points[i] = newPoint(cfg, res)
				}
				reportProgress(i, hit)
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	r.hits += hits.Load()
	r.misses += misses.Load()
	if m := opt.Metrics; m != nil {
		m.Counter("sweep.points.simulated").Add(int64(misses.Load()))
		m.Counter("sweep.points.cached").Add(int64(hits.Load()))
	}

	var sweepErr error
	for _, err := range errs {
		if err != nil {
			sweepErr = err
			break
		}
	}
	if flushErr := r.flush(sweepErr != nil, misses.Load() == 0, loaded); flushErr != nil {
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

// load merges the persistent store into the cache before a batch and
// returns how many entries it added.
func (r *sweepRun) load() (int, error) {
	if r.opt.CacheDir == "" {
		return 0, nil
	}
	m := r.opt.Metrics
	// Every store read and write checks the model fingerprint, whose
	// probe simulations run once per process. Computing it up front
	// gives that cost its own stage instead of hiding it in the load
	// (or, for a new store, in the flush).
	start := time.Now()
	modelFingerprint()
	d := time.Since(start)
	r.timing.FingerprintSeconds += d.Seconds()
	if m != nil {
		m.Histogram("store.fingerprint").Observe(d)
	}

	path := DiskCachePath(r.opt.CacheDir)
	start = time.Now()
	n, err := r.cache.LoadFile(path)
	if err != nil {
		return 0, err
	}
	r.diskLoaded += n
	// A cold sweep has no store yet; LoadFile treats that as zero
	// entries, and the journal/metrics skip it too rather than record a
	// phantom load.
	if size := fileSize(path); n > 0 || size > 0 {
		d := time.Since(start)
		r.timing.LoadSeconds += d.Seconds()
		r.timing.LoadBytes += size
		if m != nil {
			m.Histogram("store.load").Observe(d)
			m.Counter("store.load.entries").Add(int64(n))
			m.Counter("store.load.bytes").Add(size)
		}
		r.opt.Journal.Emit("store_load", map[string]any{
			"path": path, "entries": n, "seconds": d.Seconds(), "bytes": size,
		})
	}
	return n, nil
}

// flush writes the cache back to the persistent store after a batch.
// It runs even when the batch failed: every successfully simulated
// point is persisted before the error propagates, so a sweep that dies
// on its last configuration costs one retry, not a full re-simulation.
// (SaveFile never persists error entries.)
func (r *sweepRun) flush(failed, allHits bool, loaded int) error {
	if r.opt.CacheDir == "" {
		return nil
	}
	path := DiskCachePath(r.opt.CacheDir)
	// When the store already satisfied the whole batch and the
	// in-memory cache holds nothing beyond what it served, the flush
	// would rewrite identical bytes — skip it and report an unchanged
	// store (not a phantom save).
	if !failed && allHits && (r.cache.Len() == loaded || (r.storeSynced && loaded == 0)) {
		r.flushSkips++
		r.storeSynced = true
		r.opt.Journal.Emit("store_flush", map[string]any{
			"path": path, "entries": 0, "unchanged": true,
		})
		return nil
	}
	start := time.Now()
	n, err := r.cache.SaveFile(path)
	d := time.Since(start)
	size := fileSize(path)
	r.timing.FlushSeconds += d.Seconds()
	r.timing.FlushBytes += size
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

// result builds the run's SweepResult over the points it priced, with
// a SweepTiming when Metrics is set.
func (r *sweepRun) result(spec SweepSpec, points []Point) *SweepResult {
	res := &SweepResult{
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
	if r.opt.Metrics != nil {
		t := r.timing
		t.TotalSeconds = time.Since(r.start).Seconds()
		t.Simulated, t.Cached = r.simHist.Snapshot(), r.cachedHist.Snapshot()
		res.Timing = &t
	}
	return res
}
