package dse

import (
	"sync"

	"repro/internal/sim"
)

// Cache memoizes simulation results under the canonical configuration
// hash. It is safe for concurrent use by the sweep worker pool and can be
// shared across sweeps, making repeated and overlapping explorations
// near-free: only configurations never simulated before pay the
// functional-ECDSA + pricing cost.
type Cache struct {
	mu     sync.Mutex
	m      map[string]cacheEntry
	hits   uint64
	misses uint64

	// inflight deduplicates concurrent misses on the same hash so a
	// config is simulated at most once even when two workers race.
	inflight map[string]*sync.WaitGroup
}

type cacheEntry struct {
	res sim.Result
	err error
}

// NewCache returns an empty result cache.
func NewCache() *Cache {
	return &Cache{
		m:        make(map[string]cacheEntry),
		inflight: make(map[string]*sync.WaitGroup),
	}
}

// sharedCache is the process-wide cache used when a sweep is not handed
// an explicit one.
var sharedCache = NewCache()

// SharedCache returns the process-wide result cache.
func SharedCache() *Cache { return sharedCache }

// Len returns the number of cached configurations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// lookup returns the successful cached result for a canonical config
// hash, if any, without touching the hit/miss counters. Error entries
// do not count: a remembered failure is not a result.
func (c *Cache) lookup(hash string) (sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[hash]
	if !ok || e.err != nil {
		return sim.Result{}, false
	}
	return e.res, true
}

// Stats returns cumulative hit and miss counts — the cache's whole
// lifetime, across every sweep that used it. For per-sweep accounting
// read SweepResult.CacheHits/CacheMisses instead; to scope Stats to one
// sweep, pass a fresh NewCache (or call Reset first, discarding the
// cached results along with the counters).
//
// Error entries are remembered (GetOrRun re-serves a failed config's
// error without re-running it) but never counted as hits: hits count
// only successful results served from cache, matching lookup and a
// sweep's per-point hit tally. The one miss a failing config costs is
// the run that discovered the error.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Reset drops all cached results and zeroes the counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[string]cacheEntry)
	c.inflight = make(map[string]*sync.WaitGroup)
	c.hits, c.misses = 0, 0
}

// GetOrRun returns the simulation result for cfg, running it at most
// once per canonical configuration, and reports whether it was served
// from cache. Concurrent callers asking for the same configuration block
// until the first finishes and then share its result (counted as hits).
// A remembered error is re-served without re-running the simulation but
// reports hit=false and moves neither counter (see Stats).
func (c *Cache) GetOrRun(cfg Config) (res sim.Result, hit bool, err error) {
	h := cfg.Hash()
	for {
		c.mu.Lock()
		if e, ok := c.m[h]; ok {
			if e.err != nil {
				c.mu.Unlock()
				return e.res, false, e.err
			}
			c.hits++
			c.mu.Unlock()
			return e.res, true, e.err
		}
		if wg, ok := c.inflight[h]; ok {
			c.mu.Unlock()
			wg.Wait()
			continue // first runner has published; loop hits the cache
		}
		wg := new(sync.WaitGroup)
		wg.Add(1)
		c.inflight[h] = wg
		c.misses++
		c.mu.Unlock()

		res, err = sim.Run(cfg.Arch, cfg.Curve, cfg.Opt)
		c.mu.Lock()
		c.m[h] = cacheEntry{res: res, err: err}
		delete(c.inflight, h)
		c.mu.Unlock()
		wg.Done()
		return res, false, err
	}
}
