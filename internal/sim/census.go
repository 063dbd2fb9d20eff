package sim

import (
	"cmp"
	"fmt"
	"iter"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ec"
	"repro/internal/gf2"
	"repro/internal/mp"
)

// The census memo: one functional profile run per (curve, phase) serves
// every pricing.
//
// A phase's operation census counts field, group-order and point
// operations — the arithmetic sequence of the protocol — so it depends on
// the curve and the phase and on nothing else. The multiplication
// algorithm changes how a field multiplication is computed, not how many
// there are, and a phase executes the same operations whichever workload
// it belongs to; every design-space knob (architecture, cache geometry,
// prefetcher, accelerator widths and digits, gating, line size) only
// affects how the census is *priced*. TestCensusMemoPhaseInvariance is
// the proof: over every curve, every multiplication algorithm of its
// family and every workload, each phase's census is identical to its
// (curve, phase) memo entry.
//
// The memo therefore holds one entry per (curve, phase) — at most curves
// x phases (40), regardless of grid size — and a handshake reuses the
// keygen, ecdh, sign and verify entries other workloads already paid for.
//
// Every entry is filled one way: fill profiles, in one pass under the
// curve's pass lock, every entry a set of phases needs that the memo
// lacks. A Run's lookup (get) is fill followed by serving; WarmCensuses,
// the one warm-up scheduler, runs fill up front, one pass per curve over
// every phase its callers will price, spread over a worker pool widest
// field first. A sweep warms each batch's uncached configurations on its
// pool, the store's model fingerprint its probes, and the report (dse
// -all) the default workload on every curve. Whoever filled an entry,
// its first serve counts as its miss and every later serve as a hit, so
// hits + misses equals the phase lookups Run made and misses the
// entries profiled, warmed or not.
//
// An entry holds operation counts only; pricing reads the curve's sizes
// from the curve table (curves.go). This file and workload.go are the
// census generator, the only sim files that import ec, ecdsa, mp or gf2.
//
// Profiling runs on the fastest functional field implementation of each
// family, censusPrimeAlg and censusBinaryAlg. One sign-verify profile,
// best of 45 on a 2-vCPU Xeon host with Comb on 64-bit limbs end to end
// and allocation-free point formulas: B-571 takes 29 ms on Comb against
// 274 ms on CLMul, B-409 16 ms against 114 ms; P-521 takes 9 ms on
// OSNIST against 12 ms (PSNIST), 36 ms (CIOS) and 41 ms (FIPS), and
// OSNIST edges PSNIST on P-256, 3.0 ms against 3.4 ms.
//
// Bit-exactness: the profilers are deterministic (fixed seeds,
// RFC-6979-style signing), so a memoized census is byte-for-byte the
// census a fresh profile run would produce — results, hashes, goldens
// and store bytes are identical whether a pricing is served from the memo
// or profiled afresh after a ResetCensusMemo (pinned by the memo-vs-fresh
// equivalence tests).
const (
	censusPrimeAlg  = mp.OSNIST
	censusBinaryAlg = gf2.Comb
)

// censusKey identifies one memo entry: a phase profiled on a curve.
type censusKey struct {
	curve string
	phase string
}

// censusProfile is a profile of some phases on one curve, in the order
// requested.
type censusProfile struct {
	phases []profiledPhase
}

// profileFunc executes the named phases functionally on a curve, in
// order, and returns their censuses. On error it returns the phases that
// completed before it.
type profileFunc func(curve string, phases []string) (censusProfile, error)

// profileCurve is the Run path's profileFunc: it profiles on the family's
// census field implementation.
func profileCurve(curveName string, phases []string) (censusProfile, error) {
	if IsPrimeCurve(curveName) {
		ph, err := profileWorkload(curveName, primeOps(ec.NISTPrimeCurve(curveName, censusPrimeAlg)), phases)
		return censusProfile{ph}, err
	}
	ph, err := profileWorkload(curveName, binaryOps(ec.NISTBinaryCurve(curveName, censusBinaryAlg)), phases)
	return censusProfile{ph}, err
}

type censusEntry struct {
	census opCensus
	err    error
	// served marks an entry a lookup has served: its first serve counted
	// as its miss, every later serve of a good entry counts as a hit.
	served bool
}

// censusCache is the race-safe memo. Entries are filled under a
// per-curve pass lock, so racing fills on one curve run one profile pass
// and the others find its entries published.
type censusCache struct {
	mu     sync.Mutex
	m      map[censusKey]censusEntry
	passes sync.Map // curve → *sync.Mutex, its pass lock

	hits   atomic.Uint64
	misses atomic.Uint64
}

var censuses = &censusCache{m: make(map[censusKey]censusEntry)}

// ResetCensusMemo drops every memoized census and zeroes the hit/miss
// counters, forcing subsequent runs to profile from scratch (cold-sweep
// benchmarks, census-timing tests and the memo-vs-fresh equivalence
// tests use this).
func ResetCensusMemo() {
	censuses.mu.Lock()
	defer censuses.mu.Unlock()
	censuses.m = make(map[censusKey]censusEntry)
	censuses.hits.Store(0)
	censuses.misses.Store(0)
}

// CensusMemoStats returns the memo's cumulative hit and miss counts
// since process start (or the last ResetCensusMemo). An entry's first
// serve is its miss — one profiled (curve, phase) entry, whoever
// profiled it — and every later serve of a good entry a hit, so hits +
// misses equals the phase lookups Run made. The same counts stream into
// an installed metrics registry as sim.census.hits / sim.census.misses.
func CensusMemoStats() (hits, misses uint64) {
	return censuses.hits.Load(), censuses.misses.Load()
}

// CensusMemoLen returns the number of memoized (curve, phase) entries.
func CensusMemoLen() int {
	censuses.mu.Lock()
	defer censuses.mu.Unlock()
	return len(censuses.m)
}

// profileOrder is the order a profile pass executes phases in. Verify
// consumes the signature sign produces, so the two are profiled and
// published together: a fill for either profiles both (profiledWith).
var (
	profileOrder = []string{PhaseKeyGen, PhaseECDH, PhaseSign, PhaseVerify}
	profiledWith = map[string]string{PhaseSign: PhaseVerify, PhaseVerify: PhaseSign}
)

// WarmCensuses is the census warm-up scheduler every up-front warm-up
// goes through — a sweep batch's, the model fingerprint's probes' and
// the report's: one fill pass per curve over every phase its workloads
// price, on a pool of the given width (0 = GOMAXPROCS). The passes
// start widest field first: the longest one started last would run
// alone while the other workers idle. It moves no counter. An unknown
// curve or workload is skipped, and a failed pass remembered, for the
// Run that serves it to report with its configuration named.
func WarmCensuses(workloads map[string][]string, workers int) {
	curves := passOrder(maps.Keys(workloads))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobs := make(chan string)
	var wg sync.WaitGroup
	for range min(workers, len(curves)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for curve := range jobs {
				if _, ok := LookupCurve(curve); ok {
					censuses.fill(curve, workloadPhases(workloads[curve]), profileCurve)
				}
			}
		}()
	}
	for _, curve := range curves {
		jobs <- curve
	}
	close(jobs)
	wg.Wait()
}

// workloadPhases returns the phases the named workloads price, skipping
// unknown names.
func workloadPhases(workloads []string) []string {
	var phases []string
	for _, name := range workloads {
		if wl, ok := workloadByName(name); ok {
			phases = append(phases, wl.phases...)
		}
	}
	return phases
}

// passOrder sorts curves widest field first, the rank of their census
// passes' cost; an unknown curve, which has no pass, sorts last.
func passOrder(curves iter.Seq[string]) []string {
	return slices.SortedFunc(curves, func(a, b string) int {
		ca, _ := LookupCurve(a)
		cb, _ := LookupCurve(b)
		return cmp.Compare(cb.Bits, ca.Bits)
	})
}

// fill profiles, in one pass under the curve's pass lock, every entry
// the phases need that the memo lacks, and publishes them unserved. A
// profile error is remembered in every entry the pass did not complete;
// the phases it completed before the error are published as good
// entries.
func (c *censusCache) fill(curve string, phases []string, profile profileFunc) {
	if c.missing(curve, phases) == nil {
		return
	}
	p, _ := c.passes.LoadOrStore(curve, new(sync.Mutex))
	pass := p.(*sync.Mutex)
	pass.Lock()
	defer pass.Unlock()
	missing := c.missing(curve, phases) // a racing pass may have filled them
	if missing == nil {
		return
	}

	prof, err := profile(curve, missing)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, ph := range missing {
		e := censusEntry{err: err}
		if i < len(prof.phases) {
			e.census, e.err = prof.phases[i].census, nil
		}
		c.m[censusKey{curve, ph}] = e
	}
}

// missing returns, in profileOrder, the phases or their profiledWith
// partners the memo holds no entry for on curve.
func (c *censusCache) missing(curve string, phases []string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, ph := range profileOrder {
		if !slices.Contains(phases, ph) && !slices.Contains(phases, profiledWith[ph]) {
			continue
		}
		if _, ok := c.m[censusKey{curve, ph}]; !ok {
			out = append(out, ph)
		}
	}
	return out
}

// get returns the censuses of the named phases on curve: it fills the
// missing entries, then serves them. Matching dse.Cache's error-entry
// semantics, a remembered profile error is re-served but never counted
// as a hit (its first serve still counted as the miss).
func (c *censusCache) get(curve string, phases []string, profile profileFunc) (censusProfile, error) {
	c.fill(curve, phases, profile)

	out := censusProfile{phases: make([]profiledPhase, len(phases))}
	var hits, misses int
	var err error
	c.mu.Lock()
	for i, ph := range phases {
		key := censusKey{curve, ph}
		e, ok := c.m[key]
		switch {
		case !ok:
			// Only a phase missing from profileOrder is never filled.
			e.err = fmt.Errorf("sim: phase %q has no profile order", ph)
		case !e.served:
			e.served = true
			c.m[key] = e
			misses++
		case e.err == nil:
			hits++
		}
		if e.err != nil {
			if err == nil {
				err = e.err
			}
			continue
		}
		out.phases[i] = profiledPhase{name: ph, census: e.census}
	}
	c.mu.Unlock()
	c.hits.Add(uint64(hits))
	c.misses.Add(uint64(misses))
	if reg := metrics(); reg != nil {
		if hits > 0 {
			reg.Counter("sim.census.hits").Add(int64(hits))
		}
		if misses > 0 {
			reg.Counter("sim.census.misses").Add(int64(misses))
		}
	}
	return out, err
}
