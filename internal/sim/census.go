package sim

import (
	"cmp"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"strings"
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
// Callers do not wait for their Runs to miss: WarmCensuses, the one
// warm-up scheduler, profiles what they will price up front, one pass
// per curve over every phase they need (WarmCensus), spread over a
// worker pool widest field first. A sweep warms each batch's uncached
// configurations on its pool, the store's model fingerprint its probes,
// and the report (dse -all) the default workload on every curve. A
// warm-up counts nothing; each entry it profiled counts as a miss when
// a Run first serves it, so hits + misses still equals the phase
// lookups Run made and misses the entries profiled, exactly as for a
// lazy render or sweep.
//
// Profiling runs on the fastest functional field implementation of each
// family, censusPrimeAlg and censusBinaryAlg. One sign-verify profile,
// best of fifteen on a 2-vCPU Xeon host with the allocation-free field
// kernels: B-571 takes 38 ms on Comb against 276 ms on CLMul, B-409 22 ms
// against 112 ms; P-521 takes 9 ms on OSNIST against 12 ms (PSNIST),
// 32 ms (CIOS) and 43 ms (FIPS), and OSNIST edges PSNIST on P-256,
// 3.2 ms against 3.4 ms.
//
// Bit-exactness: the profilers are deterministic (fixed seeds,
// RFC-6979-style signing), so a memoized census is byte-for-byte the
// census a fresh profile run would produce — results, hashes, goldens
// and store bytes are identical with the memo on or off (pinned by the
// memo-vs-fresh equivalence tests).
const (
	censusPrimeAlg  = mp.OSNIST
	censusBinaryAlg = gf2.Comb
)

// censusKey identifies one memo entry: a phase profiled on a curve.
type censusKey struct {
	curve string
	phase string
}

// curveParams are the curve sizes the pricing path needs downstream, kept
// with every entry so serving a memo hit touches no curve construction.
type curveParams struct {
	k     int // field element size in 32-bit words
	bits  int // field size in bits (prime: F.Bits; binary: F.M)
	nbits int // group-order size in bits
}

// censusProfile is a profile of some phases on one curve, in the order
// requested.
type censusProfile struct {
	phases []profiledPhase
	curveParams
}

// profileFunc executes the named phases functionally on a curve, in
// order, and returns their censuses. On error it returns the phases that
// completed before it.
type profileFunc func(curve string, phases []string) (censusProfile, error)

// profileCurve is the Run path's profileFunc: it profiles on the family's
// census field implementation.
func profileCurve(curveName string, phases []string) (censusProfile, error) {
	if IsPrimeCurve(curveName) {
		curve := ec.NISTPrimeCurve(curveName, censusPrimeAlg)
		ph, err := profileWorkload(curveName, primeOps(curve), phases)
		return censusProfile{ph, curveParams{curve.F.K, curve.F.Bits, curve.NBits}}, err
	}
	curve := ec.NISTBinaryCurve(curveName, censusBinaryAlg)
	ph, err := profileWorkload(curveName, binaryOps(curve), phases)
	return censusProfile{ph, curveParams{curve.F.K, curve.F.M, curve.NBits}}, err
}

type censusEntry struct {
	census opCensus
	curveParams
	err error
	// uncounted marks an entry a warm-up profiled: the first lookup that
	// serves it counts it as a miss.
	uncounted bool
}

// censusCache is the race-safe memo. Concurrent misses on the same entry
// are deduplicated singleflight-style (like dse.Cache.inflight): the
// first caller profiles, everyone else blocks and shares the entry.
type censusCache struct {
	mu       sync.Mutex
	m        map[censusKey]censusEntry
	inflight map[censusKey]*sync.WaitGroup

	hits   atomic.Uint64
	misses atomic.Uint64
}

var censuses = &censusCache{
	m:        make(map[censusKey]censusEntry),
	inflight: make(map[censusKey]*sync.WaitGroup),
}

// censusMemoOff gates the memo; the equivalence tests flip it to compare
// memoized pricings against fresh profile runs.
var censusMemoOff atomic.Bool

// DisableCensusMemo turns the process-wide census memo off (true) or
// back on (false). With the memo off every Run pays a fresh functional
// profile execution — the pre-memo behavior, kept reachable so
// equivalence tests can prove the memo changes nothing but speed.
func DisableCensusMemo(off bool) { censusMemoOff.Store(off) }

// CensusMemoEnabled reports whether Run serves censuses from the memo.
func CensusMemoEnabled() bool { return !censusMemoOff.Load() }

// ResetCensusMemo drops every memoized census and zeroes the hit/miss
// counters, forcing subsequent runs to profile from scratch (cold-sweep
// benchmarks and census-timing tests use this).
func ResetCensusMemo() {
	censuses.mu.Lock()
	defer censuses.mu.Unlock()
	censuses.m = make(map[censusKey]censusEntry)
	censuses.inflight = make(map[censusKey]*sync.WaitGroup)
	censuses.hits.Store(0)
	censuses.misses.Store(0)
}

// CensusMemoStats returns the memo's cumulative hit and miss counts
// since process start (or the last ResetCensusMemo): a miss is one
// profiled (curve, phase) entry, a hit one phase served from the memo.
// An entry WarmCensus profiled counts as its miss when first served.
// The same counts stream into an installed metrics registry as
// sim.census.hits / sim.census.misses.
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
// published together: a miss on either claims both (profiledWith).
var (
	profileOrder = []string{PhaseKeyGen, PhaseECDH, PhaseSign, PhaseVerify}
	profiledWith = map[string]string{PhaseSign: PhaseVerify, PhaseVerify: PhaseSign}
)

// WarmCensus profiles, in one pass, every census the named workloads
// price on curve that the memo neither holds nor is already profiling,
// so a sweep can spread its curves over its worker pool before pricing
// anything. It moves no counter: a warmed entry counts as the miss that
// profiled it when a Run first serves it. A no-op while the memo is
// disabled.
func WarmCensus(curve string, workloads []string) error {
	if !ec.KnownCurve(curve) {
		return fmt.Errorf("sim: unknown curve %q", curve)
	}
	return censuses.warm(curve, workloads, profileCurve)
}

// WarmCensuses is the census warm-up scheduler every up-front warm-up
// goes through — a sweep batch's, the model fingerprint's probes' and
// the report's: one WarmCensus pass per curve over its workloads, on a
// pool of the given width (0 = GOMAXPROCS). The passes start widest
// field first: the longest one started last would run alone while the
// other workers idle. A failed pass is left to the Run that serves it,
// which reports it with its configuration named.
func WarmCensuses(workloads map[string][]string, workers int) {
	curves := slices.SortedFunc(maps.Keys(workloads), func(a, b string) int {
		return cmp.Compare(fieldBits(b), fieldBits(a))
	})
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
				_ = WarmCensus(curve, workloads[curve])
			}
		}()
	}
	for _, curve := range curves {
		jobs <- curve
	}
	close(jobs)
	wg.Wait()
}

// fieldBits returns the field size a NIST curve's name carries ("B-571"
// is over GF(2^571)), the rank of its census pass's cost.
func fieldBits(curve string) int {
	n, _ := strconv.Atoi(curve[strings.IndexByte(curve, '-')+1:])
	return n
}

func (c *censusCache) warm(curve string, workloads []string, profile profileFunc) error {
	var phases []string
	for _, name := range workloads {
		wl, ok := workloadByName(name)
		if !ok {
			return fmt.Errorf("sim: %w", CheckWorkload(name))
		}
		for _, ph := range wl.phases {
			if !slices.Contains(phases, ph) {
				phases = append(phases, ph)
			}
		}
	}
	if censusMemoOff.Load() {
		return nil
	}
	_, _, err := c.fill(curve, phases, profile, true)
	return err
}

// fill profiles, in one pass, every entry the phases need that is
// neither memoized nor in flight, and returns the phases it claimed and
// the passes of other callers still profiling the rest. A lookup's own
// pass counts its misses up front; a warm-up's entries are published
// uncounted.
func (c *censusCache) fill(curve string, phases []string, profile profileFunc, warm bool) ([]string, []*sync.WaitGroup, error) {
	var claimed []string
	var waits []*sync.WaitGroup
	var wg *sync.WaitGroup
	c.mu.Lock()
	for _, ph := range profileOrder {
		if !slices.Contains(phases, ph) && !slices.Contains(phases, profiledWith[ph]) {
			continue
		}
		key := censusKey{curve, ph}
		if _, ok := c.m[key]; ok {
			continue
		}
		if w, ok := c.inflight[key]; ok {
			waits = append(waits, w)
			continue
		}
		if wg == nil {
			wg = new(sync.WaitGroup)
			wg.Add(1)
		}
		c.inflight[key] = wg
		claimed = append(claimed, ph)
	}
	c.mu.Unlock()
	if wg == nil {
		return nil, waits, nil
	}

	if !warm {
		c.countMisses(len(claimed))
	}
	prof, err := profile(curve, claimed)
	c.mu.Lock()
	for i, ph := range claimed {
		e := censusEntry{curveParams: prof.curveParams, err: err, uncounted: warm}
		if i < len(prof.phases) {
			e.census, e.err = prof.phases[i].census, nil
		}
		c.m[censusKey{curve, ph}] = e
		delete(c.inflight, censusKey{curve, ph})
	}
	c.mu.Unlock()
	wg.Done()
	return claimed, waits, err
}

func (c *censusCache) countMisses(n int) {
	c.misses.Add(uint64(n))
	if reg := metrics(); reg != nil {
		reg.Counter("sim.census.misses").Add(int64(n))
	}
}

// get returns the censuses of the named phases on curve, profiling every
// missing entry in one pass and each entry at most once. A profile error
// is remembered and re-served; matching dse.Cache's error-entry
// semantics, serving a remembered error does not count as a hit (the
// original failed profile still counted as the miss).
func (c *censusCache) get(curve string, phases []string, profile profileFunc) (censusProfile, error) {
	if censusMemoOff.Load() {
		return profile(curve, phases)
	}
	claimed, waits, _ := c.fill(curve, phases, profile, false)
	for _, w := range waits {
		w.Wait() // its profiler has published
	}

	out := censusProfile{phases: make([]profiledPhase, len(phases))}
	var hits, misses int
	var err error
	c.mu.Lock()
	for i, ph := range phases {
		key := censusKey{curve, ph}
		e, ok := c.m[key]
		switch {
		case !ok:
			// Only a phase missing from profileOrder is never claimed.
			e.err = fmt.Errorf("sim: phase %q has no profile order", ph)
		case e.uncounted:
			e.uncounted = false
			c.m[key] = e
			misses++
		case e.err == nil && !slices.Contains(claimed, ph):
			hits++
		}
		if e.err != nil {
			if err == nil {
				err = e.err
			}
			continue
		}
		out.phases[i] = profiledPhase{name: ph, census: e.census}
		out.curveParams = e.curveParams
	}
	c.mu.Unlock()
	if misses > 0 {
		c.countMisses(misses)
	}
	c.hits.Add(uint64(hits))
	if reg := metrics(); reg != nil && hits > 0 {
		reg.Counter("sim.census.hits").Add(int64(hits))
	}
	return out, err
}
