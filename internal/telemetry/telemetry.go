// Package telemetry is the zero-dependency observability substrate
// behind dse -stats: a race-safe metrics registry (counters and
// log-bucketed latency histograms) with a JSON snapshot. It records
// what a sweep's returned result does not carry: stage timings, the
// store's byte sizes and the simulator's census-memo counts.
//
// Everything here is carried out-of-band of the simulation results:
// metrics never enter config keys, hashes, disk stores or
// golden-pinned output, so instrumented and uninstrumented runs
// produce bit-identical results.
package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add adds n (n < 0 is a caller bug but not checked; counters are
// convention-monotonic, not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is one bucket per power-of-two nanosecond magnitude:
// bucket 0 holds zero-duration observations, bucket i>0 holds durations
// in [2^(i-1), 2^i) ns. 64 buckets cover every int64 duration.
const histBuckets = 64

// Histogram is a log-bucketed latency histogram: exact count, sum and
// max, with p50/p95 estimated from power-of-two nanosecond buckets
// (error bounded by the bucket width, ~sqrt(2)x). The zero value is
// ready to use; Observe is lock-free and safe for concurrent use.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one duration. Negative durations (clock steps) clamp
// to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		old := h.maxNS.Load()
		if ns <= old || h.maxNS.CompareAndSwap(old, ns) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(ns))%histBuckets].Add(1)
}

// HistogramSnapshot is a histogram's point-in-time summary in seconds.
// P50/P95 are log-bucket estimates (geometric bucket midpoints), capped
// at the exact Max.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	SumS  float64 `json:"sumSeconds"`
	P50S  float64 `json:"p50Seconds"`
	P95S  float64 `json:"p95Seconds"`
	MaxS  float64 `json:"maxSeconds"`
}

// Snapshot summarizes the histogram. Concurrent Observe calls make the
// snapshot approximate (count and buckets are read without a barrier),
// never invalid.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		SumS:  float64(h.sumNS.Load()) / 1e9,
		MaxS:  float64(h.maxNS.Load()) / 1e9,
	}
	if s.Count == 0 {
		return s
	}
	var counts [histBuckets]int64
	for i := range counts {
		counts[i] = h.buckets[i].Load()
	}
	s.P50S = math.Min(bucketQuantile(counts[:], s.Count, 0.50), s.MaxS)
	s.P95S = math.Min(bucketQuantile(counts[:], s.Count, 0.95), s.MaxS)
	return s
}

// bucketQuantile estimates the q-quantile in seconds from log2 buckets.
func bucketQuantile(counts []int64, total int64, q float64) float64 {
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			// Geometric midpoint of [2^(i-1), 2^i) ns.
			return math.Exp2(float64(i)-0.5) / 1e9
		}
	}
	return float64(total) // unreachable unless buckets race behind count
}

// Registry is a named collection of counters and histograms,
// get-or-created on first use so instrumentation sites never pre-declare.
// All methods are safe for concurrent use; New returns an empty one.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a registry's point-in-time state, JSON-marshalable (maps
// render with sorted keys, so the wire form is deterministic for a
// given state).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric. Concurrent updates make the snapshot
// approximate, never invalid.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	s := Snapshot{}
	if len(counters) > 0 {
		s.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			s.Counters[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, v := range hists {
			s.Histograms[k] = v.Snapshot()
		}
	}
	return s
}
