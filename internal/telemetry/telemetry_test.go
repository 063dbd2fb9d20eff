package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	r.Counter("a").Add(1)
	r.Counter("a").Add(2)
	if got := r.Counter("a").Value(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}

	s := r.Snapshot()
	if s.Counters["a"] != 3 {
		t.Errorf("snapshot = %+v", s)
	}
	// The snapshot must be JSON-marshalable with stable content.
	b1, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(r.Snapshot())
	if string(b1) != string(b2) {
		t.Errorf("snapshot wire form unstable:\n%s\n%s", b1, b2)
	}
}

func TestHistogramSummary(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond,
		3 * time.Millisecond, 4 * time.Millisecond, 100 * time.Millisecond} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("count = %d, want 5", s.Count)
	}
	if want := 0.110; s.SumS < want*0.999 || s.SumS > want*1.001 {
		t.Errorf("sum = %g s, want ~%g", s.SumS, want)
	}
	if s.MaxS != 0.1 {
		t.Errorf("max = %g s, want 0.1", s.MaxS)
	}
	// p50 lands in the 2-4 ms log bucket; log-bucket estimates are good
	// to ~sqrt(2)x.
	if s.P50S < 1e-3 || s.P50S > 8e-3 {
		t.Errorf("p50 = %g s, want within the ms range", s.P50S)
	}
	// p95 is the max observation's bucket, capped at the exact max.
	if s.P95S < 0.05 || s.P95S > s.MaxS {
		t.Errorf("p95 = %g s, want in (0.05, max]", s.P95S)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(-time.Second) // clock step: clamps to zero
	s := h.Snapshot()
	if s.Count != 2 || s.SumS != 0 || s.MaxS != 0 || s.P50S != 0 || s.P95S != 0 {
		t.Errorf("zero-duration snapshot = %+v", s)
	}
}

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s != (HistogramSnapshot{}) {
		t.Errorf("empty snapshot = %+v, want zero", s)
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// get-or-create races, concurrent observes, snapshots mid-flight — and
// checks the final totals. Run under -race, this is the histogram/
// registry race-safety contract.
func TestRegistryConcurrency(t *testing.T) {
	r := New()
	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("ops").Add(1)
				r.Histogram("lat").Observe(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	const total = goroutines * perG
	if got := r.Counter("ops").Value(); got != total {
		t.Errorf("counter = %d, want %d", got, total)
	}
	s := r.Histogram("lat").Snapshot()
	if s.Count != total {
		t.Errorf("histogram count = %d, want %d", s.Count, total)
	}
	if s.MaxS < 0.000998 {
		t.Errorf("histogram max = %g, want ~999us", s.MaxS)
	}
}
