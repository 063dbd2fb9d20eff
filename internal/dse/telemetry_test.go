package dse

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// journalLines decodes a JSONL journal buffer into one map per event.
func journalLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// eventNames extracts the event sequence from decoded journal lines.
func eventNames(events []map[string]any) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i], _ = e["event"].(string)
	}
	return out
}

// TestSweepTimingAndMetrics pins the tentpole contract: an instrumented
// sweep fills SweepResult.Timing and the registry, and the timing block
// appears in the JSON wire form only when a registry was attached — an
// uninstrumented sweep's JSON stays byte-free of it.
func TestSweepTimingAndMetrics(t *testing.T) {
	spec := diskSpec()
	dir := t.TempDir()
	reg := telemetry.New()
	res, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing == nil {
		t.Fatal("instrumented sweep returned nil Timing")
	}
	tm := res.Timing
	if tm.TotalSeconds <= 0 || tm.ExpandSeconds < 0 {
		t.Errorf("implausible timing: %+v", tm)
	}
	if tm.Simulated.Count != int64(res.Configs) || tm.Cached.Count != 0 {
		t.Errorf("cold sweep split = %d simulated / %d cached, want %d / 0",
			tm.Simulated.Count, tm.Cached.Count, res.Configs)
	}
	if tm.Simulated.SumS <= 0 || tm.Simulated.MaxS < tm.Simulated.P50S {
		t.Errorf("degenerate simulate histogram: %+v", tm.Simulated)
	}
	if tm.FlushBytes <= 0 {
		t.Errorf("flush wrote a store but FlushBytes = %d", tm.FlushBytes)
	}

	s := reg.Snapshot()
	if s.Counters["sweep.points.simulated"] != int64(res.Configs) ||
		s.Counters["sweep.points.cached"] != 0 ||
		s.Counters["sweep.runs"] != 1 {
		t.Errorf("registry counters off: %+v", s.Counters)
	}
	if s.Histograms["sweep.point.simulate"].Count != int64(res.Configs) {
		t.Errorf("sweep.point.simulate count = %d, want %d",
			s.Histograms["sweep.point.simulate"].Count, res.Configs)
	}
	if s.Histograms["store.flush"].Count != 1 || s.Counters["store.flush.entries"] != int64(res.Configs) {
		t.Errorf("store flush metrics off: %+v / %+v", s.Histograms["store.flush"], s.Counters)
	}
	if s.Gauges["sweep.workers.busy"] != 0 {
		t.Errorf("workers still busy after sweep: %d", s.Gauges["sweep.workers.busy"])
	}

	// A warm instrumented re-sweep is all cache hits, loaded from disk.
	warm, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timing.Cached.Count != int64(warm.Configs) || warm.Timing.Simulated.Count != 0 {
		t.Errorf("warm sweep split = %d simulated / %d cached, want 0 / %d",
			warm.Timing.Simulated.Count, warm.Timing.Cached.Count, warm.Configs)
	}
	if warm.Timing.LoadBytes <= 0 {
		t.Errorf("warm sweep loaded a store but LoadBytes = %d", warm.Timing.LoadBytes)
	}

	// Wire-form gate: "timing" appears iff the sweep was instrumented.
	instr, err := res.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(instr, []byte(`"timing"`)) {
		t.Error("instrumented sweep JSON lacks the timing block")
	}
	plain, err := Sweep(spec, SweepOptions{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := plain.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plainJSON, []byte(`"timing"`)) {
		t.Error("uninstrumented sweep JSON grew a timing block")
	}
}

// TestSweepJournal pins the journal lifecycle: sweep_start, per-point
// events in specification order, store_flush, sweep_end — cold and warm.
func TestSweepJournal(t *testing.T) {
	spec := diskSpec()
	cfgs := spec.Expand()
	dir := t.TempDir()

	var cold bytes.Buffer
	res, err := Sweep(spec, SweepOptions{Workers: 4, Cache: NewCache(), CacheDir: dir,
		Journal: telemetry.NewJournal(&cold)})
	if err != nil {
		t.Fatal(err)
	}
	events := journalLines(t, &cold)
	want := []string{"sweep_start"}
	for range cfgs {
		want = append(want, "point")
	}
	want = append(want, "store_flush", "sweep_end")
	if got := eventNames(events); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("cold event sequence = %v, want %v", got, want)
	}
	for i, e := range events[1 : 1+len(cfgs)] {
		if int(e["i"].(float64)) != i+1 || int(e["of"].(float64)) != len(cfgs) {
			t.Errorf("point %d out of order: %v", i, e)
		}
		if e["key"].(string) != cfgs[i].Key() {
			t.Errorf("point %d key = %v, want %s", i, e["key"], cfgs[i].Key())
		}
		if e["cached"].(bool) {
			t.Errorf("cold point %d reported cached", i)
		}
		if e["seconds"].(float64) <= 0 {
			t.Errorf("point %d has no duration: %v", i, e)
		}
	}
	flush := events[1+len(cfgs)]
	if int(flush["entries"].(float64)) != res.DiskSaved || flush["partial"] != nil {
		t.Errorf("flush event off: %v (saved %d)", flush, res.DiskSaved)
	}
	end := events[len(events)-1]
	if int(end["cacheMisses"].(float64)) != len(cfgs) || end["error"] != nil {
		t.Errorf("sweep_end off: %v", end)
	}

	// Warm re-run from disk: a store_load event, every point cached.
	var warm bytes.Buffer
	if _, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir,
		Journal: telemetry.NewJournal(&warm)}); err != nil {
		t.Fatal(err)
	}
	warmEvents := journalLines(t, &warm)
	names := eventNames(warmEvents)
	if names[1] != "store_load" {
		t.Fatalf("warm sequence missing store_load: %v", names)
	}
	cachedPoints := 0
	for _, e := range warmEvents {
		if e["event"] == "point" && e["cached"].(bool) {
			cachedPoints++
		}
		if e["event"] == "store_flush" && e["unchanged"] != true {
			t.Errorf("warm flush should be unchanged: %v", e)
		}
	}
	if cachedPoints != len(cfgs) {
		t.Errorf("warm sweep journaled %d cached points, want %d", cachedPoints, len(cfgs))
	}
}

// TestSweepJournalErrorPath pins observability of failure: a sweep that
// dies mid-grid still journals the failing point (with its error), the
// partial flush of completed results, and a sweep_end carrying the
// error the caller sees.
func TestSweepJournalErrorPath(t *testing.T) {
	spec := diskSpec()
	cfgs := spec.Expand()
	last := cfgs[len(cfgs)-1]

	cache := NewCache()
	boom := errors.New("injected simulator failure")
	cache.mu.Lock()
	cache.m[last.Hash()] = cacheEntry{err: boom}
	cache.mu.Unlock()

	dir := t.TempDir()
	var buf bytes.Buffer
	var progressCalls int
	_, err := Sweep(spec, SweepOptions{Workers: 1, Cache: cache, CacheDir: dir,
		Journal:  telemetry.NewJournal(&buf),
		Progress: func(done, total int, cached bool) { progressCalls++ }})
	if !errors.Is(err, boom) {
		t.Fatalf("sweep error = %v, want the injected failure", err)
	}
	// The failing point still produced a completion callback.
	if progressCalls != len(cfgs) {
		t.Errorf("progress fired %d times, want %d (failure included)", progressCalls, len(cfgs))
	}

	events := journalLines(t, &buf)
	var pointErrs, flushes, ends int
	for _, e := range events {
		switch e["event"] {
		case "point":
			if e["error"] != nil {
				pointErrs++
				if !strings.Contains(e["error"].(string), "injected") {
					t.Errorf("point error lost the cause: %v", e)
				}
			}
		case "store_flush":
			flushes++
			if e["partial"] != true {
				t.Errorf("failed sweep's flush not marked partial: %v", e)
			}
			if int(e["entries"].(float64)) != len(cfgs)-1 {
				t.Errorf("partial flush persisted %v entries, want %d", e["entries"], len(cfgs)-1)
			}
		case "sweep_end":
			ends++
			if e["error"] == nil || !strings.Contains(e["error"].(string), "injected") {
				t.Errorf("sweep_end lost the error: %v", e)
			}
		}
	}
	if pointErrs != 1 || flushes != 1 || ends != 1 {
		t.Errorf("error-path events: %d point errors, %d flushes, %d ends (want 1 each)",
			pointErrs, flushes, ends)
	}
}

// TestSweepProgressSlowCallback pins the satellite fix: Progress runs
// outside the internal bookkeeping lock, and a deliberately slow
// callback still sees every point in specification order.
func TestSweepProgressSlowCallback(t *testing.T) {
	spec := diskSpec()
	total := len(spec.Expand())
	var mu sync.Mutex
	var dones []int
	if _, err := Sweep(spec, SweepOptions{Workers: 4, Cache: NewCache(),
		Progress: func(done, totalArg int, cached bool) {
			time.Sleep(time.Millisecond)
			mu.Lock()
			dones = append(dones, done)
			mu.Unlock()
		}}); err != nil {
		t.Fatal(err)
	}
	if len(dones) != total {
		t.Fatalf("%d progress calls, want %d", len(dones), total)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("slow callback broke ordering at %d: %v", i, dones)
		}
	}
}
