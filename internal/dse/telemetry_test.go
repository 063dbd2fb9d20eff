package dse

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

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

// TestSweepTimingAndMetrics pins what an instrumented sweep records in
// the registry, cold and then warm from the persistent store: every
// point lands in exactly one of the simulate/cached histograms, each
// store stage is timed and sized, and the results are those of an
// uninstrumented sweep.
func TestSweepTimingAndMetrics(t *testing.T) {
	spec := diskSpec()
	dir := t.TempDir()
	reg := telemetry.New()
	res, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if s.Counters["sweep.points.simulated"] != int64(res.Configs) ||
		s.Counters["sweep.points.cached"] != 0 ||
		s.Counters["sweep.runs"] != 1 {
		t.Errorf("registry counters off: %+v", s.Counters)
	}
	sim := s.Histograms["sweep.point.simulate"]
	if sim.Count != int64(res.Configs) || s.Histograms["sweep.point.cached"].Count != 0 {
		t.Errorf("cold sweep split = %d simulated / %d cached, want %d / 0",
			sim.Count, s.Histograms["sweep.point.cached"].Count, res.Configs)
	}
	if sim.SumS <= 0 || sim.MaxS < sim.P50S {
		t.Errorf("degenerate simulate histogram: %+v", sim)
	}
	if s.Histograms["sweep.expand"].Count != 1 || s.Histograms["store.fingerprint"].Count != 1 {
		t.Errorf("expand/fingerprint observed %d/%d times, want 1/1",
			s.Histograms["sweep.expand"].Count, s.Histograms["store.fingerprint"].Count)
	}
	if s.Histograms["store.flush"].Count != 1 || s.Counters["store.flush.entries"] != int64(res.Configs) {
		t.Errorf("store flush metrics off: %+v / %+v", s.Histograms["store.flush"], s.Counters)
	}
	if s.Counters["store.flush.bytes"] <= 0 {
		t.Errorf("flush wrote a store but store.flush.bytes = %d", s.Counters["store.flush.bytes"])
	}

	// A warm instrumented re-sweep is all cache hits, loaded from disk.
	warmReg := telemetry.New()
	warm, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir, Metrics: warmReg})
	if err != nil {
		t.Fatal(err)
	}
	ws := warmReg.Snapshot()
	if ws.Histograms["sweep.point.cached"].Count != int64(warm.Configs) || ws.Histograms["sweep.point.simulate"].Count != 0 {
		t.Errorf("warm sweep split = %d simulated / %d cached, want 0 / %d",
			ws.Histograms["sweep.point.simulate"].Count, ws.Histograms["sweep.point.cached"].Count, warm.Configs)
	}
	if ws.Histograms["store.load"].Count != 1 || ws.Counters["store.load.bytes"] <= 0 {
		t.Errorf("warm sweep loaded a store but store.load = %+v, store.load.bytes = %d",
			ws.Histograms["store.load"], ws.Counters["store.load.bytes"])
	}

	// Instrumentation is out-of-band: the points match an
	// uninstrumented sweep's byte for byte.
	instr, err := PointsJSON(res.Points)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Sweep(spec, SweepOptions{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := PointsJSON(plain.Points)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(instr, plainJSON) {
		t.Error("instrumented sweep points differ from the uninstrumented sweep's")
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
	_, err := Sweep(spec, SweepOptions{Workers: 1, Cache: cache, CacheDir: dir,
		Journal: telemetry.NewJournal(&buf)})
	if !errors.Is(err, boom) {
		t.Fatalf("sweep error = %v, want the injected failure", err)
	}

	events := journalLines(t, &buf)
	var points, pointErrs, flushes, ends int
	for _, e := range events {
		switch e["event"] {
		case "point":
			// The failing point is journaled like every other one.
			points++
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
	if points != len(cfgs) || pointErrs != 1 || flushes != 1 || ends != 1 {
		t.Errorf("error-path events: %d points, %d point errors, %d flushes, %d ends (want %d, then 1 each)",
			points, pointErrs, flushes, ends, len(cfgs))
	}
}
