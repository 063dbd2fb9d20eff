package dse

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
)

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
	if s.Histograms["store.flush"].Count != 1 || res.DiskSaved != res.Configs {
		t.Errorf("store flush off: %+v, %d of %d configs saved", s.Histograms["store.flush"], res.DiskSaved, res.Configs)
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
