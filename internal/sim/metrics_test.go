package sim

import (
	"testing"

	"repro/internal/telemetry"
)

// TestRunRecordsCensusVsPricingSplit checks the metrics hook: with a
// registry installed, Run records per-phase profile (census) and
// pricing timings plus the assembly cost — and, crucially, the results
// themselves are bit-identical to an uninstrumented run (timing is
// carried out-of-band, never inside Result).
func TestRunRecordsCensusVsPricingSplit(t *testing.T) {
	plain, err := Run(WithMonte, "P-192", Options{Workload: WorkloadHandshake})
	if err != nil {
		t.Fatal(err)
	}

	reg := telemetry.New()
	SetMetrics(reg)
	defer SetMetrics(nil)
	// The plain run above memoized its census; drop it so the
	// instrumented runs record their profile timings from scratch.
	ResetCensusMemo()

	instrumented, err := Run(WithMonte, "P-192", Options{Workload: WorkloadHandshake})
	if err != nil {
		t.Fatal(err)
	}
	// Binary family goes through the same hook.
	if _, err := Run(WithBillie, "B-163", Options{}); err != nil {
		t.Fatal(err)
	}
	// A config differing only in hardware knobs shares its census: this
	// run's four phases must be memo hits, not new profile executions.
	hitOpt := Options{Workload: WorkloadHandshake, MonteWidth: 16}
	if _, err := Run(WithMonte, "P-192", hitOpt); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	// Misses count (curve, phase) entries: 4 on P-192 and 2 on B-163.
	if s.Counters["sim.census.misses"] != 6 || s.Counters["sim.census.hits"] != 4 {
		t.Errorf("census memo counters = %d hits / %d misses, want 4 / 6",
			s.Counters["sim.census.hits"], s.Counters["sim.census.misses"])
	}
	// Handshake profiles all four phases once (the memo-hit run prices
	// them again without re-profiling); sign-verify adds to the sign and
	// verify pricing counts.
	wantCounts := map[string]int64{
		"sim.profile.keygen": 1, "sim.profile.ecdh": 1,
		"sim.profile.sign": 2, "sim.profile.verify": 2,
		"sim.price.keygen": 2, "sim.price.ecdh": 2,
		"sim.price.sign": 3, "sim.price.verify": 3,
		"sim.assemble": 3, "sim.run": 3,
	}
	for name, want := range wantCounts {
		if got := s.Histograms[name].Count; got != want {
			t.Errorf("%s count = %d, want %d", name, got, want)
		}
	}
	// The census (real crypto execution) dominates pricing (integer
	// arithmetic over the census) by orders of magnitude; the split only
	// earns its keep if the numbers show that.
	if prof, price := s.Histograms["sim.profile.sign"].SumS, s.Histograms["sim.price.sign"].SumS; prof <= price {
		t.Errorf("profile sum %g <= price sum %g; census should dominate", prof, price)
	}

	// Out-of-band contract: the instrumented result is the plain result.
	if instrumented.TotalCycles() != plain.TotalCycles() ||
		instrumented.TotalEnergy() != plain.TotalEnergy() ||
		len(instrumented.Phases) != len(plain.Phases) {
		t.Errorf("instrumented run diverged: %+v vs %+v", instrumented, plain)
	}
}
