package sim

import (
	"testing"
)

// TestWorkloadRegistry pins the shipped workload set and the
// default-name canonicalization the dse hash stability depends on.
func TestWorkloadRegistry(t *testing.T) {
	want := []string{WorkloadSignVerify, WorkloadKeyGen, WorkloadECDH, WorkloadHandshake}
	got := Workloads()
	if len(got) != len(want) {
		t.Fatalf("Workloads() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Workloads() = %v, want %v", got, want)
		}
	}
	if CanonicalWorkload("") != WorkloadSignVerify {
		t.Error("empty workload must canonicalize to the default")
	}
	if !KnownWorkload("") || !KnownWorkload(WorkloadHandshake) {
		t.Error("empty and shipped names must be known")
	}
	if KnownWorkload("tls13") {
		t.Error("unknown workload name accepted")
	}
}

// TestWorkloadPhases checks every workload's phase list on both curve
// families: the right phases in the right order, each with nonzero cost.
func TestWorkloadPhases(t *testing.T) {
	wantPhases := map[string][]string{
		WorkloadSignVerify: {PhaseSign, PhaseVerify},
		WorkloadKeyGen:     {PhaseKeyGen},
		WorkloadECDH:       {PhaseECDH},
		WorkloadHandshake:  {PhaseKeyGen, PhaseECDH, PhaseSign, PhaseVerify},
	}
	for _, curve := range []string{"P-192", "B-163"} {
		for wl, phases := range wantPhases {
			o := DefaultOptions()
			o.Workload = wl
			r := run(t, Baseline, curve, o)
			if r.Workload != wl {
				t.Errorf("%s/%s: Result.Workload = %q", curve, wl, r.Workload)
			}
			if len(r.Phases) != len(phases) {
				t.Fatalf("%s/%s: %d phases, want %d", curve, wl, len(r.Phases), len(phases))
			}
			for i, name := range phases {
				ph := r.Phases[i]
				if ph.Name != name {
					t.Errorf("%s/%s: phase %d = %q, want %q", curve, wl, i, ph.Name, name)
				}
				if ph.Cycles == 0 || ph.Energy.Total() <= 0 {
					t.Errorf("%s/%s: degenerate phase %q: %+v", curve, wl, name, ph)
				}
			}
		}
	}
}

// TestHandshakeEqualsSumOfPhases cross-checks the handshake workload: the
// combined totals must equal the sum over its phases, and the sign and
// verify phases must be priced identically to the standalone Sign+Verify
// workload (same curve, same deterministic key — the phases are views of
// the same operations).
func TestHandshakeEqualsSumOfPhases(t *testing.T) {
	for _, tc := range []struct {
		arch  Arch
		curve string
	}{
		{Baseline, "P-192"},
		{WithMonte, "P-256"},
		{WithBillie, "B-163"},
	} {
		hs := DefaultOptions()
		hs.Workload = WorkloadHandshake
		r := run(t, tc.arch, tc.curve, hs)

		var cycles uint64
		var energyJ float64
		bdTotal := 0.0
		for _, ph := range r.Phases {
			cycles += ph.Cycles
			energyJ += ph.Energy.Total()
			bdTotal += ph.Energy.Total()
		}
		if r.TotalCycles() != cycles {
			t.Errorf("%v/%s: TotalCycles %d != phase sum %d", tc.arch, tc.curve, r.TotalCycles(), cycles)
		}
		if r.TotalEnergy() != energyJ {
			t.Errorf("%v/%s: TotalEnergy %g != phase sum %g", tc.arch, tc.curve, r.TotalEnergy(), energyJ)
		}
		if got := r.CombinedBreakdown().Total(); !closeEnough(got, bdTotal) {
			t.Errorf("%v/%s: CombinedBreakdown %g != phase sum %g", tc.arch, tc.curve, got, bdTotal)
		}

		sv := run(t, tc.arch, tc.curve, DefaultOptions())
		if r.SignCycles() != sv.SignCycles() || r.VerifyCycles() != sv.VerifyCycles() {
			t.Errorf("%v/%s: handshake sign/verify phases (%d/%d) differ from the Sign+Verify workload (%d/%d)",
				tc.arch, tc.curve, r.SignCycles(), r.VerifyCycles(), sv.SignCycles(), sv.VerifyCycles())
		}
		for _, name := range []string{PhaseSign, PhaseVerify} {
			hp, _ := r.Phase(name)
			svp, _ := sv.Phase(name)
			if hp != svp {
				t.Errorf("%v/%s: handshake %s phase %+v differs from the Sign+Verify workload's %+v",
					tc.arch, tc.curve, name, hp, svp)
			}
		}
		if r.TotalEnergy() <= sv.TotalEnergy() {
			t.Errorf("%v/%s: handshake (%g J) should cost more than Sign+Verify (%g J)",
				tc.arch, tc.curve, r.TotalEnergy(), sv.TotalEnergy())
		}
	}
}

// closeEnough absorbs the float associativity difference between summing
// phase totals and summing per-component sums.
func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*(a+b)
}

// TestECDHIsOneScalarMult pins the new scenario's shape: ECDH and key
// generation each cost roughly one scalar multiplication — about half a
// signature+verification (one single + one twin multiplication).
func TestECDHIsOneScalarMult(t *testing.T) {
	sv := run(t, Baseline, "P-256", DefaultOptions())
	for _, wl := range []string{WorkloadECDH, WorkloadKeyGen} {
		o := DefaultOptions()
		o.Workload = wl
		r := run(t, Baseline, "P-256", o)
		ratio := float64(r.TotalCycles()) / float64(sv.TotalCycles())
		if ratio < 0.25 || ratio > 0.55 {
			t.Errorf("%s cycles = %.2fx of Sign+Verify, want ~0.4x", wl, ratio)
		}
	}
}

// TestSignVerifyAccessorsAbsentPhases: workloads without sign/verify
// phases report zero through the view accessors rather than failing.
func TestSignVerifyAccessorsAbsentPhases(t *testing.T) {
	o := DefaultOptions()
	o.Workload = WorkloadKeyGen
	r := run(t, Baseline, "P-192", o)
	if r.SignCycles() != 0 || r.VerifyCycles() != 0 {
		t.Errorf("keygen workload should have no sign/verify phases: %d/%d",
			r.SignCycles(), r.VerifyCycles())
	}
	for _, name := range []string{PhaseSign, PhaseVerify} {
		if _, ok := r.Phase(name); ok {
			t.Errorf("keygen workload has a %s phase", name)
		}
	}
	if r.TotalCycles() == 0 {
		t.Error("keygen workload must still have nonzero total cycles")
	}
}
