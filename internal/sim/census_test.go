package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf2"
	"repro/internal/mp"
	"repro/internal/telemetry"
)

// allArches is every Arch value, valid and invalid pairings included —
// the equivalence matrix must prove the memo preserves errors too.
var allArches = []Arch{
	Baseline, ISAExt, ISAExtCache, WithMonte, WithBillie, BaselineCache, MonteCache,
}

func allCurves() []string {
	out := append([]string{}, ec.PrimeCurveNames...)
	return append(out, ec.BinaryCurveNames...)
}

// TestCensusMemoEquivalence is the tentpole's bit-exactness pin: over the
// full arch x curve x workload matrix, a memo-served Run must be
// reflect.DeepEqual to a fresh-profiled Run — results and errors alike.
// The memo may only change speed, never a single byte of output. The
// fresh side resets the memo before every Run. Both sides profile on the
// census field implementation; TestCensusMemoPhaseInvariance covers
// every other one.
func TestCensusMemoEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh-profiles the full arch x curve x workload matrix")
	}
	ResetCensusMemo()
	defer ResetCensusMemo()

	type cell struct {
		res Result
		err error
	}
	run := func(fresh bool) map[string]cell {
		out := make(map[string]cell)
		for _, arch := range allArches {
			for _, curve := range allCurves() {
				for _, wl := range Workloads() {
					if fresh {
						ResetCensusMemo()
					}
					res, err := Run(arch, curve, Options{Workload: wl})
					out[fmt.Sprintf("%s/%s/%s", arch, curve, wl)] = cell{res, err}
				}
			}
		}
		return out
	}

	memoized := run(false)
	if h, m := CensusMemoStats(); h == 0 || m == 0 {
		t.Fatalf("matrix exercised the memo poorly: %d hits, %d misses", h, m)
	}
	fresh := run(true)

	if len(memoized) != len(fresh) {
		t.Fatalf("matrix sizes differ: %d vs %d", len(memoized), len(fresh))
	}
	for key, m := range memoized {
		f := fresh[key]
		if (m.err == nil) != (f.err == nil) ||
			(m.err != nil && m.err.Error() != f.err.Error()) {
			t.Errorf("%s: memo err %v, fresh err %v", key, m.err, f.err)
			continue
		}
		if !reflect.DeepEqual(m.res, f.res) {
			t.Errorf("%s: memoized result diverges from fresh profile:\n  memo:  %+v\n  fresh: %+v",
				key, m.res, f.res)
		}
	}
}

// TestCensusMemoPhaseInvariance is the proof the memo's (curve, phase)
// key rests on: for every curve, every multiplication algorithm of its
// family and every workload, each phase's census and curve sizes equal
// the (curve, phase) reference profiled on the census field
// implementation. The fresh side of TestCensusMemoEquivalence profiles
// on that same implementation, so only this test can catch a census that
// depends on the algorithm or the workload. Every sign/verify-closed
// subset of the phases is checked too: a memo miss profiles exactly the
// missing entries in one pass.
func TestCensusMemoPhaseInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every curve x mul-alg x workload")
	}
	var subsets [][]string
	for mask := 1; mask < 8; mask++ {
		var phases []string
		for i, group := range [][]string{{PhaseKeyGen}, {PhaseECDH}, {PhaseSign, PhaseVerify}} {
			if mask&(1<<i) != 0 {
				phases = append(phases, group...)
			}
		}
		subsets = append(subsets, phases)
	}

	for _, curve := range allCurves() {
		t.Run(curve, func(t *testing.T) {
			t.Parallel()
			refProf, err := profileCurve(curve, profileOrder)
			if err != nil {
				t.Fatalf("%s reference: %v", curve, err)
			}
			ref := make(map[string]profiledPhase)
			for _, ph := range refProf.phases {
				ref[ph.name] = ph
			}
			check := func(label string, got []profiledPhase, phases []string, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(got) != len(phases) {
					t.Fatalf("%s: profiled %d phases, want %d", label, len(got), len(phases))
				}
				for i, ph := range got {
					if ph.name != phases[i] || !reflect.DeepEqual(ph, ref[ph.name]) {
						t.Errorf("%s: phase %s census %+v, want %+v", label, ph.name, ph.census, ref[ph.name].census)
					}
				}
			}
			for _, phases := range subsets {
				prof, err := profileCurve(curve, phases)
				check(fmt.Sprint(phases), prof.phases, phases, err)
			}
			for _, wl := range workloadDefs {
				if IsPrimeCurve(curve) {
					for _, alg := range []mp.MulAlg{mp.OSNIST, mp.PSNIST, mp.CIOS, mp.FIPS} {
						c := ec.NISTPrimeCurve(curve, alg)
						got, err := profileWorkload(curve, primeOps(c), wl.phases)
						check(alg.String()+"/"+wl.name, got, wl.phases, err)
					}
					continue
				}
				for _, alg := range []gf2.MulAlg{gf2.Comb, gf2.CLMul} {
					c := ec.NISTBinaryCurve(curve, alg)
					got, err := profileWorkload(curve, binaryOps(c), wl.phases)
					check(alg.String()+"/"+wl.name, got, wl.phases, err)
				}
			}
		})
	}
}

// TestCensusMemoErrorSemantics pins the memo's error-entry contract
// (mirroring dse.Cache): a profile error is remembered and re-served
// without re-profiling, its first serve counted as the entry's miss and
// no serve as a hit. Phases a failing pass completed before the error are
// published as good entries, unserved until a lookup names them.
func TestCensusMemoErrorSemantics(t *testing.T) {
	ResetCensusMemo()
	defer ResetCensusMemo()

	boom := errors.New("profiler exploded")
	calls := 0
	failing := func(string, []string) (censusProfile, error) {
		calls++
		return censusProfile{}, boom
	}
	keygen := []string{PhaseKeyGen}

	if _, err := censuses.get("P-000", keygen, failing); err != boom {
		t.Fatalf("first get: err = %v, want %v", err, boom)
	}
	if h, m := CensusMemoStats(); h != 0 || m != 1 {
		t.Errorf("after failing profile: %d hits / %d misses, want 0 / 1", h, m)
	}
	if _, err := censuses.get("P-000", keygen, failing); err != boom {
		t.Fatalf("second get: err = %v, want remembered %v", err, boom)
	}
	if calls != 1 {
		t.Errorf("profile ran %d times, want 1 (error must be remembered)", calls)
	}
	if h, m := CensusMemoStats(); h != 0 || m != 1 {
		t.Errorf("re-serving an error moved the counters: %d hits / %d misses, want 0 / 1", h, m)
	}

	// A pass that fails on verify still publishes the sign it completed;
	// the later sign lookup is that entry's first serve, so its miss.
	signOnly := func(_ string, phases []string) (censusProfile, error) {
		if !reflect.DeepEqual(phases, []string{PhaseSign, PhaseVerify}) {
			t.Errorf("profiled %v, want sign and verify together", phases)
		}
		return censusProfile{phases: []profiledPhase{{name: PhaseSign, census: opCensus{mul: 6}}}}, boom
	}
	if _, err := censuses.get("P-000", []string{PhaseVerify}, signOnly); err != boom {
		t.Fatalf("verify get: err = %v, want %v", err, boom)
	}
	prof, err := censuses.get("P-000", []string{PhaseSign}, failing)
	if err != nil || prof.phases[0].census.mul != 6 {
		t.Fatalf("sign get: %+v, %v; want the published sign entry", prof, err)
	}
	if h, m := CensusMemoStats(); h != 0 || m != 3 {
		t.Errorf("counters = %d hits / %d misses, want 0 / 3", h, m)
	}
	if n := CensusMemoLen(); n != 3 {
		t.Errorf("memo holds %d entries, want 3 (error entries included)", n)
	}
}

// TestCensusMemoConcurrent hammers one cold memo from many goroutines
// (run under -race in CI): concurrent misses on the same entry must
// share one pass under the curve's pass lock — exactly one profile per
// (curve, phase) — and every caller must see the identical result.
func TestCensusMemoConcurrent(t *testing.T) {
	ResetCensusMemo()
	defer ResetCensusMemo()

	archs := []Arch{Baseline, ISAExt, WithMonte}
	widths := []int{8, 16, 32, 64}
	const loops = 3

	var wg sync.WaitGroup
	var mu sync.Mutex
	results := make(map[string]Result)
	for _, arch := range archs {
		for _, w := range widths {
			if w != DefaultMonteWidth && arch != WithMonte {
				continue // width is a Monte-only knob
			}
			for i := 0; i < loops; i++ {
				arch, w := arch, w
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := Run(arch, "P-224", Options{MonteWidth: w})
					if err != nil {
						t.Error(err)
						return
					}
					key := fmt.Sprintf("%s/%d", arch, w)
					mu.Lock()
					defer mu.Unlock()
					if prev, ok := results[key]; ok {
						if !reflect.DeepEqual(prev, res) {
							t.Errorf("%s: racing runs diverged", key)
						}
						return
					}
					results[key] = res
				}()
			}
		}
	}
	wg.Wait()

	// The three arch families share one sign and one verify entry;
	// everything else (all the width variants, all the repeat loops) must
	// have been hits.
	if _, m := CensusMemoStats(); m != 2 {
		t.Errorf("memo misses = %d, want 2 (sign and verify, shared by every arch)", m)
	}
	if n := CensusMemoLen(); n != 2 {
		t.Errorf("memo holds %d entries, want 2", n)
	}
}

// TestCensusMemoWorkloadsSharePhases checks that a workload reuses the
// entries another workload paid for: after a sign-verify Run, a handshake
// Run on the same curve profiles only keygen and ecdh.
func TestCensusMemoWorkloadsSharePhases(t *testing.T) {
	ResetCensusMemo()
	defer ResetCensusMemo()

	if _, err := Run(WithBillie, "B-163", Options{}); err != nil {
		t.Fatal(err)
	}
	if n := CensusMemoLen(); n != 2 {
		t.Fatalf("sign-verify left %d entries, want 2", n)
	}
	if _, err := Run(Baseline, "B-163", Options{Workload: WorkloadHandshake}); err != nil {
		t.Fatal(err)
	}
	if n := CensusMemoLen(); n != 4 {
		t.Errorf("handshake grew the memo to %d entries, want 4 (keygen and ecdh added)", n)
	}
	if h, m := CensusMemoStats(); h != 2 || m != 4 {
		t.Errorf("counters = %d hits / %d misses, want 2 / 4", h, m)
	}
}

// TestCensusMemoRacingWorkloads races sign-verify and handshake Runs on
// one cold curve (under -race in CI), alone and alongside WarmCensuses
// calls for the same curve: their phase sets overlap, and every (curve,
// phase) entry must still be profiled exactly once and counted as one
// miss at its first serve.
func TestCensusMemoRacingWorkloads(t *testing.T) {
	for _, warmers := range []int{0, 4} {
		t.Run(fmt.Sprintf("warmers=%d", warmers), func(t *testing.T) {
			ResetCensusMemo()
			defer ResetCensusMemo()
			reg := telemetry.New()
			SetMetrics(reg)
			defer SetMetrics(nil)

			var wg sync.WaitGroup
			for range warmers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					WarmCensuses(map[string][]string{"P-192": Workloads()}, 2)
				}()
			}
			for i := 0; i < 8; i++ {
				wl := []string{WorkloadSignVerify, WorkloadHandshake}[i%2]
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := Run(Baseline, "P-192", Options{Workload: wl}); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()

			s := reg.Snapshot()
			for _, ph := range profileOrder {
				if got := s.Histograms["sim.profile."+ph].Count; got != 1 {
					t.Errorf("%s profiled %d times, want 1", ph, got)
				}
			}
			// 4 sign-verify Runs look up 2 phases, 4 handshakes 4: 24 lookups.
			if h, m := CensusMemoStats(); h != 20 || m != 4 {
				t.Errorf("counters = %d hits / %d misses, want 20 / 4", h, m)
			}
		})
	}
}

// TestCensusMemoWarmUp pins the warm-up contract a sweep relies on:
// filling every workload's phases on a curve is one profile pass over
// all four phases, a second fill profiles nothing, and a fill moves no
// counter, so after the Runs that serve the filled entries hits + misses
// equals their phase lookups and misses equals the entries profiled, as
// if the Runs had missed. WarmCensuses skips an unknown curve or
// workload, leaving it to the Run that serves it.
func TestCensusMemoWarmUp(t *testing.T) {
	ResetCensusMemo()
	defer ResetCensusMemo()
	reg := telemetry.New()
	SetMetrics(reg)
	defer SetMetrics(nil)

	var passes [][]string
	counting := func(curve string, phases []string) (censusProfile, error) {
		passes = append(passes, phases)
		return profileCurve(curve, phases)
	}
	all := Workloads()
	for range 2 {
		censuses.fill("P-192", workloadPhases(all), counting)
	}
	if want := [][]string{profileOrder}; !reflect.DeepEqual(passes, want) {
		t.Fatalf("two fills of every workload profiled %v, want the single pass %v", passes, want)
	}
	if h, m := CensusMemoStats(); h != 0 || m != 0 {
		t.Errorf("warm-up moved the counters: %d hits / %d misses", h, m)
	}

	lookups := 0
	for _, wl := range all {
		for range 2 {
			res, err := Run(Baseline, "P-192", Options{Workload: wl})
			if err != nil {
				t.Fatal(err)
			}
			lookups += len(res.Phases)
		}
	}
	h, m := CensusMemoStats()
	if n := CensusMemoLen(); m != uint64(n) || h+m != uint64(lookups) {
		t.Errorf("counters = %d hits / %d misses over %d lookups and %d entries; want misses = entries and hits + misses = lookups",
			h, m, lookups, n)
	}
	s := reg.Snapshot()
	if s.Counters["sim.census.hits"] != int64(h) || s.Counters["sim.census.misses"] != int64(m) {
		t.Errorf("registry counts %d hits / %d misses, memo %d / %d",
			s.Counters["sim.census.hits"], s.Counters["sim.census.misses"], h, m)
	}
	for _, ph := range profileOrder {
		if got := s.Histograms["sim.profile."+ph].Count; got != 1 {
			t.Errorf("%s profiled %d times, want once, by the warm-up", ph, got)
		}
	}

	ResetCensusMemo()
	WarmCensuses(map[string][]string{"X-1": {WorkloadKeyGen}, "P-192": {"tls13"}}, 0)
	if n := CensusMemoLen(); n != 0 {
		t.Errorf("warming an unknown curve and workload left %d entries, want none", n)
	}
}

// TestFieldBitsRanksCurves pins the warm-up's cost rank: passOrder
// starts the curves widest field first, as their arithmetic defines the
// field size, and an unknown curve last.
func TestFieldBitsRanksCurves(t *testing.T) {
	bits := make(map[string]int)
	for _, name := range ec.PrimeCurveNames {
		bits[name] = ec.NISTPrimeCurve(name, mp.OSNIST).F.Bits
	}
	for _, name := range ec.BinaryCurveNames {
		bits[name] = ec.NISTBinaryCurve(name, gf2.Comb).F.M
	}
	got := passOrder(slices.Values(append([]string{"X-1"}, allCurves()...)))
	if len(got) != len(bits)+1 || got[len(got)-1] != "X-1" {
		t.Fatalf("passOrder = %v, want the ten curves then X-1", got)
	}
	for i := 1; i < len(bits); i++ {
		if bits[got[i-1]] <= bits[got[i]] {
			t.Errorf("passOrder starts %s (%d bits) before %s (%d bits)", got[i-1], bits[got[i-1]], got[i], bits[got[i]])
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestRunMemoHitAllocs pins the allocation budget of a memo-hit Run,
// the marginal cost of every configuration after the first in its
// census class: 18 allocs/op on go1.24, budgeted at 20. A census
// re-profiled on the hit path costs thousands.
func TestRunMemoHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	opt := DefaultOptions()
	MustRun(WithMonte, "P-256", opt) // warm the memo
	allocs := testing.AllocsPerRun(50, func() {
		MustRun(WithMonte, "P-256", opt)
	})
	if allocs > 20 {
		t.Errorf("memo-hit Run = %.1f allocs/op, want <= 20", allocs)
	}
}

// TestCensusAllocs pins the allocation budget of a census miss on the
// largest curve of each family: profiling B-571 or P-521 across all four
// phases makes about 1.04k allocations on go1.24 (1033 and 1050),
// budgeted at 1.2k. Field kernels or point formulas that heap-allocate
// their temporaries cost tens of thousands.
func TestCensusAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	for _, curve := range []string{"B-571", "P-521"} {
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := profileCurve(curve, profileOrder); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1200 {
			t.Errorf("%s census = %.0f allocs, want <= 1200", curve, allocs)
		}
	}
}

// TestAssembleZeroCycleTallyNoNaN pins the degenerate-census guard: a
// phase whose tally prices to zero cycles must produce zero energy and
// zero power, not NaN (activity and DynamicW both divide by the elapsed
// quantity, which is zero here).
func TestAssembleZeroCycleTallyNoNaN(t *testing.T) {
	wl, ok := workloadByName(WorkloadKeyGen)
	if !ok {
		t.Fatal("keygen workload missing")
	}
	res, err := assemble(Baseline, "P-192", DefaultOptions(), wl,
		[]profiledPhase{{name: PhaseKeyGen}}, []tally{{}}, 192)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Phases {
		if total := p.Energy.Total(); math.IsNaN(total) || math.IsInf(total, 0) {
			t.Errorf("phase %s energy = %v, want finite", p.Name, total)
		}
		if math.IsNaN(p.Energy.Pete) {
			t.Errorf("phase %s Pete energy is NaN (activity divided by zero cycles)", p.Name)
		}
	}
	if math.IsNaN(res.Power.DynamicW) || math.IsInf(res.Power.DynamicW, 0) {
		t.Errorf("Power.DynamicW = %v, want finite (zero-duration workload)", res.Power.DynamicW)
	}
	if res.Power.DynamicW != 0 {
		t.Errorf("Power.DynamicW = %v, want 0 for a zero-cycle workload", res.Power.DynamicW)
	}
}
