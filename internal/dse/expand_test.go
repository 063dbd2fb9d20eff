package dse

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// assertExpandEquivalent proves the factored Expand and the brute-force
// odometer emit the identical config slice: same members, same
// first-occurrence order, same memoized keys. This is the contract that
// lets the factored path replace the cross-product everywhere.
func assertExpandEquivalent(t *testing.T, name string, spec SweepSpec) {
	t.Helper()
	got := spec.Expand()
	want := spec.expandBrute()
	if len(got) != len(want) {
		t.Fatalf("%s: factored Expand = %d configs, brute = %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: config %d differs:\n  factored: %+v\n  brute:    %+v",
				name, i, got[i], want[i])
		}
		if got[i].key == "" {
			t.Fatalf("%s: config %d emitted without a memoized key", name, i)
		}
		if got[i].key != want[i].Key() {
			t.Fatalf("%s: config %d memoized key %q != brute key %q",
				name, i, got[i].key, want[i].Key())
		}
	}
}

func TestExpandFactoredMatchesBrute(t *testing.T) {
	cases := map[string]SweepSpec{
		"full":    FullSweep(),
		"default": DefaultSweep(),
		"small":   smallSpec(),
		// The zero spec: everything normalizes to defaults.
		"empty": {},
		// A single architecture with no relevant option axes: the
		// factored grid collapses to the workload axis alone.
		"baseline-only": {
			Archs:        []sim.Arch{sim.Baseline},
			CacheBytes:   []int{1 << 10, 4 << 10, 16 << 10},
			MonteWidths:  []int{8, 16, 32, 64},
			BillieDigits: []int{1, 3, 5},
		},
		// Duplicate archs and curves in the spec: the global seen map
		// must absorb the repeats identically on both paths.
		"duplicates": {
			Archs:      []sim.Arch{sim.WithMonte, sim.WithMonte, sim.Baseline},
			Curves:     []string{"P-192", "P-192", "B-163"},
			CacheBytes: []int{1 << 10, 1 << 10},
		},
		// Values that canonicalize onto each other: 0 and 4096 are the
		// same cache, 16 is the elided default line, sign-verify is the
		// elided default workload. Per-axis dedup must collapse them
		// without disturbing first-occurrence order.
		"collapsing": {
			Archs:          []sim.Arch{sim.ISAExtCache, sim.WithBillie},
			Curves:         []string{"P-256", "B-283"},
			CacheBytes:     []int{0, 4096, 1 << 10},
			CacheLineBytes: []int{16, 32},
			Workloads:      []string{sim.WorkloadSignVerify, "ecdh"},
		},
		// Ideal-cache on: prefetch and line become value-conditionally
		// irrelevant, below the arch-level factoring, so the seen map
		// (not the live-axis set) must do the collapsing.
		"ideal-folds-prefetch": {
			Archs:          []sim.Arch{sim.ISAExtCache},
			Curves:         []string{"P-192"},
			Prefetch:       []bool{false, true},
			IdealCache:     []bool{false, true},
			CacheLineBytes: []int{16, 32, 64},
		},
	}
	for name, spec := range cases {
		assertExpandEquivalent(t, name, spec)
	}
}

// randomSpec draws a spec with a random subset of axes populated —
// including empty (default-only) subsets, single-arch specs, duplicate
// values, and canonically-colliding values — from a seeded source so
// failures reproduce.
func randomSpec(rng *rand.Rand) SweepSpec {
	pick := func(k int, vs []int) []int {
		if k == 0 {
			return nil
		}
		out := make([]int, k)
		for i := range out {
			out[i] = vs[rng.Intn(len(vs))]
		}
		return out
	}
	pickBools := func(k int) []bool {
		if k == 0 {
			return nil
		}
		out := make([]bool, k)
		for i := range out {
			out[i] = rng.Intn(2) == 1
		}
		return out
	}
	allArchs := AllArchs()
	archs := make([]sim.Arch, 1+rng.Intn(3))
	for i := range archs {
		archs[i] = allArchs[rng.Intn(len(allArchs))]
	}
	allCurves := AllCurves()
	curves := make([]string, 1+rng.Intn(3))
	for i := range curves {
		curves[i] = allCurves[rng.Intn(len(allCurves))]
	}
	var workloads []string
	if k := rng.Intn(3); k > 0 {
		all := sim.Workloads()
		workloads = make([]string, k)
		for i := range workloads {
			workloads[i] = all[rng.Intn(len(all))]
		}
	}
	// 0 draws an axis empty (default-only); the value pools include the
	// canonical aliases (cache 0 = 4096, line 16 = elided).
	return SweepSpec{
		Archs:          archs,
		Curves:         curves,
		CacheBytes:     pick(rng.Intn(3), []int{0, 1 << 10, 4 << 10, 16 << 10}),
		Prefetch:       pickBools(rng.Intn(3)),
		IdealCache:     pickBools(rng.Intn(3)),
		DoubleBuffer:   pickBools(rng.Intn(3)),
		MonteWidths:    pick(rng.Intn(3), []int{8, 16, 32, 64}),
		BillieDigits:   pick(rng.Intn(3), []int{1, 2, 3, 8}),
		GateAccelIdle:  pickBools(rng.Intn(3)),
		CacheLineBytes: pick(rng.Intn(3), []int{16, 32, 64}),
		Workloads:      workloads,
	}
}

func TestExpandFactoredMatchesBruteRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(0x15Fa55))
	for i := 0; i < 200; i++ {
		spec := randomSpec(rng)
		assertExpandEquivalent(t, fmt.Sprintf("random-%d (%+v)", i, spec), spec)
	}
}

// FuzzExpandEquivalence lets the fuzzer steer the spec shape: the seed
// bytes select axis subset sizes and values through a deterministic
// decoder, so any corpus entry is a reproducible spec.
func FuzzExpandEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		spec := randomSpec(rng)
		got := spec.Expand()
		want := spec.expandBrute()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: factored Expand diverges from brute odometer:\nspec %+v\nfactored %d configs, brute %d",
				seed, spec, len(got), len(want))
		}
	})
}

// TestRelevantAxesPerArch pins each architecture's factored axis set.
// Baseline's single relevant axis (the workload) is what makes its
// factored grid one point per curve per workload instead of the full
// option cross-product; an axis that forgets its archRelevant predicate
// re-inflates every row here and fails loudly.
func TestRelevantAxesPerArch(t *testing.T) {
	want := map[sim.Arch][]string{
		sim.Baseline:    {"workload"},
		sim.ISAExt:      {"workload"},
		sim.ISAExtCache: {"cache", "prefetch", "ideal-cache", "line", "workload"},
		sim.WithMonte:   {"no-double-buffer", "width", "gate-accel-idle", "workload"},
		sim.WithBillie:  {"digit", "gate-accel-idle", "workload"},
	}
	for _, a := range AllArchs() {
		if got := RelevantAxisFlags(a); !reflect.DeepEqual(got, want[a]) {
			t.Errorf("RelevantAxisFlags(%s) = %v, want %v", a, got, want[a])
		}
	}
}

// TestArchRelevantBoundsRelevant enforces the registry contract that
// archRelevant over-approximates relevant: no canonical config may have
// an axis relevant while its architecture bound says never. A violation
// would make factored expansion silently drop real design points.
func TestArchRelevantBoundsRelevant(t *testing.T) {
	for _, cfg := range FullSweep().Expand() {
		cfg := cfg.Canonical()
		for _, ax := range axes {
			if ax.relevant == nil || ax.archRelevant == nil {
				continue
			}
			if ax.relevant(&cfg) && !ax.archRelevant(cfg.Arch) {
				t.Errorf("axis %s: relevant on %s but archRelevant excludes the architecture (key %s)",
					ax.Name, cfg.Arch, cfg.Key())
			}
		}
	}
}

// TestConfigKeyMemoized proves the memo is transparent: an expanded
// config's Key equals a fresh render of the same config with the memo
// stripped, and deriving a new workload drops the memo.
func TestConfigKeyMemoized(t *testing.T) {
	for _, cfg := range smallSpec().Expand() {
		bare := Config{Arch: cfg.Arch, Curve: cfg.Curve, Opt: cfg.Opt}
		if cfg.Key() != bare.Key() {
			t.Errorf("memoized key %q != fresh render %q", cfg.Key(), bare.Key())
		}
		derived := cfg.WithWorkload("ecdh")
		wantDerived := Config{Arch: cfg.Arch, Curve: cfg.Curve, Opt: cfg.Opt}
		wantDerived.Opt.Workload = "ecdh"
		if derived.Key() != wantDerived.Key() {
			t.Errorf("WithWorkload kept a stale key: %q != %q", derived.Key(), wantDerived.Key())
		}
	}
}

// TestExpandAllocs pins the allocation budget of expanding the full
// design-space grid: 734 allocs/op on go1.24 for 530 configs, budgeted
// at 770 (5%). One extra allocation per config or per raw grid point
// blows through it.
func TestExpandAllocs(t *testing.T) {
	spec := FullSweep()
	allocs := testing.AllocsPerRun(10, func() {
		_ = spec.Expand()
	})
	if allocs > 770 {
		t.Errorf("FullSweep Expand = %.1f allocs/op, want <= 770", allocs)
	}
}

// TestConfigKeyAllocs pins the allocation budget of a cold key render
// (the memo-less worst case): at most 2 allocations, down from 11 in
// the per-token string rendering this replaced.
func TestConfigKeyAllocs(t *testing.T) {
	cfg := Config{Arch: sim.WithMonte, Curve: "P-256",
		Opt: sim.Options{MonteWidth: 16, GateAccelIdle: true, Workload: sim.WorkloadHandshake}}
	allocs := testing.AllocsPerRun(100, func() {
		_ = cfg.Key()
	})
	if allocs > 2 {
		t.Errorf("cold Config.Key() = %.1f allocs/op, want <= 2", allocs)
	}
	memo := smallSpec().Expand()[0]
	allocs = testing.AllocsPerRun(100, func() {
		_ = memo.Key()
	})
	if allocs != 0 {
		t.Errorf("memoized Config.Key() = %.1f allocs/op, want 0", allocs)
	}
}

// expandBrute is the plain cross-product odometer over every registered
// axis — dimensions and options alike, in registry order — with
// validity checked per raw point and Canonical plus a key render per
// point. It is the oracle the factored Expand is proven against —
// O(RawPoints) where Expand is O(unique) — and as the reference
// semantics for what a spec means.
func (s SweepSpec) expandBrute() []Config {
	n := s.normalized()
	vals := make([][]axisValue, len(axes))
	for i, ax := range axes {
		vals[i] = ax.values(&n)
	}
	seen := make(map[string]bool)
	var out []Config
	idx := make([]int, len(axes))
	buf := make([]byte, 0, keyBufCap)
	var scratch Config
	for {
		scratch = Config{}
		for i, ax := range axes {
			ax.set(&scratch, vals[i][idx[i]])
		}
		if scratch.Valid() {
			scratch.canonicalize()
			buf = scratch.appendKeyTo(buf[:0])
			if !seen[string(buf)] {
				key := string(buf)
				seen[key] = true
				cfg := scratch
				cfg.key = key
				out = append(out, cfg)
			}
		}
		// Odometer step: the last axis is least significant.
		k := len(axes) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(vals[k]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			break
		}
	}
	return out
}
