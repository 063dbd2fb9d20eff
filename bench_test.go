package repro

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation chapter. Each benchmark regenerates its experiment
// through the simulation stack and reports the headline metric as custom
// benchmark units (uJ per Sign+Verify, cycles, mW), so
// `go test -bench=.` reproduces the whole evaluation.

import (
	"testing"

	"repro/internal/billie"
	"repro/internal/dse"
	"repro/internal/ec"
	"repro/internal/energy"
	"repro/internal/monte"
	"repro/internal/mp"
	"repro/internal/report"
	"repro/internal/sim"
)

func simBench(b *testing.B, arch sim.Arch, curve string, opt sim.Options) {
	b.Helper()
	var r sim.Result
	for i := 0; i < b.N; i++ {
		r = sim.MustRun(arch, curve, opt)
	}
	b.ReportMetric(r.TotalEnergy()*1e6, "uJ/op")
	b.ReportMetric(float64(r.TotalCycles()), "cycles/op")
	b.ReportMetric(r.Power.Total()*1e3, "mW")
}

// --- Table 7.1: prime-field latencies ---

func BenchmarkTable7_1(b *testing.B) {
	opt := sim.DefaultOptions()
	for _, a := range []sim.Arch{sim.Baseline, sim.ISAExt, sim.WithMonte} {
		for _, c := range ec.PrimeCurveNames {
			b.Run(a.String()+"/"+c, func(b *testing.B) { simBench(b, a, c, opt) })
		}
	}
}

// --- Table 7.2: binary-field latencies ---

func BenchmarkTable7_2(b *testing.B) {
	opt := sim.DefaultOptions()
	for _, a := range []sim.Arch{sim.Baseline, sim.ISAExt, sim.WithBillie} {
		for _, c := range ec.BinaryCurveNames {
			b.Run(a.String()+"/"+c, func(b *testing.B) { simBench(b, a, c, opt) })
		}
	}
}

// --- Tables 7.3/7.4 and Figure 7.15: the FFAU datapath-width study ---

func BenchmarkTable7_3_FFAUWidth(b *testing.B) {
	for _, bits := range []int{192, 256, 384} {
		for _, w := range []int{8, 16, 32, 64} {
			b.Run(benchName(bits, w), func(b *testing.B) {
				var e float64
				for i := 0; i < b.N; i++ {
					_, _, e = report.FFAUMontMul(bits, w)
				}
				p := energy.FFAUPower[w][bits]
				b.ReportMetric(e*1e9, "nJ/montmul")
				b.ReportMetric(float64(p.AreaCells), "cells")
			})
		}
	}
}

func BenchmarkTable7_4_FFAUMontMul(b *testing.B) {
	for _, bits := range []int{192, 256, 384} {
		for _, w := range []int{8, 16, 32, 64} {
			b.Run(benchName(bits, w), func(b *testing.B) {
				var p, t, e float64
				for i := 0; i < b.N; i++ {
					p, t, e = report.FFAUMontMul(bits, w)
				}
				b.ReportMetric(p*1e6, "uW")
				b.ReportMetric(t*1e9, "ns/op-modeled")
				b.ReportMetric(e*1e9, "nJ/montmul")
			})
		}
	}
}

func BenchmarkTable7_5_ARMReference(b *testing.B) {
	for _, bits := range []int{192, 256, 384} {
		b.Run(benchName(bits, 32), func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				e = energy.ARMCortexM3PowerW * energy.ARMModMulTimeNs[bits] * 1e-9
			}
			b.ReportMetric(e*1e9, "nJ/montmul")
		})
	}
}

func benchName(bits, w int) string {
	return "k" + itoa(bits) + "/w" + itoa(w)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// --- Figure 7.1: prime-field energy per microarchitecture ---

func BenchmarkFig7_1(b *testing.B) {
	opt := sim.DefaultOptions()
	for _, a := range []sim.Arch{sim.Baseline, sim.ISAExt, sim.ISAExtCache, sim.WithMonte} {
		for _, c := range ec.PrimeCurveNames {
			b.Run(a.String()+"/"+c, func(b *testing.B) { simBench(b, a, c, opt) })
		}
	}
}

// --- Figures 7.2/7.3/7.4: energy breakdowns ---

func BenchmarkFig7_2_Breakdown(b *testing.B) {
	opt := sim.DefaultOptions()
	for _, c := range []string{"P-192", "P-256"} {
		for _, a := range []sim.Arch{sim.Baseline, sim.ISAExt, sim.ISAExtCache, sim.WithMonte} {
			b.Run(c+"/"+a.String(), func(b *testing.B) {
				var r sim.Result
				for i := 0; i < b.N; i++ {
					r = sim.MustRun(a, c, opt)
				}
				bd := r.CombinedBreakdown()
				b.ReportMetric(bd.Pete*1e6, "uJ-pete")
				b.ReportMetric(bd.ROM*1e6, "uJ-rom")
				b.ReportMetric(bd.RAM*1e6, "uJ-ram")
				b.ReportMetric(bd.Accel*1e6, "uJ-accel")
			})
		}
	}
}

// --- Figure 7.5: binary software vs binary ISA extensions ---

func BenchmarkFig7_5(b *testing.B) {
	opt := sim.DefaultOptions()
	for _, a := range []sim.Arch{sim.Baseline, sim.ISAExt} {
		for _, c := range ec.BinaryCurveNames {
			b.Run(a.String()+"/"+c, func(b *testing.B) { simBench(b, a, c, opt) })
		}
	}
}

// --- Figure 7.7: prime vs binary at equal security (+accelerators) ---

func BenchmarkFig7_7(b *testing.B) {
	opt := sim.DefaultOptions()
	for _, pair := range ec.SecurityPairs {
		b.Run(pair.Prime+"/monte", func(b *testing.B) { simBench(b, sim.WithMonte, pair.Prime, opt) })
		b.Run(pair.Binary+"/billie", func(b *testing.B) { simBench(b, sim.WithBillie, pair.Binary, opt) })
	}
}

// --- Figure 7.10: power per configuration ---

func BenchmarkFig7_10_Power(b *testing.B) {
	opt := sim.DefaultOptions()
	rows := []struct {
		arch  sim.Arch
		curve string
	}{
		{sim.Baseline, "P-256"}, {sim.ISAExt, "P-256"},
		{sim.ISAExtCache, "P-256"}, {sim.WithMonte, "P-256"},
		{sim.WithBillie, "B-163"}, {sim.WithBillie, "B-571"},
	}
	for _, row := range rows {
		b.Run(row.arch.String()+"/"+row.curve, func(b *testing.B) {
			var r sim.Result
			for i := 0; i < b.N; i++ {
				r = sim.MustRun(row.arch, row.curve, opt)
			}
			b.ReportMetric(r.Power.StaticW*1e3, "mW-static")
			b.ReportMetric(r.Power.DynamicW*1e3, "mW-dynamic")
		})
	}
}

// --- Figure 7.11: ideal instruction cache ---

func BenchmarkFig7_11_IdealCache(b *testing.B) {
	ideal := sim.DefaultOptions()
	ideal.IdealCache = true
	pairs := []struct {
		real, cached sim.Arch
	}{
		{sim.Baseline, sim.BaselineCache},
		{sim.ISAExt, sim.ISAExtCache},
		{sim.WithMonte, sim.MonteCache},
	}
	for _, c := range []string{"P-192", "P-256", "P-384"} {
		for _, p := range pairs {
			b.Run(p.real.String()+"/"+c, func(b *testing.B) {
				var f float64
				for i := 0; i < b.N; i++ {
					f = sim.MustRun(p.real, c, sim.DefaultOptions()).TotalEnergy() /
						sim.MustRun(p.cached, c, ideal).TotalEnergy()
				}
				b.ReportMetric(f, "improvement-x")
			})
		}
	}
}

// --- Figure 7.12: real instruction-cache sweep ---

func BenchmarkFig7_12_CacheSweep(b *testing.B) {
	for _, kb := range []int{1, 2, 4, 8} {
		for _, pf := range []bool{false, true} {
			name := itoa(kb) + "KB"
			if pf {
				name += "-prefetch"
			}
			b.Run(name, func(b *testing.B) {
				o := sim.DefaultOptions()
				o.CacheBytes = kb * 1024
				o.Prefetch = pf
				simBench(b, sim.ISAExtCache, "P-192", o)
			})
		}
	}
}

// --- Figure 7.14: Billie scalar-multiply performance vs digit size ---

func BenchmarkFig7_14_BillieDigits(b *testing.B) {
	for d := 1; d <= 8; d++ {
		for _, alg := range []string{"sliding-window", "montgomery"} {
			b.Run("D"+itoa(d)+"/"+alg, func(b *testing.B) {
				bl := billie.New(billie.Config{FieldName: "B-163", Digit: d})
				var c uint64
				for i := 0; i < b.N; i++ {
					c = bl.ScalarMultCycles(alg)
				}
				b.ReportMetric(float64(c), "cycles/scalarmult")
			})
		}
	}
}

// --- Section 7.7: double-buffer ablation ---

func BenchmarkSec7_7_DoubleBuffer(b *testing.B) {
	for _, db := range []bool{true, false} {
		name := "off"
		if db {
			name = "on"
		}
		for _, c := range []string{"P-192", "P-384"} {
			b.Run(name+"/"+c, func(b *testing.B) {
				o := sim.DefaultOptions()
				o.DoubleBuffer = db
				simBench(b, sim.WithMonte, c, o)
			})
		}
	}
}

// --- Sweep engine: cold vs warm (disk-cached) exploration ---

// benchSweepSpec is a small width-axis sweep (8 unique configurations)
// used to baseline the cost of exploration with and without the
// persistent result cache.
func benchSweepSpec() dse.SweepSpec {
	return dse.SweepSpec{
		Archs:       []sim.Arch{sim.WithMonte},
		Curves:      []string{"P-192", "P-256"},
		MonteWidths: []int{8, 16, 32, 64},
	}
}

// BenchmarkSweepCold measures a from-scratch sweep: every configuration
// pays the full functional-ECDSA + pricing cost.
func BenchmarkSweepCold(b *testing.B) {
	spec := benchSweepSpec()
	for i := 0; i < b.N; i++ {
		res, err := dse.Sweep(spec, dse.SweepOptions{Cache: dse.NewCache()})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Configs), "configs")
	}
}

// BenchmarkSweepWarmDisk measures the same sweep served entirely from
// the on-disk store through a cold in-memory cache — the restart path a
// persistent CacheDir buys.
//
// This is slower than BenchmarkSweepCold, and that is expected, not a
// cache defect: "cold" here means a cold result cache, but the
// process-wide census memo is warm after the first iteration, so a cold
// sweep of these 8 configs re-prices 8 memoized censuses (~tens of µs
// each, no crypto execution). The warm-disk path instead pays LoadFile,
// whose cost is per-entry encoding/json decoding of each stored
// sim.Result (~3/4 of the sweep time here — BenchmarkStoreLoad isolates
// it, and its CPU profile is almost entirely encoding/json), plus the
// flush-skip check. The census memo made re-pricing cheaper than
// re-decoding at this store size; the store still wins when pricing is
// census-memo-cold (process restart: one functional crypto profile per
// (curve, phase) vs a ~23 µs decode per entry) and its real job
// is durability across processes and byte-identical store contents —
// not beating a warm in-process memo.
func BenchmarkSweepWarmDisk(b *testing.B) {
	spec := benchSweepSpec()
	dir := b.TempDir()
	if _, err := dse.Sweep(spec, dse.SweepOptions{Cache: dse.NewCache(), CacheDir: dir}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dse.Sweep(spec, dse.SweepOptions{Cache: dse.NewCache(), CacheDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if res.CacheMisses != 0 {
			b.Fatalf("warm sweep missed %d configs", res.CacheMisses)
		}
	}
}

// BenchmarkStoreLoad isolates the disk-restart cost the warm sweep
// pays: LoadFile on a store holding the benchmark sweep's 8 results,
// into a cold in-memory cache each iteration.
//
// PR 9 shaved the non-decode overhead off this path: pooling the 64 KB
// scanner buffer and decoding through a Key-less entry view took it
// from 76.3 KB / 175 allocs per load to 8.5 KB / 159 (ns/op unchanged
// within noise at ~170 µs — the remaining cost is encoding/json's
// reflection decode of sim.Result, ~21 µs per entry). A json.Decoder
// variant was measured too: ~40% fewer decode allocations but no ns/op
// win, and it relaxes the one-entry-per-line corruption contract the
// diskcache tests pin, so the line scanner stays.
func BenchmarkStoreLoad(b *testing.B) {
	spec := benchSweepSpec()
	dir := b.TempDir()
	if _, err := dse.Sweep(spec, dse.SweepOptions{Cache: dse.NewCache(), CacheDir: dir}); err != nil {
		b.Fatal(err)
	}
	path := dse.DiskCachePath(dir)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := dse.NewCache().LoadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if n != 8 {
			b.Fatalf("loaded %d entries, want 8", n)
		}
	}
}

// --- Census memoization: the profile-once/price-everywhere split ---

// BenchmarkColdFullSweep measures the full design-space grid from
// scratch with the census memo on: every distinct (curve, phase) pays
// one functional profile run, every other configuration prices memoized
// censuses. This is the headline cold-exploration cost.
func BenchmarkColdFullSweep(b *testing.B) {
	spec := dse.FullSweep()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim.ResetCensusMemo()
		cache := dse.NewCache()
		b.StartTimer()
		res, err := dse.Sweep(spec, dse.SweepOptions{Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Configs), "configs")
		_, misses := sim.CensusMemoStats()
		b.ReportMetric(float64(misses), "profiles")
	}
}

// BenchmarkAdaptiveFrontier measures the coarse-to-fine Pareto-guided
// exploration of the full grid from scratch — the cost of obtaining
// frontiers identical to BenchmarkColdFullSweep's while pricing a
// fraction of its configurations. The evaluated-ratio metric is that
// fraction; the equivalence itself is asserted by the dse tests.
func BenchmarkAdaptiveFrontier(b *testing.B) {
	spec := dse.FullSweep()
	var ar *dse.AdaptiveResult
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sim.ResetCensusMemo()
		cache := dse.NewCache()
		b.StartTimer()
		var err error
		ar, err = dse.AdaptiveSweep(spec, dse.SweepOptions{Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ar.Evaluated), "evaluated")
	b.ReportMetric(float64(ar.Evaluated)/float64(ar.GridConfigs), "evaluated-ratio")
	b.ReportMetric(float64(ar.Rounds), "rounds")
}

// BenchmarkColdFullSweepNoMemo is the same grid with the memo disabled —
// the pre-memoization behavior, where every configuration re-executes
// its functional crypto profile. The ratio against BenchmarkColdFullSweep
// is the memo's speedup.
func BenchmarkColdFullSweepNoMemo(b *testing.B) {
	spec := dse.FullSweep()
	sim.DisableCensusMemo(true)
	defer sim.DisableCensusMemo(false)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache := dse.NewCache()
		b.StartTimer()
		res, err := dse.Sweep(spec, dse.SweepOptions{Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Configs), "configs")
	}
}

// BenchmarkCensusMemoHit isolates the price-only path: one simulation
// whose census is already memoized — the marginal cost of every
// configuration after the first in its census class.
func BenchmarkCensusMemoHit(b *testing.B) {
	opt := sim.DefaultOptions()
	sim.MustRun(sim.WithMonte, "P-256", opt) // warm the memo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.MustRun(sim.WithMonte, "P-256", opt)
	}
}

// BenchmarkCensusProfileMiss is the counterpart: the same simulation
// forced down the fresh-profile path, as every run priced before
// memoization existed.
func BenchmarkCensusProfileMiss(b *testing.B) {
	opt := sim.DefaultOptions()
	sim.DisableCensusMemo(true)
	defer sim.DisableCensusMemo(false)
	for i := 0; i < b.N; i++ {
		sim.MustRun(sim.WithMonte, "P-256", opt)
	}
}

// BenchmarkConfigKey measures the canonical-key rendering — the inner
// loop of every cache lookup, dedup and store write — so
// the cost of the registry-driven rendering stays visible against the
// pre-registry hand-written Sprintf.
func BenchmarkConfigKey(b *testing.B) {
	cfg := dse.Config{Arch: sim.WithMonte, Curve: "P-256",
		Opt: sim.Options{MonteWidth: 16, GateAccelIdle: true, Workload: sim.WorkloadHandshake}}
	_ = cfg.Key() // warm the render pool so 1-iteration CI runs measure steady state
	b.ReportAllocs()
	b.ResetTimer()
	var key string
	for i := 0; i < b.N; i++ {
		key = cfg.Key()
	}
	b.ReportMetric(float64(len(key)), "key-bytes")
}

// BenchmarkExpand measures expanding the full design-space grid —
// cross-product, canonicalization and dedup over every registered axis.
func BenchmarkExpand(b *testing.B) {
	spec := dse.FullSweep()
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(spec.Expand())
	}
	b.ReportMetric(float64(n), "configs")
}

// --- FFAU micro-engine: the width-swept CIOS inner loop ---

// BenchmarkFFAUInnerLoop executes the real CIOS microprogram on the
// micro-engine at every datapath width — the Equation 5.2 inner loop the
// width axis sweeps, as host-CPU cost per modeled multiplication.
func BenchmarkFFAUInnerLoop(b *testing.B) {
	fld := mp.NISTField("P-256", mp.CIOS)
	a := mp.MustHex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", fld.K)
	x := mp.MustHex("fedcba9876543210fedcba9876543210fedcba9876543210fedcba9876543210", fld.K)
	for _, w := range []uint{8, 16, 32, 64} {
		b.Run("w"+itoa(int(w)), func(b *testing.B) {
			n := mp.ToDigits(fld.P, w)
			n0 := mp.N0InvW(n[0], w)
			ad := mp.ToDigits(a, w)
			xd := mp.ToDigits(x, w)
			eng := monte.NewFFAU(w, len(n))
			var cycles uint64
			for i := 0; i < b.N; i++ {
				eng.Cycles = 0
				if _, err := eng.RunCIOS(ad, xd, n, n0); err != nil {
					b.Fatal(err)
				}
				cycles = eng.Cycles
			}
			b.ReportMetric(float64(cycles), "modeled-cycles/montmul")
		})
	}
}

// --- Real-crypto microbenchmarks: the library itself ---

func BenchmarkECDSASign(b *testing.B) {
	for _, name := range []string{"P-256", "B-283"} {
		b.Run(name, func(b *testing.B) {
			c, err := NewCurve(name)
			if err != nil {
				b.Fatal(err)
			}
			k := c.GenerateKey([]byte("bench"))
			d := make([]byte, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := k.Sign(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkECDSAVerify(b *testing.B) {
	for _, name := range []string{"P-256", "B-283"} {
		b.Run(name, func(b *testing.B) {
			c, err := NewCurve(name)
			if err != nil {
				b.Fatal(err)
			}
			k := c.GenerateKey([]byte("bench"))
			d := make([]byte, 32)
			sig, err := k.Sign(d)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !k.Verify(d, sig) {
					b.Fatal("verify failed")
				}
			}
		})
	}
}
