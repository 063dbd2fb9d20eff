package repro

// Host-path microbenchmarks: the per-configuration costs every sweep
// pays (a memo-hit pricing, a config key, the grid expansion) and the
// real ECDSA library. End-to-end performance is measured in fresh
// processes by the bench/ harness (bash bench/run.sh, BENCHMARK.json);
// model outputs are pinned by the report goldens, not timed here.

import (
	"testing"

	"repro/internal/dse"
	"repro/internal/sim"
)

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
