package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro"
)

// printStats renders the telemetry collected during a run: the
// simulator's census-vs-pricing split per workload phase, the expansion
// economics of an exhaustive sweep's result (nil for any other run),
// the sweep's stage timing when one ran (total is its wall time, zero
// for an -arch run), and the process-wide result cache. The writer is
// stderr in -json mode so machine-readable stdout stays pure JSON.
func printStats(w io.Writer, reg *repro.Metrics, total time.Duration, res *repro.SweepResult) {
	s := reg.Snapshot()

	// The per-phase split: census is the functionally-verified crypto
	// execution being profiled, pricing is the cost model run over its
	// operation counts. Only phases that actually executed appear.
	var phases []string
	for name := range s.Histograms {
		if strings.HasPrefix(name, "sim.profile.") {
			phases = append(phases, strings.TrimPrefix(name, "sim.profile."))
		}
	}
	slices.Sort(phases)
	if len(phases) > 0 {
		fmt.Fprintln(w, "simulator phases (census = profiled crypto execution; pricing = cost model):")
		fmt.Fprintf(w, "  %-8s %8s %14s %14s %16s\n",
			"phase", "runs", "census(ms)", "pricing(ms)", "census p95(ms)")
		for _, ph := range phases {
			prof := s.Histograms["sim.profile."+ph]
			price := s.Histograms["sim.price."+ph]
			fmt.Fprintf(w, "  %-8s %8d %14.2f %14.2f %16.3f\n",
				ph, prof.Count, prof.SumS*1e3, price.SumS*1e3, prof.P95S*1e3)
		}
		if asm := s.Histograms["sim.assemble"]; asm.Count > 0 {
			fmt.Fprintf(w, "  %-8s %8d %14s %14.2f\n", "assemble", asm.Count, "-", asm.SumS*1e3)
		}
		// The census memo is why profile counts sit far below pricing
		// counts: each hit is a simulated phase that skipped its crypto
		// execution entirely and priced a memoized census. A miss is one
		// (curve, phase) entry profiled; bench/ parses this line.
		fmt.Fprintf(w, "  census memo: %d hits / %d misses (each miss = one profiled (curve, phase) census)\n",
			s.Counters["sim.census.hits"], s.Counters["sim.census.misses"])
	}

	// Expansion economics: how much of the raw cross-product the
	// relevance-factored expansion never had to enumerate. Raw − pruned
	// − unique is what canonical deduplication collapsed.
	if res != nil {
		raw, unique, pruned := res.RawPoints, res.Configs, res.Spec.PrunedPoints()
		fmt.Fprintf(w, "expansion: %d raw grid points -> %d unique configs (%.0fx collapse; %d pruned, %d deduplicated)\n",
			raw, unique, float64(raw)/float64(max(unique, 1)), pruned, raw-pruned-unique)
	}

	// A sweep's stage timings, read back from the registry: the
	// histograms sum every observation of their stage (an adaptive
	// exploration loads once, and expands and flushes once per round).
	if expand, ok := s.Histograms["sweep.expand"]; ok {
		fmt.Fprintln(w, "sweep stages:")
		fmt.Fprintf(w, "  total %.3fs  expand %.3fs  fingerprint %.3fs  load %.3fs (%d B)  flush %.3fs (%d B)\n",
			total.Seconds(), expand.SumS, s.Histograms["store.fingerprint"].SumS,
			s.Histograms["store.load"].SumS, s.Counters["store.load.bytes"],
			s.Histograms["store.flush"].SumS, s.Counters["store.flush.bytes"])
		// The census passes profiled before pricing, one per curve of the
		// uncached configurations, so simulated points below only price.
		if h := s.Histograms["sweep.warm"]; h.Count > 0 {
			fmt.Fprintf(w, "  census warm-up %.3fs (one profile pass per uncached curve)\n", h.SumS)
		}
		if h := s.Histograms["sweep.point.simulate"]; h.Count > 0 {
			fmt.Fprintf(w, "  simulated points: %d (p50 %.1fms, p95 %.1fms, max %.1fms)\n",
				h.Count, h.P50S*1e3, h.P95S*1e3, h.MaxS*1e3)
		}
		if h := s.Histograms["sweep.point.cached"]; h.Count > 0 {
			fmt.Fprintf(w, "  cached points:    %d (p50 %.3fms, p95 %.3fms, max %.3fms)\n",
				h.Count, h.P50S*1e3, h.P95S*1e3, h.MaxS*1e3)
		}
	}

	hits, misses, entries := repro.SweepCacheStats()
	fmt.Fprintf(w, "process-wide result cache: %d hits / %d misses, %d entries resident\n",
		hits, misses, entries)
}
