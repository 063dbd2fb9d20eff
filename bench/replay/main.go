// Command replay is the traced half of the benchmark. Each invocation is
// one fresh process that times calls into the repository's layers from
// the outside and prints its spans and per-layer values as one JSON
// object on stdout:
//
//	replay -mode root -call sweep|adaptive|experiments [-workload a,b] [-store DIR]
//	replay -mode layers [-workload a,b] -store DIR
//
// Root mode makes the one library call the dse CLI makes for a workload,
// with cold memos, so the harness can subtract it from the CLI's wall time.
// Layers mode calls the layers directly, in the CLI's order, putting the
// lower layer first where first-call cost matters: the store load (and
// with it the model fingerprint's probe runs) comes before any other
// simulation, and the census memo is reset between phases.
//
// The harness builds this program only for traced runs, so the untraced
// end-to-end timings never depend on the internal APIs used here.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro"
	"repro/bench/span"
	"repro/internal/dse"
	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/gf2"
	"repro/internal/mp"
	"repro/internal/sim"
)

// workers matches the dse -workers 2 the benchmark's sweeps run with.
const workers = 2

type output struct {
	Spans   []span.Span        `json:"spans"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	mode := flag.String("mode", "layers", "root: the CLI's library call; layers: the per-layer decomposition")
	call := flag.String("call", "sweep", "with -mode root: sweep, adaptive or experiments")
	workloads := flag.String("workload", "", "comma-separated workload axis of the sweep spec, as dse -workload")
	store := flag.String("store", "", "result-store directory: the root sweep's -cache-dir, or the populated store layers mode loads")
	flag.Parse()

	spec := repro.FullSweepSpec()
	if *workloads != "" {
		spec.Workloads = strings.Split(*workloads, ",")
	}
	var (
		out output
		err error
	)
	switch *mode {
	case "root":
		out, err = root(*call, spec, *store)
	case "layers":
		out, err = layers(spec, *store)
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

// root times the library call behind one dse invocation.
func root(call string, spec repro.SweepSpec, store string) (output, error) {
	rec := span.NewRecorder()
	id := rec.Start("root." + call)
	var err error
	switch call {
	case "sweep":
		_, err = repro.Sweep(spec, repro.SweepOptions{Workers: workers, CacheDir: store})
	case "adaptive":
		_, err = repro.AdaptiveSweep(spec, repro.SweepOptions{Workers: workers})
	case "experiments":
		_, err = repro.Experiments()
	default:
		err = fmt.Errorf("unknown -call %q", call)
	}
	d := rec.End(id)
	return output{Spans: rec.Spans(), Metrics: map[string]float64{"root_s": d}}, err
}

// layers decomposes a workload into its layers, one timed call at a time.
func layers(spec repro.SweepSpec, store string) (output, error) {
	rec := span.NewRecorder()
	m := make(map[string]float64)
	timed := func(name string, f func() error) (float64, error) {
		id := rec.Start(name)
		err := f()
		return rec.End(id), err
	}
	out := func() output { return output{Spans: rec.Spans(), Metrics: m} }

	// Store: the first load of the process pays the model fingerprint.
	path := dse.DiskCachePath(store)
	cache := dse.NewCache()
	var loaded int
	_, missesBefore := sim.CensusMemoStats()
	first, err := timed("store.load_first", func() (err error) {
		loaded, err = cache.LoadFile(path)
		return err
	})
	if err != nil {
		return out(), err
	}
	if loaded == 0 {
		return out(), fmt.Errorf("store %s loaded no entries (missing or stale)", path)
	}
	_, missesAfter := sim.CensusMemoStats()
	again, err := timed("store.load", func() error {
		_, err := dse.NewCache().LoadFile(path)
		return err
	})
	if err != nil {
		return out(), err
	}
	flushDir, err := os.MkdirTemp(filepath.Dir(store), "flush-")
	if err != nil {
		return out(), err
	}
	defer os.RemoveAll(flushDir)
	flushPath := dse.DiskCachePath(flushDir)
	flush, err := timed("store.flush", func() error {
		_, err := cache.SaveFile(flushPath)
		return err
	})
	if err != nil {
		return out(), err
	}
	fi, err := os.Stat(flushPath)
	if err != nil {
		return out(), err
	}
	m["store.load_first_s"] = first
	m["store.load_s"] = again
	m["store.fingerprint_s"] = first - again
	m["store.fingerprint_census_misses"] = float64(missesAfter - missesBefore)
	m["store.flush_s"] = flush
	m["store.bytes"] = float64(fi.Size())

	// Expansion, then every configuration priced one sim.Run at a time on
	// a cold census memo: each call either profiles its census class
	// (a miss) or only prices (a hit).
	sim.ResetCensusMemo()
	var cfgs []dse.Config
	m["dse.expand_s"], _ = timed("dse.expand", func() error {
		cfgs = spec.Expand()
		return nil
	})
	m["dse.configs"] = float64(len(cfgs))
	var miss, hit []float64
	var allocs, allocBytes uint64
	var before, after runtime.MemStats
	replay := rec.Start("census.replay")
	for _, cfg := range cfgs {
		_, m0 := sim.CensusMemoStats()
		runtime.ReadMemStats(&before)
		id := rec.Start("sim.run")
		_, err := sim.Run(cfg.Arch, cfg.Curve, cfg.Opt)
		d := rec.End(id)
		runtime.ReadMemStats(&after)
		if err != nil {
			return out(), fmt.Errorf("sim.Run %s: %w", cfg.Key(), err)
		}
		if _, m1 := sim.CensusMemoStats(); m1 > m0 {
			rec.Rename(id, "sim.run.census_miss")
			miss = append(miss, d)
			allocs += after.Mallocs - before.Mallocs
			allocBytes += after.TotalAlloc - before.TotalAlloc
		} else {
			rec.Rename(id, "sim.run.census_hit")
			hit = append(hit, d)
		}
	}
	rec.End(replay)
	hits, misses := sim.CensusMemoStats()
	price := median(hit)
	m["census.misses"] = float64(misses)
	m["census.hits"] = float64(hits)
	m["census.busy_s"] = sum(miss) - float64(len(miss))*price
	m["census.miss_p50_ms"] = median(miss) * 1e3
	m["census.miss_max_ms"] = maxOf(miss) * 1e3
	m["census.allocs"] = float64(allocs)
	m["census.alloc_mb"] = float64(allocBytes) / (1 << 20)
	m["sim.runs"] = float64(len(cfgs))
	m["sim.price_p50_us"] = price * 1e6
	m["sim.busy_s"] = sum(hit) + float64(len(miss))*price

	// The sweep core on a warm census memo: cold, then warm result cache.
	sweepCache := dse.NewCache()
	var res *dse.SweepResult
	sweep := func() (err error) {
		res, err = dse.Sweep(spec, dse.SweepOptions{Workers: workers, Cache: sweepCache})
		return err
	}
	if m["dse.sweep_s"], err = timed("dse.sweep", sweep); err != nil {
		return out(), err
	}
	m["dse.cache_misses"] = float64(res.CacheMisses)
	if m["dse.cached_sweep_s"], err = timed("dse.cached_sweep", sweep); err != nil {
		return out(), err
	}
	m["dse.cache_hits"] = float64(res.CacheHits)

	var ar *dse.AdaptiveResult
	if m["adaptive.s"], err = timed("adaptive", func() (err error) {
		ar, err = dse.AdaptiveSweep(spec, dse.SweepOptions{Workers: workers, Cache: dse.NewCache()})
		return err
	}); err != nil {
		return out(), err
	}
	m["adaptive.evaluated"] = float64(ar.Evaluated)
	m["adaptive.rounds"] = float64(ar.Rounds)

	// Reports: every experiment in -all order from cold memos, then the
	// whole chapter again warm.
	sim.ResetCensusMemo()
	repro.ResetSweepCache()
	cold := rec.Start("report.cold")
	for _, name := range repro.ExperimentNames() {
		d, err := timed("report.exp."+name, func() error {
			_, err := repro.Experiment(name)
			return err
		})
		if err != nil {
			return out(), err
		}
		m["report.exp."+name+"_s"] = d
	}
	m["report.cold_s"] = rec.End(cold)
	if m["report.warm_s"], err = timed("report.warm", func() error {
		_, err := repro.Experiments()
		return err
	}); err != nil {
		return out(), err
	}

	phases, err := censusPhases(timed)
	if err != nil {
		return out(), err
	}
	for name, s := range phases {
		m["census.phase_ms."+name] = s * 1e3
	}
	return out(), nil
}

// censusPhases times each profiled phase on every curve, on the fastest
// functional field implementation (CIOS for prime curves, CLMul for
// binary ones), and returns the per-phase sums in seconds.
func censusPhases(timed func(string, func() error) (float64, error)) (map[string]float64, error) {
	digest := sha256.Sum256([]byte("benchmark census phases"))
	total := make(map[string]float64)
	add := func(phase, curve string, f func() error) error {
		d, err := timed("census."+phase, f)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", phase, curve, err)
		}
		total[phase] += d
		return nil
	}
	for _, name := range ec.PrimeCurveNames {
		curve := ec.NISTPrimeCurve(name, mp.CIOS)
		peer := ecdsa.GenerateKey(curve, []byte("peer-"+name))
		var priv *ecdsa.PrivateKey
		var sig *ecdsa.Signature
		err := add("keygen", name, func() error {
			priv, _ = ecdsa.ProfileKeyGen(curve, []byte("key-"+name))
			return nil
		})
		if err == nil {
			err = add("sign", name, func() (err error) {
				sig, _, err = ecdsa.ProfileSign(priv, digest[:])
				return err
			})
		}
		if err == nil {
			err = add("verify", name, func() error {
				if ok, _ := ecdsa.ProfileVerify(curve, priv.Q, digest[:], sig); !ok {
					return fmt.Errorf("signature does not verify")
				}
				return nil
			})
		}
		if err == nil {
			err = add("ecdh", name, func() error {
				_, _, err := ecdsa.ECDHProfile(priv, peer.Q)
				return err
			})
		}
		if err != nil {
			return nil, err
		}
	}
	for _, name := range ec.BinaryCurveNames {
		curve := ec.NISTBinaryCurve(name, gf2.CLMul)
		peer := ecdsa.GenerateBinaryKey(curve, []byte("peer-"+name))
		var priv *ecdsa.BinaryPrivateKey
		var sig *ecdsa.Signature
		err := add("keygen", name, func() error {
			priv, _ = ecdsa.ProfileKeyGenBinary(curve, []byte("key-"+name))
			return nil
		})
		if err == nil {
			err = add("sign", name, func() (err error) {
				sig, _, err = ecdsa.ProfileSignBinary(priv, digest[:])
				return err
			})
		}
		if err == nil {
			err = add("verify", name, func() error {
				if ok, _ := ecdsa.ProfileVerifyBinary(curve, priv.Q, digest[:], sig); !ok {
					return fmt.Errorf("signature does not verify")
				}
				return nil
			})
		}
		if err == nil {
			err = add("ecdh", name, func() error {
				_, _, err := ecdsa.ECDHProfileBinary(priv, peer.Q)
				return err
			})
		}
		if err != nil {
			return nil, err
		}
	}
	return total, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
