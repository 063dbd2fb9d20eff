package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/bench/span"
)

const (
	// minTraceReps is how many times each traced process runs at least;
	// times are medians over the repetitions and counts must repeat
	// exactly.
	minTraceReps = 3
	// startupRuns of dse -list give proc.startup_s.
	startupRuns = 10
)

// layerMetric is one per-layer metric of a traced run. exact marks a
// count every repetition must reproduce.
type layerMetric struct {
	name, unit string
	exact      bool
}

// experiments are the report experiments dse -all renders, in order.
var experiments = []string{
	"table7.1", "table7.2", "table7.3", "table7.4", "table7.5",
	"fig7.1", "fig7.2", "fig7.3", "fig7.4", "fig7.5", "fig7.6",
	"fig7.7", "fig7.8", "fig7.9", "fig7.10", "fig7.11", "fig7.12",
	"fig7.13", "fig7.14", "fig7.15", "doublebuffer", "gating",
	"ffauwidth", "bestdesign", "handshake",
}

// perLayer lists the traced run's metrics. BENCHMARK.json declares the
// same names.
var perLayer = append([]layerMetric{
	{"proc.startup_s", "s", false},
	{"proc.outside_s", "s", false},
	{"dse.expand_s", "s", false},
	{"dse.configs", "count", true},
	{"dse.sweep_s", "s", false},
	{"dse.cached_sweep_s", "s", false},
	{"dse.cache_hits", "count", true},
	{"dse.cache_misses", "count", true},
	{"adaptive.s", "s", false},
	{"adaptive.evaluated", "count", true},
	{"adaptive.rounds", "count", true},
	{"store.load_first_s", "s", false},
	{"store.load_s", "s", false},
	{"store.fingerprint_s", "s", false},
	{"store.fingerprint_census_misses", "count", true},
	{"store.flush_s", "s", false},
	{"store.bytes", "bytes", true},
	{"census.misses", "count", true},
	{"census.hits", "count", true},
	{"census.busy_s", "s", false},
	{"census.miss_p50_ms", "ms", false},
	{"census.miss_max_ms", "ms", false},
	{"census.allocs", "count", false},
	{"census.alloc_mb", "MB", false},
	{"census.phase_ms.keygen", "ms", false},
	{"census.phase_ms.sign", "ms", false},
	{"census.phase_ms.verify", "ms", false},
	{"census.phase_ms.ecdh", "ms", false},
	{"sim.runs", "count", true},
	{"sim.price_p50_us", "us", false},
	{"sim.busy_s", "s", false},
	{"report.cold_s", "s", false},
	{"report.warm_s", "s", false},
}, experimentMetrics()...)

func experimentMetrics() []layerMetric {
	ms := make([]layerMetric, len(experiments))
	for i, e := range experiments {
		ms[i] = layerMetric{"report.exp." + e + "_s", "s", false}
	}
	return ms
}

// replayOutput is what one replay process prints.
type replayOutput struct {
	Spans   []span.Span        `json:"spans"`
	Metrics map[string]float64 `json:"metrics"`
}

// traceProcess is one replay process as written to the trace file.
type traceProcess struct {
	Process string                `json:"process"`
	Layers  map[string]span.Layer `json:"layers"`
	Spans   []span.Span           `json:"spans"`
}

func (x *executor) runReplay(args ...string) (replayOutput, error) {
	var out replayOutput
	s, err := x.run(x.replay, args...)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal([]byte(s.out), &out); err != nil {
		return out, fmt.Errorf("replay %v output: %w", args, err)
	}
	return out, nil
}

// traceWorkload runs the workload's traced replay: fresh CLI runs for
// wall time, root-span processes and layer-decomposition processes,
// interleaved, repeated for the given seconds and at least minTraceReps
// times. It cross-checks the replay's counts against the CLI's own
// -stats and writes every span to trace-<workload>.json.
func traceWorkload(x *executor, r *workloadRun, seconds float64) (*workloadResult, error) {
	w := r.w
	res := &workloadResult{Correct: true, Digest: r.digest, Metrics: make(map[string]value), Samples: make(map[string][]float64)}
	fail := func(format string, a ...any) {
		res.Correct = false
		fmt.Fprintf(x.log, "%s: %s\n", w.name, fmt.Sprintf(format, a...))
	}

	// Reference counts from the CLI, and a populated store to load.
	spec := w.specArgs()
	stats, err := x.run(x.dse, append(slices.Clone(spec), "-stats")...)
	if err != nil {
		return nil, err
	}
	configs, _, _, err := parseSweepHeader(stats.out)
	if err != nil {
		return nil, err
	}
	censusHits, censusMisses, err := parseCensusStats(stats.out)
	if err != nil {
		return nil, err
	}
	store := filepath.Join(x.dir, "trace-store")
	if err := os.RemoveAll(store); err != nil {
		return nil, err
	}
	if _, err := x.run(x.dse, append(slices.Clone(spec), "-cache-dir", store)...); err != nil {
		return nil, err
	}
	warm, err := x.run(x.dse, append(slices.Clone(spec), "-cache-dir", store, "-stats")...)
	if err != nil {
		return nil, err
	}
	_, fingerprintMisses, err := parseCensusStats(warm.out)
	if err != nil {
		return nil, err
	}
	startup, err := repeat(startupRuns, func() (sample, error) { return x.run(x.dse, "-list") })
	if err != nil {
		return nil, err
	}

	replayArgs := func(mode string) []string {
		a := []string{"-mode", mode, "-workload", w.axis}
		if mode == "root" {
			return append(a, "-call", w.root, "-store", w.rootStore)
		}
		return append(a, "-store", store)
	}
	var walls, roots []float64
	vals := make(map[string][]float64)
	var procs []traceProcess
	start := time.Now()
	for i := 0; i < minTraceReps || time.Since(start).Seconds() < seconds; i++ {
		res.Attempted += 3
		s, err := x.run(x.dse, w.args...)
		if err == nil {
			err = r.checkSample(s.out)
		}
		if err != nil {
			res.Failed++
			fail("CLI run failed: %v", err)
		}
		walls = append(walls, s.wall)
		for _, mode := range []string{"root", "layers"} {
			out, err := x.runReplay(replayArgs(mode)...)
			if err != nil {
				return nil, err
			}
			procs = append(procs, traceProcess{Process: mode, Layers: span.Layers(out.Spans), Spans: out.Spans})
			if mode == "root" {
				roots = append(roots, out.Metrics["root_s"])
				continue
			}
			for k, v := range out.Metrics {
				vals[k] = append(vals[k], v)
			}
		}
	}
	vals["proc.startup_s"] = startup
	vals["proc.outside_s"] = []float64{median(walls) - median(roots)}

	for _, m := range perLayer {
		vs := vals[m.name]
		if len(vs) == 0 {
			return nil, fmt.Errorf("the replay reported no %s", m.name)
		}
		if m.exact && slices.Min(vs) != slices.Max(vs) {
			fail("%s differs between repetitions: %v", m.name, vs)
		}
		res.Metrics[m.name] = value{median(vs), m.unit}
		res.Samples[m.name] = vs
	}
	for name, want := range map[string]int{
		"dse.configs":                     configs,
		"sim.runs":                        configs,
		"dse.cache_misses":                configs,
		"dse.cache_hits":                  configs,
		"census.hits":                     censusHits,
		"census.misses":                   censusMisses,
		"store.fingerprint_census_misses": fingerprintMisses,
	} {
		if got := res.Metrics[name].Value; got != float64(want) {
			fail("replay %s = %v, but the CLI's -stats reports %d", name, got, want)
		}
	}

	b, err := json.Marshal(struct {
		Workload  string         `json:"workload"`
		Processes []traceProcess `json:"processes"`
	}{w.name, procs})
	if err == nil {
		err = os.WriteFile(filepath.Join(x.dir, "trace-"+w.name+".json"), b, 0o644)
	}
	return res, err
}
