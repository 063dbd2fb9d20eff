// Command bench is the repository's end-to-end benchmark. It builds
// cmd/dse once, then times each workload as fresh dse processes in a
// closed loop (one client; each run starts when the previous one exits),
// checks every run's output, and prints every metric by name with its
// unit. With -trace 1 it instead runs the traced replay and prints the
// per-layer metrics. See README.md.
//
// Run it from the repository root through its wrapper, which keeps the
// Go build cache and every build output under .bench_build/:
//
//	bash bench/run.sh --workload cold-sweep --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1 --out seed-1.json   # every workload, interleaved
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// buildDir holds the built binaries, result stores and trace files,
// relative to the repository root.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, comma-separated names, or all")
	seed := fs.Int64("seed", 1, "seed of the order in which samples of different workloads interleave")
	seconds := fs.Float64("seconds", 20, "measuring time per workload: of timed runs, or of traced repetitions")
	trace := fs.Int("trace", 0, "1: run the traced replay and report per-layer metrics instead")
	out := fs.String("out", "", "also write the results, samples included, to this JSON file")
	compareMode := fs.Bool("compare", false, "compare result files: -compare old.json[,old2.json...] new.json[,new2.json...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json[,old2.json...] new.json[,new2.json...]")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	ws, err := selectWorkloads(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	res, err := execute(ws, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: write results:", err)
			return 1
		}
	}
	printResults(stdout, res)
	return 0
}

// execute builds the binaries, runs every workload's set-up, then either
// the timed samples or the traced replay.
func execute(ws []*workload, seed int64, seconds float64, trace bool, log io.Writer) (*results, error) {
	x, err := newExecutor(trace, log)
	if err != nil {
		return nil, err
	}
	res := &results{Seed: seed, Seconds: seconds, Trace: trace, Workloads: make(map[string]*workloadResult)}
	runs := make([]*workloadRun, len(ws))
	for i, w := range ws {
		setup, err := w.setup(x)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		runs[i] = &workloadRun{w: w, setup: setup}
		if err := runs[i].warmUp(x); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
		}
	}
	if trace {
		for _, r := range runs {
			res.Workloads[r.w.name], err = traceWorkload(x, r, seconds)
			if err != nil {
				return nil, fmt.Errorf("%s traced replay: %w", r.w.name, err)
			}
		}
		return res, nil
	}
	sampleLoop(x, runs, seed, seconds, log)
	self := selfPeakRSSMB()
	for _, r := range runs {
		wr := r.result()
		if slices.Min(wr.Samples["peak_rss_mb"]) <= self {
			fmt.Fprintf(log, "%s: warning: the harness's peak RSS (%.1f MB) reaches its children's, so peak_rss_mb is inflated\n", r.w.name, self)
		}
		res.Workloads[r.w.name] = wr
	}
	return res, nil
}

// results is what -out writes and -compare reads.
type results struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Correct is false when a failed run or a traced cross-check failed.
	Correct bool `json:"correct"`
	// Digest fingerprints the workload's stdout. It changes whenever the
	// model's results do, so it is recorded but never gated.
	Digest  string               `json:"digest"`
	Metrics map[string]value     `json:"metrics"`
	Samples map[string][]float64 `json:"samples"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's last stdout line.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// printResults prints one line per metric, then the summary as the last
// line. With several workloads the summary's metric names are prefixed
// with the workload name.
func printResults(w io.Writer, res *results) {
	sum := summary{Correct: true, Metrics: make(map[string]value)}
	names := sortedKeys(res.Workloads)
	for _, name := range names {
		r := res.Workloads[name]
		fmt.Fprintf(w, "%s: %d runs, %d failed, digest %s\n", name, r.Attempted, r.Failed, r.Digest)
		for _, k := range sortedKeys(r.Metrics) {
			v := r.Metrics[k]
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, v.Value, v.Unit)
			if len(names) > 1 {
				k = name + "." + k
			}
			sum.Metrics[k] = v
		}
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
	}
	b, _ := json.Marshal(sum) // a map of finite numbers always marshals
	fmt.Fprintln(w, string(b))
}

func newExecutor(trace bool, log io.Writer) (*executor, error) {
	dir, err := filepath.Abs(buildDir)
	if err != nil {
		return nil, err
	}
	x := &executor{dir: dir, dse: filepath.Join(dir, "dse"), probe: filepath.Join(dir, "probe"), log: log}
	if err := goBuild(".", x.dse, "./cmd/dse", log); err != nil {
		return nil, err
	}
	if err := goBuild("bench", x.probe, "./probe", log); err != nil {
		return nil, err
	}
	if trace {
		x.replay = filepath.Join(dir, "replay")
		if err := goBuild("bench", x.replay, "./replay", log); err != nil {
			return nil, err
		}
	}
	return x, nil
}

func selectWorkloads(sel string) ([]*workload, error) {
	all := workloads()
	if sel == "all" {
		return all, nil
	}
	var out []*workload
	for _, name := range strings.Split(sel, ",") {
		i := slices.IndexFunc(all, func(w *workload) bool { return w.name == name })
		if i < 0 || slices.Contains(out, all[i]) {
			var names []string
			for _, w := range all {
				names = append(names, w.name)
			}
			return nil, fmt.Errorf("unknown or repeated workload %q (want distinct names from %s, or all)", name, strings.Join(names, ", "))
		}
		out = append(out, all[i])
	}
	return out, nil
}
