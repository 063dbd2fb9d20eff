package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// childTimeout bounds one child process, so a hung run fails instead
	// of stalling the benchmark.
	childTimeout = 120 * time.Second
	// minSamples keeps a workload's percentiles defined on short runs.
	minSamples = 3
	// warmUps runs per workload are checked but not timed; the first
	// one's stdout digest is the reference every timed sample must match.
	warmUps = 2
	// probeRefS is the probe's wall time at reference speed. A timed run
	// is scaled by probeRefS over the mean wall time of the probe runs
	// just before and after it.
	probeRefS = 0.05
)

// endToEnd lists the metrics of an untraced run, with their units.
// BENCHMARK.json declares the same names with their bounds.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"wall_p75_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// executor runs the built binaries as child processes. Every child gets
// GOMAXPROCS=2, matching the -workers 2 of the sweeps.
type executor struct {
	dir    string // absolute build directory
	dse    string
	probe  string
	replay string // built only for traced runs
	log    io.Writer
	// lastProbe is the wall time of the most recent probe run, which
	// also serves as the next timed run's probe before.
	lastProbe float64
}

// sample is one finished child process. Its wall and CPU times are as
// measured on the host; scale converts them to reference speed.
type sample struct {
	wall, cpu, rssMB, scale float64
	out                     string
}

// run starts prog, waits for it to exit and returns its wall time, its
// user+system CPU time and peak RSS from the wait4 rusage, and its stdout.
func (x *executor) run(prog string, args ...string) (sample, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, prog, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	s := sample{wall: time.Since(start).Seconds(), scale: 1, out: stdout.String()}
	if ps := cmd.ProcessState; ps != nil {
		s.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	if err != nil {
		return s, fmt.Errorf("%s %s: %v: %s", prog, strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return s, nil
}

// measure runs dse between two probe runs and sets the sample's scale
// from them. The host's speed drifts by ±20% over minutes on a shared
// machine, and every process running at the time slows alike, so the
// ratio of a run to the probes beside it is far steadier than the run.
func (x *executor) measure(args ...string) (sample, error) {
	if x.lastProbe == 0 {
		p, err := x.run(x.probe)
		if err != nil {
			return sample{}, err
		}
		x.lastProbe = p.wall
	}
	s, err := x.run(x.dse, args...)
	p, perr := x.run(x.probe)
	if perr != nil {
		return s, perr
	}
	s.scale = probeRefS / ((x.lastProbe + p.wall) / 2)
	x.lastProbe = p.wall
	return s, err
}

// dseChecked measures a dse run and applies check to its stdout.
func (x *executor) dseChecked(check func(string) error, args ...string) (sample, error) {
	s, err := x.measure(args...)
	if err == nil {
		err = check(s.out)
	}
	return s, err
}

// repeat calls f n times and returns the scaled wall time of each call's
// sample.
func repeat(n int, f func() (sample, error)) ([]float64, error) {
	walls := make([]float64, 0, n)
	for range n {
		s, err := f()
		if err != nil {
			return nil, err
		}
		walls = append(walls, s.wall*s.scale)
	}
	return walls, nil
}

// selfPeakRSSMB is the harness's own peak RSS, the floor of every child's
// ru_maxrss.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func goBuild(dir, out, pkg string, log io.Writer) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s: %w", pkg, err)
	}
	return nil
}

// workloadRun accumulates one workload's set-up times and samples.
type workloadRun struct {
	w        *workload
	setup    []float64
	digest   string
	samples  []sample
	failed   int
	measured float64
}

func digestOf(out string) string {
	h := sha256.Sum256([]byte(out))
	return hex.EncodeToString(h[:8])
}

// checkSample runs the workload's own check, then the digest check.
func (r *workloadRun) checkSample(out string) error {
	if err := r.w.check(out); err != nil {
		return err
	}
	if d := digestOf(out); d != r.digest {
		return fmt.Errorf("stdout digest %s differs from the first run's %s", d, r.digest)
	}
	return nil
}

func (r *workloadRun) warmUp(x *executor) error {
	for i := range warmUps {
		s, err := x.dseChecked(r.w.check, r.w.args...)
		if err != nil {
			return err
		}
		if i == 0 {
			r.digest = digestOf(s.out)
		} else if d := digestOf(s.out); d != r.digest {
			return fmt.Errorf("stdout digest %s differs from the first run's %s", d, r.digest)
		}
	}
	return nil
}

// sampleLoop takes timed samples in rounds until every workload has been
// measured for the given seconds (and has minSamples samples). Each round
// runs one sample per unfinished workload, in a seed-shuffled order, so
// slow drift on the host spreads over every workload alike.
func sampleLoop(x *executor, runs []*workloadRun, seed int64, seconds float64, log io.Writer) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x62656e6368))
	for {
		var active []*workloadRun
		for _, r := range runs {
			if r.measured < seconds || len(r.samples) < minSamples {
				active = append(active, r)
			}
		}
		if len(active) == 0 {
			return
		}
		rng.Shuffle(len(active), func(i, j int) { active[i], active[j] = active[j], active[i] })
		for _, r := range active {
			s, err := x.measure(r.w.args...)
			if err == nil {
				err = r.checkSample(s.out)
			}
			if err != nil {
				r.failed++
				fmt.Fprintf(log, "%s: run %d failed: %v\n", r.w.name, len(r.samples)+1, err)
			}
			// Keeping outputs would grow the harness, and a child's ru_maxrss
			// starts from its parent's peak RSS: the child is forked from
			// the harness's address space before it execs.
			s.out = ""
			r.samples = append(r.samples, s)
			r.measured += s.wall
		}
	}
}

// result turns the samples into metrics. Times are at reference speed;
// the scale series lets a reader recover the host times.
func (r *workloadRun) result() *workloadResult {
	var wall, cpu, rss, scale []float64
	for _, s := range r.samples {
		wall = append(wall, s.wall*s.scale)
		cpu = append(cpu, s.cpu*s.scale)
		rss = append(rss, s.rssMB)
		scale = append(scale, s.scale)
	}
	vals := map[string]float64{
		"wall_s":      median(wall),
		"wall_p75_s":  percentile(wall, 0.75),
		"cpu_s":       median(cpu),
		"peak_rss_mb": median(rss),
		"setup_s":     median(r.setup),
	}
	res := &workloadResult{
		Attempted: len(r.samples),
		Failed:    r.failed,
		Correct:   r.failed == 0,
		Digest:    r.digest,
		Metrics:   make(map[string]value),
		Samples:   map[string][]float64{"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "setup_s": r.setup, "scale": scale},
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = value{vals[m.name], m.unit}
	}
	return res
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least p of the samples at or below it. Of 40 samples, p=0.75 picks the
// 30th, with 10 beyond it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
