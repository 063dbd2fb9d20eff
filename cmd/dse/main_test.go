package main

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestConflictError pins every flag-coherence rejection (and the
// combinations that must pass) so a refactor cannot silently start
// dropping a flag on the floor again.
func TestConflictError(t *testing.T) {
	cases := []struct {
		name string
		in   cliFlags
		want string // substring of the message; "" = coherent
	}{
		// Mode exclusivity, including the original -sweep -arch trap.
		{"sweep+arch", cliFlags{sweep: true, arch: "monte"}, "conflicting modes"},
		{"all+exp", cliFlags{all: true, exp: "fig7.1"}, "conflicting modes"},

		// Flags another mode would silently ignore.
		{"workload+all", cliFlags{all: true, workload: "ecdh"}, "-workload applies to -arch runs and -sweep"},
		{"axis-flag+sweep", cliFlags{sweep: true, axisFlags: []string{"cache"}}, "-cache applies to -arch runs only"},
		{"curves-no-sweep", cliFlags{arch: "monte", curves: "P-192"}, "-curves applies to -sweep only"},
		{"json-no-sweep", cliFlags{arch: "monte", jsonOut: true}, "apply to -sweep only"},
		{"stats-alone", cliFlags{stats: true}, "-stats applies to -sweep, -arch and -all runs only"},
		{"stats-exp", cliFlags{exp: "fig7.1", stats: true}, "-stats applies to -sweep, -arch and -all runs only"},
		{"cache-dir-alone", cliFlags{cacheDir: ".dse"}, "-cache-dir applies to -sweep only"},

		// An -arch run rejects an axis flag its architecture ignores.
		{"arch-monte-digit", cliFlags{arch: "monte", axisFlags: []string{"digit"}}, "-digit does not apply to -arch monte"},
		{"arch-baseline-cache", cliFlags{arch: "baseline", axisFlags: []string{"cache", "prefetch"}}, "-cache does not apply to -arch baseline"},
		{"arch-billie-width", cliFlags{arch: "billie", axisFlags: []string{"width", "no-double-buffer"}}, "-width does not apply to -arch billie"},
		// A relevant axis flag does not excuse another mode's flag.
		{"arch-relevant-axis+curves", cliFlags{arch: "monte", axisFlags: []string{"width"}, curves: "P-192"}, "-curves applies to -sweep only"},

		// Adaptive exploration needs -sweep.
		{"adaptive-no-sweep", cliFlags{adaptive: true}, "-adaptive applies to -sweep only"},
		{"adaptive-with-arch", cliFlags{arch: "monte", adaptive: true}, "-adaptive applies to -sweep only"},

		// A negative pool width is an error, not a silent GOMAXPROCS.
		{"negative-workers", cliFlags{sweep: true, workers: -3}, "-workers -3: want a pool width >= 0"},

		// Coherent combinations must stay accepted.
		{"plain-sweep", cliFlags{sweep: true}, ""},
		{"sweep-adaptive", cliFlags{sweep: true, adaptive: true}, ""},
		{"sweep-workers", cliFlags{sweep: true, workers: 3}, ""},
		{"sweep-adaptive-full", cliFlags{sweep: true, adaptive: true, jsonOut: true, pareto: true, stats: true, cacheDir: ".dse"}, ""},
		{"arch-run", cliFlags{arch: "monte", workload: "ecdh", stats: true}, ""},
		{"all-stats", cliFlags{all: true, stats: true}, ""},
		{"arch-relevant-axes", cliFlags{arch: "monte", axisFlags: []string{"width", "no-double-buffer", "gate-accel-idle"}}, ""},
		// A value-level collapse is not an arch-level one: -prefetch is
		// moot under -ideal-cache, but both apply to a cached architecture.
		{"arch-value-collapse", cliFlags{arch: "isa-ext+icache", axisFlags: []string{"prefetch", "ideal-cache"}}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := conflictError(c.in)
			if c.want == "" {
				if got != "" {
					t.Fatalf("conflictError(%+v) = %q, want coherent", c.in, got)
				}
				return
			}
			if !strings.Contains(got, c.want) {
				t.Fatalf("conflictError(%+v) = %q, want message naming %q", c.in, got, c.want)
			}
		})
	}
}

// TestAxisValueError pins the domain check of set axis flags: a zero
// int knob is rejected with the message a sweep gives the same value,
// not filled with its default by sim.Run, while -line 0 (the default
// line) and in-domain values pass.
func TestAxisValueError(t *testing.T) {
	check := func(args ...string) string {
		fs := flag.NewFlagSet("dse", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		repro.RegisterDimensionFlags(fs)
		repro.RegisterAxisFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return axisValueError(fs)
	}
	rejected := []struct {
		args []string
		spec repro.SweepSpec // the same value on the sweep path
	}{
		{[]string{"-arch", "billie", "-curve", "B-163", "-digit", "0"}, repro.SweepSpec{BillieDigits: []int{0}}},
		{[]string{"-arch", "monte", "-curve", "P-256", "-width", "0"}, repro.SweepSpec{MonteWidths: []int{0}}},
		{[]string{"-arch", "isa-ext+icache", "-curve", "P-256", "-cache", "0"}, repro.SweepSpec{CacheBytes: []int{0}}},
	}
	for _, c := range rejected {
		err := c.spec.Validate()
		if err == nil {
			t.Fatalf("SweepSpec%+v.Validate() accepted a zero knob", c.spec)
		}
		if got := check(c.args...); got != err.Error() {
			t.Errorf("%v: axisValueError = %q, want the sweep's %q", c.args, got, err)
		}
	}
	for _, args := range [][]string{
		{"-arch", "isa-ext+icache", "-curve", "P-256", "-line", "0"},
		{"-arch", "isa-ext+icache", "-curve", "P-256", "-line", "32", "-cache", "1024"},
		{"-arch", "monte", "-curve", "P-256", "-width", "16"},
		{"-arch", "billie", "-curve", "B-163"},
	} {
		if got := check(args...); got != "" {
			t.Errorf("%v: axisValueError = %q, want accepted", args, got)
		}
	}
}

// TestParseNames pins the -workload/-curves list parsing: names are
// trimmed and kept in order, and an empty or repeated name is an error
// (a repeated one would inflate the raw grid count without adding a
// configuration).
func TestParseNames(t *testing.T) {
	valid := []string{"P-192", "B-163"}
	cases := []struct {
		list string
		want []string
		err  string // substring of the error; "" = accepted
	}{
		{"P-192", []string{"P-192"}, ""},
		{"P-192, B-163", []string{"P-192", "B-163"}, ""},
		{"B-163,P-192", []string{"B-163", "P-192"}, ""},
		{"P-192,", nil, `empty curve name in -curves "P-192," (want a comma-separated subset of [P-192 B-163])`},
		{"", nil, "empty curve name"},
		{"P-192,P-192", nil, `repeated curve name "P-192" in -curves "P-192,P-192"`},
		{"P-192, B-163 ,P-192", nil, `repeated curve name "P-192"`},
	}
	for _, c := range cases {
		got, err := parseNames("curves", "curve", c.list, valid)
		if c.err == "" {
			if err != nil || !slices.Equal(got, c.want) {
				t.Errorf("parseNames(%q) = %q, %v; want %q", c.list, got, err, c.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("parseNames(%q) error = %v, want one naming %q", c.list, err, c.err)
		}
	}
}

// TestPrintStats pins the -stats lines other tools parse, over a
// hand-built registry: the census memo line (bench/ reads it with a
// regexp) and the "sweep stages" line rendered from the registry's
// stage histograms and byte counters. A registry without sweep
// histograms (an -arch run) prints no "sweep stages" section. The
// "expansion" line is rendered from a hand-built SweepResult. Counts
// live in the result, so no generic counter or gauge dump and no
// adaptive line (the run's header) is printed.
func TestPrintStats(t *testing.T) {
	arch := repro.NewMetrics()
	arch.Histogram("sim.profile.sign").Observe(20 * time.Millisecond)
	arch.Histogram("sim.price.sign").Observe(time.Millisecond)
	arch.Counter("sim.census.hits").Add(1040)
	arch.Counter("sim.census.misses").Add(20)
	var b strings.Builder
	printStats(&b, arch, 0, nil)
	out := b.String()
	if !strings.Contains(out, "\n  census memo: 1040 hits / 20 misses (each miss = one profiled (curve, phase) census)\n") {
		t.Errorf("census memo line missing or reworded:\n%s", out)
	}
	if strings.Contains(out, "sweep stages") {
		t.Errorf("registry without sweep histograms printed a sweep stages section:\n%s", out)
	}
	if strings.Contains(out, "expansion:") {
		t.Errorf("a run without a sweep result printed an expansion line:\n%s", out)
	}

	// The full grid: 384000 raw points, 76800 of them on an invalid
	// (arch, curve) pair, and 530 unique configurations.
	full := &repro.SweepResult{Spec: repro.FullSweepSpec(), RawPoints: 384000, Configs: 530}
	b.Reset()
	printStats(&b, arch, 90*time.Millisecond, full)
	out = b.String()
	if want := "\nexpansion: 384000 raw grid points -> 530 unique configs (725x collapse; 76800 pruned, 306670 deduplicated)\n"; !strings.Contains(out, want) {
		t.Errorf("-stats output lacks %q:\n%s", want, out)
	}

	sweep := repro.NewMetrics()
	sweep.Histogram("sweep.expand").Observe(time.Millisecond)
	sweep.Histogram("sweep.expand").Observe(2 * time.Millisecond)
	sweep.Histogram("store.fingerprint").Observe(40 * time.Millisecond)
	sweep.Histogram("store.load").Observe(8 * time.Millisecond)
	sweep.Counter("store.load.bytes").Add(495000)
	sweep.Histogram("store.flush").Observe(5 * time.Millisecond)
	sweep.Counter("store.flush.bytes").Add(1234)
	sweep.Histogram("sweep.point.cached").Observe(time.Microsecond)
	b.Reset()
	printStats(&b, sweep, 90*time.Millisecond, nil)
	out = "\n" + b.String() // every pinned line starts after a newline
	for _, want := range []string{
		"\nsweep stages:\n  total 0.090s  expand 0.003s  fingerprint 0.040s  load 0.008s (495000 B)  flush 0.005s (1234 B)\n",
		"\n  cached points:    1 (",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "simulated points") {
		t.Errorf("no simulated points, but -stats renders a simulated line:\n%s", out)
	}
	for _, gone := range []string{"\ncounters:", "\ngauges:", "\nadaptive exploration:"} {
		if strings.Contains(out, gone) {
			t.Errorf("-stats prints a %q section that restates the run's result:\n%s", gone[1:], out)
		}
	}
}
