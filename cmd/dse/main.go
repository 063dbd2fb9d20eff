// Command dse is the design-space-exploration harness: it regenerates the
// paper's tables and figures, runs a single configuration, or sweeps the
// whole design space in parallel and reports the Pareto frontier.
//
// Usage:
//
//	dse -all                     # every table and figure
//	dse -exp fig7.1              # one experiment (see -list)
//	dse -arch monte -curve P-256 # one configuration
//	dse -arch monte -workload handshake  # price the WSN handshake scenario
//	dse -arch isa-ext+icache -line 32    # non-default I-cache line size
//	dse -list                    # experiment identifiers
//	dse -sweep                   # full design-space sweep
//	dse -sweep -workers 8 -json  # machine-readable, 8-way parallel
//	dse -sweep -pareto           # energy-vs-latency frontier only
//	dse -sweep -cache-dir .dse   # persist results; re-sweeps are near-free
//	dse -sweep -workload ecdh,handshake  # sweep exactly these scenarios
//	                                     # (replaces the default sign-verify axis)
//	dse -sweep -curves P-192,B-163       # restrict the curve axis
//	dse -sweep -adaptive                 # Pareto-guided exploration: the per-level
//	                                     # frontiers without pricing the whole grid
//	dse -sweep -stats                    # where the time went: census vs pricing,
//	                                     # expansion, sweep stages
//	dse -all -stats                      # the same for every table and figure
//
// With -cache-dir a sweep persists every priced configuration in one
// store; a later sweep in a fresh process is served from it and, when
// it needed nothing new, leaves it byte-for-byte untouched:
//
//	dse -sweep -cache-dir .dse              # cold: prices and flushes
//	dse -sweep -cache-dir .dse              # warm: 100% cache hits
//
// The design-space flags are generated from the dse axis registry: the
// dimension selectors (-arch, -curve) from its dimension axes and the
// per-knob flags (-cache, -prefetch, -ideal-cache, -no-double-buffer,
// -width, -digit, -gate-accel-idle, -line, -workload) from its option
// axes; -list prints the registry alongside the experiment identifiers.
// A knob that cannot change the chosen architecture's result (say -digit
// with -arch monte) is an error, as is any knob outside an -arch run and
// a knob value outside its modeled domain (-digit 0 fails as it would on
// a sweep axis instead of pricing the default digit).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro"
)

func main() {
	var (
		all  = flag.Bool("all", false, "regenerate every table and figure")
		exp  = flag.String("exp", "", "regenerate one experiment (e.g. fig7.1, table7.4)")
		list = flag.Bool("list", false, "list experiment identifiers and design-space axes")

		sweep    = flag.Bool("sweep", false, "sweep the full design space (10 curves x 5 architectures with cache/line/width/digit sub-sweeps)")
		pareto   = flag.Bool("pareto", false, "with -sweep: print only the energy-vs-latency Pareto frontier")
		workers  = flag.Int("workers", 0, "sweep worker-pool width (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "with -sweep: machine-readable JSON output")
		cacheDir = flag.String("cache-dir", "", "with -sweep: persist the result cache in this directory so repeated sweeps are served from disk")
		curves   = flag.String("curves", "", "with -sweep: comma-separated curve subset replacing the full 10-curve axis")

		adaptive = flag.Bool("adaptive", false, "with -sweep: adaptive Pareto-guided exploration — refine around the live per-security-level frontiers instead of pricing the whole grid")

		stats = flag.Bool("stats", false, "after a -sweep, -arch or -all run: print collected telemetry (per-phase census-vs-pricing split, sweep stage timing, cache counters)")
	)
	// Every design-space flag is generated from the dse axis registry:
	// the dimension selectors (-arch, -curve) from the dimension axes,
	// and every knob (-cache, -prefetch, -ideal-cache,
	// -no-double-buffer, -width, -digit, -gate-accel-idle, -line,
	// -workload) from the option axes. Registering a new axis there
	// surfaces its flag here with no per-flag wiring.
	dims := repro.RegisterDimensionFlags(flag.CommandLine)
	arch, curve := dims["arch"], dims["curve"]
	applyAxes := repro.RegisterAxisFlags(flag.CommandLine)
	flag.Parse()
	// The workload flag doubles as the sweep-mode axis list, so its raw
	// string is read back from the generated flag.
	workload := flag.CommandLine.Lookup("workload").Value.String()

	// The design-space flags other than -workload configure a single
	// -arch run; collected here so the coherence rules can reject one a
	// sweep, an experiment or the chosen architecture would silently drop.
	var axisFlags []string
	isAxis := make(map[string]bool)
	for _, name := range repro.AxisFlagNames() {
		isAxis[name] = true
	}
	flag.Visit(func(f *flag.Flag) {
		if isAxis[f.Name] && f.Name != "workload" {
			axisFlags = append(axisFlags, f.Name)
		}
	})
	// Every flag-coherence rule lives in conflictError so each rejection
	// is regression-testable; main only prints the verdict and exits.
	if msg := conflictError(cliFlags{
		list: *list, sweep: *sweep, all: *all,
		exp: *exp, arch: *arch,
		workload: workload, curves: *curves, adaptive: *adaptive,
		jsonOut: *jsonOut, pareto: *pareto,
		workers: *workers, stats: *stats, cacheDir: *cacheDir,
		axisFlags: axisFlags,
	}); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
	if msg := axisValueError(flag.CommandLine); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}

	switch {
	case *list:
		for _, n := range repro.ExperimentNames() {
			fmt.Println(n)
		}
		fmt.Println("\ndesign-space axes (SweepSpec fields / flags, generated from the axis registry):")
		fmt.Print(repro.AxesHelp())
	case *sweep:
		err := runSweep(sweepConfig{
			workers: *workers, paretoOnly: *pareto, jsonOut: *jsonOut,
			cacheDir: *cacheDir, workloads: workload, curves: *curves,
			stats: *stats, adaptive: *adaptive,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *all:
		var reg *repro.Metrics
		if *stats {
			reg = repro.NewMetrics()
			repro.EnableSimMetrics(reg)
		}
		out, err := repro.Experiments()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(out)
		if reg != nil {
			fmt.Println()
			printStats(os.Stdout, reg, 0, nil)
		}
	case *exp != "":
		out, err := repro.Experiment(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(out)
	case *arch != "":
		a, err := repro.ParseArchitecture(*arch)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		curveName, err := repro.ParseCurveName(*curve)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opt := repro.DefaultOptions()
		applyAxes(&opt)
		var reg *repro.Metrics
		if *stats {
			reg = repro.NewMetrics()
			repro.EnableSimMetrics(reg)
		}
		r, err := repro.Simulate(a, curveName, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		printResult(r)
		if reg != nil {
			fmt.Println()
			printStats(os.Stdout, reg, 0, nil)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// sweepConfig carries the parsed -sweep flags into runSweep.
type sweepConfig struct {
	workers             int
	paretoOnly, jsonOut bool
	cacheDir, workloads string
	curves              string
	stats               bool
	adaptive            bool
}

// cliFlags captures the parsed flag state the coherence rules inspect.
type cliFlags struct {
	list, sweep, all bool
	exp, arch        string
	workload, curves string
	adaptive         bool
	jsonOut, pareto  bool
	workers          int
	stats            bool
	cacheDir         string
	// axisFlags are the non-workload design-space flags set on the
	// command line (they configure a single -arch run only).
	axisFlags []string
}

// conflictError returns the message dse prints (exiting 1) for a flag
// combination that selects conflicting behavior, or "" when the
// combination is coherent. Exactly one mode may be selected, and a flag
// another mode would silently drop is an error, not default output —
// factored out of main so every rejection is regression-testable.
func conflictError(c cliFlags) string {
	modes := 0
	for _, on := range []bool{c.list, c.sweep, c.all, c.exp != "", c.arch != ""} {
		if on {
			modes++
		}
	}
	switch {
	case modes > 1:
		return "conflicting modes: pick exactly one of -list, -sweep, -all, -exp, -arch"
	case c.workload != "" && (c.all || c.exp != "" || c.list):
		// The experiment renderers price fixed scenarios.
		return "-workload applies to -arch runs and -sweep; -all/-exp/-list render fixed experiments"
	case len(c.axisFlags) > 0 && c.arch == "":
		return fmt.Sprintf("-%s applies to -arch runs only; -sweep explores the full axis grid (use -curves/-workload to subset it)", c.axisFlags[0])
	case c.curves != "" && !c.sweep:
		return "-curves applies to -sweep only"
	case c.adaptive && !c.sweep:
		return "-adaptive applies to -sweep only: adaptive exploration refines the sweep grid (run dse -sweep -adaptive)"
	case c.workers < 0:
		return fmt.Sprintf("-workers %d: want a pool width >= 0 (0 = GOMAXPROCS)", c.workers)
	}
	if !c.sweep {
		switch {
		case c.jsonOut || c.pareto || c.workers != 0:
			return "-json, -pareto and -workers apply to -sweep only"
		case c.stats && c.arch == "" && !c.all:
			return "-stats applies to -sweep, -arch and -all runs only"
		case c.cacheDir != "":
			return "-cache-dir applies to -sweep only"
		}
	}
	// An unparsable -arch is main's error to report.
	if a, err := repro.ParseArchitecture(c.arch); c.arch != "" && err == nil {
		relevant := repro.RelevantAxisFlags(a)
		for _, f := range c.axisFlags {
			if !slices.Contains(relevant, f) {
				return fmt.Sprintf("-%s does not apply to -arch %s (its axis flags: -%s)", f, c.arch, strings.Join(relevant, ", -"))
			}
		}
	}
	return ""
}

// axisValueError returns the message dse prints (exiting 1) for a set
// axis flag whose value lies outside its modeled domain, or "". The
// registry's check runs here because sim.Run fills a zero knob with its
// default before it validates: -digit 0 would otherwise print the
// default configuration. (-line 0 is the default line, so it passes.)
func axisValueError(fs *flag.FlagSet) string {
	var msg string
	fs.Visit(func(f *flag.Flag) {
		if err := repro.CheckAxisFlag(f); err != nil && msg == "" {
			msg = err.Error()
		}
	})
	return msg
}

// runSweep explores the full design space, exhaustively or adaptively,
// and prints either the whole point cloud or just its Pareto frontier,
// as text or JSON.
func runSweep(cfg sweepConfig) error {
	spec := repro.FullSweepSpec()
	var err error
	if cfg.workloads != "" {
		if spec.Workloads, err = parseNames("workload", "workload", cfg.workloads, repro.WorkloadNames()); err != nil {
			return err
		}
	}
	if cfg.curves != "" {
		if spec.Curves, err = parseNames("curves", "curve", cfg.curves, repro.CurveNames()); err != nil {
			return err
		}
	}
	opt := repro.SweepOptions{Workers: cfg.workers, CacheDir: cfg.cacheDir}

	// -stats needs the registry; the simulator hook rides along so the
	// report shows the whole pipeline.
	var reg *repro.Metrics
	if cfg.stats {
		reg = repro.NewMetrics()
		repro.EnableSimMetrics(reg)
		opt.Metrics = reg
	}

	var (
		res *repro.SweepResult
		ar  *repro.AdaptiveResult
	)
	start := time.Now()
	if cfg.adaptive {
		ar, err = repro.AdaptiveSweep(spec, opt)
		if ar != nil {
			res = ar.Result
		}
	} else {
		res, err = repro.Sweep(spec, opt)
	}
	total := time.Since(start)
	if err != nil {
		return err
	}
	if cfg.cacheDir != "" && !cfg.jsonOut {
		if res.DiskUnchanged {
			fmt.Printf("persistent cache: %d results loaded from %s, store already up to date (nothing flushed)\n",
				res.DiskLoaded, cfg.cacheDir)
		} else {
			fmt.Printf("persistent cache: %d results loaded from %s, %d flushed back\n",
				res.DiskLoaded, cfg.cacheDir, res.DiskSaved)
		}
	}
	if ar != nil && !cfg.jsonOut {
		fmt.Printf("adaptive exploration: %d/%d grid configurations evaluated (%.0f%%) in %d rounds (%d pruned, %d frontier moves)\n",
			ar.Evaluated, ar.GridConfigs,
			100*float64(ar.Evaluated)/float64(max(ar.GridConfigs, 1)),
			ar.Rounds, ar.Pruned, ar.FrontierMoves)
	}
	switch {
	case cfg.jsonOut && cfg.paretoOnly:
		out, err := repro.SweepFrontiersJSON(res.Points)
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	case cfg.jsonOut && ar != nil:
		out, err := ar.MarshalJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	case cfg.jsonOut:
		out, err := res.MarshalJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	case ar != nil:
		if cfg.paretoOnly {
			frontier := repro.Pareto(res.Points)
			fmt.Printf("energy-vs-latency Pareto frontier: %d of %d evaluated configurations (cache %d hit / %d miss)\n",
				len(frontier), res.Configs, res.CacheHits, res.CacheMisses)
			printPoints(frontier)
			fmt.Println()
		}
		fmt.Println("per-security-level frontiers (fixed key strength):")
		for _, lf := range ar.Frontiers {
			fmt.Printf("[level %d, ~%d-bit]\n", lf.Level, lf.SecurityBits)
			printPoints(lf.Points)
		}
	case cfg.paretoOnly:
		frontier := repro.Pareto(res.Points)
		fmt.Printf("energy-vs-latency Pareto frontier: %d of %d unique configurations (grid %d, workers %d, cache %d hit / %d miss)\n",
			len(frontier), res.Configs, res.RawPoints, res.Workers,
			res.CacheHits, res.CacheMisses)
		printPoints(frontier)
		fmt.Println("\nper-security-level frontiers (fixed key strength):")
		for _, lf := range repro.ParetoPerSecurity(res.Points) {
			fmt.Printf("[level %d, ~%d-bit]\n", lf.Level, lf.SecurityBits)
			printPoints(lf.Points)
		}
	default:
		fmt.Printf("design-space sweep: %d unique configurations (grid %d, workers %d, cache %d hit / %d miss)\n",
			res.Configs, res.RawPoints, res.Workers,
			res.CacheHits, res.CacheMisses)
		printPoints(res.Points)
	}
	if cfg.stats {
		// In -json mode stdout is a machine-readable document; the human
		// stats report moves to stderr instead of corrupting it.
		w := os.Stdout
		if cfg.jsonOut {
			w = os.Stderr
		} else {
			fmt.Println()
		}
		// The expansion line describes an exhaustive sweep's grid; an
		// adaptive run prices only part of it.
		swept := res
		if ar != nil {
			swept = nil
		}
		printStats(w, reg, total, swept)
	}
	return nil
}

// parseNames splits a comma-separated -flag list of axis values. Every
// name must be non-empty and appear once: a repeated name would not add
// a configuration, only inflate the raw grid count.
func parseNames(flagName, noun, list string, valid []string) ([]string, error) {
	var names []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "":
			return nil, fmt.Errorf("empty %s name in -%s %q (want a comma-separated subset of %v)",
				noun, flagName, list, valid)
		case slices.Contains(names, name):
			return nil, fmt.Errorf("repeated %s name %q in -%s %q (name each %s once)",
				noun, name, flagName, list, noun)
		}
		names = append(names, name)
	}
	return names, nil
}

// printPoints renders a point table.
func printPoints(points []repro.SweepPoint) {
	fmt.Printf("%-16s %-8s %-22s %12s %12s %14s\n",
		"arch", "curve", "options", "energy(uJ)", "time(ms)", "EDP(nJ.s)")
	for _, p := range points {
		label := p.Config.OptionsLabel()
		if label == "" {
			label = "-"
		}
		fmt.Printf("%-16s %-8s %-22s %12.2f %12.3f %14.4f\n",
			p.Config.Arch, p.Config.Curve, label,
			p.EnergyJ*1e6, p.TimeS*1e3, p.EDP*1e12)
	}
}

func printResult(r repro.SimResult) {
	fmt.Printf("configuration : %s on %s\n", r.Arch, r.Curve)
	fmt.Printf("workload      : %s\n", r.Workload)
	for _, ph := range r.Phases {
		fmt.Printf("%-14s: %d cycles (%.2f ms, %.2f uJ)\n", ph.Name, ph.Cycles,
			ph.Seconds()*1e3, ph.Energy.Total()*1e6)
	}
	bd := r.CombinedBreakdown()
	fmt.Printf("energy (uJ)   : total=%.2f pete=%.2f rom=%.2f ram=%.2f uncore=%.2f accel=%.2f\n",
		bd.Total()*1e6, bd.Pete*1e6, bd.ROM*1e6, bd.RAM*1e6, bd.Uncore*1e6, bd.Accel*1e6)
	fmt.Printf("average power : %.2f mW (static %.2f, dynamic %.2f)\n",
		r.Power.Total()*1e3, r.Power.StaticW*1e3, r.Power.DynamicW*1e3)
}
