package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// The dse program's inputs are fixed; the seed only orders samples.
var (
	sweepArgs    = []string{"-sweep", "-workers", "2"}
	workloadAxis = "sign-verify,keygen,ecdh,handshake"
	multiArgs    = append(slices.Clone(sweepArgs), "-workload", workloadAxis)
	adaptiveArgs = []string{"-sweep", "-adaptive", "-workers", "2", "-workload", workloadAxis}
	reportArgs   = []string{"-all"}
)

// Grid sizes the workloads are defined on. A change to either changes
// the work a sample does, so it fails the output check rather than
// passing as a speed-up.
const (
	fullGridConfigs  = 530
	multiGridConfigs = 2120
)

// A workload is one dse invocation timed as fresh processes. Its set-up
// is timed as setup_s and produces the references its output check uses.
type workload struct {
	name string
	args []string
	// axis is the -workload axis of the workload's design space ("" for
	// the default); the traced replay decomposes an exhaustive sweep of it.
	axis string
	// root is the replay's -call for the library call the CLI makes;
	// rootStore, when set, is passed as that call's -store.
	root      string
	rootStore string
	setup     func(x *executor) ([]float64, error)
	check     func(out string) error
}

// specArgs returns the dse arguments of an exhaustive sweep over the
// workload's design space.
func (w *workload) specArgs() []string {
	if w.axis == "" {
		return slices.Clone(sweepArgs)
	}
	return append(slices.Clone(sweepArgs), "-workload", w.axis)
}

// workloads returns the benchmark's workloads. Set-up state (the
// reference table, rows and goldens) lives in the closures.
func workloads() []*workload {
	warmStore := filepath.Join(buildDir, "warm-store")
	warmArgs := append(slices.Clone(sweepArgs), "-cache-dir", warmStore)
	var coldTable string
	exhaustive := make(map[string]bool)
	var goldens []string

	checkCold := func(out string) error { return checkSweep(out, fullGridConfigs, 0, fullGridConfigs) }
	checkWarm := func(out string) error {
		if !strings.Contains(out, "store already up to date") {
			return fmt.Errorf("warm restart rewrote the store")
		}
		if err := checkSweep(out, fullGridConfigs, fullGridConfigs, 0); err != nil {
			return err
		}
		return sameTable(out, coldTable)
	}
	return []*workload{
		{
			// The census is ~99% of the CPU time; the store is never touched.
			name: "cold-sweep", args: sweepArgs, root: "sweep",
			setup: func(x *executor) ([]float64, error) {
				return repeat(3, func() (sample, error) { return x.dseChecked(checkCold, sweepArgs...) })
			},
			check: checkCold,
		},
		{
			// Every point is a store hit, so the store load and its model
			// fingerprint are the work. Set-up populates the store into a
			// fresh directory each time: the store's write side.
			name: "warm-restart", args: warmArgs, root: "sweep", rootStore: warmStore,
			setup: func(x *executor) ([]float64, error) {
				ref, err := x.dseChecked(checkCold, sweepArgs...)
				if err != nil {
					return nil, err
				}
				coldTable = strings.Join(pointRows(ref.out), "\n")
				populate := func(out string) error {
					if err := checkSweep(out, fullGridConfigs, 0, fullGridConfigs); err != nil {
						return err
					}
					return sameTable(out, coldTable)
				}
				return repeat(10, func() (sample, error) {
					if err := os.RemoveAll(warmStore); err != nil {
						return sample{}, err
					}
					return x.dseChecked(populate, warmArgs...)
				})
			},
			check: checkWarm,
		},
		{
			// The same phases profiled under four workload keys, and the
			// adaptive rounds. Set-up runs the exhaustive sweep of the
			// same spec that every printed row is checked against.
			name: "adaptive-multi", args: adaptiveArgs, axis: workloadAxis, root: "adaptive",
			setup: func(x *executor) ([]float64, error) {
				return repeat(3, func() (sample, error) {
					s, err := x.dseChecked(func(out string) error {
						return checkSweep(out, multiGridConfigs, 0, multiGridConfigs)
					}, multiArgs...)
					for _, row := range pointRows(s.out) {
						exhaustive[row] = true
					}
					return s, err
				})
			},
			check: func(out string) error {
				evaluated, grid, err := parseAdaptiveHeader(out)
				if err != nil {
					return err
				}
				if grid != multiGridConfigs || evaluated < 1 || evaluated > grid {
					return fmt.Errorf("adaptive header reads %d/%d, want a grid of %d", evaluated, grid, multiGridConfigs)
				}
				rows := pointRows(out)
				if len(rows) == 0 {
					return fmt.Errorf("no frontier rows")
				}
				for _, row := range rows {
					if !exhaustive[row] {
						return fmt.Errorf("row %q is not in the exhaustive sweep", row)
					}
				}
				return nil
			},
		},
		{
			// Every table and figure: the report layer, three live sweeps
			// and many single simulations.
			name: "report-all", args: reportArgs, root: "experiments",
			setup: func(x *executor) ([]float64, error) {
				paths, err := filepath.Glob(filepath.Join("internal", "report", "testdata", "*.golden"))
				if err != nil || len(paths) == 0 {
					return nil, fmt.Errorf("no report goldens found (%v)", err)
				}
				for _, p := range paths {
					b, err := os.ReadFile(p)
					if err != nil {
						return nil, err
					}
					goldens = append(goldens, string(b))
				}
				return repeat(3, func() (sample, error) {
					return x.dseChecked(func(out string) error { return containsGoldens(out, goldens) }, reportArgs...)
				})
			},
			check: func(out string) error { return containsGoldens(out, goldens) },
		},
	}
}

var (
	sweepHeader    = regexp.MustCompile(`(?m)^design-space sweep: (\d+) unique configurations \(grid \d+, workers \d+, cache (\d+) hit / (\d+) miss\)$`)
	adaptiveHeader = regexp.MustCompile(`(?m)^adaptive exploration: (\d+)/(\d+) grid configurations evaluated`)
	censusStats    = regexp.MustCompile(`(?m)^\s*census memo: (\d+) hits / (\d+) misses`)
	// volatileCounts masks the cache accounting the report goldens mask:
	// it depends on which experiments ran earlier in the process.
	volatileCounts = regexp.MustCompile(`\d+ cache hits, \d+ misses`)
)

// atois converts a regexp match's groups.
func atois(groups []string) []int {
	out := make([]int, len(groups))
	for i, g := range groups {
		out[i], _ = strconv.Atoi(g) // the patterns match digits only
	}
	return out
}

// parseSweepHeader reads "design-space sweep: N unique configurations
// (..., cache H hit / M miss)".
func parseSweepHeader(out string) (configs, hits, misses int, err error) {
	m := sweepHeader.FindStringSubmatch(out)
	if m == nil {
		return 0, 0, 0, fmt.Errorf("no sweep header in output")
	}
	v := atois(m[1:])
	return v[0], v[1], v[2], nil
}

// parseAdaptiveHeader reads "adaptive exploration: E/G grid
// configurations evaluated ...".
func parseAdaptiveHeader(out string) (evaluated, grid int, err error) {
	m := adaptiveHeader.FindStringSubmatch(out)
	if m == nil {
		return 0, 0, fmt.Errorf("no adaptive header in output")
	}
	v := atois(m[1:])
	return v[0], v[1], nil
}

// parseCensusStats reads the census memo line of dse -stats.
func parseCensusStats(out string) (hits, misses int, err error) {
	m := censusStats.FindStringSubmatch(out)
	if m == nil {
		return 0, 0, fmt.Errorf("no census memo line in -stats output")
	}
	v := atois(m[1:])
	return v[0], v[1], nil
}

func checkSweep(out string, configs, hits, misses int) error {
	c, h, m, err := parseSweepHeader(out)
	if err != nil {
		return err
	}
	if c != configs || h != hits || m != misses {
		return fmt.Errorf("sweep header reads %d configs / %d hits / %d misses, want %d / %d / %d", c, h, m, configs, hits, misses)
	}
	return nil
}

// pointRows returns the rows of every point table in a dse sweep's text
// output: the lines under each column header, up to the first blank line.
func pointRows(out string) []string {
	var rows []string
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "arch "):
			inTable = true
		case !inTable || strings.HasPrefix(line, "[level "):
		case line == "":
			return rows
		default:
			rows = append(rows, line)
		}
	}
	return rows
}

func sameTable(out, want string) error {
	if got := strings.Join(pointRows(out), "\n"); got != want {
		return fmt.Errorf("point table differs from the cold sweep's")
	}
	return nil
}

func containsGoldens(out string, goldens []string) error {
	out = volatileCounts.ReplaceAllString(out, "N cache hits, N misses")
	for _, g := range goldens {
		if !strings.Contains(out, g) {
			first, _, _ := strings.Cut(g, "\n")
			return fmt.Errorf("output lacks the golden report starting %q", first)
		}
	}
	return nil
}
