package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// benchmarkDecl is the part of BENCHMARK.json the harness reads.
type benchmarkDecl struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Verdicts of one (workload, metric) comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares the medians of two sides' runs of a metric whose bound
// is the share by which it may get worse. A side's spread is the
// distance between its runs' quartiles as a share of their median (0
// with a single run). When either spread exceeds the bound and the two
// sides' runs interleave, the difference cannot be told from noise.
func judge(bound float64, higherIsBetter bool, oldMed, newMed float64, oldRuns, newRuns []float64) string {
	if spread(oldRuns) > bound || spread(newRuns) > bound {
		if len(oldRuns) > 0 && len(newRuns) > 0 &&
			slices.Max(newRuns) >= slices.Min(oldRuns) && slices.Max(oldRuns) >= slices.Min(newRuns) {
			return unresolved
		}
	}
	change := (newMed - oldMed) / oldMed
	if higherIsBetter {
		change = -change
	}
	switch {
	case change > bound:
		return worse
	case change < -bound:
		return improved
	}
	return unchanged
}

func spread(runs []float64) float64 {
	if len(runs) < 2 {
		return 0
	}
	q1, q3 := quartiles(runs)
	return (q3 - q1) / median(runs)
}

// judgeFailures compares failed ÷ attempted: any increase is worse.
func judgeFailures(oldRatio, newRatio float64) string {
	switch {
	case newRatio > oldRatio:
		return worse
	case newRatio < oldRatio:
		return improved
	}
	return unchanged
}

// side is one side of a comparison: result files, each one run of the
// benchmark.
type side []*results

func loadSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		var r results
		if err := readJSON(path, &r); err != nil {
			return nil, err
		}
		s = append(s, &r)
	}
	return s, nil
}

// values returns every run's value of a workload's metric, or false when
// a run lacks it.
func (s side) values(workload, metric string) ([]float64, bool) {
	var vs []float64
	for _, r := range s {
		wr := r.Workloads[workload]
		if wr == nil {
			return nil, false
		}
		v, ok := wr.Metrics[metric]
		if !ok {
			return nil, false
		}
		vs = append(vs, v.Value)
	}
	return vs, true
}

func (s side) failRatio(workload string) float64 {
	var failed, attempted int
	for _, r := range s {
		if wr := r.Workloads[workload]; wr != nil {
			failed += wr.Failed
			attempted += wr.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// compareFiles compares two comma-separated lists of result files. It
// prints one row per (workload, end-to-end metric) of the first old file,
// plus each workload's fail_ratio, and reports whether any row is worse.
func compareFiles(oldList, newList, declPath string, w io.Writer) (bool, error) {
	var decl benchmarkDecl
	if err := readJSON(declPath, &decl); err != nil {
		return false, err
	}
	olds, err := loadSide(oldList)
	if err != nil {
		return false, err
	}
	news, err := loadSide(newList)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-16s %-12s %12s %12s %9s  %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, name := range sortedKeys(olds[0].Workloads) {
		for _, m := range decl.EndToEnd {
			ov, ok1 := olds.values(name, m.Name)
			nv, ok2 := news.values(name, m.Name)
			if !ok1 || !ok2 {
				fmt.Fprintf(w, "%-16s %-12s missing from a run\n", name, m.Name)
				continue
			}
			om, nm := median(ov), median(nv)
			v := judge(m.Bound, m.Better == "higher", om, nm, ov, nv)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "%-16s %-12s %12.6g %12.6g %+8.1f%%  %s\n", name, m.Name, om, nm, 100*(nm-om)/om, v)
		}
		of, nf := olds.failRatio(name), news.failRatio(name)
		v := judgeFailures(of, nf)
		anyWorse = anyWorse || v == worse
		fmt.Fprintf(w, "%-16s %-12s %12.6g %12.6g %9s  %s\n", name, "fail_ratio", of, nf, "", v)
	}
	return anyWorse, nil
}
