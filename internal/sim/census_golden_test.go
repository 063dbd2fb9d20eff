package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites testdata/census.golden from the current profiler and
// testdata/kernels.golden from the pipeline simulator.
//
//	go test ./internal/sim/ -run 'TestCensusGolden|TestKernelGolden' -update
var update = flag.Bool("update", false, "rewrite testdata/census.golden and testdata/kernels.golden from current output")

// TestCensusGolden pins every (curve, phase) census, as profileCurve
// produces it, against a checked-in file. Each curve's header line
// carries its sizes from the curve table (TestCurveTable checks them
// against the constructed curve).
// It is the absolute form of census equality, the oracle for every
// arithmetic change in ec, ecdsa, mp and gf2: a faster kernel must leave
// every line as it is. Regenerate only for an intended change to what
// the model counts, and review the diff.
func TestCensusGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles all four phases on every curve")
	}
	var b strings.Builder
	for _, curve := range allCurves() {
		prof, err := profileCurve(curve, profileOrder)
		if err != nil {
			t.Fatalf("%s: %v", curve, err)
		}
		c, _ := LookupCurve(curve)
		fmt.Fprintf(&b, "%s k=%d bits=%d nbits=%d\n", curve, c.K, c.Bits, c.NBits)
		for _, ph := range prof.phases {
			fmt.Fprintf(&b, "  %-7s %+v\n", ph.name, ph.census)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "census.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("census has %d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n  got:  %s\n  want: %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
