package dse

import (
	"flag"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestRegistryOrderPinned pins the axis registry order as a first-class
// invariant. The order is load-bearing twice over — it is the canonical
// key token order (every config hash depends on it) and the Expand
// odometer order (the FullSweep manifest depends on it) — so reordering
// an entry must fail here with the axis named, giving a manifest diff a
// diagnosis instead of just a symptom.
func TestRegistryOrderPinned(t *testing.T) {
	want := []string{
		"arch", "curve", // dimension axes: the key prefix
		"cache", "prefetch", "ideal-cache", "double-buffer",
		"width", "digit", "gate", "line", "workload",
	}
	got := axes
	if len(got) != len(want) {
		names := make([]string, len(got))
		for i, ax := range got {
			names[i] = ax.Name
		}
		t.Fatalf("registry has %d axes %v, want %d %v — adding or removing an axis changes the key format; update this pin deliberately",
			len(got), names, len(want), want)
	}
	for i, ax := range got {
		if ax.Name != want[i] {
			t.Errorf("registry position %d holds axis %q, want %q — registry order is the canonical key-token order; moving %q changes every config hash and the FullSweep manifest",
				i, ax.Name, want[i], ax.Name)
		}
	}

	// Dimension axes must render first: the "arch=… curve=…" prefix is
	// the start of every stored key and hash.
	seenOption := ""
	for _, ax := range got {
		if !ax.Dimension {
			seenOption = ax.Name
			continue
		}
		if seenOption != "" {
			t.Errorf("dimension axis %q is registered after option axis %q — dimension axes must render their key tokens first",
				ax.Name, seenOption)
		}
	}

	// The rendered key must visibly lead with the dimension tokens, in
	// registry order, for every architecture.
	for _, a := range AllArchs() {
		curve := "P-256"
		if a == sim.WithBillie {
			curve = "B-163"
		}
		key := Config{Arch: a, Curve: curve}.Key()
		prefix := "arch=" + a.String() + " curve=" + curve
		if !strings.HasPrefix(key, prefix) {
			t.Errorf("key %q does not start with the dimension prefix %q — the arch/curve registry entries must render the leading tokens",
				key, prefix)
		}
	}
}

// TestEveryAxisDeclaresStrategy enforces the must-declare rule for the
// search-strategy metadata and pins each axis's declared block, so a
// change to how an adaptive strategy may step or prune an axis is a
// deliberate, reviewed edit rather than a drive-by.
func TestEveryAxisDeclaresStrategy(t *testing.T) {
	want := map[string]Strategy{
		"arch":          {Scale: ScaleEnumerated},
		"curve":         {Scale: ScaleEnumerated},
		"cache":         {Scale: ScaleLog2},
		"prefetch":      {Scale: ScaleEnumerated},
		"ideal-cache":   {Scale: ScaleEnumerated},
		"double-buffer": {Scale: ScaleEnumerated, MonotonePrunable: true},
		"width":         {Scale: ScaleLog2},
		"digit":         {Scale: ScaleLinear},
		"gate":          {Scale: ScaleEnumerated, MonotonePrunable: true},
		"line":          {Scale: ScaleLog2},
		"workload":      {Scale: ScaleEnumerated},
	}
	for _, ax := range axes {
		if ax.Strategy.Scale == ScaleUnset {
			t.Errorf("axis %q declares no Strategy (scale %v) — every axis must state how adaptive exploration steps it",
				ax.Name, ax.Strategy.Scale)
			continue
		}
		w, ok := want[ax.Name]
		if !ok {
			t.Errorf("axis %q has no pinned strategy; add it here deliberately", ax.Name)
			continue
		}
		if ax.Strategy != w {
			t.Errorf("axis %q strategy = {%v prunable=%t}, want {%v prunable=%t}",
				ax.Name, ax.Strategy.Scale, ax.Strategy.MonotonePrunable, w.Scale, w.MonotonePrunable)
		}
	}
}

// TestParseArch is the -arch typo regression test: the registry parser
// accepts every canonical name (case-insensitively) and the historical
// short spellings, and rejects a typo with an error listing the valid
// names — the guidance cmd/dse previously omitted.
func TestParseArch(t *testing.T) {
	accept := map[string]sim.Arch{
		"baseline":       sim.Baseline,
		"isa-ext":        sim.ISAExt,
		"isaext":         sim.ISAExt,
		"isa-ext+icache": sim.ISAExtCache,
		"icache":         sim.ISAExtCache,
		"monte":          sim.WithMonte,
		"MONTE":          sim.WithMonte,
		"Billie":         sim.WithBillie,
	}
	for in, wantArch := range accept {
		a, err := ParseArch(in)
		if err != nil {
			t.Errorf("ParseArch(%q) failed: %v", in, err)
		} else if a != wantArch {
			t.Errorf("ParseArch(%q) = %v, want %v", in, a, wantArch)
		}
	}

	_, err := ParseArch("montee")
	if err == nil {
		t.Fatal("ParseArch accepted a typo")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown architecture "montee"`) {
		t.Errorf("typo error %q does not name the bad input", msg)
	}
	for _, a := range AllArchs() {
		if name := a.String(); !strings.Contains(msg, name) {
			t.Errorf("typo error %q does not list valid name %q", msg, name)
		}
	}
}

// TestParseCurve asserts the curve parser shares its guidance with
// sweep validation: same accepted domain, same unknown-curve message.
func TestParseCurve(t *testing.T) {
	for _, name := range AllCurves() {
		got, err := ParseCurve(name)
		if err != nil || got != name {
			t.Errorf("ParseCurve(%q) = %q, %v", name, got, err)
		}
	}
	_, err := ParseCurve("P-999")
	if err == nil {
		t.Fatal("ParseCurve accepted an unknown curve")
	}
	specErr := SweepSpec{Curves: []string{"P-999"}}.Validate()
	if specErr == nil {
		t.Fatal("Validate accepted an unknown curve")
	}
	if want := strings.TrimPrefix(specErr.Error(), "dse: "); err.Error() != want {
		t.Errorf("ParseCurve error %q diverges from sweep validation %q", err.Error(), want)
	}
}

// TestRegisterDimensionFlags asserts the dimension selectors come from
// the registry — and only from RegisterDimensionFlags: the option-axis
// registrar must not claim them (it would panic on a duplicate flag and
// conflate selection with tuning).
func TestRegisterDimensionFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	dims := RegisterDimensionFlags(fs)
	archFlag, curveFlag := dims["arch"], dims["curve"]
	if archFlag == nil || curveFlag == nil {
		t.Fatalf("RegisterDimensionFlags bound %v, want arch and curve", dims)
	}
	if fs.Lookup("arch") == nil || fs.Lookup("curve") == nil {
		t.Fatal("dimension flags not registered on the flag set")
	}
	if *archFlag != "" || *curveFlag != "P-256" {
		t.Errorf("dimension defaults = (%q, %q), want (\"\", \"P-256\")", *archFlag, *curveFlag)
	}
	if err := fs.Parse([]string{"-arch", "monte", "-curve", "P-384"}); err != nil {
		t.Fatal(err)
	}
	if *archFlag != "monte" || *curveFlag != "P-384" {
		t.Errorf("parsed dimensions = (%q, %q), want (monte, P-384)", *archFlag, *curveFlag)
	}

	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterAxisFlags(fs2)
	for _, name := range []string{"arch", "curve"} {
		if fs2.Lookup(name) != nil {
			t.Errorf("RegisterAxisFlags registered dimension flag -%s; dimensions belong to RegisterDimensionFlags", name)
		}
	}
}

// TestValidIsRegistryConstraint pins the cross-dimension validity rule
// now declared on the curve axis: Monte runs prime fields only, Billie
// binary fields only, everything else runs both.
func TestValidIsRegistryConstraint(t *testing.T) {
	for _, a := range AllArchs() {
		for _, curve := range AllCurves() {
			want := true
			if sim.IsPrimeCurve(curve) {
				want = a != sim.WithBillie
			} else {
				want = !a.HasMonte()
			}
			if got := (Config{Arch: a, Curve: curve}).Valid(); got != want {
				t.Errorf("Config{%v, %s}.Valid() = %t, want %t", a, curve, got, want)
			}
		}
	}
}
