package dse

import (
	"encoding/json"
	"flag"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestLineAxisEndToEnd proves the one-place-registration claim on the
// axis that was added through the registry alone: the I-cache line size
// is reachable from SweepSpec, the canonical key, the options label and
// the JSON wire form with no per-layer special-casing — and at its
// default it vanishes from all of them, keeping pre-axis bytes intact.
func TestLineAxisEndToEnd(t *testing.T) {
	spec := SweepSpec{
		Archs:          []sim.Arch{sim.Baseline, sim.ISAExtCache},
		Curves:         []string{"P-192"},
		CacheLineBytes: []int{16, 32},
	}
	cfgs := spec.Expand()
	// Baseline has no cache: both line values collapse. ISAExtCache
	// keeps the default (elided) and the 32-byte variant.
	if len(cfgs) != 3 {
		t.Fatalf("expanded %d configs, want 3 (baseline + cached x {default,32})", len(cfgs))
	}

	var def, wide *Config
	for i := range cfgs {
		if cfgs[i].Arch != sim.ISAExtCache {
			continue
		}
		if cfgs[i].Opt.CacheLineBytes == 0 {
			def = &cfgs[i]
		} else {
			wide = &cfgs[i]
		}
	}
	if def == nil || wide == nil {
		t.Fatal("missing default-line or wide-line cached config")
	}

	if strings.Contains(def.Key(), "line=") {
		t.Errorf("default line must elide its key token: %s", def.Key())
	}
	if !strings.Contains(wide.Key(), " line=32") {
		t.Errorf("non-default line missing from key: %s", wide.Key())
	}
	if strings.Contains(def.OptionsLabel(), "line=") {
		t.Errorf("default line must not label: %q", def.OptionsLabel())
	}
	if !strings.Contains(wide.OptionsLabel(), "line=32") {
		t.Errorf("non-default line missing from label: %q", wide.OptionsLabel())
	}

	// Explicit 16 and elided default are the same physical machine.
	explicit := Config{Arch: sim.ISAExtCache, Curve: "P-192",
		Opt: sim.Options{CacheLineBytes: 16}}
	if explicit.Hash() != def.Hash() {
		t.Error("explicit 16-byte line must hash like the elided default")
	}

	// JSON: the field appears only for non-default lines, so the wire
	// form of pre-axis sweeps is unchanged.
	run := func(c Config) Point {
		res, err := sim.Run(c.Arch, c.Curve, c.Opt)
		if err != nil {
			t.Fatal(err)
		}
		return newPoint(c, res)
	}
	defJSON, err := json.Marshal(run(*def).ToJSON())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(defJSON), "cacheLineBytes") {
		t.Errorf("default-line JSON leaks the new field: %s", defJSON)
	}
	wideJSON, err := json.Marshal(run(*wide).ToJSON())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(wideJSON), `"cacheLineBytes":32`) {
		t.Errorf("non-default line missing from JSON: %s", wideJSON)
	}
}

// TestLineAxisDiskEntryBytes pins the store-byte contract: a
// default-line result serializes without any CacheLineBytes field, so
// stores written before the axis existed and stores written now hold
// identical bytes for identical grids.
func TestLineAxisDiskEntryBytes(t *testing.T) {
	res, err := sim.Run(sim.ISAExtCache, "P-192", sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(diskEntry{Hash: "h", Key: "k", Result: res})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "CacheLineBytes") {
		t.Errorf("default-line disk entry grew a new field (breaks store byte-identity): %s", b)
	}

	o := sim.DefaultOptions()
	o.CacheLineBytes = 64
	res64, err := sim.Run(sim.ISAExtCache, "P-192", o)
	if err != nil {
		t.Fatal(err)
	}
	b64, err := json.Marshal(diskEntry{Hash: "h", Key: "k", Result: res64})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b64), `"CacheLineBytes":64`) {
		t.Errorf("non-default line absent from disk entry: %s", b64)
	}
}

// TestRegisterAxisFlags checks the generated CLI surface: every axis
// registers a flag, parsed values land on the right Options fields
// (including the inverted -no-double-buffer), and defaults reproduce
// the canonical default configuration.
func TestRegisterAxisFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	apply := RegisterAxisFlags(fs)
	for _, name := range []string{"cache", "prefetch", "ideal-cache", "no-double-buffer",
		"width", "digit", "gate-accel-idle", "line", "workload"} {
		if fs.Lookup(name) == nil {
			t.Errorf("axis flag -%s not registered", name)
		}
	}

	if err := fs.Parse([]string{"-cache", "2048", "-no-double-buffer", "-line", "64",
		"-workload", "ecdh", "-gate-accel-idle"}); err != nil {
		t.Fatal(err)
	}
	var o sim.Options
	apply(&o)
	want := sim.Options{CacheBytes: 2048, DoubleBuffer: false, MonteWidth: 32,
		BillieDigit: 3, GateAccelIdle: true, CacheLineBytes: 64, Workload: "ecdh"}
	if o != want {
		t.Errorf("applied options = %+v, want %+v", o, want)
	}

	// Defaults alone must mean the paper's headline configuration.
	fs2 := flag.NewFlagSet("test", flag.ContinueOnError)
	apply2 := RegisterAxisFlags(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var d sim.Options
	apply2(&d)
	cfg := Config{Arch: sim.WithMonte, Curve: "P-192", Opt: d}
	ref := Config{Arch: sim.WithMonte, Curve: "P-192", Opt: sim.DefaultOptions()}
	if cfg.Hash() != ref.Hash() {
		t.Errorf("default flags are not the default configuration:\n  %s\n  %s", cfg.Key(), ref.Key())
	}
}

// TestAxesHelp sanity-checks the generated -list help: one line per
// axis, each naming its flag.
func TestAxesHelp(t *testing.T) {
	help := AxesHelp()
	if n := strings.Count(help, "\n"); n != len(axes) {
		t.Errorf("AxesHelp has %d lines, want %d", n, len(axes))
	}
	for _, ax := range axes {
		if !strings.Contains(help, "-"+ax.Flag.Name) {
			t.Errorf("AxesHelp missing -%s", ax.Flag.Name)
		}
	}
}

// TestValidateSharesSimDomains asserts the registry rejects axis values
// with the same domain message sim.Run rejects them with — the
// single-source-of-domain property.
func TestValidateSharesSimDomains(t *testing.T) {
	cases := []struct {
		spec SweepSpec
		opt  func(*sim.Options)
	}{
		{SweepSpec{CacheBytes: []int{128}}, func(o *sim.Options) { o.CacheBytes = 128 }},
		{SweepSpec{CacheLineBytes: []int{24}}, func(o *sim.Options) { o.CacheLineBytes = 24 }},
		{SweepSpec{BillieDigits: []int{9}}, func(o *sim.Options) { o.BillieDigit = 9 }},
		{SweepSpec{MonteWidths: []int{12}}, func(o *sim.Options) { o.MonteWidth = 12 }},
		{SweepSpec{Workloads: []string{"tls13"}}, func(o *sim.Options) { o.Workload = "tls13" }},
	}
	for _, tc := range cases {
		specErr := tc.spec.Validate()
		if specErr == nil {
			t.Errorf("spec %+v passed validation", tc.spec)
			continue
		}
		o := sim.DefaultOptions()
		tc.opt(&o)
		_, simErr := sim.Run(sim.ISAExtCache, "P-192", o)
		if simErr == nil {
			t.Errorf("sim accepted options the spec rejects: %v", specErr)
			continue
		}
		specBody := strings.TrimPrefix(specErr.Error(), "dse: ")
		simBody := strings.TrimPrefix(simErr.Error(), "sim: ")
		if specBody != simBody {
			t.Errorf("domain messages diverge:\n  dse: %s\n  sim: %s", specBody, simBody)
		}
	}
}
