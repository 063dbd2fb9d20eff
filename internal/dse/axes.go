package dse

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/sim"
)

// This file is the single point of registration for design-space axes.
// One Axis value declares everything the stack needs to know about a
// dimension or a knob — its canonical key token and elision rule, its
// default, which architectures it is relevant to, how it reads/writes
// the Config and SweepSpec, its value-domain check (shared with
// sim.Run's validation), its human label fragment, its JSON rendering,
// its CLI flag, and its search-strategy metadata — and every layer
// (Config.Canonical/Key/OptionsLabel/Valid, SweepSpec.normalized/
// Validate/RawPoints/PrunedPoints/Expand, Point.ToJSON, cmd/dse's flag
// set and -list help) iterates the registry instead of hand-written
// field lists.
//
// Axes come in two classes:
//
//   - Dimension axes (Dimension: true) identify *what* is simulated —
//     the architecture and the curve. They write Config.Arch /
//     Config.Curve rather than an Options field, render the leading key
//     tokens, own the cross-dimension validity rule (validWith), and
//     surface on the CLI as selection flags (-arch, -curve) with a
//     declared parse rather than through RegisterAxisFlags.
//   - Option axes identify *how* it is configured — every tuning knob.
//     They write one sim.Options field each and surface through
//     RegisterAxisFlags.
//
// Adding an option axis therefore means: one field on sim.Options (with
// its model), one slice field on SweepSpec, one field on PointJSON, and
// one entry below. Nothing else in the repository names the knob. The
// CacheLineBytes axis is the proof: it was added through this registry
// alone. Registry order is load-bearing twice over: it is the canonical
// key token order (changing it changes every config hash) and the
// Expand odometer order (last entry varies fastest). Dimension axes
// MUST come first — they render the "arch=… curve=…" key prefix every
// stored hash starts from; TestRegistryOrderPinned enforces both
// invariants by name.
//
// A new axis MUST declare its archRelevant predicate alongside
// relevant. Factored expansion only enumerates an axis on the
// architectures its archRelevant admits; an axis that omits the
// predicate is treated as possibly relevant everywhere and multiplies
// every architecture's factored grid — Baseline's 1-point sweep
// becomes N points. The predicate must over-approximate relevant
// (never be false where relevant can be true); the factored-vs-brute
// equivalence tests catch a violation. The predicate is also the one
// per-architecture relevance list the CLI sees: RelevantAxisFlags reads
// it to reject a single-run flag that cannot change the result.
//
// Every axis MUST also declare its Strategy block — the scale hint and
// monotone-prunability flag adaptive exploration strategies read to
// decide how to refine or prune along the axis. The zero Scale value is
// deliberately invalid so an undeclared strategy fails the registry
// test instead of silently meaning something.

// Axis declares one design-space axis: a dimension (architecture,
// curve) or an option knob.
type Axis struct {
	// Name identifies the axis in documentation and help text.
	Name string
	// Doc is a one-line description for generated help.
	Doc string
	// Domain describes the accepted values for generated help.
	Domain string
	// Flag is the CLI flag cmd/dse generates for the axis. Option axes
	// register through RegisterAxisFlags; dimension axes through
	// RegisterDimensionFlags (they select what to run rather than tune
	// an Options value).
	Flag FlagSpec
	// Dimension marks an axis that identifies the simulated design
	// (architecture, curve) rather than tuning it. Dimension axes render
	// their key tokens first, carry the cross-dimension validity rule,
	// and are excluded from the option-axis surfaces (RegisterAxisFlags,
	// RelevantAxisFlags, OptionsLabel).
	Dimension bool
	// Strategy is the axis's search-strategy metadata: how an adaptive
	// exploration should step along it and whether it may prune by
	// monotonicity. Mandatory — the registry test rejects a zero Scale.
	Strategy Strategy

	// normalize fills the axis's SweepSpec field with its default set
	// when unset (nil/empty).
	normalize func(s *SweepSpec)
	// values returns the axis's SweepSpec values, unboxed, for the
	// expansion odometer; call on a normalized spec.
	values func(s *SweepSpec) []axisValue
	// check validates one value against the modeled domain (the same
	// sim.Check* the simulator's own validation runs); nil means every
	// value of the type is in-model.
	check func(v axisValue) error
	// set writes one value into the config (a dimension field or one
	// sim.Options field).
	set func(c *Config, v axisValue)

	// parse converts one CLI string into an axis value, rejecting
	// out-of-domain input with an error that lists the valid values.
	// Declared by dimension axes (option axes parse through the typed
	// flag machinery in RegisterAxisFlags).
	parse func(s string) (axisValue, error)

	// canon rewrites the axis value toward its canonical form
	// (zero-value → default, or default → elided zero); nil means the
	// zero value is already canonical. It reads and writes only the
	// axis's own field.
	canon func(c *Config)
	// relevant reports whether the knob physically exists on the
	// config's architecture (evaluated after every canon has run); nil
	// means always relevant.
	relevant func(c *Config) bool
	// archRelevant is the architecture-level upper bound of relevant:
	// false means no configuration on that architecture can ever have
	// the knob relevant, so factored expansion pins the axis at its
	// cleared value instead of enumerating it. nil means possibly
	// relevant everywhere. It must over-approximate relevant —
	// relevant(c) implies archRelevant(c.Arch) — never refine it; a
	// value-conditional predicate (the prefetcher is irrelevant under
	// an ideal cache) keeps its arch-level bound here and collapses in
	// Canonical. The factored-vs-brute equivalence tests enforce the
	// bound; an axis that omits it merely multiplies every
	// architecture's factored grid, it cannot produce wrong configs.
	archRelevant func(a sim.Arch) bool
	// clear forces the knob to its irrelevant zero value.
	clear func(c *Config)

	// validWith is the axis's cross-axis validity constraint: false
	// means the config's dimension values cannot be combined (Monte is a
	// prime-field accelerator, Billie a binary-field one). Config.Valid
	// is the conjunction of every registered validWith, and factored
	// expansion hoists the check to the dimension odometer — so a
	// constraint must depend only on dimension values. nil means the
	// axis constrains nothing.
	validWith func(c *Config) bool

	// appendKey appends the canonical key token (" cache=4096", leading
	// space included; the first dimension axis omits it) to dst, or
	// returns dst unchanged to elide the token, which is how a new axis
	// keeps every pre-existing key and hash byte-identical at its
	// default. Append-style so the whole key renders into one
	// preallocated buffer with no per-token strings.
	appendKey func(dst []byte, c *Config) []byte
	// label renders the OptionsLabel fragment; attach appends it to the
	// previous fragment without a space ("4KB"+"+pf"). Empty means no
	// fragment. Dimension axes render identity fragments ("monte",
	// "P-256") for full-config labels; OptionsLabel skips them.
	label func(c *Config) (frag string, attach bool)
	// toJSON copies the canonical axis value into the wire form.
	toJSON func(c *Config, j *PointJSON)
}

// Scale is an axis's search-scale hint: how an adaptive exploration
// strategy should step along the axis when refining the design space.
type Scale int

const (
	// ScaleUnset is the invalid zero value. Every registered axis must
	// declare its scale explicitly; the registry test rejects an unset
	// one so "forgot to think about it" cannot ship as metadata.
	ScaleUnset Scale = iota
	// ScaleEnumerated marks a discrete, unordered value set (bools,
	// names, architectures): a strategy explores members, it cannot
	// interpolate or bisect between them.
	ScaleEnumerated
	// ScaleLinear marks a numerically ordered axis refined in unit or
	// linear steps (the Billie digit size 1..8).
	ScaleLinear
	// ScaleLog2 marks a power-of-two axis refined by doubling/halving
	// (cache capacity, line size, datapath width).
	ScaleLog2
)

// Ordered reports whether the scale defines a numeric ordering a
// strategy can step along — linear and log2 axes bisect and walk
// toward interior optima; enumerated ones can only substitute members.
func (s Scale) Ordered() bool { return s == ScaleLinear || s == ScaleLog2 }

// String names the scale for help text and test failure messages.
func (s Scale) String() string {
	switch s {
	case ScaleEnumerated:
		return "enumerated"
	case ScaleLinear:
		return "linear"
	case ScaleLog2:
		return "log2"
	default:
		return fmt.Sprintf("unset(%d)", int(s))
	}
}

// Strategy is the per-axis search-strategy metadata the adaptive
// exploration arc consumes: every axis declares how it is stepped and
// whether a strategy may prune it by monotonicity, so a refinement
// loop needs no per-axis special cases.
type Strategy struct {
	// Scale is the step rule for refining along the axis.
	Scale Scale
	// MonotonePrunable marks an axis whose figures of merit respond
	// monotonically along its ordering — once one endpoint dominates,
	// the rest of the range can be pruned without simulating it.
	// Enabling double buffering never slows Monte down, and gating an
	// idle accelerator never costs energy; cache capacity, by
	// contrast, trades area/leakage against misses and has interior
	// optima, so it is not prunable.
	MonotonePrunable bool
}

// axisValue carries one axis value through the expansion inner loop
// without boxing: the odometer used to build one interface value per
// axis per raw point (3.9 M allocations on a FullSweep expansion); a
// small tagged struct is copied instead. The tag reuses the FlagKind
// discriminants; the arch dimension rides in the int field as the
// sim.Arch ordinal.
type axisValue struct {
	kind FlagKind
	i    int
	b    bool
	s    string
}

func intVal(v int) axisValue       { return axisValue{kind: FlagInt, i: v} }
func boolVal(v bool) axisValue     { return axisValue{kind: FlagBool, b: v} }
func stringVal(v string) axisValue { return axisValue{kind: FlagString, s: v} }

// archVal carries a sim.Arch as an axis value (ordinal in the int
// field; the CLI-facing form is the string name, read by parse).
func archVal(a sim.Arch) axisValue { return axisValue{kind: FlagInt, i: int(a)} }

// FlagKind selects the CLI flag type generated for an axis.
type FlagKind int

const (
	FlagInt FlagKind = iota
	FlagBool
	FlagString
)

// FlagSpec declares an axis's CLI flag.
type FlagSpec struct {
	Name      string
	Usage     string
	Kind      FlagKind
	DefInt    int
	DefString string
	// Invert makes a bool flag mean the opposite of the option value
	// (-no-double-buffer sets DoubleBuffer=false).
	Invert bool
}

func intVals(vs []int) []axisValue {
	out := make([]axisValue, len(vs))
	for i, v := range vs {
		out[i] = intVal(v)
	}
	return out
}

func boolVals(vs []bool) []axisValue {
	out := make([]axisValue, len(vs))
	for i, v := range vs {
		out[i] = boolVal(v)
	}
	return out
}

func stringVals(vs []string) []axisValue {
	out := make([]axisValue, len(vs))
	for i, v := range vs {
		out[i] = stringVal(v)
	}
	return out
}

// evaluatedArchs is the arch dimension's declared value domain and
// default set: the paper's five evaluated architectures, in Figure 1.1
// spectrum order. This order is the arch-major expansion order and so
// part of the manifest contract.
var evaluatedArchs = []sim.Arch{sim.Baseline, sim.ISAExt, sim.ISAExtCache, sim.WithMonte, sim.WithBillie}

// AllArchs lists the paper's five evaluated architectures — the arch
// dimension axis's declared default set.
func AllArchs() []sim.Arch {
	return append([]sim.Arch{}, evaluatedArchs...)
}

// archNames lists the evaluated architectures' canonical CLI names, in
// domain order, for the arch axis's unknown-architecture message.
func archNames() []string {
	out := make([]string, len(evaluatedArchs))
	for i, a := range evaluatedArchs {
		out[i] = a.String()
	}
	return out
}

// AllCurves lists all ten NIST curves, primes first — the curve
// dimension axis's declared value domain and default set.
func AllCurves() []string {
	return append(sim.CurveNames(sim.PrimeFamily), sim.CurveNames(sim.BinaryFamily)...)
}

// checkCurveName is the curve axis's domain check, shared between
// sweep validation and CLI parsing so a typo is rejected with the
// identical message on every path.
func checkCurveName(name string) error {
	if _, ok := sim.LookupCurve(name); !ok {
		return fmt.Errorf("unknown curve %q (want one of %v)", name, AllCurves())
	}
	return nil
}

// axes is the registry: the dimension axes first (they render the
// "arch=… curve=…" key prefix), then the option axes in canonical
// key-token order (which is also the Expand odometer order: the last
// axis varies fastest). The order and token spellings reproduce the
// PR-1..4 hand-written Key exactly; the FuzzConfigHash legacy-rendering
// check, the FullSweep manifest golden, and TestRegistryOrderPinned pin
// that equivalence.
var axes = []*Axis{
	{
		Name:      "arch",
		Doc:       "architecture on the Figure 1.1 acceleration spectrum",
		Domain:    "baseline, isa-ext, isa-ext+icache, monte, billie",
		Flag:      FlagSpec{Name: "arch", Kind: FlagString, Usage: "run one configuration: baseline, isa-ext, isa-ext+icache, monte, billie"},
		Dimension: true,
		Strategy:  Strategy{Scale: ScaleEnumerated},
		normalize: func(s *SweepSpec) {
			if len(s.Archs) == 0 {
				s.Archs = AllArchs()
			}
		},
		values: func(s *SweepSpec) []axisValue {
			out := make([]axisValue, len(s.Archs))
			for i, a := range s.Archs {
				out[i] = archVal(a)
			}
			return out
		},
		set: func(c *Config, v axisValue) { c.Arch = sim.Arch(v.i) },
		parse: func(s string) (axisValue, error) {
			name := strings.ToLower(s)
			for _, a := range evaluatedArchs {
				if name == a.String() {
					return archVal(a), nil
				}
			}
			// Historical short spellings, kept from the pre-registry CLI.
			switch name {
			case "isaext":
				return archVal(sim.ISAExt), nil
			case "icache":
				return archVal(sim.ISAExtCache), nil
			}
			return axisValue{}, fmt.Errorf("unknown architecture %q (want one of %s)", s, strings.Join(archNames(), ", "))
		},
		// The first key token: no leading space, reproducing the
		// hand-written "arch=…" prefix every stored hash starts from.
		appendKey: func(dst []byte, c *Config) []byte {
			dst = append(dst, "arch="...)
			return append(dst, c.Arch.String()...)
		},
		label:  func(c *Config) (string, bool) { return c.Arch.String(), false },
		toJSON: func(c *Config, j *PointJSON) { j.Arch = c.Arch.String() },
	},
	{
		Name:      "curve",
		Doc:       "NIST curve (P-* prime field, B-* binary field)",
		Domain:    strings.Join(AllCurves(), ", "),
		Flag:      FlagSpec{Name: "curve", Kind: FlagString, DefString: "P-256", Usage: "curve for -arch runs"},
		Dimension: true,
		Strategy:  Strategy{Scale: ScaleEnumerated},
		normalize: func(s *SweepSpec) {
			if len(s.Curves) == 0 {
				s.Curves = AllCurves()
			}
		},
		values: func(s *SweepSpec) []axisValue { return stringVals(s.Curves) },
		check:  func(v axisValue) error { return checkCurveName(v.s) },
		set:    func(c *Config, v axisValue) { c.Curve = v.s },
		parse: func(s string) (axisValue, error) {
			if err := checkCurveName(s); err != nil {
				return axisValue{}, err
			}
			return stringVal(s), nil
		},
		// The architecture/curve compatibility rule (Section 7.x): Monte
		// is a prime-field accelerator, Billie a binary-field one; every
		// other architecture runs both families in software. Declared
		// here — on the axis whose value picks the field — so
		// Config.Valid and the expansion's hoisted dimension prune both
		// consume it generically.
		validWith: func(c *Config) bool {
			if sim.IsPrimeCurve(c.Curve) {
				return c.Arch != sim.WithBillie
			}
			return !c.Arch.HasMonte()
		},
		appendKey: func(dst []byte, c *Config) []byte {
			dst = append(dst, " curve="...)
			return append(dst, c.Curve...)
		},
		label:  func(c *Config) (string, bool) { return c.Curve, false },
		toJSON: func(c *Config, j *PointJSON) { j.Curve = c.Curve },
	},
	{
		Name:     "cache",
		Doc:      "I-cache capacity (cached architectures only)",
		Domain:   fmt.Sprintf("%d..%d bytes", sim.MinCacheBytes, sim.MaxCacheBytes),
		Flag:     FlagSpec{Name: "cache", Kind: FlagInt, DefInt: sim.DefaultCacheBytes, Usage: "I-cache bytes for cached configurations"},
		Strategy: Strategy{Scale: ScaleLog2},
		normalize: func(s *SweepSpec) {
			if len(s.CacheBytes) == 0 {
				s.CacheBytes = []int{sim.DefaultCacheBytes}
			}
		},
		values: func(s *SweepSpec) []axisValue { return intVals(s.CacheBytes) },
		check:  func(v axisValue) error { return sim.CheckCacheBytes(v.i) },
		set:    func(c *Config, v axisValue) { c.Opt.CacheBytes = v.i },
		canon: func(c *Config) {
			if c.Opt.CacheBytes == 0 {
				c.Opt.CacheBytes = sim.DefaultCacheBytes
			}
		},
		relevant:     func(c *Config) bool { return c.Arch.HasCache() },
		archRelevant: func(a sim.Arch) bool { return a.HasCache() },
		clear:        func(c *Config) { c.Opt.CacheBytes = 0 },
		appendKey: func(dst []byte, c *Config) []byte {
			dst = append(dst, " cache="...)
			return strconv.AppendInt(dst, int64(c.Opt.CacheBytes), 10)
		},
		label: func(c *Config) (string, bool) {
			if !c.Arch.HasCache() {
				return "", false
			}
			return fmt.Sprintf("%dKB", c.Opt.CacheBytes/1024), false
		},
		toJSON: func(c *Config, j *PointJSON) { j.CacheBytes = c.Opt.CacheBytes },
	},
	{
		Name:     "prefetch",
		Doc:      "stream-buffer prefetcher (Section 5.3.3)",
		Domain:   "bool",
		Flag:     FlagSpec{Name: "prefetch", Kind: FlagBool, Usage: "enable the stream-buffer prefetcher"},
		Strategy: Strategy{Scale: ScaleEnumerated},
		normalize: func(s *SweepSpec) {
			if len(s.Prefetch) == 0 {
				s.Prefetch = []bool{false}
			}
		},
		values: func(s *SweepSpec) []axisValue { return boolVals(s.Prefetch) },
		set:    func(c *Config, v axisValue) { c.Opt.Prefetch = v.b },
		// A never-miss cache has no misses to prefetch for. The
		// ideal-cache condition is value-level, so the arch bound keeps
		// only the HasCache half.
		relevant:     func(c *Config) bool { return c.Arch.HasCache() && !c.Opt.IdealCache },
		archRelevant: func(a sim.Arch) bool { return a.HasCache() },
		clear:        func(c *Config) { c.Opt.Prefetch = false },
		appendKey: func(dst []byte, c *Config) []byte {
			dst = append(dst, " pf="...)
			return strconv.AppendBool(dst, c.Opt.Prefetch)
		},
		label: func(c *Config) (string, bool) {
			if !c.Opt.Prefetch {
				return "", false
			}
			return "+pf", true
		},
		toJSON: func(c *Config, j *PointJSON) { j.Prefetch = c.Opt.Prefetch },
	},
	{
		Name:     "ideal-cache",
		Doc:      "never-miss cache bound (Figure 7.11)",
		Domain:   "bool",
		Flag:     FlagSpec{Name: "ideal-cache", Kind: FlagBool, Usage: "model the never-miss I-cache bound (Figure 7.11)"},
		Strategy: Strategy{Scale: ScaleEnumerated},
		normalize: func(s *SweepSpec) {
			if len(s.IdealCache) == 0 {
				s.IdealCache = []bool{false}
			}
		},
		values:       func(s *SweepSpec) []axisValue { return boolVals(s.IdealCache) },
		set:          func(c *Config, v axisValue) { c.Opt.IdealCache = v.b },
		relevant:     func(c *Config) bool { return c.Arch.HasCache() },
		archRelevant: func(a sim.Arch) bool { return a.HasCache() },
		clear:        func(c *Config) { c.Opt.IdealCache = false },
		appendKey: func(dst []byte, c *Config) []byte {
			dst = append(dst, " ideal="...)
			return strconv.AppendBool(dst, c.Opt.IdealCache)
		},
		label: func(c *Config) (string, bool) {
			if !c.Opt.IdealCache {
				return "", false
			}
			return "+ideal", true
		},
		toJSON: func(c *Config, j *PointJSON) { j.IdealCache = c.Opt.IdealCache },
	},
	{
		Name:   "double-buffer",
		Doc:    "Monte DMA/compute overlap (Section 7.7)",
		Domain: "bool",
		Flag:   FlagSpec{Name: "no-double-buffer", Kind: FlagBool, Invert: true, Usage: "disable Monte double buffering"},
		// Overlapping DMA with compute never slows the kernel: once the
		// enabled endpoint dominates, the disabled one can be pruned.
		Strategy: Strategy{Scale: ScaleEnumerated, MonotonePrunable: true},
		normalize: func(s *SweepSpec) {
			if len(s.DoubleBuffer) == 0 {
				s.DoubleBuffer = []bool{true}
			}
		},
		values:       func(s *SweepSpec) []axisValue { return boolVals(s.DoubleBuffer) },
		set:          func(c *Config, v axisValue) { c.Opt.DoubleBuffer = v.b },
		relevant:     func(c *Config) bool { return c.Arch.HasMonte() },
		archRelevant: func(a sim.Arch) bool { return a.HasMonte() },
		clear:        func(c *Config) { c.Opt.DoubleBuffer = false },
		appendKey: func(dst []byte, c *Config) []byte {
			dst = append(dst, " db="...)
			return strconv.AppendBool(dst, c.Opt.DoubleBuffer)
		},
		label: func(c *Config) (string, bool) {
			if !c.Arch.HasMonte() || c.Opt.DoubleBuffer {
				return "", false
			}
			return "no-db", false
		},
		toJSON: func(c *Config, j *PointJSON) { j.DoubleBuffer = c.Opt.DoubleBuffer },
	},
	{
		Name:   "width",
		Doc:    "Monte FFAU datapath width (Table 7.3)",
		Domain: "8/16/32/64 bits",
		Flag:   FlagSpec{Name: "width", Kind: FlagInt, DefInt: sim.DefaultMonteWidth, Usage: "Monte FFAU datapath width in bits (8/16/32/64)"},
		// Power-of-two steps; Table 7.3 shows an interior energy
		// optimum (wider is faster but leakier), so not prunable.
		Strategy: Strategy{Scale: ScaleLog2},
		normalize: func(s *SweepSpec) {
			if len(s.MonteWidths) == 0 {
				s.MonteWidths = []int{sim.DefaultMonteWidth}
			}
		},
		values: func(s *SweepSpec) []axisValue { return intVals(s.MonteWidths) },
		check:  func(v axisValue) error { return sim.CheckMonteWidth(v.i) },
		set:    func(c *Config, v axisValue) { c.Opt.MonteWidth = v.i },
		canon: func(c *Config) {
			if c.Opt.MonteWidth == 0 {
				c.Opt.MonteWidth = sim.DefaultMonteWidth
			}
		},
		relevant:     func(c *Config) bool { return c.Arch.HasMonte() },
		archRelevant: func(a sim.Arch) bool { return a.HasMonte() },
		clear:        func(c *Config) { c.Opt.MonteWidth = 0 },
		appendKey: func(dst []byte, c *Config) []byte {
			dst = append(dst, " w="...)
			return strconv.AppendInt(dst, int64(c.Opt.MonteWidth), 10)
		},
		label: func(c *Config) (string, bool) {
			if c.Opt.MonteWidth == 0 || c.Opt.MonteWidth == sim.DefaultMonteWidth {
				return "", false
			}
			return fmt.Sprintf("w=%d", c.Opt.MonteWidth), false
		},
		toJSON: func(c *Config, j *PointJSON) { j.MonteWidth = c.Opt.MonteWidth },
	},
	{
		Name:   "digit",
		Doc:    "Billie digit-serial multiplier width",
		Domain: fmt.Sprintf("%d..%d", sim.MinBillieDigit, sim.MaxBillieDigit),
		Flag:   FlagSpec{Name: "digit", Kind: FlagInt, DefInt: sim.DefaultBillieDigit, Usage: "Billie multiplier digit size"},
		// Unit steps 1..8; the energy optimum is interior (bigger
		// digits cost area and leakage), so not prunable.
		Strategy: Strategy{Scale: ScaleLinear},
		normalize: func(s *SweepSpec) {
			if len(s.BillieDigits) == 0 {
				s.BillieDigits = []int{sim.DefaultBillieDigit}
			}
		},
		values: func(s *SweepSpec) []axisValue { return intVals(s.BillieDigits) },
		check:  func(v axisValue) error { return sim.CheckBillieDigit(v.i) },
		set:    func(c *Config, v axisValue) { c.Opt.BillieDigit = v.i },
		canon: func(c *Config) {
			if c.Opt.BillieDigit == 0 {
				c.Opt.BillieDigit = sim.DefaultBillieDigit
			}
		},
		relevant:     func(c *Config) bool { return c.Arch == sim.WithBillie },
		archRelevant: func(a sim.Arch) bool { return a == sim.WithBillie },
		clear:        func(c *Config) { c.Opt.BillieDigit = 0 },
		appendKey: func(dst []byte, c *Config) []byte {
			dst = append(dst, " digit="...)
			return strconv.AppendInt(dst, int64(c.Opt.BillieDigit), 10)
		},
		label: func(c *Config) (string, bool) {
			if c.Opt.BillieDigit == 0 {
				return "", false
			}
			return fmt.Sprintf("D=%d", c.Opt.BillieDigit), false
		},
		toJSON: func(c *Config, j *PointJSON) { j.BillieDigit = c.Opt.BillieDigit },
	},
	{
		Name:   "gate",
		Doc:    "clock/power-gate an idle accelerator (Chapter 8 what-if)",
		Domain: "bool",
		Flag:   FlagSpec{Name: "gate-accel-idle", Kind: FlagBool, Usage: "clock/power-gate the accelerator while idle (Chapter 8 what-if)"},
		// Gating an idle accelerator only removes leakage — the gated
		// endpoint always dominates, so the axis is prunable.
		Strategy: Strategy{Scale: ScaleEnumerated, MonotonePrunable: true},
		normalize: func(s *SweepSpec) {
			if len(s.GateAccelIdle) == 0 {
				s.GateAccelIdle = []bool{false}
			}
		},
		values: func(s *SweepSpec) []axisValue { return boolVals(s.GateAccelIdle) },
		set:    func(c *Config, v axisValue) { c.Opt.GateAccelIdle = v.b },
		relevant: func(c *Config) bool {
			return c.Arch.HasMonte() || c.Arch == sim.WithBillie
		},
		archRelevant: func(a sim.Arch) bool { return a.HasMonte() || a == sim.WithBillie },
		clear:        func(c *Config) { c.Opt.GateAccelIdle = false },
		appendKey: func(dst []byte, c *Config) []byte {
			dst = append(dst, " gate="...)
			return strconv.AppendBool(dst, c.Opt.GateAccelIdle)
		},
		label: func(c *Config) (string, bool) {
			if !c.Opt.GateAccelIdle {
				return "", false
			}
			return "gated", false
		},
		toJSON: func(c *Config, j *PointJSON) { j.GateAccelIdle = c.Opt.GateAccelIdle },
	},
	{
		Name:     "line",
		Doc:      "I-cache line size (the paper fixes 16 B; Section 5.3)",
		Domain:   fmt.Sprintf("power of two, %d..%d bytes", sim.MinCacheLineBytes, sim.MaxCacheLineBytes),
		Flag:     FlagSpec{Name: "line", Kind: FlagInt, DefInt: sim.DefaultCacheLineBytes, Usage: "I-cache line size in bytes (power of two; 16 is the Section 5.3 hardware)"},
		Strategy: Strategy{Scale: ScaleLog2},
		normalize: func(s *SweepSpec) {
			if len(s.CacheLineBytes) == 0 {
				s.CacheLineBytes = []int{sim.DefaultCacheLineBytes}
			}
		},
		values: func(s *SweepSpec) []axisValue { return intVals(s.CacheLineBytes) },
		check:  func(v axisValue) error { return sim.CheckCacheLineBytes(v.i) },
		set:    func(c *Config, v axisValue) { c.Opt.CacheLineBytes = v.i },
		// The default line canonicalizes to the *elided* zero value —
		// the reverse of the cache-capacity fill — so every key, hash,
		// JSON document and disk-store byte that predates the axis is
		// reproduced exactly.
		canon: func(c *Config) {
			if c.Opt.CacheLineBytes == sim.DefaultCacheLineBytes {
				c.Opt.CacheLineBytes = 0
			}
		},
		relevant:     func(c *Config) bool { return c.Arch.HasCache() && !c.Opt.IdealCache },
		archRelevant: func(a sim.Arch) bool { return a.HasCache() },
		clear:        func(c *Config) { c.Opt.CacheLineBytes = 0 },
		appendKey: func(dst []byte, c *Config) []byte {
			if c.Opt.CacheLineBytes == 0 {
				return dst
			}
			dst = append(dst, " line="...)
			return strconv.AppendInt(dst, int64(c.Opt.CacheLineBytes), 10)
		},
		label: func(c *Config) (string, bool) {
			if c.Opt.CacheLineBytes == 0 {
				return "", false
			}
			return fmt.Sprintf("line=%d", c.Opt.CacheLineBytes), false
		},
		toJSON: func(c *Config, j *PointJSON) { j.CacheLineBytes = c.Opt.CacheLineBytes },
	},
	{
		Name:   "workload",
		Doc:    "priced scenario (sim workload name)",
		Domain: strings.Join(sim.Workloads(), ", "),
		Flag: FlagSpec{Name: "workload", Kind: FlagString, Usage: "priced scenario(s): " + strings.Join(sim.Workloads(), ", ") +
			" (default sign-verify; with -sweep a comma-separated list sets the workload axis" +
			" to exactly those scenarios, replacing the default — include sign-verify to keep it)"},
		Strategy: Strategy{Scale: ScaleEnumerated},
		normalize: func(s *SweepSpec) {
			if len(s.Workloads) == 0 {
				s.Workloads = []string{""}
			}
		},
		values: func(s *SweepSpec) []axisValue { return stringVals(s.Workloads) },
		check:  func(v axisValue) error { return sim.CheckWorkload(v.s) },
		set:    func(c *Config, v axisValue) { c.Opt.Workload = v.s },
		// The default workload elides to "", so configs predating the
		// workload axis keep their keys and hashes.
		canon: func(c *Config) {
			if c.Opt.Workload == sim.WorkloadSignVerify {
				c.Opt.Workload = ""
			}
		},
		// No archRelevant: every architecture prices a workload, so the
		// factored grid always enumerates this axis.
		appendKey: func(dst []byte, c *Config) []byte {
			if c.Opt.Workload == "" {
				return dst
			}
			dst = append(dst, " wl="...)
			return append(dst, c.Opt.Workload...)
		},
		label: func(c *Config) (string, bool) {
			if c.Opt.Workload == "" {
				return "", false
			}
			return "wl=" + c.Opt.Workload, false
		},
		toJSON: func(c *Config, j *PointJSON) { j.Workload = c.Opt.Workload },
	},
}

// archAxis and curveAxis are the dimension entries, resolved once for
// the parse front doors below.
var (
	archAxis  = mustAxis("arch")
	curveAxis = mustAxis("curve")
)

func mustAxis(name string) *Axis {
	for _, ax := range axes {
		if ax.Name == name {
			return ax
		}
	}
	panic("dse: axis not registered: " + name)
}

// dimIdx and optIdx hold the registry indices of the dimension and
// option axes, in registry order — the two iteration surfaces the
// expansion machinery factors over.
var dimIdx, optIdx = func() (dims, opts []int) {
	for i, ax := range axes {
		if ax.Dimension {
			dims = append(dims, i)
		} else {
			opts = append(opts, i)
		}
	}
	return
}()

// ParseArch parses a CLI architecture name through the arch axis's
// declared parser: the canonical names plus the historical short
// spellings ("isaext", "icache"). A typo fails with an error listing
// the valid names.
func ParseArch(s string) (sim.Arch, error) {
	v, err := archAxis.parse(s)
	if err != nil {
		return 0, err
	}
	return sim.Arch(v.i), nil
}

// ParseCurve validates a CLI curve name through the curve axis's
// declared parser, failing with the same unknown-curve message sweep
// validation produces.
func ParseCurve(s string) (string, error) {
	v, err := curveAxis.parse(s)
	if err != nil {
		return "", err
	}
	return v.s, nil
}

// RegisterAxisFlags registers one CLI flag per design-space *option*
// axis on fs (call before fs.Parse) and returns an apply function that
// copies the parsed values into an Options. Flag names, defaults and
// usage strings all come from the registry, so a new knob surfaces on
// the CLI without touching cmd/dse. Dimension axes are selection, not
// tuning — register theirs with RegisterDimensionFlags.
func RegisterAxisFlags(fs *flag.FlagSet) func(o *sim.Options) {
	type bound struct {
		ax *Axis
		i  *int
		b  *bool
		s  *string
	}
	bounds := make([]bound, 0, len(optIdx))
	for _, i := range optIdx {
		ax := axes[i]
		f := ax.Flag
		bd := bound{ax: ax}
		switch f.Kind {
		case FlagInt:
			bd.i = fs.Int(f.Name, f.DefInt, f.Usage)
		case FlagBool:
			bd.b = fs.Bool(f.Name, false, f.Usage)
		case FlagString:
			bd.s = fs.String(f.Name, f.DefString, f.Usage)
		}
		bounds = append(bounds, bd)
	}
	return func(o *sim.Options) {
		c := Config{Opt: *o}
		for _, bd := range bounds {
			switch {
			case bd.i != nil:
				bd.ax.set(&c, intVal(*bd.i))
			case bd.b != nil:
				v := *bd.b
				if bd.ax.Flag.Invert {
					v = !v
				}
				bd.ax.set(&c, boolVal(v))
			case bd.s != nil:
				bd.ax.set(&c, stringVal(*bd.s))
			}
		}
		*o = c.Opt
	}
}

// RegisterDimensionFlags registers the dimension axes' CLI flags
// (-arch, -curve) on fs from their registry specs and returns the
// bound values keyed by flag name. Dimension flags select what to run
// rather than tune an Options value, so they bypass RegisterAxisFlags'
// apply function; convert the parsed strings with ParseArch /
// ParseCurve, which reject typos with the registry's guidance.
func RegisterDimensionFlags(fs *flag.FlagSet) map[string]*string {
	out := make(map[string]*string, len(dimIdx))
	for _, i := range dimIdx {
		f := axes[i].Flag
		out[f.Name] = fs.String(f.Name, f.DefString, f.Usage)
	}
	return out
}

// RelevantAxisFlags lists, by CLI flag name, the option axes whose
// arch-level relevance bound admits architecture a: the axes factored
// expansion enumerates for a (dimension axes are the factoring, not the
// factored), and so the flags that can change a result on a. A CLI
// rejects any other option flag on a single-configuration run rather
// than drop it. Tests pin the per-architecture lists, so an axis that
// forgets its archRelevant predicate (and so silently re-inflates every
// architecture's grid) fails loudly.
func RelevantAxisFlags(a sim.Arch) []string {
	var out []string
	for _, i := range optIdx {
		if ax := axes[i]; ax.archRelevant == nil || ax.archRelevant(a) {
			out = append(out, ax.Flag.Name)
		}
	}
	return out
}

// CheckAxisFlag runs a set int option flag's value through its axis's
// domain check, the one SweepSpec.Validate runs, with the same message:
// sim.Run reads a zero knob as "use the default", so an unchecked
// -digit 0 would silently price the default digit. Any other flag
// passes.
func CheckAxisFlag(f *flag.Flag) error {
	for _, i := range optIdx {
		ax := axes[i]
		if ax.Flag.Name != f.Name || ax.Flag.Kind != FlagInt || ax.check == nil {
			continue
		}
		v, _ := f.Value.(flag.Getter).Get().(int)
		if err := ax.check(intVal(v)); err != nil {
			return fmt.Errorf("dse: %w", err)
		}
		return nil
	}
	return nil
}

// AxisFlagNames lists the CLI flag names RegisterAxisFlags generates
// (option axes only), in registry order — for CLIs that need to tell
// axis flags apart from their own (e.g. to reject an option flag in a
// mode that ignores it).
func AxisFlagNames() []string {
	out := make([]string, len(optIdx))
	for i, j := range optIdx {
		out[i] = axes[j].Flag.Name
	}
	return out
}

// AxesHelp renders the axis registry as help text: one line per axis —
// dimensions first, then the option knobs — with its CLI flag,
// description and value domain.
func AxesHelp() string {
	var b strings.Builder
	for _, ax := range axes {
		fmt.Fprintf(&b, "  -%-17s %s [%s]\n", ax.Flag.Name, ax.Doc, ax.Domain)
	}
	return b.String()
}
