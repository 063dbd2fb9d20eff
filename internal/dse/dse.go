// Package dse is the design-space exploration engine: it fans a
// declarative sweep specification (architectures × curves × cache
// geometries × accelerator knobs, including the Monte datapath-width and
// Billie digit-size axes) out over a parallel worker pool, caches
// simulation results under a canonical configuration hash so repeated and
// overlapping sweeps are near-free — optionally persisting that cache to
// a versioned on-disk store so they stay near-free across process
// restarts — and runs analysis passes — the energy-vs-latency Pareto
// frontier, best-configuration-per-security-level selection, and
// energy-delay-product rankings — over the resulting point cloud.
//
// The paper (ISPASS 2014) is itself a design-space exploration: it sweeps
// the acceleration spectrum of Figure 1.1 across all ten NIST curves and
// picks energy- and latency-optimal points. This package turns that study
// into a first-class, parallel, reproducible operation:
//
//	spec := dse.FullSweep()
//	res, err := dse.Sweep(spec, dse.SweepOptions{Workers: 8})
//	frontier := dse.Pareto(res.Points)
//
// Sweep output ordering is deterministic: results are reported in
// specification order regardless of the worker count, so two sweeps of the
// same spec are byte-identical. AdaptiveSweep finds the per-level
// frontiers while pricing a fraction of the grid, through the same
// observed execution core (cache, store, metrics) as Sweep.
//
// Every axis — the arch and curve dimensions as much as the option
// knobs — is declared once in the axis registry (axes.go):
// canonicalization, key rendering, sweep expansion, validity (the
// registry's validWith cross-constraints), validation, labels, JSON,
// the CLI flag set, and the per-axis search-strategy metadata are all
// registry-driven, so adding a knob is one registry entry plus its
// sim.Options/SweepSpec/PointJSON fields. The FullSweep manifest golden
// (testdata/fullsweep.keys.golden) pins every canonical key and hash of
// the full grid.
package dse

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"sync"

	"repro/internal/ec"
	"repro/internal/sim"
)

// Config is one fully-specified point of the design space: an
// architecture, a curve, and the simulation options.
type Config struct {
	Arch  sim.Arch
	Curve string
	Opt   sim.Options

	// key memoizes the rendered canonical key. Invariant: it is only
	// ever set on a config that is already canonical (Expand and
	// expandBrute stamp it on each unique config they emit), so Key can
	// return it verbatim and Canonical can carry it through unchanged.
	// Hand-built configs leave it "" and pay one render on first use.
	// Unexported, so it is invisible to encoding/json and never reaches
	// the store; it does participate in == comparison, which is what the
	// equivalence tests want (both expansion paths must stamp the same
	// key) — compare hand-built configs via Key or Hash, not ==.
	key string
}

// Canonical returns the config with irrelevant knobs forced to their
// zero/default values so that physically identical configurations compare
// and hash equal: cache geometry only matters on cached architectures
// (and the prefetcher and line size only on a non-ideal cache), double
// buffering and the datapath width only on Monte, and the digit size
// only on Billie. Defaulting and relevance both come from the axis
// registry: every axis first normalizes its value (zero → default, or
// default → elided zero for the workload and line axes, which keeps
// pre-axis keys and hashes byte-identical), then every axis irrelevant
// to the architecture is cleared.
func (c Config) Canonical() Config {
	c.canonicalize()
	return c
}

// canonicalize rewrites the config to canonical form in place: every
// axis first normalizes its own value, then every axis irrelevant to
// the (now-normalized) config is cleared. The in-place form exists so
// hot paths (Key, Expand) can canonicalize a reused scratch value
// instead of heap-escaping a fresh copy per call.
func (c *Config) canonicalize() {
	for _, ax := range axes {
		if ax.canon != nil {
			ax.canon(c)
		}
	}
	for _, ax := range axes {
		if ax.relevant != nil && !ax.relevant(c) {
			ax.clear(c)
		}
	}
}

// keyBufCap sizes the key render buffer so every key in the current
// design space fits without regrowing (the longest FullSweep manifest
// key is under 120 bytes); Key then costs exactly two allocations — the
// buffer and the final string.
const keyBufCap = 160

// Key renders the canonical configuration as a stable, human-readable
// string: the arch and curve followed by one token per registered axis
// in registry order. Two configs with equal keys produce identical
// simulation results. An axis may elide its token at the default value
// (the workload and line axes do), which is how keys and hashes
// computed before that axis existed stay byte-identical.
//
// Configs emitted by Expand carry the key memoized and return it
// without re-rendering; anything hand-built canonicalizes and renders
// once per call through a pooled scratch (the canonical copy and the
// byte buffer both outlive escape analysis via the registry closures,
// so pooling them leaves the returned string as the only allocation).
func (c Config) Key() string {
	if c.key != "" {
		return c.key
	}
	s := keyScratchPool.Get().(*keyScratch)
	s.cfg = c
	s.cfg.canonicalize()
	s.buf = s.cfg.appendKeyTo(s.buf[:0])
	key := string(s.buf)
	keyScratchPool.Put(s)
	return key
}

// keyScratch carries the canonical copy and render buffer one Key call
// needs; pooled because both escape through the per-axis closures.
type keyScratch struct {
	cfg Config
	buf []byte
}

var keyScratchPool = sync.Pool{
	New: func() any { return &keyScratch{buf: make([]byte, 0, keyBufCap)} },
}

// appendKeyTo appends the key rendering of an already-canonical config
// to dst: one token per registered axis in registry order, the
// dimension axes leading (arch renders the spaceless first token).
// Each axis appends its own token (or elides it) straight into the
// shared buffer, so a render is two allocations from cold and zero
// when the caller reuses the buffer.
func (c *Config) appendKeyTo(dst []byte) []byte {
	for _, ax := range axes {
		dst = ax.appendKey(dst, c)
	}
	return dst
}

// WithWorkload returns the same physical design re-priced on a
// different workload. Deriving through this method (rather than
// assigning Opt.Workload on a sweep-emitted config) drops the memoized
// key so Key and Hash re-render for the new workload.
func (c Config) WithWorkload(wl string) Config {
	c.Opt.Workload = wl
	c.key = ""
	return c
}

// Hash returns the canonical config hash (hex SHA-256 of Key) used as the
// result-cache key.
func (c Config) Hash() string {
	sum := sha256.Sum256([]byte(c.Key()))
	return hex.EncodeToString(sum[:])
}

// OptionsLabel renders only the options that matter for the config's
// architecture ("4KB+pf no-db D=3" style), or "" when every knob is at
// its only meaningful value. Each registered axis contributes at most
// one fragment (attached fragments join the previous one, giving
// "4KB+pf+ideal"), so a new axis needs no label site beyond its
// registry entry.
func (c Config) OptionsLabel() string {
	cc := c.Canonical()
	var parts []string
	for _, ax := range axes {
		// Dimension fragments (the arch and curve names) identify the
		// config rather than describe its options; reports render them
		// as row/column headers, so the options label skips them.
		if ax.label == nil || ax.Dimension {
			continue
		}
		frag, attach := ax.label(&cc)
		if frag == "" {
			continue
		}
		if attach && len(parts) > 0 {
			parts[len(parts)-1] += frag
		} else {
			parts = append(parts, frag)
		}
	}
	return strings.Join(parts, " ")
}

// Valid reports whether the config's dimension values can be combined:
// the conjunction of every registered axis's validWith cross-constraint
// (today just the curve axis's field-compatibility rule — Monte is a
// prime-field accelerator, Billie a binary-field one; every other
// configuration runs both families in software). Constraints depend
// only on dimension values, which is what lets Expand hoist this check
// out of the option grid.
func (c Config) Valid() bool {
	for _, ax := range axes {
		if ax.validWith != nil && !ax.validWith(&c) {
			return false
		}
	}
	return true
}

// securityBitsPerLevel is the NIST symmetric-equivalent strength of each
// Figure 7.7 security level (P-521's equivalence is AES-256, not 521/2).
var securityBitsPerLevel = [...]int{96, 112, 128, 192, 256}

// SecurityLevel returns the paper's security-level index (1..5, the
// Figure 7.7 pairing) and the symmetric-equivalent bit strength for a
// curve name, or (0, 0) if unknown.
func SecurityLevel(curve string) (level, bits int) {
	for i, pair := range ec.SecurityPairs {
		if pair.Prime == curve || pair.Binary == curve {
			return i + 1, securityBitsPerLevel[i]
		}
	}
	return 0, 0
}

// Point is one evaluated design point: the configuration, the raw
// simulation result, and the derived exploration metrics.
type Point struct {
	Config Config
	Result sim.Result

	EnergyJ      float64 // combined Sign+Verify energy
	TimeS        float64 // combined wall-clock latency
	EDP          float64 // energy-delay product (J·s)
	SecLevel     int     // paper security level 1..5
	SecurityBits int     // symmetric-equivalent strength
}

// newPoint derives the exploration metrics from a simulation result.
func newPoint(cfg Config, r sim.Result) Point {
	e := r.TotalEnergy()
	t := r.TimeSeconds()
	lvl, bits := SecurityLevel(cfg.Curve)
	return Point{
		Config:       cfg,
		Result:       r,
		EnergyJ:      e,
		TimeS:        t,
		EDP:          e * t,
		SecLevel:     lvl,
		SecurityBits: bits,
	}
}
