package dse

import (
	"encoding/json"

	"repro/internal/energy"
)

// PointJSON is the machine-readable rendering of a design point, stable
// for downstream tooling.
type PointJSON struct {
	Arch          string `json:"arch"`
	Curve         string `json:"curve"`
	CacheBytes    int    `json:"cacheBytes,omitempty"`
	Prefetch      bool   `json:"prefetch,omitempty"`
	IdealCache    bool   `json:"idealCache,omitempty"`
	DoubleBuffer  bool   `json:"doubleBuffer,omitempty"`
	MonteWidth    int    `json:"monteWidth,omitempty"`
	BillieDigit   int    `json:"billieDigit,omitempty"`
	GateAccelIdle bool   `json:"gateAccelIdle,omitempty"`
	// CacheLineBytes is omitted for the default 16-byte line (the
	// canonical config holds 0 there), keeping pre-line-axis output
	// byte-identical.
	CacheLineBytes int `json:"cacheLineBytes,omitempty"`
	// Workload is omitted for the default Sign+Verify scenario, keeping
	// pre-workload-axis output byte-identical.
	Workload     string `json:"workload,omitempty"`
	Hash         string `json:"hash"`
	SecLevel     int    `json:"securityLevel,omitempty"`
	SecurityBits int    `json:"securityBits,omitempty"`
	// Sign/verify cycles are omitted for workloads without those phases
	// (e.g. keygen) so consumers fall through to the phases array
	// instead of reading a misleading 0. Default Sign+Verify points
	// always carry both, keeping the legacy wire form unchanged.
	SignCycles   uint64      `json:"signCycles,omitempty"`
	VerifyCycles uint64      `json:"verifyCycles,omitempty"`
	TotalCycles  uint64      `json:"totalCycles"`
	EnergyJ      float64     `json:"energyJ"`
	TimeS        float64     `json:"timeS"`
	EDP          float64     `json:"edp"`
	PowerW       float64     `json:"powerW"`
	Phases       []PhaseJSON `json:"phases,omitempty"`
}

// PhaseJSON is the wire form of one priced workload phase.
type PhaseJSON struct {
	Name    string  `json:"name"`
	Cycles  uint64  `json:"cycles"`
	EnergyJ float64 `json:"energyJ"`
}

// SweepJSON is the machine-readable rendering of a full sweep. The disk
// fields are omitted when zero/false, keeping in-memory sweep output
// free of store accounting.
type SweepJSON struct {
	ClockHz       float64     `json:"clockHz"`
	RawPoints     int         `json:"rawPoints"`
	Configs       int         `json:"configs"`
	Workers       int         `json:"workers"`
	CacheHits     uint64      `json:"cacheHits"`
	CacheMisses   uint64      `json:"cacheMisses"`
	DiskLoaded    int         `json:"diskLoaded,omitempty"`
	DiskSaved     int         `json:"diskSaved,omitempty"`
	DiskUnchanged bool        `json:"diskUnchanged,omitempty"`
	Points        []PointJSON `json:"points"`
	Pareto        []PointJSON `json:"pareto"`
	// ParetoPerLevel holds the frontier within each security level —
	// the comparison at fixed key strength.
	ParetoPerLevel []LevelFrontierJSON `json:"paretoPerLevel"`
}

// LevelFrontierJSON is the wire form of a per-security-level frontier.
type LevelFrontierJSON struct {
	Level        int         `json:"level"`
	SecurityBits int         `json:"securityBits"`
	Points       []PointJSON `json:"points"`
}

// ToJSON converts a point to its wire form. Phases are included only for
// non-default workloads: the default Sign+Verify phase split is already
// carried by signCycles/verifyCycles, and omitting it keeps the wire
// form of pre-workload-axis sweeps unchanged. Every axis field — the
// arch and curve dimensions included — is rendered from the canonical
// config by the axis registry, so a caller-built non-canonical point
// (e.g. CacheBytes left 0 on a cached arch) emits the same option
// values its own hash was computed under, and a new axis needs no
// rendering site beyond its registry entry.
func (p Point) ToJSON() PointJSON {
	cc := p.Config.Canonical()
	out := PointJSON{
		Hash:         cc.Hash(),
		SecLevel:     p.SecLevel,
		SecurityBits: p.SecurityBits,
		SignCycles:   p.Result.SignCycles(),
		VerifyCycles: p.Result.VerifyCycles(),
		TotalCycles:  p.Result.TotalCycles(),
		EnergyJ:      p.EnergyJ,
		TimeS:        p.TimeS,
		EDP:          p.EDP,
		PowerW:       p.Result.Power.Total(),
	}
	for _, ax := range axes {
		ax.toJSON(&cc, &out)
	}
	if out.Workload != "" {
		for _, ph := range p.Result.Phases {
			out.Phases = append(out.Phases, PhaseJSON{
				Name: ph.Name, Cycles: ph.Cycles, EnergyJ: ph.Energy.Total(),
			})
		}
	}
	return out
}

// MarshalJSON renders the sweep result, including its Pareto frontier, as
// indented JSON.
func (r *SweepResult) MarshalJSON() ([]byte, error) {
	return json.MarshalIndent(r.toWire(), "", "  ")
}

// toWire builds the sweep's wire form (shared between the standalone
// sweep document and the adaptive document's embedded sweep).
func (r *SweepResult) toWire() SweepJSON {
	out := SweepJSON{
		ClockHz:       energy.SystemClockHz,
		RawPoints:     r.RawPoints,
		Configs:       r.Configs,
		Workers:       r.Workers,
		CacheHits:     r.CacheHits,
		CacheMisses:   r.CacheMisses,
		DiskLoaded:    r.DiskLoaded,
		DiskSaved:     r.DiskSaved,
		DiskUnchanged: r.DiskUnchanged,
		Points:        make([]PointJSON, 0, len(r.Points)),
		Pareto:        make([]PointJSON, 0),
	}
	for _, p := range r.Points {
		out.Points = append(out.Points, p.ToJSON())
	}
	out.Pareto, out.ParetoPerLevel = frontierViews(r.Points)
	return out
}

// AdaptiveJSON is the machine-readable rendering of an adaptive
// exploration: the economics up front, then the evaluated cloud in the
// same wire form as an exhaustive sweep (whose paretoPerLevel section
// is the exploration's frontier answer).
type AdaptiveJSON struct {
	Rounds        int       `json:"rounds"`
	Evaluated     int       `json:"evaluated"`
	GridConfigs   int       `json:"gridConfigs"`
	Pruned        int       `json:"pruned"`
	FrontierMoves int       `json:"frontierMoves"`
	Sweep         SweepJSON `json:"sweep"`
}

// MarshalJSON renders the adaptive exploration as indented JSON.
func (ar *AdaptiveResult) MarshalJSON() ([]byte, error) {
	out := AdaptiveJSON{
		Rounds:        ar.Rounds,
		Evaluated:     ar.Evaluated,
		GridConfigs:   ar.GridConfigs,
		Pruned:        ar.Pruned,
		FrontierMoves: ar.FrontierMoves,
		Sweep:         ar.Result.toWire(),
	}
	return json.MarshalIndent(out, "", "  ")
}

// PointsJSON renders a bare point list (e.g. a frontier) as indented
// JSON.
func PointsJSON(points []Point) ([]byte, error) {
	out := make([]PointJSON, 0, len(points))
	for _, p := range points {
		out = append(out, p.ToJSON())
	}
	return json.MarshalIndent(out, "", "  ")
}

// FrontiersJSON is the machine-readable frontier-only rendering: the
// global energy-vs-latency frontier plus the per-security-level
// frontiers, mirroring what the text -pareto mode shows.
type FrontiersJSON struct {
	Pareto         []PointJSON         `json:"pareto"`
	ParetoPerLevel []LevelFrontierJSON `json:"paretoPerLevel"`
}

// FrontierJSONBytes computes both frontier views of a point set and
// renders them as indented JSON.
func FrontierJSONBytes(points []Point) ([]byte, error) {
	var out FrontiersJSON
	out.Pareto, out.ParetoPerLevel = frontierViews(points)
	return json.MarshalIndent(out, "", "  ")
}

// frontierViews computes the global and per-level frontier wire forms.
func frontierViews(points []Point) ([]PointJSON, []LevelFrontierJSON) {
	global := make([]PointJSON, 0, len(points))
	for _, p := range Pareto(points) {
		global = append(global, p.ToJSON())
	}
	var perLevel []LevelFrontierJSON
	for _, lf := range ParetoPerLevel(points) {
		j := LevelFrontierJSON{Level: lf.Level, SecurityBits: lf.SecurityBits,
			Points: make([]PointJSON, 0, len(lf.Points))}
		for _, p := range lf.Points {
			j.Points = append(j.Points, p.ToJSON())
		}
		perLevel = append(perLevel, j)
	}
	return global, perLevel
}
