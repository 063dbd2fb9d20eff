package dse

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Adaptive exploration finds the per-security-level energy/latency
// frontiers while simulating a small fraction of the full grid, using
// the per-axis Strategy metadata the registry declares:
//
//   - Round 0 seeds a coarse sub-grid per valid (arch, curve) pair: the
//     endpoints of every ordered (log2/linear) axis and the full domain
//     of every enumerated axis.
//   - Each later round takes the current ParetoPerLevel frontiers and
//     proposes neighbors of every frontier point: ordered axes step one
//     position toward unexplored values (halving/doubling a log2 axis,
//     unit-stepping a linear one), enumerated axes substitute their
//     other members, and MonotonePrunable axes stop proposing a value
//     once it has been observed strictly dominated by a sibling.
//   - Candidates are deduplicated against every already-simulated
//     canonical key, and the loop stops when a round moves no frontier.
//
// Every candidate is priced through the same execution core as an
// exhaustive sweep (sweepRun.price), so the config-hash cache, the disk
// store, the census memo and the telemetry layer all apply unchanged —
// not a result byte differs from what an exhaustive sweep would have
// computed for the same configuration.

// AdaptiveResult is the outcome of one adaptive exploration.
type AdaptiveResult struct {
	// Result holds every evaluated point in round-major, deterministic
	// generation order, with the aggregated cache/disk accounting —
	// shaped as a SweepResult so every downstream consumer of a sweep
	// (analyses, JSON, reports) works unchanged on the partial cloud.
	Result *SweepResult
	// Frontiers is ParetoPerLevel over the evaluated cloud — the
	// exploration's answer. The equivalence tests prove it key-identical
	// to the exhaustive grid's frontiers.
	Frontiers []LevelFrontier

	// Rounds is how many refinement rounds ran (the coarse seed is
	// round 0).
	Rounds int
	// Evaluated is how many unique configurations were priced (cache
	// hits included: warmth changes cost, never the exploration path).
	Evaluated int
	// GridConfigs is the exhaustive grid's unique-configuration count —
	// the denominator of the exploration economics.
	GridConfigs int
	// Pruned counts neighbor candidates skipped by monotone-domination
	// pruning before they were ever generated.
	Pruned int
	// FrontierMoves counts rounds whose evaluations changed some
	// per-level frontier's membership.
	FrontierMoves int
}

// AdaptiveSweep runs the coarse-to-fine Pareto-guided exploration of a
// spec. The options are the same as Sweep's (workers, cache, disk
// store, metrics).
func AdaptiveSweep(spec SweepSpec, opt SweepOptions) (*AdaptiveResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	run := newSweepRun(opt)

	// The exhaustive expansion is the economics denominator. Pricing it
	// is what adaptive avoids; expanding it is O(unique) key rendering
	// (~0.4 ms on the full grid) — cheap, and exact.
	grid := len(spec.Expand())

	n := spec.normalized()
	st := &adaptiveState{
		vals:      adaptiveAxisValues(&n),
		seen:      make(map[string]bool),
		dominated: make(map[int]map[int]bool),
		buf:       make([]byte, 0, keyBufCap),
	}
	st.seedCoarse()
	// Candidate generation is adaptive's expansion stage: the grid
	// census, the coarse seed and every neighbor round.
	var expand *telemetry.Histogram
	if opt.Metrics != nil {
		expand = opt.Metrics.Histogram("sweep.expand")
		expand.Observe(time.Since(run.start))
	}

	var (
		points     []Point
		byKey      = make(map[string]Point, len(st.cands))
		frontiers  []LevelFrontier
		prevFinger string
		rounds     int
		moves      int
	)
	for len(st.cands) > 0 {
		cands := st.cands
		st.cands = nil

		batch, err := run.price(cands)
		if err != nil {
			return nil, err
		}
		rounds++
		points = append(points, batch...)
		for _, p := range batch {
			byKey[p.Config.Key()] = p
		}

		frontiers = ParetoPerLevel(points)
		finger := frontierFingerprint(frontiers)
		if finger == prevFinger {
			break
		}
		prevFinger = finger
		moves++
		genStart := time.Now()
		st.observePrunes(points, byKey)
		for _, lf := range frontiers {
			for _, p := range lf.Points {
				st.neighborsOf(p.Config)
			}
		}
		if expand != nil {
			expand.Observe(time.Since(genStart))
		}
	}

	return &AdaptiveResult{
		Result:        run.result(spec, points),
		Frontiers:     frontiers,
		Rounds:        rounds,
		Evaluated:     run.configs,
		GridConfigs:   grid,
		Pruned:        st.pruned,
		FrontierMoves: moves,
	}, nil
}

// adaptiveState is the bookkeeping one exploration carries across
// rounds: the per-axis value lists, the seen-key dedup set, the
// monotone-domination prune marks, and the next round's candidates.
type adaptiveState struct {
	// vals holds each axis's deduped sweep values (registry-indexed),
	// ordered axes sorted ascending so index adjacency is the declared
	// halve/double or unit step.
	vals [][]axisValue
	// seen maps every canonical key already planned for evaluation.
	seen map[string]bool
	// dominated[axis][valueIndex] marks values proven strictly
	// dominated along a MonotonePrunable axis; they are never proposed
	// again.
	dominated map[int]map[int]bool
	pruned    int
	cands     []Config
	buf       []byte
}

// adaptiveAxisValues returns each axis's deduped sweep values with
// ordered (log2/linear) axes sorted ascending. Sorting is safe here:
// value order drives only adaptive candidate-generation order, never
// the canonical expansion order the manifest pins.
func adaptiveAxisValues(n *SweepSpec) [][]axisValue {
	vals := make([][]axisValue, len(axes))
	for i, ax := range axes {
		vs := dedupAxisValues(ax, ax.values(n))
		if ax.Strategy.Scale.Ordered() {
			sort.Slice(vs, func(a, b int) bool { return vs[a].i < vs[b].i })
		}
		vals[i] = vs
	}
	return vals
}

// add canonicalizes a candidate, projects it onto the spec's grid,
// dedups it against every key already planned, and queues it (key
// memoized, like Expand's output) for the next round.
func (st *adaptiveState) add(c Config) {
	c.key = ""
	c.canonicalize()
	// Stepping one axis can resurrect axes a previous canonical form
	// had collapsed: disabling the ideal cache re-exposes the line and
	// prefetch axes at cleared defaults the spec may not sweep, which
	// would evaluate a configuration outside the grid. Project such a
	// candidate back: any relevant axis whose value no spec value
	// reproduces is enumerated over the spec's values instead.
	for _, i := range optIdx {
		ax := axes[i]
		if ax.relevant != nil && !ax.relevant(&c) {
			continue
		}
		if axisValueIndex(ax, c, st.vals[i]) >= 0 {
			continue
		}
		for _, v := range st.vals[i] {
			cc := c
			ax.set(&cc, v)
			st.add(cc)
		}
		return
	}
	st.buf = c.appendKeyTo(st.buf[:0])
	if st.seen[string(st.buf)] {
		return
	}
	key := string(st.buf)
	st.seen[key] = true
	c.key = key
	st.cands = append(st.cands, c)
}

// seedCoarse queues round 0: for each valid (arch, curve) pair, the
// cross-product of each arch-relevant option axis's coarse value set —
// the endpoints of ordered axes, the full domain of enumerated ones —
// mirroring Expand's relevance-factored odometer.
func (st *adaptiveState) seedCoarse() {
	coarse := make([][]axisValue, len(axes))
	for i, ax := range axes {
		vs := st.vals[i]
		if ax.Strategy.Scale.Ordered() && len(vs) > 2 {
			vs = []axisValue{vs[0], vs[len(vs)-1]}
		}
		coarse[i] = vs
	}
	live := make([]int, 0, len(optIdx))
	idx := make([]int, len(axes))
	var scratch Config
	lastArch := sim.Arch(-1)
	forEachDimension(st.vals, func(dim *Config) {
		if dim.Arch != lastArch {
			lastArch = dim.Arch
			live = live[:0]
			for _, i := range optIdx {
				ax := axes[i]
				if ax.archRelevant == nil || ax.archRelevant(dim.Arch) {
					live = append(live, i)
				}
			}
		}
		if !dim.Valid() {
			return
		}
		for _, i := range optIdx {
			idx[i] = 0
		}
		for {
			scratch = *dim
			for _, i := range live {
				axes[i].set(&scratch, coarse[i][idx[i]])
			}
			st.add(scratch)
			k := len(live) - 1
			for k >= 0 {
				i := live[k]
				idx[i]++
				if idx[i] < len(coarse[i]) {
					break
				}
				idx[i] = 0
				k--
			}
			if k < 0 {
				break
			}
		}
	})
}

// neighborsOf proposes the refinement candidates around one frontier
// config: each relevant option axis steps per its declared Strategy —
// ordered axes move one position toward unexplored values, enumerated
// axes substitute their other members — with monotone-dominated values
// skipped and everything deduped against the seen set. Dimension axes
// never step: every valid (arch, curve) pair was seeded in round 0 and
// refines its own region.
func (st *adaptiveState) neighborsOf(cfg Config) {
	for _, i := range optIdx {
		ax := axes[i]
		vs := st.vals[i]
		if len(vs) < 2 {
			continue
		}
		if ax.relevant != nil && !ax.relevant(&cfg) {
			continue
		}
		cur := axisValueIndex(ax, cfg, vs)
		if cur < 0 {
			continue
		}
		if ax.Strategy.Scale.Ordered() {
			for _, j := range [2]int{cur - 1, cur + 1} {
				if j >= 0 && j < len(vs) {
					st.stepTo(ax, i, cfg, j)
				}
			}
		} else {
			for j := range vs {
				if j != cur {
					st.stepTo(ax, i, cfg, j)
				}
			}
		}
	}
}

// stepTo queues cfg with axis axIdx moved to its j-th value, unless
// that value has been proven monotone-dominated.
func (st *adaptiveState) stepTo(ax *Axis, axIdx int, cfg Config, j int) {
	if st.dominated[axIdx][j] {
		st.pruned++
		return
	}
	c := cfg
	c.key = ""
	ax.set(&c, st.vals[axIdx][j])
	st.add(c)
}

// observePrunes scans the evaluated cloud for monotone-domination
// evidence: for each MonotonePrunable axis, a point that strictly
// dominates its sibling (the same canonical config with only that axis
// changed) proves the sibling's value dominated, and it is never
// proposed again. Marks only accumulate — the set a round ends with is
// independent of scan order.
func (st *adaptiveState) observePrunes(points []Point, byKey map[string]Point) {
	for _, i := range optIdx {
		ax := axes[i]
		if !ax.Strategy.MonotonePrunable {
			continue
		}
		vs := st.vals[i]
		if len(vs) < 2 {
			continue
		}
		for _, p := range points {
			cfg := p.Config
			if ax.relevant != nil && !ax.relevant(&cfg) {
				continue
			}
			cur := axisValueIndex(ax, cfg, vs)
			if cur < 0 {
				continue
			}
			for j := range vs {
				if j == cur || st.dominated[i][j] {
					continue
				}
				sib := cfg
				sib.key = ""
				ax.set(&sib, vs[j])
				sib.canonicalize()
				st.buf = sib.appendKeyTo(st.buf[:0])
				sp, ok := byKey[string(st.buf)]
				if !ok {
					continue
				}
				if dominates(p, sp) {
					dom := st.dominated[i]
					if dom == nil {
						dom = make(map[int]bool)
						st.dominated[i] = dom
					}
					dom[j] = true
				}
			}
		}
	}
}

// axisValueIndex locates cfg's current position in an axis's value
// list by canonical effect: each candidate value is set on a copy, the
// copy canonicalized, and compared field-wise against cfg (memoized
// keys ignored). -1 means no listed value reproduces the config — the
// axis was collapsed by a value-conditional relevance rule, so
// stepping it is meaningless. cfg must already be canonical.
func axisValueIndex(ax *Axis, cfg Config, vs []axisValue) int {
	base := cfg
	base.key = ""
	for i, v := range vs {
		c := base
		ax.set(&c, v)
		c.canonicalize()
		if c == base {
			return i
		}
	}
	return -1
}

// frontierFingerprint renders the frontiers' identity — every level's
// canonical point keys — as one string, so "did this round move any
// frontier" is a single comparison. Keys are sorted within each level:
// membership, not ordering, is the moved signal.
func frontierFingerprint(fs []LevelFrontier) string {
	var b strings.Builder
	keys := make([]string, 0, 8)
	for _, lf := range fs {
		fmt.Fprintf(&b, "[%d]\n", lf.Level)
		keys = keys[:0]
		for _, p := range lf.Points {
			keys = append(keys, p.Config.Key())
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
