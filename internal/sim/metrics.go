package sim

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// The simulator's optional metrics hook. When a registry is installed,
// Run records where each simulation's wall-clock goes, split the way
// the hot-path roadmap needs it:
//
//	sim.profile.<phase>  — functional crypto execution + op census
//	                       (recorded only when the census memo fills an
//	                       entry: a census depends only on (curve, phase),
//	                       so one profile run serves hundreds of pricings)
//	sim.price.<phase>    — census → cycles/events pricing
//	sim.assemble         — cache model + energy/power assembly per run
//	sim.run              — whole Run call
//	sim.census.hits      — later serves of a good memo entry (counter)
//	sim.census.misses    — first serves of a (curve, phase) entry, one
//	                       per entry profiled (counter)
//
// Timing is carried entirely out-of-band: nothing here touches
// sim.Result, so instrumented and uninstrumented runs produce
// bit-identical results, hashes and store bytes.
var metricsReg atomic.Pointer[telemetry.Registry]

// SetMetrics installs (or, with nil, removes) the process-wide metrics
// registry Run records timing into. Safe to call concurrently with
// running simulations; in-flight runs may record into either registry.
func SetMetrics(r *telemetry.Registry) { metricsReg.Store(r) }

// metrics returns the installed registry, or nil when timing is off.
func metrics() *telemetry.Registry { return metricsReg.Load() }
