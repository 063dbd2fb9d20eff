package dse

import (
	"os"

	"repro/internal/telemetry"
)

// SweepTiming is the out-of-band wall-clock breakdown of one sweep,
// collected only when SweepOptions.Metrics is set and carried alongside
// the results — never inside them: points, keys, hashes and store bytes
// are identical with and without timing, so golden-pinned and
// hash-pinned outputs stay deterministic.
type SweepTiming struct {
	// TotalSeconds is the whole Sweep (or AdaptiveSweep) call,
	// expansion to flush.
	TotalSeconds float64 `json:"totalSeconds"`
	// ExpandSeconds covers spec expansion (for an adaptive exploration,
	// all candidate generation: grid count, coarse seed and neighbors).
	ExpandSeconds float64 `json:"expandSeconds"`
	// FingerprintSeconds covers computing the model fingerprint every
	// store read and write checks: its probe simulations run once per
	// process, so it is near zero after the first sweep. Zero without a
	// CacheDir.
	FingerprintSeconds float64 `json:"fingerprintSeconds,omitempty"`
	// LoadSeconds/LoadBytes cover reading the persistent store (once per
	// adaptive round); zero without a CacheDir.
	LoadSeconds float64 `json:"loadSeconds,omitempty"`
	LoadBytes   int64   `json:"loadBytes,omitempty"`
	// FlushSeconds/FlushBytes cover writing the store back; zero when
	// nothing was flushed (no CacheDir, or the store was unchanged).
	FlushSeconds float64 `json:"flushSeconds,omitempty"`
	FlushBytes   int64   `json:"flushBytes,omitempty"`
	// Simulated and Cached split the per-point GetOrRun durations by
	// whether the point was served from cache — the per-point
	// simulate-vs-hit cost this sweep actually paid.
	Simulated telemetry.HistogramSnapshot `json:"simulated"`
	Cached    telemetry.HistogramSnapshot `json:"cached"`
}

// fileSize returns a file's byte size for telemetry, or 0 if it cannot
// be measured — store accounting is best-effort observability, never a
// sweep failure.
func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
