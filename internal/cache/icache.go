// Package cache implements the direct-mapped instruction cache of Section
// 5.3: 16-byte lines, parameterizable capacity (1–8 KB evaluated), valid
// bits, a three-cycle miss penalty against the 128-bit single-ported ROM,
// and an optional single-entry stream-buffer prefetcher modeled after
// Jouppi (Section 5.3.3). Figure 7.11's ideal never-miss cache has no
// model here: sim prices it analytically.
// Fill costs come from internal/energy's ROM port formulas, which sim's
// analytic miss pricing calls too, so sim does not import this package.
package cache

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/mem"
)

// LineBytes is the default cache block size: four 32-bit words, matching
// the 128-bit ROM port that fills a whole line in one beat (Section
// 5.3.2). NewWithLine builds caches with other power-of-two line sizes;
// the port width stays fixed, so longer lines fill in several beats.
const LineBytes = energy.ROMPortBytes

// MissPenalty is the stall seen by the core on a miss; the 128-bit ROM
// port keeps it at three cycles for a single-beat line (Section 7.5).
const MissPenalty = energy.ROMFillStall

// Stats counts cache events for the energy model.
type Stats struct {
	Accesses      uint64
	Misses        uint64
	LineFills     uint64 // fills into the cache (misses + prefetch promotions)
	PrefetchFills uint64 // ROM reads issued by the prefetcher
	PrefetchHits  uint64 // misses served from the prefetch buffer
}

// ICache is a direct-mapped instruction cache with an optional prefetcher.
type ICache struct {
	SizeBytes int
	// Line is the line size in bytes (LineBytes unless built with
	// NewWithLine). Lines longer than the 128-bit ROM port fill in
	// several pipelined beats.
	Line     int
	Prefetch bool

	Mem   *mem.System
	Stats Stats

	lines int
	tags  []uint32
	valid []bool

	// Single-entry stream buffer.
	pfValid bool
	pfLine  uint32 // line address held in the prefetch buffer
}

// New builds an instruction cache of sizeBytes capacity over ROM with
// the default 16-byte line of Section 5.3.
func New(sizeBytes int, prefetch bool, m *mem.System) *ICache {
	return NewWithLine(sizeBytes, LineBytes, prefetch, m)
}

// NewWithLine builds an instruction cache with an explicit line size —
// the knob the paper fixes at 16 bytes. Both the capacity and the line
// must give a power-of-two number of lines.
func NewWithLine(sizeBytes, lineBytes int, prefetch bool, m *mem.System) *ICache {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d is not a power of two", lineBytes))
	}
	lines := sizeBytes / lineBytes
	if lines <= 0 || lines&(lines-1) != 0 {
		panic(fmt.Sprintf("cache: size %d is not a power-of-two number of %d-byte lines", sizeBytes, lineBytes))
	}
	return &ICache{
		SizeBytes: sizeBytes,
		Line:      lineBytes,
		Prefetch:  prefetch,
		Mem:       m,
		lines:     lines,
		tags:      make([]uint32, lines),
		valid:     make([]bool, lines),
	}
}

// readLine charges one line fill's worth of ROM traffic.
func (c *ICache) readLine() {
	for i := 0; i < energy.BeatsPerFill(c.Line); i++ {
		c.Mem.CountLineFill()
	}
}

// Fetch implements cpu.FetchModel: it returns the stall cycles this
// instruction fetch costs beyond the base cycle.
func (c *ICache) Fetch(addr uint32) int {
	c.Stats.Accesses++
	line := addr / uint32(c.Line)
	idx := line % uint32(c.lines)
	if c.valid[idx] && c.tags[idx] == line {
		return 0 // hit
	}
	c.Stats.Misses++
	if c.Prefetch && c.pfValid && c.pfLine == line {
		// Served from the stream buffer: the line is forwarded to the
		// core and written into the cache in the same cycle, and the
		// buffer immediately starts fetching the next line.
		c.Stats.PrefetchHits++
		c.fill(idx, line)
		c.prefetchNext(line)
		return 0
	}
	// Real miss: read the line from ROM, one beat per 128 bits, the
	// beats beyond the first pipelined behind the 3-cycle fill.
	c.readLine()
	c.Stats.LineFills++
	c.fill(idx, line)
	if c.Prefetch {
		c.prefetchNext(line)
	}
	return energy.MissPenaltyFor(c.Line)
}

func (c *ICache) fill(idx, line uint32) {
	c.valid[idx] = true
	c.tags[idx] = line
}

func (c *ICache) prefetchNext(line uint32) {
	next := line + 1
	if c.pfValid && c.pfLine == next {
		return
	}
	c.readLine()
	c.Stats.PrefetchFills++
	c.pfValid = true
	c.pfLine = next
}

// MissRate returns misses / accesses.
func (c *ICache) MissRate() float64 {
	if c.Stats.Accesses == 0 {
		return 0
	}
	return float64(c.Stats.Misses) / float64(c.Stats.Accesses)
}
