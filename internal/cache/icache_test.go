package cache

import (
	"testing"

	"repro/internal/mem"
)

func TestColdMissThenHit(t *testing.T) {
	m := mem.NewSystem()
	c := New(1024, false, m)
	if s := c.Fetch(0); s != MissPenalty {
		t.Errorf("cold fetch stall = %d, want %d", s, MissPenalty)
	}
	// Same line (addresses 0..15) now hits.
	for _, a := range []uint32{4, 8, 12} {
		if s := c.Fetch(a); s != 0 {
			t.Errorf("fetch %d should hit, stalled %d", a, s)
		}
	}
	if c.Stats.Misses != 1 || c.Stats.Accesses != 4 {
		t.Errorf("stats: %+v", c.Stats)
	}
	if m.Stats.ROMLineReads != 1 {
		t.Errorf("line fills = %d, want 1", m.Stats.ROMLineReads)
	}
}

func TestConflictEviction(t *testing.T) {
	m := mem.NewSystem()
	c := New(1024, false, m) // 64 lines
	c.Fetch(0)
	c.Fetch(1024) // maps to the same index, evicts
	if s := c.Fetch(0); s != MissPenalty {
		t.Error("evicted line should miss")
	}
}

func TestSequentialPrefetch(t *testing.T) {
	m := mem.NewSystem()
	c := New(1024, true, m)
	// Sequential code: after the first miss, the stream buffer should
	// cover subsequent line transitions.
	var stalls int
	for a := uint32(0); a < 64*16; a += 4 {
		stalls += c.Fetch(a)
	}
	if stalls != MissPenalty {
		t.Errorf("sequential fetch stalled %d cycles, want only the cold miss (%d)",
			stalls, MissPenalty)
	}
	if c.Stats.PrefetchHits == 0 {
		t.Error("prefetcher never hit")
	}
}

func TestPrefetchTrafficCounted(t *testing.T) {
	m := mem.NewSystem()
	c := New(1024, true, m)
	for a := uint32(0); a < 16*16; a += 4 {
		c.Fetch(a)
	}
	if m.Stats.ROMLineReads <= c.Stats.Misses-c.Stats.PrefetchHits {
		t.Error("prefetch fills should add ROM line reads")
	}
}

func TestMissRateAndReset(t *testing.T) {
	m := mem.NewSystem()
	c := New(1024, false, m)
	c.Fetch(0)
	c.Fetch(4)
	if r := c.MissRate(); r != 0.5 {
		t.Errorf("miss rate %.2f, want 0.5", r)
	}
}

func TestBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two size should panic")
		}
	}()
	New(1000, false, mem.NewSystem())
}

func TestBadLinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two line should panic")
		}
	}()
	NewWithLine(1024, 24, false, mem.NewSystem())
}

// TestWiderLines pins the line-size hardware semantics: a sequential
// stream misses half as often on 32-byte lines, each miss stalls one
// extra cycle (second 128-bit ROM beat), and each fill reads the ROM
// port twice.
func TestWiderLines(t *testing.T) {
	m16, m32 := mem.NewSystem(), mem.NewSystem()
	c16 := New(1024, false, m16)
	c32 := NewWithLine(1024, 32, false, m32)
	var stall16, stall32 int
	for a := uint32(0); a < 64*16; a += 4 {
		stall16 += c16.Fetch(a)
		stall32 += c32.Fetch(a)
	}
	if c32.Stats.Misses*2 != c16.Stats.Misses {
		t.Errorf("sequential misses: 32B=%d 16B=%d, want exactly half",
			c32.Stats.Misses, c16.Stats.Misses)
	}
	if wantStall := int(c32.Stats.Misses) * (MissPenalty + 1); stall32 != wantStall {
		t.Errorf("32B-line stalls = %d, want %d (penalty %d per miss)",
			stall32, wantStall, MissPenalty+1)
	}
	if m32.Stats.ROMLineReads != c32.Stats.LineFills*2 {
		t.Errorf("32B fills read ROM %d times for %d fills, want 2 beats each",
			m32.Stats.ROMLineReads, c32.Stats.LineFills)
	}
}

func TestLargerCacheFewerMisses(t *testing.T) {
	// A working set of 128 lines thrashes a 64-line (1KB) cache but
	// fits an 8KB one.
	work := func(size int) uint64 {
		m := mem.NewSystem()
		c := New(size, false, m)
		for pass := 0; pass < 10; pass++ {
			for a := uint32(0); a < 128*16; a += 16 {
				c.Fetch(a)
			}
		}
		return c.Stats.Misses
	}
	small, large := work(1024), work(8192)
	if large >= small {
		t.Errorf("8KB (%d misses) should beat 1KB (%d)", large, small)
	}
}
