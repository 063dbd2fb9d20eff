// Package mem models the memory system of the paper's embedded SoC
// (Section 5.1): 256 KB of program ROM and 16 KB of RAM, both single-cycle,
// with access counters that feed the Cacti-style energy model. The
// instruction-cache configuration (Section 5.3) widens the ROM port to
// 128 bits and single-ports it.
package mem

import "fmt"

// Layout constants: ROM at 0, RAM at RAMBase.
const (
	ROMBase = 0x00000000
	ROMSize = 256 * 1024
	RAMBase = 0x10000000
	RAMSize = 16 * 1024
)

// Stats counts memory accesses by port.
type Stats struct {
	ROMInstReads uint64 // 32-bit instruction fetches from ROM
	ROMDataReads uint64 // data-bus reads from ROM
	ROMLineReads uint64 // 128-bit cache-line fills (cache configs)
	RAMReads     uint64
	RAMWrites    uint64
}

// System is the flat physical memory with per-port counters.
type System struct {
	rom   []uint32
	ram   []uint32
	Stats Stats
}

// NewSystem returns a zeroed memory system.
func NewSystem() *System {
	return &System{
		rom: make([]uint32, ROMSize/4),
		ram: make([]uint32, RAMSize/4),
	}
}

// ReadData performs a data-bus read (LW path).
func (s *System) ReadData(addr uint32) uint32 {
	switch {
	case addr >= RAMBase && addr < RAMBase+RAMSize:
		s.Stats.RAMReads++
		return s.ram[(addr-RAMBase)/4]
	case addr < ROMSize:
		s.Stats.ROMDataReads++
		return s.rom[addr/4]
	}
	panic(fmt.Sprintf("mem: data read from unmapped address %#x", addr))
}

// WriteData performs a data-bus write (SW path).
func (s *System) WriteData(addr uint32, v uint32) {
	if addr >= RAMBase && addr < RAMBase+RAMSize {
		s.Stats.RAMWrites++
		s.ram[(addr-RAMBase)/4] = v
		return
	}
	panic(fmt.Sprintf("mem: data write to unmapped address %#x", addr))
}

// PeekRAM reads RAM without counting (test/harness use).
func (s *System) PeekRAM(addr uint32) uint32 {
	return s.ram[(addr-RAMBase)/4]
}

// PokeRAM writes RAM without counting (test/harness use).
func (s *System) PokeRAM(addr uint32, v uint32) {
	s.ram[(addr-RAMBase)/4] = v
}

// CountInstFetch records a 32-bit instruction read from ROM (no-cache
// configurations fetch from ROM every cycle, Section 7.1's dominant energy
// term).
func (s *System) CountInstFetch() { s.Stats.ROMInstReads++ }

// CountLineFill records a 128-bit ROM read filling one cache line.
func (s *System) CountLineFill() { s.Stats.ROMLineReads++ }
