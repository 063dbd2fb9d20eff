package mem

import "testing"

func TestReadWriteRAM(t *testing.T) {
	s := NewSystem()
	s.WriteData(RAMBase+4, 0xdeadbeef)
	if v := s.ReadData(RAMBase + 4); v != 0xdeadbeef {
		t.Errorf("RAM read %#x", v)
	}
	if s.Stats.RAMWrites != 1 || s.Stats.RAMReads != 1 {
		t.Errorf("counters: %+v", s.Stats)
	}
}

func TestROMDataRead(t *testing.T) {
	s := NewSystem()
	copy(s.rom, []uint32{1, 2, 3})
	if v := s.ReadData(8); v != 3 {
		t.Errorf("ROM data read %d", v)
	}
	if s.Stats.ROMDataReads != 1 {
		t.Error("ROM data read not counted")
	}
}

func TestPeekPokeUncounted(t *testing.T) {
	s := NewSystem()
	s.PokeRAM(RAMBase, 7)
	if s.PeekRAM(RAMBase) != 7 {
		t.Error("peek/poke failed")
	}
	if s.Stats.RAMReads != 0 || s.Stats.RAMWrites != 0 {
		t.Error("peek/poke must not count")
	}
}

func TestFetchCounters(t *testing.T) {
	s := NewSystem()
	s.CountInstFetch()
	s.CountLineFill()
	if s.Stats.ROMInstReads != 1 || s.Stats.ROMLineReads != 1 {
		t.Errorf("fetch counters: %+v", s.Stats)
	}
}

func TestUnmappedPanics(t *testing.T) {
	s := NewSystem()
	defer func() {
		if recover() == nil {
			t.Error("unmapped read should panic")
		}
	}()
	s.ReadData(0x20000000)
}

func TestROMWritePanics(t *testing.T) {
	s := NewSystem()
	defer func() {
		if recover() == nil {
			t.Error("ROM write should panic")
		}
	}()
	s.WriteData(0, 1)
}
