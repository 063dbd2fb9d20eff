package isa

import "testing"

func TestOpNamesRoundTrip(t *testing.T) {
	for name, op := range OpByName {
		if op.String() != name {
			t.Errorf("op %v renders as %q", op, op.String())
		}
	}
	if OpInvalid.String() == "" {
		t.Error("invalid op should still render")
	}
}

func TestClassPredicates(t *testing.T) {
	cases := []struct {
		in           Inst
		branch, mulu bool
	}{
		{Inst{Op: LW}, false, false},
		{Inst{Op: SB}, false, false},
		{Inst{Op: BNE}, true, false},
		{Inst{Op: JAL}, false, false},
		{Inst{Op: MADDU}, false, true},
		{Inst{Op: MULGF2}, false, true},
		{Inst{Op: ADDU}, false, false},
	}
	for _, c := range cases {
		if c.in.IsBranch() != c.branch || c.in.UsesMulUnit() != c.mulu {
			t.Errorf("%v: predicates wrong", c.in.Op)
		}
	}
}

func TestHiLoReaders(t *testing.T) {
	for _, op := range []Op{MFHI, MFLO, SHA, ADDAU, MADDU, M2ADDU, MADDGF2} {
		if !(Inst{Op: op}).ReadsHiLo() {
			t.Errorf("%v should read Hi/Lo", op)
		}
	}
	if (Inst{Op: MULT}).ReadsHiLo() {
		t.Error("MULT only writes Hi/Lo")
	}
}

func TestDestAndSrcRegs(t *testing.T) {
	in := Inst{Op: ADDU, Rd: 3, Rs: 4, Rt: 5}
	srcs := in.SrcRegs()
	if len(srcs) != 2 || srcs[0] != 4 || srcs[1] != 5 {
		t.Errorf("ADDU srcs %v", srcs)
	}
	lw := Inst{Op: LW, Rt: 7, Rs: 8}
	if lw.SrcRegs()[0] != 8 {
		t.Error("LW regs wrong")
	}
	sw := Inst{Op: SW, Rt: 2, Rs: 3}
	if len(sw.SrcRegs()) != 2 {
		t.Error("SW regs wrong")
	}
}

func TestRegNames(t *testing.T) {
	checks := map[string]int{
		"zero": 0, "at": 1, "v0": 2, "a0": 4, "t0": 8,
		"s0": 16, "t8": 24, "gp": 28, "sp": 29, "ra": 31, "17": 17,
	}
	for name, want := range checks {
		if got := RegNames[name]; got != want {
			t.Errorf("$%s = %d, want %d", name, got, want)
		}
	}
}
