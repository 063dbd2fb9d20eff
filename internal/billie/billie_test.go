package billie

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gf2"
)

// Config describes one Billie instance of the functional model.
type Config struct {
	FieldName string // NIST binary field, fixed at synthesis
	Digit     int    // digit-serial multiplier width D
}

// Billie is one accelerator instance of the functional model: its field
// and digit size.
type Billie struct {
	Cfg Config
	F   *gf2.Field
}

// New builds a Billie instance for a NIST binary field.
func New(cfg Config) *Billie {
	if cfg.Digit <= 0 {
		cfg.Digit = DefaultDigit
	}
	return &Billie{Cfg: cfg, F: gf2.NISTField(cfg.FieldName, gf2.CLMul)}
}

// MulCycles is the digit-serial multiplication latency of the instance's
// field and digit (DigitSerialCycles).
func (b *Billie) MulCycles() uint64 { return DigitSerialCycles(b.F.M, b.Cfg.Digit) }

func randElem(r *rand.Rand, f *gf2.Field) gf2.Elem {
	z := gf2.New(f.K)
	for i := range z {
		z[i] = r.Uint32()
	}
	if top := uint(f.M) % 32; top != 0 {
		z[f.K-1] &= (1 << top) - 1
	}
	return z
}

// regFile is Billie's 16-entry, full-field-width register file with the
// coprocessor instructions that run on it: a functional and activity
// model the tests check against gf2. The simulator prices Billie from
// DigitSerialCycles and ScalarMultCycles and never runs it.
type regFile struct {
	*Billie
	Stats Stats

	regs [16]gf2.Elem
}

func newRegFile(cfg Config) *regFile {
	b := &regFile{Billie: New(cfg)}
	for i := range b.regs {
		b.regs[i] = gf2.New(b.F.K)
	}
	return b
}

// Stats counts the register-file model's activity.
type Stats struct {
	MulOps, SqrOps, AddOps uint64
	Loads, Stores          uint64
	BusyCycles             uint64 // cycles Billie's datapath is occupied
	IdleIssue              uint64 // Pete-side issue cycles
	RegReads, RegWrites    uint64 // register-file accesses (energy model)
	SharedReads            uint64 // 32-bit words moved from shared RAM
	SharedWrites           uint64
}

// checkReg panics on a bad register index.
func checkReg(r int) {
	if r < 0 || r > 15 {
		panic(fmt.Sprintf("billie: register %d out of range", r))
	}
}

// Load moves a field element from memory into register rd (COP2LD).
func (b *regFile) Load(rd int, v gf2.Elem) uint64 {
	checkReg(rd)
	copy(b.regs[rd], v)
	words := uint64(b.F.K)
	b.Stats.Loads++
	b.Stats.SharedReads += words
	b.Stats.RegWrites++
	busy := words + issueCycles
	b.Stats.BusyCycles += busy
	b.Stats.IdleIssue += issueCycles
	return busy
}

// Store moves register rs out to memory (COP2ST).
func (b *regFile) Store(rs int) (gf2.Elem, uint64) {
	checkReg(rs)
	out := b.regs[rs].Clone()
	words := uint64(b.F.K)
	b.Stats.Stores++
	b.Stats.SharedWrites += words
	b.Stats.RegReads++
	busy := words + issueCycles
	b.Stats.BusyCycles += busy
	return out, busy
}

// Mul executes COP2MUL fd ← fs × ft (modular digit-serial multiply).
func (b *regFile) Mul(fd, fs, ft int) uint64 {
	checkReg(fd)
	checkReg(fs)
	checkReg(ft)
	b.F.Mul(b.regs[fd], b.regs[fs], b.regs[ft])
	b.Stats.MulOps++
	b.Stats.RegReads += 2
	b.Stats.RegWrites++
	busy := b.MulCycles() + issueCycles
	b.Stats.BusyCycles += busy
	return busy
}

// Sqr executes COP2SQR fd ← ft² (single-cycle hardwired squarer,
// Section 5.5.3).
func (b *regFile) Sqr(fd, ft int) uint64 {
	checkReg(fd)
	checkReg(ft)
	b.F.Sqr(b.regs[fd], b.regs[ft])
	b.Stats.SqrOps++
	b.Stats.RegReads++
	b.Stats.RegWrites++
	busy := uint64(1 + issueCycles)
	b.Stats.BusyCycles += busy
	return busy
}

// Add executes COP2ADD fd ← fs + ft (single-cycle full-width XOR).
func (b *regFile) Add(fd, fs, ft int) uint64 {
	checkReg(fd)
	checkReg(fs)
	checkReg(ft)
	b.F.Add(b.regs[fd], b.regs[fs], b.regs[ft])
	b.Stats.AddOps++
	b.Stats.RegReads += 2
	b.Stats.RegWrites++
	busy := uint64(1 + issueCycles)
	b.Stats.BusyCycles += busy
	return busy
}

// Reg returns a copy of a register (test access).
func (b *regFile) Reg(i int) gf2.Elem {
	checkReg(i)
	return b.regs[i].Clone()
}

func TestRegisterFileOps(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	b := newRegFile(Config{FieldName: "B-163"})
	ref := gf2.NISTField("B-163", gf2.CLMul)
	a1 := randElem(r, b.F)
	a2 := randElem(r, b.F)
	b.Load(0, a1)
	b.Load(1, a2)
	b.Mul(2, 0, 1)
	b.Sqr(3, 0)
	b.Add(4, 0, 1)
	wantMul, wantSqr, wantAdd := gf2.New(ref.K), gf2.New(ref.K), gf2.New(ref.K)
	ref.Mul(wantMul, a1, a2)
	ref.Sqr(wantSqr, a1)
	ref.Add(wantAdd, a1, a2)
	got, _ := b.Store(2)
	if !gf2.Equal(got, wantMul) {
		t.Error("Billie mul wrong")
	}
	if !gf2.Equal(b.Reg(3), wantSqr) {
		t.Error("Billie sqr wrong")
	}
	if !gf2.Equal(b.Reg(4), wantAdd) {
		t.Error("Billie add wrong")
	}
}

func TestMulCyclesDigitSerial(t *testing.T) {
	// ceil(m/D) + pipeline overhead.
	cases := []struct {
		field string
		d     int
		want  uint64
	}{
		{"B-163", 1, 163 + 3},
		{"B-163", 3, 55 + 3},
		{"B-163", 8, 21 + 3},
		{"B-571", 3, 191 + 3},
	}
	for _, c := range cases {
		b := New(Config{FieldName: c.field, Digit: c.d})
		if got := b.MulCycles(); got != c.want {
			t.Errorf("%s D=%d: %d cycles, want %d", c.field, c.d, got, c.want)
		}
	}
}

func TestAllFieldsFunctional(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, name := range gf2.BinaryFieldNames {
		b := newRegFile(Config{FieldName: name})
		ref := gf2.NISTField(name, gf2.CLMul)
		x := randElem(r, b.F)
		y := randElem(r, b.F)
		b.Load(5, x)
		b.Load(6, y)
		b.Mul(7, 5, 6)
		want := gf2.New(ref.K)
		ref.Mul(want, x, y)
		if !gf2.Equal(b.Reg(7), want) {
			t.Errorf("%s: multiply wrong", name)
		}
	}
}

// TestScalarMultWords checks the word count ScalarMultCycles stages per
// load or store, ceil(m/32), against every NIST binary field's element
// size.
func TestScalarMultWords(t *testing.T) {
	for _, name := range gf2.BinaryFieldNames {
		f := New(Config{FieldName: name}).F
		if got := (f.M + 31) / 32; got != f.K {
			t.Errorf("%s: ceil(m/32) = %d words, field elements hold %d", name, got, f.K)
		}
	}
}

func TestScalarMultCyclesShape(t *testing.T) {
	// Figure 7.14's shape: cycles fall as the digit grows, and the
	// sliding window beats the Montgomery ladder at every digit size.
	var prevSW uint64
	for d := 1; d <= 8; d++ {
		sw := ScalarMultCycles(163, d, "sliding-window")
		ml := ScalarMultCycles(163, d, "montgomery")
		if sw >= ml {
			t.Errorf("D=%d: sliding window (%d) should beat Montgomery (%d)", d, sw, ml)
		}
		if prevSW != 0 && sw >= prevSW {
			t.Errorf("D=%d: cycles should fall with digit size", d)
		}
		prevSW = sw
	}
}

func TestScalarMultBeatsPriorWork(t *testing.T) {
	// Guo et al.'s energy-optimal point is ~313K cycles for a 163-bit
	// scalar multiplication; Billie's sliding window at D=3 must beat
	// it (Section 7.6).
	if c := ScalarMultCycles(163, 3, "sliding-window"); c >= 313000 {
		t.Errorf("sliding window %d cycles does not beat prior work", c)
	}
}

func TestStatsAndGuards(t *testing.T) {
	b := newRegFile(Config{FieldName: "B-233"})
	x := b.F.One.Clone()
	b.Load(0, x)
	b.Mul(1, 0, 0)
	b.Sqr(2, 1)
	b.Add(3, 1, 2)
	b.Store(3)
	s := b.Stats
	if s.MulOps != 1 || s.SqrOps != 1 || s.AddOps != 1 ||
		s.Loads != 1 || s.Stores != 1 {
		t.Errorf("op counts wrong: %+v", s)
	}
	if s.BusyCycles == 0 || s.RegReads == 0 || s.RegWrites == 0 {
		t.Errorf("cycle/regfile stats missing: %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("bad register index should panic")
		}
	}()
	b.Mul(16, 0, 0)
}

func TestUnknownAlgorithmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown algorithm should panic")
		}
	}()
	ScalarMultCycles(163, DefaultDigit, "double-and-always-add")
}
