// Package isa defines the MIPS-II instruction subset that "Pete" (the
// paper's baseline RISC core, Section 5.1) executes, plus the custom
// instruction-set extensions of Section 5.2: the prime-field accumulator
// instructions MADDU / M2ADDU / ADDAU / SHA (Table 5.1) and the
// binary-field carry-less instructions MULGF2 / MADDGF2 (Table 5.2).
// Extensions are encoded in the SPECIAL2 opcode space (0x1c), as real MIPS
// implementations do.
package isa

import "fmt"

// Op identifies an instruction operation.
type Op int

// Core MIPS subset + extensions.
const (
	OpInvalid Op = iota
	// Arithmetic/logic (R-type).
	ADDU
	SUBU
	AND
	OR
	XOR
	NOR
	SLT
	SLTU
	SLL
	SRL
	SRA
	SLLV
	SRLV
	SRAV
	// Hi/Lo multiply-divide unit.
	MULT
	MULTU
	DIV
	DIVU
	MFHI
	MFLO
	MTHI
	MTLO
	// Jumps.
	JR
	JALR
	J
	JAL
	// Immediate.
	ADDIU
	ANDI
	ORI
	XORI
	LUI
	SLTI
	SLTIU
	// Memory.
	LW
	LB
	LBU
	LH
	LHU
	SW
	SB
	SH
	// Branches (one delay slot each).
	BEQ
	BNE
	BLEZ
	BGTZ
	BLTZ
	BGEZ
	// Prime-field ISA extensions (Table 5.1).
	MADDU  // (OvFlo,Hi,Lo) += rs * rt
	M2ADDU // (OvFlo,Hi,Lo) += 2 * rs * rt
	ADDAU  // (OvFlo,Hi,Lo) += (rs << 32) + rt
	SHA    // (OvFlo,Hi,Lo) >>= 32
	// Binary-field ISA extensions (Table 5.2).
	MULGF2  // (OvFlo,Hi,Lo) = rs ⊗ rt
	MADDGF2 // (OvFlo,Hi,Lo) ^= rs ⊗ rt
	// Simulation control.
	HALT // stop the simulator (encoded as SPECIAL2 function 0x3f)
	nOps
)

var opNames = map[Op]string{
	ADDU: "addu", SUBU: "subu", AND: "and", OR: "or", XOR: "xor", NOR: "nor",
	SLT: "slt", SLTU: "sltu", SLL: "sll", SRL: "srl", SRA: "sra",
	SLLV: "sllv", SRLV: "srlv", SRAV: "srav",
	MULT: "mult", MULTU: "multu", DIV: "div", DIVU: "divu",
	MFHI: "mfhi", MFLO: "mflo", MTHI: "mthi", MTLO: "mtlo",
	JR: "jr", JALR: "jalr", J: "j", JAL: "jal",
	ADDIU: "addiu", ANDI: "andi", ORI: "ori", XORI: "xori", LUI: "lui",
	SLTI: "slti", SLTIU: "sltiu",
	LW: "lw", LB: "lb", LBU: "lbu", LH: "lh", LHU: "lhu",
	SW: "sw", SB: "sb", SH: "sh",
	BEQ: "beq", BNE: "bne", BLEZ: "blez", BGTZ: "bgtz", BLTZ: "bltz", BGEZ: "bgez",
	MADDU: "maddu", M2ADDU: "m2addu", ADDAU: "addau", SHA: "sha",
	MULGF2: "mulgf2", MADDGF2: "maddgf2",
	HALT: "halt",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// OpByName maps mnemonic to Op.
var OpByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

// Inst is a decoded instruction. Rd/Rs/Rt are register indices; Imm holds
// the sign- or zero-extended immediate, shift amount, or jump target.
type Inst struct {
	Op         Op
	Rd, Rs, Rt int
	Imm        int32
}

// Class helpers for the pipeline model.

// IsBranch reports whether the instruction is a conditional branch.
func (i Inst) IsBranch() bool {
	switch i.Op {
	case BEQ, BNE, BLEZ, BGTZ, BLTZ, BGEZ:
		return true
	}
	return false
}

// UsesMulUnit reports whether the instruction occupies the multi-cycle
// Karatsuba multiply unit (Section 5.1.1).
func (i Inst) UsesMulUnit() bool {
	switch i.Op {
	case MULT, MULTU, MADDU, M2ADDU, MULGF2, MADDGF2:
		return true
	}
	return false
}

// ReadsHiLo reports whether the instruction reads the Hi/Lo/OvFlo register
// set and therefore interlocks with an in-flight multiply.
func (i Inst) ReadsHiLo() bool {
	switch i.Op {
	case MFHI, MFLO, SHA, ADDAU, MADDU, M2ADDU, MADDGF2:
		return true
	}
	return false
}

// SrcRegs returns the general-purpose registers the instruction reads.
func (i Inst) SrcRegs() []int {
	switch i.Op {
	case ADDU, SUBU, AND, OR, XOR, NOR, SLT, SLTU, SLLV, SRLV, SRAV,
		MULT, MULTU, DIV, DIVU, MADDU, M2ADDU, ADDAU, MULGF2, MADDGF2,
		BEQ, BNE:
		return []int{i.Rs, i.Rt}
	case SLL, SRL, SRA:
		return []int{i.Rt}
	case ADDIU, ANDI, ORI, XORI, SLTI, SLTIU, LW, LB, LBU, LH, LHU,
		BLEZ, BGTZ, BLTZ, BGEZ, JR, JALR, MTHI, MTLO:
		return []int{i.Rs}
	case SW, SB, SH:
		return []int{i.Rs, i.Rt}
	}
	return nil
}

// RegNames maps the conventional MIPS register names to indices.
var RegNames = func() map[string]int {
	m := map[string]int{
		"zero": 0, "at": 1, "v0": 2, "v1": 3,
		"a0": 4, "a1": 5, "a2": 6, "a3": 7,
		"t0": 8, "t1": 9, "t2": 10, "t3": 11, "t4": 12, "t5": 13, "t6": 14, "t7": 15,
		"s0": 16, "s1": 17, "s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23,
		"t8": 24, "t9": 25, "k0": 26, "k1": 27,
		"gp": 28, "sp": 29, "fp": 30, "ra": 31,
	}
	for i := 0; i < 32; i++ {
		m[fmt.Sprintf("%d", i)] = i
	}
	return m
}()
