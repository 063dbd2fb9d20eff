// Package kernels contains the multi-precision field-arithmetic routines
// written in Pete assembly, one per hardware/software configuration the
// paper evaluates (Section 4.2). The routines are generic over the word
// count k (passed in a register, like the paper's C++ templates resolve at
// the same loop structure), are executed on the cycle-accounting CPU
// simulator, and their results are cross-checked against the pure-Go
// implementations in internal/mp and internal/gf2 — so the cycle numbers
// the energy model consumes come from real programs computing real
// cryptography.
//
// Calling convention: $a0..$a3 carry pointers/values, results land in RAM,
// the kernel ends with HALT. Pointers are RAM byte addresses.
package kernels

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/mem"
)

// Kernel is an assembled routine plus metadata.
type Kernel struct {
	Name string
	Prog *asm.Program
}

// Build assembles src into a named kernel.
func Build(name, src string) *Kernel {
	return &Kernel{Name: name, Prog: asm.MustAssemble(src)}
}

// Runner executes kernels on a fresh Pete + memory instance.
type Runner struct {
	CPU *cpu.CPU
	Mem *mem.System
}

// NewRunner builds a runner with the default core configuration.
func NewRunner() *Runner {
	m := mem.NewSystem()
	c := cpu.New(cpu.DefaultConfig(), m)
	return &Runner{CPU: c, Mem: m}
}

// Run loads the kernel, sets up to four register arguments ($a0..$a3) and
// runs to HALT, returning the stats.
func (r *Runner) Run(k *Kernel, args ...uint32) (cpu.Stats, error) {
	r.CPU.Load(k.Prog.Insts)
	r.CPU.Reset()
	for i, a := range args {
		if i >= 4 {
			return cpu.Stats{}, fmt.Errorf("kernels: too many arguments")
		}
		r.CPU.Regs[4+i] = a
	}
	return r.CPU.Run(0, 200_000_000)
}

// StoreWords writes little-endian words into RAM at addr.
func (r *Runner) StoreWords(addr uint32, words []uint32) {
	for i, w := range words {
		r.Mem.PokeRAM(addr+uint32(4*i), w)
	}
}

// MulOS is the baseline operand-scanning multiplication (Algorithm 2) as
// compiled code would execute it on the unextended core: the statically
// scheduled MULT with MFLO/MFHI reads, carries handled with SLTU
// (Section 5.1.1).
//
// Args: $a0 = result (2k words), $a1 = a (k words), $a2 = b (k words),
// $a3 = k.
var MulOS = Build("mul_os_baseline", `
        # zero the 2k-word result
        sll   $t0, $a3, 3        # 8k bytes
        addu  $t0, $a0, $t0      # end pointer
        move  $t1, $a0
zloop:  sw    $zero, 0($t1)
        addiu $t1, $t1, 4
        bne   $t1, $t0, zloop
        nop
        # outer loop over b[i]
        move  $t9, $zero         # i = 0
outer:  sll   $t0, $t9, 2
        addu  $t0, $a2, $t0
        lw    $t3, 0($t0)        # t3 = b[i]
        move  $t4, $zero         # u = 0
        move  $t8, $zero         # j = 0
        sll   $t7, $t9, 2
        addu  $t7, $a0, $t7      # &p[i]
        move  $t6, $a1           # &a[0]
inner:  lw    $t0, 0($t6)        # a[j]
        multu $t0, $t3           # Karatsuba unit starts; schedule around it
        lw    $t1, 0($t7)        # p[i+j]
        addu  $t1, $t1, $t4      # p + u
        sltu  $t4, $t1, $t4      # carry1
        mflo  $t2
        addu  $t2, $t2, $t1      # lo + p + u
        sltu  $t5, $t2, $t1      # carry2
        mfhi  $t0
        addu  $t4, $t4, $t5
        addu  $t4, $t4, $t0      # u' = hi + carries
        sw    $t2, 0($t7)
        addiu $t8, $t8, 1
        addiu $t6, $t6, 4
        bne   $t8, $a3, inner
        addiu $t7, $t7, 4        # delay slot: advance &p[i+j]
        sw    $t4, 0($t7)        # p[i+k] = u
        addiu $t9, $t9, 1
        bne   $t9, $a3, outer
        nop
        halt
`)

// MulPSExt is product-scanning multiplication (Algorithm 3) using the
// MADDU/SHA accumulator extensions (Table 5.1) — the ISA-extended
// configuration's multiply.
//
// Args: $a0 = result (2k words), $a1 = a, $a2 = b, $a3 = k.
var MulPSExt = Build("mul_ps_ext", `
        # accumulator (OvFlo,Hi,Lo) starts clear
        mthi  $zero
        mtlo  $zero
        move  $t9, $zero          # column index i = 0
        sll   $s0, $a3, 1
        addiu $s0, $s0, -1        # 2k-1 columns
col:    # j from max(0, i-k+1) .. min(i, k-1)
        addiu $t0, $t9, 1
        subu  $t1, $t0, $a3       # i+1-k
        slt   $t2, $zero, $t1     # lo = max(0, i+1-k)
        bne   $t2, $zero, haslo
        move  $t3, $zero          # delay: lo = 0
        b     lodone
        nop
haslo:  move  $t3, $t1
lodone: addiu $t4, $a3, -1
        slt   $t5, $t9, $t4       # i < k-1 ?
        bne   $t5, $zero, hismall
        nop
        move  $t6, $t4            # hi = k-1
        b     hidone
        nop
hismall: move $t6, $t9            # hi = i
hidone: # pointers: a + 4*lo, b + 4*(i-lo)
        sll   $t0, $t3, 2
        addu  $t7, $a1, $t0       # &a[j]
        subu  $t1, $t9, $t3
        sll   $t1, $t1, 2
        addu  $t8, $a2, $t1       # &b[i-j]
        subu  $s1, $t6, $t3       # count-1 = hi-lo
        addiu $s1, $s1, 1         # iterations
prod:   lw    $t0, 0($t7)
        lw    $t1, 0($t8)
        maddu $t0, $t1            # (OvFlo,Hi,Lo) += a[j]*b[i-j]
        addiu $t7, $t7, 4
        addiu $s1, $s1, -1
        bne   $s1, $zero, prod
        addiu $t8, $t8, -4        # delay slot: b pointer walks down
        # store column word and shift the accumulator
        mflo  $t0
        sll   $t1, $t9, 2
        addu  $t1, $a0, $t1
        sw    $t0, 0($t1)
        sha
        addiu $t9, $t9, 1
        bne   $t9, $s0, col
        nop
        # final word p[2k-1]
        mflo  $t0
        sll   $t1, $t9, 2
        addu  $t1, $a0, $t1
        sw    $t0, 0($t1)
        halt
`)

// MulGF2Ext is carry-less product scanning using MULGF2/MADDGF2 (Table
// 5.2) — the binary ISA-extended multiply. Identical loop structure to
// MulPSExt; no SHA is needed for the carry word because carry-less columns
// never overflow past Hi, so the accumulator shift is Lo←Hi, Hi←0 done
// with MFHI/MTLO-style moves... in hardware SHA serves both; we use it.
//
// Args: $a0 = result (2k words), $a1 = a, $a2 = b, $a3 = k.
var MulGF2Ext = Build("mul_gf2_ext", `
        mthi  $zero
        mtlo  $zero
        move  $t9, $zero
        sll   $s0, $a3, 1
        addiu $s0, $s0, -1
col:    addiu $t0, $t9, 1
        subu  $t1, $t0, $a3
        slt   $t2, $zero, $t1
        bne   $t2, $zero, haslo
        move  $t3, $zero
        b     lodone
        nop
haslo:  move  $t3, $t1
lodone: addiu $t4, $a3, -1
        slt   $t5, $t9, $t4
        bne   $t5, $zero, hismall
        nop
        move  $t6, $t4
        b     hidone
        nop
hismall: move $t6, $t9
hidone: sll   $t0, $t3, 2
        addu  $t7, $a1, $t0
        subu  $t1, $t9, $t3
        sll   $t1, $t1, 2
        addu  $t8, $a2, $t1
        subu  $s1, $t6, $t3
        addiu $s1, $s1, 1
prod:   lw    $t0, 0($t7)
        lw    $t1, 0($t8)
        maddgf2 $t0, $t1
        addiu $t7, $t7, 4
        addiu $s1, $s1, -1
        bne   $s1, $zero, prod
        addiu $t8, $t8, -4
        mflo  $t0
        sll   $t1, $t9, 2
        addu  $t1, $a0, $t1
        sw    $t0, 0($t1)
        sha
        addiu $t9, $t9, 1
        bne   $t9, $s0, col
        nop
        mflo  $t0
        sll   $t1, $t9, 2
        addu  $t1, $a0, $t1
        sw    $t0, 0($t1)
        halt
`)

// AddMP is multi-precision addition with carry chain (O(k), Section
// 4.2.4): result = a + b, returning the carry in $v0.
//
// Args: $a0 = result (k words), $a1 = a, $a2 = b, $a3 = k.
var AddMP = Build("add_mp", `
        move  $t9, $zero          # carry
        move  $t8, $zero          # index
loop:   lw    $t0, 0($a1)
        lw    $t1, 0($a2)
        addu  $t2, $t0, $t1       # partial sum
        sltu  $t3, $t2, $t0       # carry out of a+b
        addu  $t4, $t2, $t9       # + carry in
        sltu  $t5, $t4, $t2
        addu  $t9, $t3, $t5       # next carry
        sw    $t4, 0($a0)
        addiu $a0, $a0, 4
        addiu $a1, $a1, 4
        addiu $a2, $a2, 4
        addiu $t8, $t8, 1
        bne   $t8, $a3, loop
        nop
        move  $v0, $t9
        halt
`)

// SubMP is multi-precision subtraction, borrow returned in $v0.
var SubMP = Build("sub_mp", `
        move  $t9, $zero          # borrow
        move  $t8, $zero
loop:   lw    $t0, 0($a1)
        lw    $t1, 0($a2)
        subu  $t2, $t0, $t1
        sltu  $t3, $t0, $t1       # borrow out of a-b
        subu  $t4, $t2, $t9
        sltu  $t5, $t2, $t9
        addu  $t9, $t3, $t5
        sw    $t4, 0($a0)
        addiu $a0, $a0, 4
        addiu $a1, $a1, 4
        addiu $a2, $a2, 4
        addiu $t8, $t8, 1
        bne   $t8, $a3, loop
        nop
        move  $v0, $t9
        halt
`)

// AddGF2 is binary-field addition: a pure XOR loop, no carries and no
// reduction (Section 2.1.4) — the reason binary addition is much cheaper.
var AddGF2 = Build("add_gf2", `
        move  $t8, $zero
loop:   lw    $t0, 0($a1)
        lw    $t1, 0($a2)
        xor   $t2, $t0, $t1
        sw    $t2, 0($a0)
        addiu $a0, $a0, 4
        addiu $a1, $a1, 4
        addiu $a2, $a2, 4
        addiu $t8, $t8, 1
        bne   $t8, $a3, loop
        nop
        halt
`)

// RedP192 is the NIST fast reduction modulo P-192 (Algorithm 4) in the
// 32-bit word formulation: three folded additions then conditional
// subtractions of p. The paper measures ~97 cycles for this routine.
//
// Args: $a0 = result (6 words), $a1 = c (12 words), $a2 = &p (6 words).
var RedP192 = Build("red_p192", `
        # r = s1 = c[0..5]
        lw    $t0, 0($a1)
        lw    $t1, 4($a1)
        lw    $t2, 8($a1)
        lw    $t3, 12($a1)
        lw    $t4, 16($a1)
        lw    $t5, 20($a1)
        # s2 = (c6,c7,c6,c7,0,0): add into (r0..r3), carry into r4,r5
        lw    $t6, 24($a1)        # c6
        lw    $t7, 28($a1)        # c7
        move  $t9, $zero          # running carry
        addu  $t0, $t0, $t6
        sltu  $t8, $t0, $t6
        addu  $t1, $t1, $t8
        sltu  $t9, $t1, $t8
        addu  $t1, $t1, $t7
        sltu  $t8, $t1, $t7
        addu  $t9, $t9, $t8
        addu  $t2, $t2, $t9
        sltu  $t9, $t2, $t9
        addu  $t2, $t2, $t6
        sltu  $t8, $t2, $t6
        addu  $t9, $t9, $t8
        addu  $t3, $t3, $t9
        sltu  $t9, $t3, $t9
        addu  $t3, $t3, $t7
        sltu  $t8, $t3, $t7
        addu  $t9, $t9, $t8
        addu  $t4, $t4, $t9
        sltu  $t9, $t4, $t9
        addu  $t5, $t5, $t9
        sltu  $t9, $t5, $t9
        move  $s0, $t9            # overflow word
        # s3 = (0,0,c8,c9,c8,c9)
        lw    $t6, 32($a1)        # c8
        lw    $t7, 36($a1)        # c9
        addu  $t2, $t2, $t6
        sltu  $t9, $t2, $t6
        addu  $t3, $t3, $t9
        sltu  $t9, $t3, $t9
        addu  $t3, $t3, $t7
        sltu  $t8, $t3, $t7
        addu  $t9, $t9, $t8
        addu  $t4, $t4, $t9
        sltu  $t9, $t4, $t9
        addu  $t4, $t4, $t6
        sltu  $t8, $t4, $t6
        addu  $t9, $t9, $t8
        addu  $t5, $t5, $t9
        sltu  $t9, $t5, $t9
        addu  $t5, $t5, $t7
        sltu  $t8, $t5, $t7
        addu  $t9, $t9, $t8
        addu  $s0, $s0, $t9
        # s4 = (c10,c11,c10,c11,c10,c11)
        lw    $t6, 40($a1)        # c10
        lw    $t7, 44($a1)        # c11
        addu  $t0, $t0, $t6
        sltu  $t9, $t0, $t6
        addu  $t1, $t1, $t9
        sltu  $t9, $t1, $t9
        addu  $t1, $t1, $t7
        sltu  $t8, $t1, $t7
        addu  $t9, $t9, $t8
        addu  $t2, $t2, $t9
        sltu  $t9, $t2, $t9
        addu  $t2, $t2, $t6
        sltu  $t8, $t2, $t6
        addu  $t9, $t9, $t8
        addu  $t3, $t3, $t9
        sltu  $t9, $t3, $t9
        addu  $t3, $t3, $t7
        sltu  $t8, $t3, $t7
        addu  $t9, $t9, $t8
        addu  $t4, $t4, $t9
        sltu  $t9, $t4, $t9
        addu  $t4, $t4, $t6
        sltu  $t8, $t4, $t6
        addu  $t9, $t9, $t8
        addu  $t5, $t5, $t9
        sltu  $t9, $t5, $t9
        addu  $t5, $t5, $t7
        sltu  $t8, $t5, $t7
        addu  $t9, $t9, $t8
        addu  $s0, $s0, $t9
        # store r to result, then subtract p while r >= p (via helper loop)
        sw    $t0, 0($a0)
        sw    $t1, 4($a0)
        sw    $t2, 8($a0)
        sw    $t3, 12($a0)
        sw    $t4, 16($a0)
        sw    $t5, 20($a0)
        # while (overflow || r >= p): r -= p
chk:    bne   $s0, $zero, dosub
        nop
        # compare r with p from the top word down
        li    $t8, 20
cmp:    addu  $t0, $a0, $t8
        lw    $t1, 0($t0)
        addu  $t0, $a2, $t8
        lw    $t2, 0($t0)
        bne   $t1, $t2, decide
        nop
        bne   $t8, $zero, cmp
        addiu $t8, $t8, -4
        b     dosub               # r == p: subtract once more
        nop
decide: sltu  $t3, $t1, $t2
        bne   $t3, $zero, done    # r < p: finished
        nop
dosub:  move  $t9, $zero
        move  $t8, $zero
subl:   addu  $t0, $a0, $t8
        lw    $t1, 0($t0)
        addu  $t2, $a2, $t8
        lw    $t3, 0($t2)
        subu  $t4, $t1, $t3
        sltu  $t5, $t1, $t3
        subu  $t6, $t4, $t9
        sltu  $t7, $t4, $t9
        addu  $t9, $t5, $t7
        addu  $t0, $a0, $t8
        sw    $t6, 0($t0)
        addiu $t8, $t8, 4
        li    $t1, 24
        bne   $t8, $t1, subl
        nop
        subu  $s0, $s0, $t9
        b     chk
        nop
done:   halt
`)
