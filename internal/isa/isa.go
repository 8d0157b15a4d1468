// Package isa defines the instruction set of the simulated in-order core.
//
// The ISA is a small 64-bit RISC: 32 integer registers, load/store with
// base+displacement addressing, three-operand ALU instructions, conditional
// branches, and three co-design instructions used by the Turnstile/Turnpike
// schemes:
//
//   - BOUND marks a region boundary. The hardware allocates a region
//     boundary buffer (RBB) entry when a BOUND commits.
//   - CKPT saves a register to its architected checkpoint storage. It is a
//     store at the micro-architectural level and is eligible for hardware
//     coloring under Turnpike.
//   - RESTORE loads a register from the most recently *verified* checkpoint
//     storage (resolved through the verified-color map). It only appears in
//     compiler-generated recovery blocks.
//
// Programs are linear instruction slices; branch targets are instruction
// indices. The compiler attaches region and recovery metadata to the
// program (see Program).
package isa

import (
	"fmt"
	"strings"
)

// Reg names an architectural register, r0..r31. By convention r0 is the
// stack pointer for spill slots and r31 is the zero/link scratch register;
// the register allocator treats r0 as reserved.
type Reg uint8

// NumRegs is the architectural register count, matching the paper's
// ARM Cortex-A53 configuration (32 registers, 6 color-map bits each).
const NumRegs = 32

// SP is the stack pointer register used for spill slots.
const SP Reg = 0

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Op is an instruction opcode.
type Op uint8

// Opcodes. ALU operations read Rs1 and either Rs2 or Imm (when HasImm is
// set) and write Rd. Loads read [Rs1+Imm] into Rd. Stores write Rs2 to
// [Rs1+Imm]. Branches compare Rs1 against Rs2 and jump to Target.
const (
	NOP Op = iota
	// ALU
	ADD
	SUB
	MUL
	DIV
	AND
	OR
	XOR
	SHL
	SHR
	CMPEQ // Rd = (Rs1 == Rs2/Imm) ? 1 : 0
	CMPLT // Rd = (Rs1 <  Rs2/Imm) ? 1 : 0 (signed)
	MOV   // Rd = Rs1
	MOVI  // Rd = Imm
	// Memory
	LD // Rd = mem[Rs1+Imm]
	ST // mem[Rs1+Imm] = Rs2
	// Control
	BEQ // if Rs1 == Rs2 goto Target
	BNE
	BLT // signed
	BGE
	JMP // goto Target
	// Co-design
	BOUND   // region boundary marker
	CKPT    // checkpoint store of Rs2
	RESTORE // recovery load of Rd from verified checkpoint storage
	HALT    // stop execution
	numOps
)

var opNames = [...]string{
	NOP: "nop", ADD: "add", SUB: "sub", MUL: "mul", DIV: "div",
	AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
	CMPEQ: "cmpeq", CMPLT: "cmplt", MOV: "mov", MOVI: "movi",
	LD: "ld", ST: "st", BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	JMP: "jmp", BOUND: "bound", CKPT: "ckpt", RESTORE: "restore", HALT: "halt",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsALU reports whether op is a register-to-register computation.
func (op Op) IsALU() bool {
	switch op {
	case ADD, SUB, MUL, DIV, AND, OR, XOR, SHL, SHR, CMPEQ, CMPLT, MOV, MOVI:
		return true
	}
	return false
}

// IsBranch reports whether op may redirect control flow.
func (op Op) IsBranch() bool {
	switch op {
	case BEQ, BNE, BLT, BGE, JMP:
		return true
	}
	return false
}

// IsCondBranch reports whether op is a conditional branch.
func (op Op) IsCondBranch() bool {
	switch op {
	case BEQ, BNE, BLT, BGE:
		return true
	}
	return false
}

// IsStore reports whether op writes memory (ST or CKPT).
func (op Op) IsStore() bool { return op == ST || op == CKPT }

// IsLoad reports whether op reads memory (LD or RESTORE).
func (op Op) IsLoad() bool { return op == LD || op == RESTORE }

// WritesReg reports whether op defines Rd.
func (op Op) WritesReg() bool { return op.IsALU() || op == LD || op == RESTORE }

// ExLatency returns the execute-stage latency in cycles for op, excluding
// memory access time. The values model a small in-order core: single-cycle
// simple ALU, pipelined multiplier, iterative divider.
func (op Op) ExLatency() int {
	switch op {
	case MUL:
		return 3
	case DIV:
		return 12
	default:
		return 1
	}
}

// StoreKind classifies a store for the experiment breakdowns (Fig. 23).
type StoreKind uint8

const (
	// StoreNone marks non-store instructions.
	StoreNone StoreKind = iota
	// StoreProgram is a store present in the original program.
	StoreProgram
	// StoreSpill is a register-allocator spill store.
	StoreSpill
	// StoreCheckpoint is a compiler-inserted checkpoint (CKPT).
	StoreCheckpoint
)

func (k StoreKind) String() string {
	switch k {
	case StoreNone:
		return "none"
	case StoreProgram:
		return "program"
	case StoreSpill:
		return "spill"
	case StoreCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Inst is one machine instruction. Operand roles depend on Op; unused
// fields are zero. HasImm selects Imm over Rs2 for the second ALU operand.
type Inst struct {
	Op     Op
	Rd     Reg   // destination (ALU, LD, RESTORE)
	Rs1    Reg   // first source / base address / branch lhs
	Rs2    Reg   // second source / store data / branch rhs
	Imm    int64 // immediate / displacement
	HasImm bool  // ALU second operand is Imm rather than Rs2
	Target int   // branch target instruction index

	// Kind classifies stores for breakdown statistics.
	Kind StoreKind
}

// Uses appends the registers read by the instruction to dst and returns it.
// The slice-reuse form keeps hot simulator loops allocation-free.
func (in *Inst) Uses(dst []Reg) []Reg {
	switch in.Op {
	case ADD, SUB, MUL, DIV, AND, OR, XOR, SHL, SHR, CMPEQ, CMPLT:
		dst = append(dst, in.Rs1)
		if !in.HasImm {
			dst = append(dst, in.Rs2)
		}
	case MOV:
		dst = append(dst, in.Rs1)
	case MOVI:
	case LD:
		dst = append(dst, in.Rs1)
	case ST:
		dst = append(dst, in.Rs1, in.Rs2)
	case BEQ, BNE, BLT, BGE:
		dst = append(dst, in.Rs1)
		if !in.HasImm {
			dst = append(dst, in.Rs2)
		}
	case CKPT:
		dst = append(dst, in.Rs2)
	}
	return dst
}

// Def returns the register written by the instruction and whether one exists.
func (in *Inst) Def() (Reg, bool) {
	if in.Op.WritesReg() {
		return in.Rd, true
	}
	return 0, false
}

func (in *Inst) String() string {
	switch in.Op {
	case NOP, HALT, BOUND:
		return in.Op.String()
	case MOVI:
		return fmt.Sprintf("movi %s, #%d", in.Rd, in.Imm)
	case MOV:
		return fmt.Sprintf("mov %s, %s", in.Rd, in.Rs1)
	case LD:
		return fmt.Sprintf("ld %s, [%s, #%d]", in.Rd, in.Rs1, in.Imm)
	case ST:
		return fmt.Sprintf("st %s, [%s, #%d]", in.Rs2, in.Rs1, in.Imm)
	case JMP:
		return fmt.Sprintf("jmp @%d", in.Target)
	case BEQ, BNE, BLT, BGE:
		if in.HasImm {
			return fmt.Sprintf("%s %s, #%d, @%d", in.Op, in.Rs1, in.Imm, in.Target)
		}
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, in.Rs1, in.Rs2, in.Target)
	case CKPT:
		return fmt.Sprintf("ckpt %s", in.Rs2)
	case RESTORE:
		return fmt.Sprintf("restore %s", in.Rd)
	default:
		if in.HasImm {
			return fmt.Sprintf("%s %s, %s, #%d", in.Op, in.Rd, in.Rs1, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	}
}

// RegionInfo describes one static region produced by the partitioner.
type RegionInfo struct {
	ID int
	// RecoveryPC is the entry of the region's recovery block, or -1 when
	// the region has no recovery block (baseline scheme).
	RecoveryPC int
}

// Program is an executable image: instructions plus the compiler metadata
// the resilient hardware needs (recovery block entry points per region).
type Program struct {
	Insts []Inst
	// Regions maps a static region ID to its metadata. Region IDs are
	// assigned in program order by the partitioner. Empty for baseline.
	Regions []RegionInfo
	// RegionOf maps an instruction index to its static region ID, or -1
	// for instructions outside any region (recovery blocks, prologue).
	RegionOf []int
	// CkptBase is the base address of the checkpoint storage area. Each
	// register owns NumColors consecutive 8-byte slots starting at
	// CkptBase + reg*NumColors*8.
	CkptBase uint64
	// Entry is the first instruction to execute.
	Entry int
}

// NumColors is the hardware coloring pool size per register (the paper
// uses a 4-color pool: 2 bits per map, 3 maps, 6 bits per register).
const NumColors = 4

// CkptSlot returns the address of color c's checkpoint slot for register r.
func (p *Program) CkptSlot(r Reg, c int) uint64 {
	return p.CkptBase + (uint64(r)*NumColors+uint64(c))*8
}

// CkptWindow returns the checkpoint storage [lo, hi): every register's
// slot of every color. It is scheme state, not program output, so output
// comparisons mask it.
func (p *Program) CkptWindow() (lo, hi uint64) {
	return p.CkptBase, p.CkptBase + NumRegs*NumColors*8
}

// Validate checks structural invariants: branch targets in range, register
// operands valid, HALT present, and metadata sizes consistent. The compiler
// runs this after every lowering; tests rely on it heavily.
func (p *Program) Validate() error {
	if len(p.Insts) == 0 {
		return fmt.Errorf("isa: empty program")
	}
	if p.Entry < 0 || p.Entry >= len(p.Insts) {
		return fmt.Errorf("isa: entry %d out of range [0,%d)", p.Entry, len(p.Insts))
	}
	if p.RegionOf != nil && len(p.RegionOf) != len(p.Insts) {
		return fmt.Errorf("isa: RegionOf length %d != %d instructions", len(p.RegionOf), len(p.Insts))
	}
	sawHalt := false
	var uses []Reg
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Op >= numOps {
			return fmt.Errorf("isa: @%d invalid opcode %d", i, in.Op)
		}
		if in.Op == HALT {
			sawHalt = true
		}
		if in.Op.IsBranch() {
			if in.Target < 0 || in.Target >= len(p.Insts) {
				return fmt.Errorf("isa: @%d branch target %d out of range", i, in.Target)
			}
		}
		uses = in.Uses(uses[:0])
		for _, r := range uses {
			if !r.Valid() {
				return fmt.Errorf("isa: @%d invalid source register %d", i, r)
			}
		}
		if d, ok := in.Def(); ok && !d.Valid() {
			return fmt.Errorf("isa: @%d invalid destination register %d", i, d)
		}
		if in.Op.IsStore() && in.Kind == StoreNone {
			return fmt.Errorf("isa: @%d store without StoreKind", i)
		}
		if !in.Op.IsStore() && in.Kind != StoreNone {
			return fmt.Errorf("isa: @%d non-store with StoreKind %v", i, in.Kind)
		}
	}
	if !sawHalt {
		return fmt.Errorf("isa: program has no HALT")
	}
	for id, ri := range p.Regions {
		if ri.ID != id {
			return fmt.Errorf("isa: region %d has ID %d", id, ri.ID)
		}
		if ri.RecoveryPC != -1 && (ri.RecoveryPC < 0 || ri.RecoveryPC >= len(p.Insts)) {
			return fmt.Errorf("isa: region %d recovery PC %d out of range", id, ri.RecoveryPC)
		}
	}
	if p.RegionOf != nil {
		for i, r := range p.RegionOf {
			if r != -1 && (r < 0 || r >= len(p.Regions)) {
				return fmt.Errorf("isa: @%d region %d out of range", i, r)
			}
		}
	}
	return nil
}

// Disassemble renders the program with instruction indices and region
// boundaries, for debugging and golden tests.
func (p *Program) Disassemble() string {
	var b strings.Builder
	for i := range p.Insts {
		region := -1
		if p.RegionOf != nil {
			region = p.RegionOf[i]
		}
		fmt.Fprintf(&b, "%4d: %-28s", i, p.Insts[i].String())
		if region >= 0 {
			fmt.Fprintf(&b, " ; R%d", region)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CountStores returns static store counts by kind.
func (p *Program) CountStores() map[StoreKind]int {
	counts := make(map[StoreKind]int)
	for i := range p.Insts {
		if p.Insts[i].Op.IsStore() {
			counts[p.Insts[i].Kind]++
		}
	}
	return counts
}
