package isa

import "fmt"

// Machine is the functional reference implementation of the ISA. It has no
// timing, no store buffer, and no fault model; CKPT writes directly to color
// 0 of the register's checkpoint storage and RESTORE reads it back. The
// pipeline simulator must produce exactly the same architectural results as
// this machine on fault-free runs — integration tests enforce that.
type Machine struct {
	Prog *Program
	Regs [NumRegs]uint64
	Mem  *Memory
	PC   int

	// Executed counts dynamically executed instructions.
	Executed uint64
	// StepLimit aborts runaway programs in tests (0 = no limit).
	StepLimit uint64
}

// NewMachine returns a machine at the program entry with zeroed state.
func NewMachine(p *Program) *Machine {
	return &Machine{Prog: p, Mem: NewMemory(), PC: p.Entry}
}

// ALUOp computes the result of an ALU operation on two operands. It is
// shared with the pipeline simulator so functional semantics cannot drift.
func ALUOp(op Op, a, b uint64) uint64 {
	switch op {
	case ADD:
		return a + b
	case SUB:
		return a - b
	case MUL:
		return a * b
	case DIV:
		if b == 0 {
			return 0 // architected: division by zero yields zero
		}
		return a / b
	case AND:
		return a & b
	case OR:
		return a | b
	case XOR:
		return a ^ b
	case SHL:
		return a << (b & 63)
	case SHR:
		return a >> (b & 63)
	case CMPEQ:
		if a == b {
			return 1
		}
		return 0
	case CMPLT:
		if int64(a) < int64(b) {
			return 1
		}
		return 0
	case MOV, MOVI:
		return b
	}
	panic(fmt.Sprintf("isa: ALUOp called with %v", op))
}

// BranchTaken evaluates a conditional branch. Shared with the simulator.
func BranchTaken(op Op, a, b uint64) bool {
	switch op {
	case BEQ:
		return a == b
	case BNE:
		return a != b
	case BLT:
		return int64(a) < int64(b)
	case BGE:
		return int64(a) >= int64(b)
	}
	panic(fmt.Sprintf("isa: BranchTaken called with %v", op))
}

// Step executes one instruction. It returns false when the machine halts.
func (m *Machine) Step() (bool, error) {
	if m.PC < 0 || m.PC >= len(m.Prog.Insts) {
		return false, fmt.Errorf("isa: PC %d out of range", m.PC)
	}
	in := &m.Prog.Insts[m.PC]
	m.Executed++
	next := m.PC + 1
	switch {
	case in.Op == HALT:
		return false, nil
	case in.Op == NOP || in.Op == BOUND:
		// BOUND has no architectural effect in the reference machine.
	case in.Op == MOVI:
		m.Regs[in.Rd] = uint64(in.Imm)
	case in.Op == MOV:
		m.Regs[in.Rd] = m.Regs[in.Rs1]
	case in.Op.IsALU():
		b := m.Regs[in.Rs2]
		if in.HasImm {
			b = uint64(in.Imm)
		}
		m.Regs[in.Rd] = ALUOp(in.Op, m.Regs[in.Rs1], b)
	case in.Op == LD:
		m.Regs[in.Rd] = m.Mem.Load(m.Regs[in.Rs1] + uint64(in.Imm))
	case in.Op == ST:
		m.Mem.Store(m.Regs[in.Rs1]+uint64(in.Imm), m.Regs[in.Rs2])
	case in.Op == CKPT:
		m.Mem.Store(m.Prog.CkptSlot(in.Rs2, 0), m.Regs[in.Rs2])
	case in.Op == RESTORE:
		m.Regs[in.Rd] = m.Mem.Load(m.Prog.CkptSlot(in.Rd, 0))
	case in.Op == JMP:
		next = in.Target
	case in.Op.IsCondBranch():
		b := m.Regs[in.Rs2]
		if in.HasImm {
			b = uint64(in.Imm)
		}
		if BranchTaken(in.Op, m.Regs[in.Rs1], b) {
			next = in.Target
		}
	default:
		return false, fmt.Errorf("isa: unimplemented op %v at %d", in.Op, m.PC)
	}
	m.PC = next
	if m.StepLimit > 0 && m.Executed >= m.StepLimit {
		return false, fmt.Errorf("isa: step limit %d exceeded", m.StepLimit)
	}
	return true, nil
}

// Run executes until HALT or error.
func (m *Machine) Run() error {
	for {
		ok, err := m.Step()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// OutputMemory returns the memory image with checkpoint storage removed.
// Checkpoint slots are scheme implementation detail, not program output, so
// functional-equivalence checks across schemes must ignore them.
func (m *Machine) OutputMemory() *Memory {
	out := m.Mem.Clone()
	out.ClearRange(m.Prog.CkptWindow())
	return out
}
