// Package ir is the compiler's intermediate representation: functions of
// basic blocks over an unbounded set of virtual registers, plus the
// analyses the Turnpike passes need (liveness, dominators, natural loops,
// induction variables).
//
// The instruction vocabulary mirrors the ISA (package isa) so lowering is a
// register-renaming and linearization step rather than an instruction
// selection problem; the interesting work — region partitioning,
// checkpointing, pruning, scheduling — happens on this IR and on the
// lowered form.
package ir

import (
	"fmt"
	"strings"

	"repro/internal/isa"
)

// VReg is a virtual register. NoReg marks an absent operand. Values 0..31
// are *not* special; physical registers only appear after allocation, in
// the lowered isa.Program.
type VReg int32

// NoReg marks an unused register operand.
const NoReg VReg = -1

func (v VReg) String() string {
	if v == NoReg {
		return "_"
	}
	return fmt.Sprintf("v%d", int32(v))
}

// Instr is one IR instruction. Semantics follow isa.Op with virtual
// registers. Branches do not carry targets: control flow is expressed by
// Block.Succs, and the terminator's condition selects Succs[0] (taken)
// versus Succs[1] (fallthrough).
type Instr struct {
	Op     isa.Op
	Dst    VReg
	Src1   VReg
	Src2   VReg
	Imm    int64
	HasImm bool
	Kind   isa.StoreKind
}

// Uses appends the virtual registers read by the instruction.
func (in *Instr) Uses(dst []VReg) []VReg {
	switch in.Op {
	case isa.MOVI, isa.NOP, isa.BOUND, isa.HALT, isa.JMP, isa.RESTORE:
	case isa.MOV:
		dst = append(dst, in.Src1)
	case isa.LD:
		dst = append(dst, in.Src1)
	case isa.ST:
		dst = append(dst, in.Src1, in.Src2)
	case isa.CKPT:
		dst = append(dst, in.Src2)
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		dst = append(dst, in.Src1)
		if !in.HasImm {
			dst = append(dst, in.Src2)
		}
	default: // ALU
		dst = append(dst, in.Src1)
		if !in.HasImm {
			dst = append(dst, in.Src2)
		}
	}
	return dst
}

// Def returns the virtual register defined by the instruction, if any.
func (in *Instr) Def() (VReg, bool) {
	if in.Op.WritesReg() {
		return in.Dst, true
	}
	return NoReg, false
}

func (in *Instr) String() string {
	switch in.Op {
	case isa.NOP, isa.HALT, isa.BOUND:
		return in.Op.String()
	case isa.MOVI:
		return fmt.Sprintf("movi %s, #%d", in.Dst, in.Imm)
	case isa.MOV:
		return fmt.Sprintf("mov %s, %s", in.Dst, in.Src1)
	case isa.LD:
		return fmt.Sprintf("ld %s, [%s, #%d]", in.Dst, in.Src1, in.Imm)
	case isa.ST:
		return fmt.Sprintf("st %s, [%s, #%d]", in.Src2, in.Src1, in.Imm)
	case isa.CKPT:
		return fmt.Sprintf("ckpt %s", in.Src2)
	case isa.RESTORE:
		return fmt.Sprintf("restore %s", in.Dst)
	case isa.JMP:
		return "jmp"
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		if in.HasImm {
			return fmt.Sprintf("%s %s, #%d", in.Op, in.Src1, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s", in.Op, in.Src1, in.Src2)
	default:
		if in.HasImm {
			return fmt.Sprintf("%s %s, %s, #%d", in.Op, in.Dst, in.Src1, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.Src1, in.Src2)
	}
}

// Block is a basic block. The terminator convention:
//   - last instruction is a conditional branch: Succs = [taken, fallthrough]
//   - last instruction is JMP: Succs = [target]
//   - last instruction is HALT: Succs = []
//   - otherwise: Succs = [fallthrough]
type Block struct {
	ID     int
	Instrs []Instr
	Succs  []*Block
	Preds  []*Block
}

// Terminator returns the block's final instruction, or nil if empty.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// Func is a single-entry function. Blocks[0] is the entry block.
type Func struct {
	Name     string
	Blocks   []*Block
	NumVRegs int
}

// NewVReg allocates a fresh virtual register.
func (f *Func) NewVReg() VReg {
	v := VReg(f.NumVRegs)
	f.NumVRegs++
	return v
}

// NewBlock appends a fresh empty block and returns it.
func (f *Func) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// RecomputePreds rebuilds all predecessor lists from successor lists.
// Passes that edit control flow call this before running analyses.
func (f *Func) RecomputePreds() {
	for _, b := range f.Blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

// Verify checks the structural invariants every pass must preserve:
// consistent pred/succ edges, terminator arity, operand validity, and that
// the entry block exists. Tests call Verify after every transformation.
func (f *Func) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: %s has no blocks", f.Name)
	}
	seen := make(map[int]bool, len(f.Blocks))
	for i, b := range f.Blocks {
		if b == nil {
			return fmt.Errorf("ir: %s block %d is nil", f.Name, i)
		}
		if seen[b.ID] {
			return fmt.Errorf("ir: %s duplicate block ID %d", f.Name, b.ID)
		}
		seen[b.ID] = true
		t := b.Terminator()
		wantSuccs := 1
		if t != nil {
			switch {
			case t.Op.IsCondBranch():
				wantSuccs = 2
			case t.Op == isa.JMP:
				wantSuccs = 1
			case t.Op == isa.HALT:
				wantSuccs = 0
			}
		}
		if len(b.Succs) != wantSuccs {
			return fmt.Errorf("ir: %s %s has %d successors, want %d (term %v)",
				f.Name, b, len(b.Succs), wantSuccs, t)
		}
		// Branches must be terminators only.
		for j := range b.Instrs {
			in := &b.Instrs[j]
			if (in.Op.IsBranch() || in.Op == isa.HALT) && j != len(b.Instrs)-1 {
				return fmt.Errorf("ir: %s %s instr %d: %v not at block end", f.Name, b, j, in.Op)
			}
			var uses []VReg
			for _, u := range in.Uses(uses) {
				if u == NoReg || int(u) >= f.NumVRegs {
					return fmt.Errorf("ir: %s %s instr %d uses invalid %v", f.Name, b, j, u)
				}
			}
			if d, ok := in.Def(); ok && (d == NoReg || int(d) >= f.NumVRegs) {
				return fmt.Errorf("ir: %s %s instr %d defines invalid %v", f.Name, b, j, d)
			}
		}
	}
	// Edge consistency.
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if !containsBlock(s.Preds, b) {
				return fmt.Errorf("ir: %s edge %s->%s missing pred backlink", f.Name, b, s)
			}
		}
		for _, p := range b.Preds {
			if !containsBlock(p.Succs, b) {
				return fmt.Errorf("ir: %s pred %s of %s missing succ link", f.Name, p, b)
			}
		}
	}
	return nil
}

func containsBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// Clone deep-copies the function. Passes under test are run on clones so
// the original can be compared or re-used.
func (f *Func) Clone() *Func {
	nf := &Func{Name: f.Name, NumVRegs: f.NumVRegs}
	idx := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{ID: b.ID, Instrs: append([]Instr(nil), b.Instrs...)}
		nf.Blocks = append(nf.Blocks, nb)
		idx[b] = nb
	}
	for _, b := range f.Blocks {
		nb := idx[b]
		for _, s := range b.Succs {
			nb.Succs = append(nb.Succs, idx[s])
		}
	}
	nf.RecomputePreds()
	return nf
}

// String renders the function for debugging and golden tests.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s (%d vregs)\n", f.Name, f.NumVRegs)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:", b)
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for _, s := range b.Succs {
				fmt.Fprintf(&sb, " %s", s)
			}
		}
		sb.WriteByte('\n')
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "    %s\n", b.Instrs[i].String())
		}
	}
	return sb.String()
}

// InstrCount returns the total static instruction count.
func (f *Func) InstrCount() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// ReversePostorder returns blocks in reverse postorder from the entry.
// Unreachable blocks are excluded.
func (f *Func) ReversePostorder() []*Block {
	seen := make(map[*Block]bool, len(f.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(f.Blocks[0])
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}
