package ir

import "repro/internal/isa"

// Builder is a convenience layer for constructing IR functions, used by the
// workload generators and tests. It appends instructions to a current block
// and wires control-flow edges.
type Builder struct {
	F   *Func
	cur *Block
}

// NewBuilder returns a builder positioned at a fresh entry block.
func NewBuilder(name string) *Builder {
	f := &Func{Name: name}
	b := &Builder{F: f}
	b.cur = f.NewBlock()
	return b
}

// Block returns the current insertion block.
func (b *Builder) Block() *Block { return b.cur }

// NewBlock creates a block without switching to it.
func (b *Builder) NewBlock() *Block { return b.F.NewBlock() }

// SetBlock moves the insertion point.
func (b *Builder) SetBlock(blk *Block) { b.cur = blk }

// VReg allocates a fresh virtual register.
func (b *Builder) VReg() VReg { return b.F.NewVReg() }

func (b *Builder) emit(in Instr) { b.cur.Instrs = append(b.cur.Instrs, in) }

// MovI loads a constant into a fresh register.
func (b *Builder) MovI(imm int64) VReg {
	d := b.VReg()
	b.emit(Instr{Op: isa.MOVI, Dst: d, Src1: NoReg, Src2: NoReg, Imm: imm})
	return d
}

// MovITo loads a constant into an existing register.
func (b *Builder) MovITo(dst VReg, imm int64) {
	b.emit(Instr{Op: isa.MOVI, Dst: dst, Src1: NoReg, Src2: NoReg, Imm: imm})
}

// Mov copies src into a fresh register.
func (b *Builder) Mov(src VReg) VReg {
	d := b.VReg()
	b.emit(Instr{Op: isa.MOV, Dst: d, Src1: src, Src2: NoReg})
	return d
}

// Op emits a three-address ALU op into a fresh register.
func (b *Builder) Op(op isa.Op, s1, s2 VReg) VReg {
	d := b.VReg()
	b.emit(Instr{Op: op, Dst: d, Src1: s1, Src2: s2})
	return d
}

// OpTo emits a three-address ALU op into an existing register.
func (b *Builder) OpTo(op isa.Op, dst, s1, s2 VReg) {
	b.emit(Instr{Op: op, Dst: dst, Src1: s1, Src2: s2})
}

// OpI emits an ALU op with an immediate second operand.
func (b *Builder) OpI(op isa.Op, s1 VReg, imm int64) VReg {
	d := b.VReg()
	b.emit(Instr{Op: op, Dst: d, Src1: s1, Src2: NoReg, Imm: imm, HasImm: true})
	return d
}

// OpITo emits an immediate ALU op into an existing register.
func (b *Builder) OpITo(op isa.Op, dst, s1 VReg, imm int64) {
	b.emit(Instr{Op: op, Dst: dst, Src1: s1, Src2: NoReg, Imm: imm, HasImm: true})
}

// Load emits dst = mem[base+off] into a fresh register.
func (b *Builder) Load(base VReg, off int64) VReg {
	d := b.VReg()
	b.emit(Instr{Op: isa.LD, Dst: d, Src1: base, Src2: NoReg, Imm: off})
	return d
}

// LoadTo emits dst = mem[base+off].
func (b *Builder) LoadTo(dst, base VReg, off int64) {
	b.emit(Instr{Op: isa.LD, Dst: dst, Src1: base, Src2: NoReg, Imm: off})
}

// Store emits mem[base+off] = val as a program store.
func (b *Builder) Store(base VReg, off int64, val VReg) {
	b.emit(Instr{Op: isa.ST, Dst: NoReg, Src1: base, Src2: val, Imm: off, Kind: isa.StoreProgram})
}

// BranchI terminates the current block with a conditional branch against
// an immediate operand: taken goes to t, fallthrough to f. The builder
// moves to a caller-supplied next block only via SetBlock.
func (b *Builder) BranchI(op isa.Op, s1 VReg, imm int64, t, f *Block) {
	b.emit(Instr{Op: op, Dst: NoReg, Src1: s1, Src2: NoReg, Imm: imm, HasImm: true})
	b.cur.Succs = []*Block{t, f}
}

// Jump terminates the current block with an unconditional jump.
func (b *Builder) Jump(t *Block) {
	b.emit(Instr{Op: isa.JMP, Dst: NoReg, Src1: NoReg, Src2: NoReg})
	b.cur.Succs = []*Block{t}
}

// Fallthrough ends the block without a terminator, flowing into t.
func (b *Builder) Fallthrough(t *Block) {
	b.cur.Succs = []*Block{t}
}

// Halt terminates the program.
func (b *Builder) Halt() {
	b.emit(Instr{Op: isa.HALT, Dst: NoReg, Src1: NoReg, Src2: NoReg})
	b.cur.Succs = nil
}

// Finish recomputes predecessor edges and verifies the function.
func (b *Builder) Finish() (*Func, error) {
	b.F.RecomputePreds()
	if err := b.F.Verify(); err != nil {
		return nil, err
	}
	return b.F, nil
}

// MustFinish is Finish for generators with structurally-known-good output.
func (b *Builder) MustFinish() *Func {
	f, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return f
}
