package passes

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
)

// buildArrayLoop builds the paper's Figure 8(a) kernel in IR:
//
//	for i in [0,n): A[i] = i*7; followed by a checksum store.
//
// The address A+i*8 is computed with an explicit shift+add so that
// StrengthReduce has the classic pattern to transform.
func buildArrayLoop(n int64) *ir.Func {
	b := ir.NewBuilder("arrayloop")
	base := b.MovI(int64(isa.DataBase))
	i := b.MovI(0)
	head, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Fallthrough(head)
	b.SetBlock(head)
	b.BranchI(isa.BGE, i, n, exit, body)
	b.SetBlock(body)
	off := b.OpI(isa.SHL, i, 3)
	addr := b.Op(isa.ADD, base, off)
	v := b.OpI(isa.MUL, i, 7)
	b.Store(addr, 0, v)
	b.OpITo(isa.ADD, i, i, 1)
	b.Jump(head)
	b.SetBlock(exit)
	outp := b.MovI(int64(isa.DataBase) + 4096)
	b.Store(outp, 0, i)
	b.Halt()
	return b.MustFinish()
}

func interpMem(t *testing.T, f *ir.Func) *isa.Memory {
	t.Helper()
	it, err := ir.RunIR(f)
	if err != nil {
		t.Fatalf("interp %s: %v", f.Name, err)
	}
	return it.Mem
}

func TestDeadCodeElim(t *testing.T) {
	b := ir.NewBuilder("dce")
	out := b.MovI(int64(isa.DataBase))
	x := b.MovI(5)
	_ = b.OpI(isa.ADD, x, 3) // dead
	y := b.OpI(isa.MUL, x, 2)
	_ = b.Op(isa.ADD, x, y) // dead
	b.Store(out, 0, y)
	b.Halt()
	f := b.MustFinish()
	before := f.InstrCount()
	removed := DeadCodeElim(f)
	if removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	if f.InstrCount() != before-2 {
		t.Fatalf("instr count %d, want %d", f.InstrCount(), before-2)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := interpMem(t, f).Load(isa.DataBase); got != 10 {
		t.Fatalf("output %d, want 10", got)
	}
}

func TestDeadCodeElimKeepsLoads(t *testing.T) {
	b := ir.NewBuilder("dceload")
	addr := b.MovI(int64(isa.DataBase))
	_ = b.Load(addr, 0) // dead but conservatively kept
	b.Store(addr, 8, addr)
	b.Halt()
	f := b.MustFinish()
	if removed := DeadCodeElim(f); removed != 0 {
		t.Fatalf("DCE removed %d instructions including a load", removed)
	}
}

func TestStrengthReduceCreatesDerivedIV(t *testing.T) {
	f := buildArrayLoop(50)
	golden := interpMem(t, f.Clone())
	created := StrengthReduce(f)
	if created != 1 {
		t.Fatalf("created %d derived IVs, want 1", created)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	if !golden.Equal(interpMem(t, f)) {
		t.Fatalf("strength reduction changed semantics")
	}
	// The loop body must no longer contain the shift feeding the address.
	dt := ir.ComputeDominators(f)
	lf := ir.FindLoops(f, dt)
	if len(lf.Loops) != 1 {
		t.Fatalf("loops = %d", len(lf.Loops))
	}
	// After the pass there are two basic IVs: i and the derived pointer.
	ivs := ir.FindBasicIVs(f, lf.Loops[0])
	if len(ivs) != 2 {
		t.Fatalf("basic IVs after strength reduction = %d, want 2 (i and ptr)", len(ivs))
	}
}

func TestLIVMMergesDerivedIV(t *testing.T) {
	f := buildArrayLoop(50)
	if created := StrengthReduce(f); created != 1 {
		t.Fatalf("setup: strength reduction created %d", created)
	}
	golden := interpMem(t, f.Clone())
	merged := LIVM(f)
	if merged != 1 {
		t.Fatalf("merged %d IVs, want 1", merged)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	if !golden.Equal(interpMem(t, f)) {
		t.Fatalf("LIVM changed semantics")
	}
	// Back to a single basic IV: the derived pointer is gone.
	dt := ir.ComputeDominators(f)
	lf := ir.FindLoops(f, dt)
	ivs := ir.FindBasicIVs(f, lf.Loops[0])
	if len(ivs) != 1 {
		t.Fatalf("basic IVs after LIVM = %d, want 1", len(ivs))
	}
}

func TestLIVMSkipsLiveOutsideIV(t *testing.T) {
	// The derived pointer is stored after the loop, so merging would lose
	// its final value; LIVM must refuse.
	b := ir.NewBuilder("liveout")
	base := b.MovI(int64(isa.DataBase))
	ptr := b.Mov(base)
	i := b.MovI(0)
	head, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Fallthrough(head)
	b.SetBlock(head)
	b.BranchI(isa.BGE, i, 10, exit, body)
	b.SetBlock(body)
	b.Store(ptr, 0, i)
	b.OpITo(isa.ADD, i, i, 1)
	b.OpITo(isa.ADD, ptr, ptr, 8)
	b.Jump(head)
	b.SetBlock(exit)
	out := b.MovI(int64(isa.DataBase) + 4096)
	b.Store(out, 0, ptr) // ptr live after loop
	b.Halt()
	f := b.MustFinish()
	golden := interpMem(t, f.Clone())
	if merged := LIVM(f); merged != 0 {
		t.Fatalf("LIVM merged %d IVs despite live-out use", merged)
	}
	if !golden.Equal(interpMem(t, f)) {
		t.Fatalf("semantics changed")
	}
}

func TestLIVMHandlesPointerIVFromBase(t *testing.T) {
	// ptr initialized as mov from base register (not a constant), step 8;
	// i starts at 0 step 1. Classic Figure 8(b) shape.
	b := ir.NewBuilder("fig8b")
	base := b.MovI(int64(isa.DataBase))
	ptr := b.Mov(base)
	i := b.MovI(0)
	head, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Fallthrough(head)
	b.SetBlock(head)
	b.BranchI(isa.BGE, i, 20, exit, body)
	b.SetBlock(body)
	v := b.OpI(isa.MUL, i, 3)
	b.Store(ptr, 0, v)
	b.OpITo(isa.ADD, i, i, 1)
	b.OpITo(isa.ADD, ptr, ptr, 8)
	b.Jump(head)
	b.SetBlock(exit)
	b.Halt()
	f := b.MustFinish()
	golden := interpMem(t, f.Clone())
	if merged := LIVM(f); merged != 1 {
		t.Fatalf("merged = %d, want 1", merged)
	}
	if !golden.Equal(interpMem(t, f)) {
		t.Fatalf("LIVM changed semantics")
	}
}

func TestScheduleSeparatesCkptFromDef(t *testing.T) {
	// Model Figure 6/11: ld r6; ckpt r6; add; shl — scheduling should move
	// the two independent ALU ops between the load and the checkpoint.
	b := ir.NewBuilder("fig11")
	a := b.MovI(int64(isa.DataBase))
	r5 := b.MovI(1)
	r1 := b.MovI(2)
	r4 := b.MovI(3)
	r6 := b.Load(a, 0)
	b.Block().Instrs = append(b.Block().Instrs,
		ir.Instr{Op: isa.CKPT, Dst: ir.NoReg, Src1: ir.NoReg, Src2: r6, Kind: isa.StoreCheckpoint})
	b.OpTo(isa.ADD, r5, r5, r1)
	b.OpITo(isa.SHL, r4, r4, 2)
	b.Halt()
	f := b.MustFinish()

	moved := Schedule(f, ScheduleConfig{LoadLatency: 3, DeprioritizeCheckpoints: true})
	if moved == 0 {
		t.Fatal("scheduler did not move anything")
	}
	// Find positions of the load and the checkpoint.
	blk := f.Blocks[0]
	ldPos, ckPos := -1, -1
	for i := range blk.Instrs {
		switch blk.Instrs[i].Op {
		case isa.LD:
			ldPos = i
		case isa.CKPT:
			ckPos = i
		}
	}
	if ckPos-ldPos < 3 {
		t.Fatalf("checkpoint at %d, load at %d: gap %d < 3\n%s", ckPos, ldPos, ckPos-ldPos, f.String())
	}
}

func TestScheduleBarriers(t *testing.T) {
	// Instructions must not cross BOUND markers.
	b := ir.NewBuilder("barrier")
	x := b.MovI(1)
	b.Block().Instrs = append(b.Block().Instrs, ir.Instr{Op: isa.BOUND})
	y := b.OpI(isa.ADD, x, 1)
	_ = y
	b.Halt()
	f := b.MustFinish()
	Schedule(f, ScheduleConfig{DeprioritizeCheckpoints: true})
	blk := f.Blocks[0]
	if blk.Instrs[1].Op != isa.BOUND {
		t.Fatalf("BOUND moved: %v", f.String())
	}
}

func TestSchedulePreservesMemoryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		b := ir.NewBuilder("mem")
		base := b.MovI(int64(isa.DataBase))
		vals := []ir.VReg{b.MovI(int64(rng.Intn(50))), b.MovI(int64(rng.Intn(50)))}
		n := 10 + rng.Intn(20)
		for i := 0; i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				vals = append(vals, b.Load(base, int64(rng.Intn(4))*8))
			case 1:
				b.Store(base, int64(rng.Intn(4))*8, vals[rng.Intn(len(vals))])
			default:
				a := vals[rng.Intn(len(vals))]
				c := vals[rng.Intn(len(vals))]
				vals = append(vals, b.Op(isa.ADD, a, c))
			}
		}
		b.Store(base, 1024, vals[len(vals)-1])
		b.Halt()
		f := b.MustFinish()
		golden := interpMem(t, f.Clone())
		orig := f.Clone()
		Schedule(f, ScheduleConfig{LoadLatency: 2, DeprioritizeCheckpoints: trial%2 == 0})
		if !sameShape(orig, f) {
			t.Fatalf("trial %d: scheduling changed shape", trial)
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !golden.Equal(interpMem(t, f)) {
			t.Fatalf("trial %d: scheduling changed semantics", trial)
		}
	}
}

func TestScheduleRandomALUPrograms(t *testing.T) {
	ops := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.XOR, isa.AND, isa.OR, isa.SHL, isa.SHR}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		b := ir.NewBuilder("alu")
		out := b.MovI(int64(isa.DataBase))
		var pool []ir.VReg
		for i := 0; i < 5; i++ {
			pool = append(pool, b.MovI(int64(rng.Intn(100)+1)))
		}
		for i := 0; i < 30; i++ {
			op := ops[rng.Intn(len(ops))]
			pool = append(pool, b.Op(op, pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]))
		}
		for i := 0; i < 4; i++ {
			b.Store(out, int64(i)*8, pool[len(pool)-1-i])
		}
		b.Halt()
		f := b.MustFinish()
		golden := interpMem(t, f.Clone())
		Schedule(f, ScheduleConfig{LoadLatency: 2})
		if !golden.Equal(interpMem(t, f)) {
			t.Fatalf("trial %d: semantics changed", trial)
		}
	}
}

// sameShape reports whether two functions have identical block and
// instruction counts — scheduling must never add or drop instructions.
func sameShape(a, b *ir.Func) bool {
	if len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for i := range a.Blocks {
		if len(a.Blocks[i].Instrs) != len(b.Blocks[i].Instrs) {
			return false
		}
	}
	return true
}
