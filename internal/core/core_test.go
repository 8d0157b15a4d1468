package core

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
)

// buildKernel constructs a representative kernel with a loop, stores,
// branches, and cross-region live values:
//
//	for i in [0,n): { v = A[i]; s += v; if v odd: B[i] = v*3 else B[i] = v }
//	out[0] = s
func buildKernel(n int64) *ir.Func {
	b := ir.NewBuilder("kernel")
	a := b.MovI(int64(isa.DataBase))
	bb := b.MovI(int64(isa.DataBase) + 8192)
	out := b.MovI(int64(isa.DataBase) + 16384)
	i := b.MovI(0)
	s := b.MovI(0)
	head, body, odd, even, join, exit := b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Fallthrough(head)

	b.SetBlock(head)
	b.BranchI(isa.BGE, i, n, exit, body)

	b.SetBlock(body)
	off := b.OpI(isa.SHL, i, 3)
	ai := b.Op(isa.ADD, a, off)
	v := b.Load(ai, 0)
	b.OpTo(isa.ADD, s, s, v)
	bit := b.OpI(isa.AND, v, 1)
	bi := b.Op(isa.ADD, bb, off)
	b.BranchI(isa.BEQ, bit, 1, odd, even)

	b.SetBlock(odd)
	v3 := b.OpI(isa.MUL, v, 3)
	b.Store(bi, 0, v3)
	b.Jump(join)

	b.SetBlock(even)
	b.Store(bi, 0, v)
	b.Fallthrough(join)

	b.SetBlock(join)
	b.OpITo(isa.ADD, i, i, 1)
	b.Jump(head)

	b.SetBlock(exit)
	b.Store(out, 0, s)
	b.Halt()
	return b.MustFinish()
}

// seedInput writes the input array used by buildKernel.
func seedInput(mem *isa.Memory, n int) {
	for i := 0; i < n; i++ {
		mem.Store(isa.DataBase+uint64(i)*8, uint64(i*i+3))
	}
}

// goldenOutput runs the IR directly.
func goldenOutput(t *testing.T, f *ir.Func, n int) *isa.Memory {
	t.Helper()
	it := &ir.Interp{Regs: make([]uint64, f.NumVRegs), Mem: isa.NewMemory()}
	seedInput(it.Mem, n)
	if err := it.Run(f); err != nil {
		t.Fatal(err)
	}
	return maskPrivate(it.Mem)
}

// runProgram executes a lowered program on the reference machine.
func runProgram(t *testing.T, p *isa.Program, n int) *isa.Memory {
	t.Helper()
	m := isa.NewMachine(p)
	m.StepLimit = 50_000_000
	seedInput(m.Mem, n)
	if err := m.Run(); err != nil {
		t.Fatalf("machine: %v\n%s", err, p.Disassemble())
	}
	return maskPrivate(m.OutputMemory())
}

// maskPrivate hides spill slots and checkpoint storage.
func maskPrivate(m *isa.Memory) *isa.Memory {
	out := isa.NewMemory()
	for _, e := range m.Snapshot() {
		if e.Addr >= isa.StackBase && e.Addr < isa.StackLimit {
			continue
		}
		if e.Addr >= isa.DefaultCkptBase {
			continue
		}
		out.Store(e.Addr, e.Val)
	}
	return out
}

func compileOrDie(t *testing.T, f *ir.Func, opt Options) *Compiled {
	t.Helper()
	c, err := Compile(f, opt)
	if err != nil {
		t.Fatalf("compile %v: %v", opt.Scheme, err)
	}
	return c
}

// TestParseScheme: ParseScheme inverts String for every scheme and
// rejects any other name.
func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scheme
		ok   bool
	}{
		{Baseline.String(), Baseline, true},
		{Turnstile.String(), Turnstile, true},
		{Turnpike.String(), Turnpike, true},
		{"turnpike2", 0, false},
		{"", 0, false},
	} {
		got, err := ParseScheme(tc.name)
		if (err == nil) != tc.ok || (tc.ok && got != tc.want) {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v, ok=%v", tc.name, got, err, tc.want, tc.ok)
		}
	}
}

func TestCompileBaselinePreservesSemantics(t *testing.T) {
	f := buildKernel(40)
	want := goldenOutput(t, f, 40)
	c := compileOrDie(t, f, Options{Scheme: Baseline})
	got := runProgram(t, c.Prog, 40)
	if !want.Equal(got) {
		t.Fatalf("baseline output differs:\n%s", want.Diff(got, 10))
	}
	if len(c.Prog.Regions) != 0 {
		t.Fatalf("baseline has %d regions", len(c.Prog.Regions))
	}
	if n := c.Prog.CountStores()[isa.StoreCheckpoint]; n != 0 {
		t.Fatalf("baseline has %d checkpoints", n)
	}
}

func TestCompileTurnstilePreservesSemantics(t *testing.T) {
	f := buildKernel(40)
	want := goldenOutput(t, f, 40)
	c := compileOrDie(t, f, Options{Scheme: Turnstile, SBSize: 4})
	got := runProgram(t, c.Prog, 40)
	if !want.Equal(got) {
		t.Fatalf("turnstile output differs:\n%s", want.Diff(got, 10))
	}
	if c.Stats.Regions < 3 {
		t.Fatalf("turnstile produced %d regions", c.Stats.Regions)
	}
	if c.Stats.Checkpoints == 0 {
		t.Fatal("turnstile inserted no checkpoints")
	}
	// Every region must have a recovery block ending in a JMP to a BOUND.
	for _, r := range c.Prog.Regions {
		if r.RecoveryPC < 0 {
			t.Fatalf("region %d lacks recovery block", r.ID)
		}
		// Walk the recovery block to its JMP.
		pc := r.RecoveryPC
		for c.Prog.Insts[pc].Op != isa.JMP {
			op := c.Prog.Insts[pc].Op
			if op != isa.RESTORE && !op.IsALU() {
				t.Fatalf("region %d recovery block contains %v", r.ID, op)
			}
			pc++
		}
		tgt := c.Prog.Insts[pc].Target
		if c.Prog.Insts[tgt].Op != isa.BOUND {
			t.Fatalf("region %d recovery jumps to %v, want BOUND", r.ID, c.Prog.Insts[tgt].Op)
		}
	}
}

func TestCompileTurnpikeAllPreservesSemantics(t *testing.T) {
	f := buildKernel(40)
	want := goldenOutput(t, f, 40)
	c := compileOrDie(t, f, TurnpikeAll(4))
	got := runProgram(t, c.Prog, 40)
	if !want.Equal(got) {
		t.Fatalf("turnpike output differs:\n%s", want.Diff(got, 10))
	}
}

func TestTurnpikeAblationsPreserveSemantics(t *testing.T) {
	f := buildKernel(30)
	want := goldenOutput(t, f, 30)
	cases := []Options{
		{Scheme: Turnpike, SBSize: 4},
		{Scheme: Turnpike, SBSize: 4, Prune: true},
		{Scheme: Turnpike, SBSize: 4, Prune: true, Sink: true},
		{Scheme: Turnpike, SBSize: 4, Prune: true, Sink: true, Sched: true},
		{Scheme: Turnpike, SBSize: 4, Prune: true, Sink: true, Sched: true, StoreAwareRA: true},
		TurnpikeAll(4),
		TurnpikeAll(8),
		TurnpikeAll(40),
	}
	for ci, opt := range cases {
		c := compileOrDie(t, f, opt)
		got := runProgram(t, c.Prog, 30)
		if !want.Equal(got) {
			t.Fatalf("case %d (%+v): output differs:\n%s", ci, opt, want.Diff(got, 10))
		}
	}
}

func TestRegionBudgetHolds(t *testing.T) {
	f := buildKernel(30)
	for _, sb := range []int{2, 4, 8, 40} {
		for _, scheme := range []Scheme{Turnstile, Turnpike} {
			opt := Options{Scheme: scheme, SBSize: sb}
			if scheme == Turnpike {
				opt = TurnpikeAll(sb)
			}
			c := compileOrDie(t, f, opt)
			budget := c.Stats.StoreBudget
			// Dynamic check: execute and count quarantine-bound stores per
			// dynamic region. Colored checkpoints (TurnpikeAll) bypass the
			// store buffer and do not count against the budget.
			countCkpts := scheme == Turnstile
			m := isa.NewMachine(c.Prog)
			m.StepLimit = 10_000_000
			seedInput(m.Mem, 30)
			stores := 0
			maxStores := 0
			for {
				in := &c.Prog.Insts[m.PC]
				if in.Op == isa.BOUND {
					stores = 0
				}
				if in.Op.IsStore() && (countCkpts || in.Op != isa.CKPT) {
					stores++
					if stores > maxStores {
						maxStores = stores
					}
				}
				ok, err := m.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			if maxStores > budget {
				t.Errorf("%v SB=%d: dynamic region had %d stores > budget %d",
					scheme, sb, maxStores, budget)
			}
		}
	}
}

// buildStoreDense builds a kernel whose loop body redefines an accumulator
// between stores many times. With a small store budget the body splits into
// several regions, so intermediate definitions become live-out and need
// checkpoints; a large budget keeps one region where only the final
// definition is checkpointed — the mechanism behind the paper's Fig. 3/4.
func buildStoreDense(n int64) *ir.Func {
	b := ir.NewBuilder("storedense")
	base := b.MovI(int64(isa.DataBase))
	i := b.MovI(0)
	acc := b.MovI(0)
	head, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Fallthrough(head)
	b.SetBlock(head)
	b.BranchI(isa.BGE, i, n, exit, body)
	b.SetBlock(body)
	for k := 0; k < 10; k++ {
		b.OpITo(isa.ADD, acc, acc, int64(k+1)) // redefine acc
		b.Store(base, int64(k)*8, acc)         // store between redefs
	}
	b.OpITo(isa.ADD, i, i, 1)
	b.Jump(head)
	b.SetBlock(exit)
	b.Store(base, 1024, acc)
	b.Halt()
	return b.MustFinish()
}

func TestSmallerSBMeansMoreCheckpoints(t *testing.T) {
	// The paper's Fig. 4: shrinking the SB from 40 to 4 raises the
	// dynamic checkpoint ratio substantially.
	f := buildStoreDense(50)
	count := func(sb int) (ckpts, total uint64) {
		c := compileOrDie(t, f, Options{Scheme: Turnstile, SBSize: sb})
		m := isa.NewMachine(c.Prog)
		m.StepLimit = 10_000_000
		seedInput(m.Mem, 50)
		for {
			if c.Prog.Insts[m.PC].Op == isa.CKPT {
				ckpts++
			}
			ok, err := m.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		return ckpts, m.Executed
	}
	c4, t4 := count(4)
	c40, t40 := count(40)
	r4 := float64(c4) / float64(t4)
	r40 := float64(c40) / float64(t40)
	if r4 <= r40 {
		t.Fatalf("checkpoint ratio did not grow when SB shrank: SB4=%.3f SB40=%.3f", r4, r40)
	}
}

func TestPruningRemovesCheckpoints(t *testing.T) {
	f := buildKernel(30)
	plain := compileOrDie(t, f, Options{Scheme: Turnpike, SBSize: 4})
	pruned := compileOrDie(t, f, Options{Scheme: Turnpike, SBSize: 4, Prune: true})
	if pruned.Stats.PrunedCkpts == 0 {
		t.Fatal("pruning removed nothing")
	}
	if pruned.Stats.Checkpoints >= plain.Stats.Checkpoints {
		t.Fatalf("checkpoints: plain=%d pruned=%d", plain.Stats.Checkpoints, pruned.Stats.Checkpoints)
	}
}

func TestRecoveryBlockRestoresExactState(t *testing.T) {
	// Run the program to each region boundary; at the boundary, roll back:
	// a scratch machine with garbage registers runs the region's recovery
	// block against the current memory and re-executes to completion. Its
	// output must equal the fault-free image. This is the compiler-side
	// recovery guarantee, independent of the pipeline's color/quarantine
	// machinery (the reference machine writes checkpoints to color 0).
	f := buildKernel(20)
	c := compileOrDie(t, f, TurnpikeAll(4))
	prog := c.Prog

	gm := isa.NewMachine(prog)
	gm.StepLimit = 10_000_000
	seedInput(gm.Mem, 20)
	if err := gm.Run(); err != nil {
		t.Fatal(err)
	}
	golden := maskPrivate(gm.OutputMemory())

	m := isa.NewMachine(prog)
	m.StepLimit = 10_000_000
	seedInput(m.Mem, 20)

	checked := 0
	for {
		in := &prog.Insts[m.PC]
		if in.Op == isa.BOUND && m.Executed > 0 && checked < 60 {
			region := int(in.Imm)
			rm := isa.NewMachine(prog)
			rm.Mem = m.Mem.Clone()
			rm.PC = prog.Regions[region].RecoveryPC
			rm.StepLimit = 10_000_000
			for r := range rm.Regs {
				rm.Regs[r] = 0xDEADBEEFDEADBEEF
			}
			if err := rm.Run(); err != nil {
				t.Fatalf("region %d rollback: %v", region, err)
			}
			got := maskPrivate(rm.OutputMemory())
			if !golden.Equal(got) {
				t.Fatalf("region %d: rollback re-execution diverged:\n%s",
					region, golden.Diff(got, 8))
			}
			checked++
		}
		ok, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if checked < 10 {
		t.Fatalf("only %d boundaries checked", checked)
	}
}

func TestSinkMovesCheckpointsOutOfLoop(t *testing.T) {
	// A register written every iteration but only read after the loop
	// should lose its in-loop checkpoint when sinking is on. The loop is
	// bottom-tested (do-while): the exit edge leaves *after* the
	// redefinition, so the register is dead at the loop header — the
	// paper's Fig. 10 shape. (In a top-tested loop the path header->exit
	// skips the redefinition, the register stays live at the header, and
	// sinking would be unsound; sinkOutOfLoop must refuse it.)
	// The use of `last` must also sit beyond a region boundary in the exit
	// code — otherwise the final iteration's region covers both def and
	// use and no checkpoint is needed in the first place.
	b := ir.NewBuilder("sink")
	base := b.MovI(int64(isa.DataBase))
	i := b.MovI(0)
	last := b.MovI(0)
	body, exit := b.NewBlock(), b.NewBlock()
	b.Fallthrough(body)
	b.SetBlock(body) // header == body == latch
	v := b.Load(base, 0)
	b.OpTo(isa.ADD, last, v, i) // last redefined every iteration
	b.OpITo(isa.ADD, i, i, 1)
	b.BranchI(isa.BLT, i, 16, body, exit)
	b.SetBlock(exit)
	b.Store(base, 16, i) // forces a boundary: region budget exhausted
	b.Store(base, 24, i)
	b.Store(base, 32, last) // use of last lands beyond the boundary
	b.Halt()
	f := b.MustFinish()

	noSink := compileOrDie(t, f, Options{Scheme: Turnpike, SBSize: 4})
	withSink := compileOrDie(t, f, Options{Scheme: Turnpike, SBSize: 4, Sink: true})
	if withSink.Stats.SunkOutOfLoop == 0 {
		t.Fatal("nothing sunk out of the loop")
	}
	// Dynamic checkpoint count must drop.
	countCkpts := func(p *isa.Program) uint64 {
		m := isa.NewMachine(p)
		m.StepLimit = 1_000_000
		var n uint64
		for {
			if p.Insts[m.PC].Op == isa.CKPT {
				n++
			}
			ok, err := m.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return n
			}
		}
	}
	n0, n1 := countCkpts(noSink.Prog), countCkpts(withSink.Prog)
	if n1 >= n0 {
		t.Fatalf("dynamic checkpoints: noSink=%d withSink=%d", n0, n1)
	}
}

func TestLIVMReducesCheckpointsEndToEnd(t *testing.T) {
	// The Figure 8 kernel: a strength-reduced pointer IV checkpointed each
	// iteration disappears under LIVM.
	b := ir.NewBuilder("fig8")
	i := b.MovI(0)
	base := b.MovI(int64(isa.DataBase))
	head, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Fallthrough(head)
	b.SetBlock(head)
	b.BranchI(isa.BGE, i, 32, exit, body)
	b.SetBlock(body)
	off := b.OpI(isa.SHL, i, 3)
	addr := b.Op(isa.ADD, base, off)
	b.Store(addr, 0, i)
	b.OpITo(isa.ADD, i, i, 1)
	b.Jump(head)
	b.SetBlock(exit)
	b.Halt()
	f := b.MustFinish()

	want := goldenOutput(t, f, 0)
	no := compileOrDie(t, f, Options{Scheme: Turnpike, SBSize: 4})
	yes := compileOrDie(t, f, Options{Scheme: Turnpike, SBSize: 4, LIVM: true})
	if yes.Stats.LIVMMerged == 0 {
		t.Fatal("LIVM merged nothing")
	}
	if yes.Stats.Checkpoints >= no.Stats.Checkpoints {
		t.Fatalf("static checkpoints: without LIVM=%d with=%d", no.Stats.Checkpoints, yes.Stats.Checkpoints)
	}
	got := runProgram(t, yes.Prog, 0)
	if !want.Equal(got) {
		t.Fatalf("LIVM pipeline changed semantics:\n%s", want.Diff(got, 10))
	}
}

func TestRegionZeroCoversEntry(t *testing.T) {
	f := buildKernel(10)
	c := compileOrDie(t, f, Options{Scheme: Turnstile, SBSize: 4})
	if c.Prog.Insts[0].Op != isa.BOUND {
		t.Fatalf("program does not start with BOUND: %v", c.Prog.Insts[0])
	}
	if c.Prog.RegionOf[0] != 0 {
		t.Fatalf("entry region = %d", c.Prog.RegionOf[0])
	}
}
