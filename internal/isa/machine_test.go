package isa

import "testing"

func TestMachineErrorPaths(t *testing.T) {
	// PC out of range.
	p := &Program{Insts: []Inst{{Op: HALT}}}
	m := NewMachine(p)
	m.PC = 5
	if _, err := m.Step(); err == nil {
		t.Fatal("accepted out-of-range PC")
	}
}

func TestMachineConditionalBranches(t *testing.T) {
	// Each conditional op, taken and not taken.
	mk := func(op Op, a, b int64) uint64 {
		p := &Program{Insts: []Inst{
			{Op: MOVI, Rd: 1, Imm: a},
			{Op: MOVI, Rd: 2, Imm: b},
			{Op: op, Rs1: 1, Rs2: 2, Target: 5},
			{Op: MOVI, Rd: 3, Imm: 100}, // fallthrough marker
			{Op: HALT},
			{Op: MOVI, Rd: 3, Imm: 200}, // taken marker
			{Op: HALT},
		}}
		m := NewMachine(p)
		if err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Regs[3]
	}
	cases := []struct {
		op   Op
		a, b int64
		want uint64
	}{
		{BEQ, 4, 4, 200}, {BEQ, 4, 5, 100},
		{BNE, 4, 5, 200}, {BNE, 4, 4, 100},
		{BLT, -1, 0, 200}, {BLT, 1, 0, 100},
		{BGE, 0, -1, 200}, {BGE, -2, -1, 100},
	}
	for _, c := range cases {
		if got := mk(c.op, c.a, c.b); got != c.want {
			t.Errorf("%v(%d,%d) marker = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestMachineJumpAndNop(t *testing.T) {
	p := &Program{Insts: []Inst{
		{Op: NOP},
		{Op: BOUND},
		{Op: JMP, Target: 4},
		{Op: MOVI, Rd: 1, Imm: 1}, // skipped
		{Op: HALT},
	}}
	m := NewMachine(p)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[1] != 0 {
		t.Fatal("jump fell through")
	}
	if m.Executed != 4 {
		t.Fatalf("executed %d, want 4", m.Executed)
	}
}

func TestMemoryDiffAndSnapshot(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.Store(8, 1)
	a.Store(16, 2)
	b.Store(8, 9)
	b.Store(24, 3)
	d := a.Diff(b, 10)
	for _, frag := range []string{"0x8", "0x10", "0x18"} {
		if !contains(d, frag) {
			t.Errorf("diff missing %s:\n%s", frag, d)
		}
	}
	snap := a.Snapshot()
	if len(snap) != 2 || snap[0].Addr != 8 || snap[1].Addr != 16 {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	// Diff truncates to max entries.
	if short := a.Diff(b, 1); countLines(short) != 1 {
		t.Fatalf("diff not truncated: %q", short)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func countLines(s string) int {
	n := 0
	for _, c := range s {
		if c == '\n' {
			n++
		}
	}
	return n
}

func TestProgCFGOnValidatedPrograms(t *testing.T) {
	// CFG construction over a program with every control construct.
	p := &Program{Insts: []Inst{
		{Op: MOVI, Rd: 1, Imm: 0},                          // 0
		{Op: ADD, Rd: 1, Rs1: 1, Imm: 1, HasImm: true},     // 1
		{Op: BLT, Rs1: 1, Imm: 3, HasImm: true, Target: 1}, // 2
		{Op: JMP, Target: 5},                               // 3
		{Op: MOVI, Rd: 2, Imm: 99},                         // 4 (dead)
		{Op: HALT},                                         // 5
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := BuildCFG(p)
	if len(g.Succs[2]) != 2 {
		t.Fatalf("branch succs = %v", g.Succs[2])
	}
	if len(g.Succs[5]) != 0 {
		t.Fatal("halt has successors")
	}
	reach := g.ReachableFrom(0)
	if reach[4] {
		t.Fatal("dead instruction reachable")
	}
	if !reach[5] {
		t.Fatal("halt unreachable")
	}
	// Preds of the loop head include both the entry and the back edge.
	if len(g.Preds[1]) != 2 {
		t.Fatalf("loop head preds = %v", g.Preds[1])
	}
	live := g.LiveIn()
	if !live[1].Has(1) {
		t.Fatal("r1 not live at its increment")
	}
}

func TestCountStores(t *testing.T) {
	p := &Program{Insts: []Inst{
		{Op: ST, Rs1: 1, Rs2: 2, Kind: StoreProgram},
		{Op: ST, Rs1: 1, Rs2: 2, Kind: StoreSpill},
		{Op: CKPT, Rs2: 2, Kind: StoreCheckpoint},
		{Op: HALT},
	}}
	c := p.CountStores()
	if c[StoreProgram] != 1 || c[StoreSpill] != 1 || c[StoreCheckpoint] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestStoreKindAndCLQKindStrings(t *testing.T) {
	for k, want := range map[StoreKind]string{
		StoreNone: "none", StoreProgram: "program",
		StoreSpill: "spill", StoreCheckpoint: "checkpoint",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
	if Reg(7).String() != "r7" {
		t.Error("Reg string wrong")
	}
}

// ReachableFrom marks instructions reachable from start.
func (g *ProgCFG) ReachableFrom(start int) []bool {
	seen := make([]bool, len(g.Prog.Insts))
	stack := []int{start}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if i < 0 || i >= len(seen) || seen[i] {
			continue
		}
		seen[i] = true
		stack = append(stack, g.Succs[i]...)
	}
	return seen
}
