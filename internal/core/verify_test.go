package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// TestVerifyResilienceOnWorkloads audits every compiled workload with the
// independent program-level checker under both schemes.
func TestVerifyResilienceOnWorkloads(t *testing.T) {
	for _, p := range workload.Benchmarks() {
		f := p.Build(1)
		ts, err := Compile(f, Options{Scheme: Turnstile, SBSize: 4})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := VerifyResilience(ts.Prog, 4, true); err != nil {
			t.Errorf("%s turnstile: %v", p.Name, err)
		}
		tp, err := Compile(f, TurnpikeAll(4))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := VerifyResilience(tp.Prog, 2, false); err != nil {
			t.Errorf("%s turnpike: %v", p.Name, err)
		}
	}
}

// TestVerifyResilienceOnFuzz audits fuzzed programs.
func TestVerifyResilienceOnFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	for trial := 0; trial < 40; trial++ {
		seed := rng.Int63()
		f := workload.Fuzz(seed)
		c, err := Compile(f, TurnpikeAll(4))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := VerifyResilience(c.Prog, 2, false); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestVerifyResilienceCatchesTampering mutates valid binaries in ways a
// buggy compiler could and checks each is rejected.
func TestVerifyResilienceCatchesTampering(t *testing.T) {
	build := func() *isa.Program {
		f := buildKernel(10)
		c := compileOrDie(t, f, TurnpikeAll(4))
		return c.Prog
	}

	t.Run("missing restore", func(t *testing.T) {
		prog := build()
		// Delete the first RESTORE of some recovery block that has one.
		for _, ri := range prog.Regions {
			pc := ri.RecoveryPC
			if prog.Insts[pc].Op == isa.RESTORE {
				prog.Insts[pc] = isa.Inst{Op: isa.NOP}
				if err := VerifyResilience(prog, 2, false); err == nil {
					t.Fatal("accepted recovery block missing a restore")
				} else if !strings.Contains(err.Error(), "live at its boundary") &&
					!strings.Contains(err.Error(), "recovery block contains") {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
		}
		t.Skip("no RESTORE-leading recovery block in this kernel")
	})

	t.Run("recovery jumps to wrong region", func(t *testing.T) {
		prog := build()
		// Redirect region 1's recovery jump to region 0's bound.
		pc := prog.Regions[1].RecoveryPC
		for prog.Insts[pc].Op != isa.JMP {
			pc++
		}
		prog.Insts[pc].Target = 0 // entry bound
		if err := VerifyResilience(prog, 2, false); err == nil {
			t.Fatal("accepted recovery jumping to the wrong bound")
		}
	})

	t.Run("store smuggled into recovery", func(t *testing.T) {
		prog := build()
		pc := prog.Regions[1].RecoveryPC
		prog.Insts[pc] = isa.Inst{Op: isa.ST, Rs1: 1, Rs2: 2, Kind: isa.StoreProgram}
		if err := VerifyResilience(prog, 2, false); err == nil {
			t.Fatal("accepted store in recovery block")
		}
	})

	t.Run("budget violation", func(t *testing.T) {
		prog := build()
		if err := VerifyResilience(prog, 1, true); err == nil {
			t.Fatal("accepted an over-budget region (budget 1 with checkpoints counted)")
		}
	})

	t.Run("bound renumbered", func(t *testing.T) {
		prog := build()
		for i := range prog.Insts {
			if prog.Insts[i].Op == isa.BOUND && prog.Insts[i].Imm == 1 {
				prog.Insts[i].Imm = 2
				break
			}
		}
		if err := VerifyResilience(prog, 2, false); err == nil {
			t.Fatal("accepted out-of-order region IDs")
		}
	})

	t.Run("baseline rejected", func(t *testing.T) {
		f := buildKernel(10)
		c := compileOrDie(t, f, Options{Scheme: Baseline})
		if err := VerifyResilience(c.Prog, 2, false); err == nil {
			t.Fatal("accepted a region-less program")
		}
	})
}

// TestProgCFGLiveness sanity-checks the independent program-level liveness
// on a hand-built binary.
func TestProgCFGLiveness(t *testing.T) {
	p := &isa.Program{CkptBase: isa.DefaultCkptBase, Insts: []isa.Inst{
		{Op: isa.MOVI, Rd: 1, Imm: 5},                           // 0
		{Op: isa.MOVI, Rd: 2, Imm: 7},                           // 1
		{Op: isa.ADD, Rd: 3, Rs1: 1, Rs2: 2},                    // 2
		{Op: isa.BEQ, Rs1: 3, Imm: 12, HasImm: true, Target: 5}, // 3
		{Op: isa.ADD, Rd: 3, Rs1: 3, Imm: 1, HasImm: true},      // 4
		{Op: isa.MOVI, Rd: 4, Imm: 0x2000},                      // 5
		{Op: isa.ST, Rs1: 4, Rs2: 3, Kind: isa.StoreProgram},    // 6
		{Op: isa.HALT}, // 7
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	g := isa.BuildCFG(p)
	live := g.LiveIn()
	if !live[2].Has(1) || !live[2].Has(2) {
		t.Fatalf("operands not live before add: %b", live[2])
	}
	if live[5].Has(1) || live[5].Has(2) {
		t.Fatalf("dead operands still live at 5: %b", live[5])
	}
	if !live[5].Has(3) {
		t.Fatalf("r3 not live at 5 (used by store): %b", live[5])
	}
	// The conditional branch has two successors.
	if len(g.Succs[3]) != 2 {
		t.Fatalf("branch successors = %v", g.Succs[3])
	}
}

func TestRegBitmap(t *testing.T) {
	var m isa.RegBitmap
	m = m.With(0).With(31).With(5)
	if !m.Has(0) || !m.Has(31) || !m.Has(5) || m.Has(6) {
		t.Fatal("membership wrong")
	}
	if m.Count() != 3 {
		t.Fatalf("count = %d", m.Count())
	}
	m = m.Without(5)
	if m.Has(5) || m.Count() != 2 {
		t.Fatal("removal wrong")
	}
}
