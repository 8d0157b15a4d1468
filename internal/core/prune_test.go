package core

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/passes"
	"repro/internal/regalloc"
)

// compilePhysify runs the shared front half of Compile: strength
// reduction and register allocation with default weights.
func compilePhysify(f *ir.Func) (*ir.Func, error) {
	passes.StrengthReduce(f)
	if _, err := regalloc.Allocate(f, regalloc.Config{WriteWeight: 1}); err != nil {
		return nil, err
	}
	return f, nil
}

// physFor compiles the function to physical form and runs partitioning and
// checkpoint insertion with the given budget, returning the physical IR.
// countCkpts selects whether checkpoints occupy the store budget (false
// models a core with hardware coloring).
func physFor(t *testing.T, f *ir.Func, budget int, countCkpts bool) *ir.Func {
	t.Helper()
	phys, err := compilePhysify(f.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partitionAndCheckpoint(phys, budget, countCkpts); err != nil {
		t.Fatal(err)
	}
	numberBounds(phys)
	return phys
}

// TestPruneConstantRecipe: a checkpointed constant definition crossing a
// boundary is reconstructible with a MOVI recipe.
func TestPruneConstantRecipe(t *testing.T) {
	b := ir.NewBuilder("konst")
	out := b.MovI(int64(isa.DataBase))
	k := b.MovI(42) // constant, live across the boundary below
	// Force a boundary with budget-filling stores.
	b.Store(out, 0, out)
	b.Store(out, 8, out)
	b.Store(out, 16, out) // budget 2 -> boundary lands before this
	b.Store(out, 24, k)   // use of k beyond the boundary
	b.Halt()
	f := b.MustFinish()

	phys := physFor(t, f, 2, true)
	before := countCheckpoints(phys)
	n, recipes, err := pruneCheckpoints(phys)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("no checkpoints pruned (had %d)", before)
	}
	// At least one recipe must be a pure MOVI.
	foundMovi := false
	for _, m := range recipes {
		for _, rec := range m {
			if len(rec.Instrs) == 1 && rec.Instrs[0].Op == isa.MOVI {
				foundMovi = true
			}
		}
	}
	if !foundMovi {
		t.Fatalf("no MOVI recipe registered: %+v", recipes)
	}
}

// TestPruneSliceRecipe: an address chain (shl+add over live leaves through
// dead temporaries) is reconstructible as a multi-instruction slice.
func TestPruneSliceRecipe(t *testing.T) {
	b := ir.NewBuilder("slice")
	base := b.MovI(int64(isa.DataBase))
	i := b.MovI(3)
	off := b.OpI(isa.SHL, i, 3)      // dead temp after the ckpt
	addr := b.Op(isa.ADD, base, off) // the pruned value
	// Boundary-forcing stores; addr used beyond it.
	b.Store(base, 0, base)
	b.Store(base, 8, base)
	b.Store(base, 16, base)
	b.Store(addr, 0, i) // use of addr (and i) beyond the boundary
	b.Halt()
	f := b.MustFinish()

	phys := physFor(t, f, 2, false)
	_, recipes, err := pruneCheckpoints(phys)
	if err != nil {
		t.Fatal(err)
	}
	foundSlice := false
	for _, m := range recipes {
		for _, rec := range m {
			if len(rec.Instrs) >= 2 {
				foundSlice = true
				if len(rec.Deps) == 0 {
					t.Errorf("slice recipe with no leaf deps: %+v", rec)
				}
			}
		}
	}
	if !foundSlice {
		t.Fatalf("no multi-instruction slice recipe: %+v", recipes)
	}
}

// TestPruneRejectsLoopCarried: a value redefined around a loop must keep
// its checkpoint — a recipe at the loop-header boundary would resurrect
// the first iteration's value (the poison-walk rule).
func TestPruneRejectsLoopCarried(t *testing.T) {
	b := ir.NewBuilder("carried")
	out := b.MovI(int64(isa.DataBase))
	acc := b.MovI(1) // candidate: constant def, but redefined in the loop
	i := b.MovI(0)
	head, body, exit := b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Fallthrough(head)
	b.SetBlock(head)
	b.BranchI(isa.BGE, i, 8, exit, body)
	b.SetBlock(body)
	b.OpITo(isa.MUL, acc, acc, 3) // redefinition reaching the header bound
	b.OpITo(isa.ADD, i, i, 1)
	b.Jump(head)
	b.SetBlock(exit)
	b.Store(out, 0, acc)
	b.Halt()
	f := b.MustFinish()

	phys := physFor(t, f, 2, true)
	_, recipes, err := pruneCheckpoints(phys)
	if err != nil {
		t.Fatal(err)
	}
	// acc's initial MOVI checkpoint must not have a recipe at the loop
	// header bound: find the header bound's ID and check.
	dt := ir.ComputeDominators(phys)
	loops := ir.FindLoops(phys, dt)
	if len(loops.Loops) != 1 {
		t.Fatalf("loops = %d", len(loops.Loops))
	}
	header := loops.Loops[0].Header
	if header.Instrs[0].Op != isa.BOUND {
		t.Fatal("no bound at loop header")
	}
	headerID := int(header.Instrs[0].Imm)
	for reg, rec := range recipes[headerID] {
		if len(rec.Instrs) == 1 && rec.Instrs[0].Op == isa.MOVI {
			// A MOVI recipe at the header for a loop-carried register
			// would be the classic unsoundness; make sure the register is
			// genuinely loop-invariant.
			for blk := range loops.Loops[0].Body {
				for j := range blk.Instrs {
					if d, ok := blk.Instrs[j].Def(); ok && d == reg {
						t.Fatalf("recipe for loop-redefined %v at header bound", reg)
					}
				}
			}
		}
	}
}

// TestPruneRejectsClobberedDep: a recipe operand redefined between the def
// and the boundary invalidates the recipe.
func TestPruneRejectsClobberedDep(t *testing.T) {
	b := ir.NewBuilder("clobber")
	out := b.MovI(int64(isa.DataBase))
	x := b.MovI(5)
	y := b.OpI(isa.ADD, x, 1) // candidate: y = x + 1
	b.OpITo(isa.MUL, x, x, 7) // x clobbered while y still lives
	b.Store(out, 0, out)
	b.Store(out, 8, out)
	b.Store(out, 16, out) // boundary forced here
	b.Store(out, 24, y)   // y used beyond the boundary
	b.Store(out, 32, x)
	b.Halt()
	f := b.MustFinish()

	phys := physFor(t, f, 2, true)
	_, recipes, err := pruneCheckpoints(phys)
	if err != nil {
		t.Fatal(err)
	}
	// No recipe may compute its root from x via "add root, x, #1": x's
	// restored value at recovery is the clobbered one.
	for _, m := range recipes {
		for _, rec := range m {
			if len(rec.Instrs) == 1 && rec.Instrs[0].Op == isa.ADD &&
				rec.Instrs[0].HasImm && rec.Instrs[0].Imm == 1 {
				t.Fatalf("recipe uses clobbered dependency: %+v", rec)
			}
		}
	}
}

// TestPruneRejectsLoadDef: load results are never reconstructible.
func TestPruneRejectsLoadDef(t *testing.T) {
	b := ir.NewBuilder("loaddef")
	base := b.MovI(int64(isa.DataBase))
	v := b.Load(base, 0)
	b.Store(base, 8, base)
	b.Store(base, 16, base)
	b.Store(base, 24, base) // boundary forced
	b.Store(base, 32, v)    // v used beyond it
	b.Halt()
	f := b.MustFinish()

	phys := physFor(t, f, 2, true)
	_, recipes, err := pruneCheckpoints(phys)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range recipes {
		for _, rec := range m {
			for _, in := range rec.Instrs {
				if in.Op == isa.LD {
					t.Fatalf("recipe contains a load: %+v", rec)
				}
			}
		}
	}
}
