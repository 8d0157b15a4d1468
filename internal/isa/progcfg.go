package isa

// Program-level control-flow and liveness analysis, independent of the
// compiler's IR: it re-derives structure from the lowered instruction
// stream alone. The resilience verifier (package core) uses it to check
// compiled binaries with analyses that share no code with the passes that
// produced them.

// ProgCFG is a control-flow graph over a linear Program. Every instruction
// is a node; Succs lists the (0, 1, or 2) successor instruction indices.
type ProgCFG struct {
	Prog *Program
	// Succs[i] lists the instruction indices reachable from i in one step.
	Succs [][]int
	// Preds is the reverse relation.
	Preds [][]int
}

// BuildCFG derives the instruction-level CFG.
func BuildCFG(p *Program) *ProgCFG {
	n := len(p.Insts)
	g := &ProgCFG{Prog: p, Succs: make([][]int, n), Preds: make([][]int, n)}
	for i := 0; i < n; i++ {
		in := &p.Insts[i]
		switch {
		case in.Op == HALT:
			// no successors
		case in.Op == JMP:
			g.Succs[i] = []int{in.Target}
		case in.Op.IsCondBranch():
			g.Succs[i] = []int{in.Target}
			if i+1 < n {
				g.Succs[i] = append(g.Succs[i], i+1)
			}
		default:
			if i+1 < n {
				g.Succs[i] = []int{i + 1}
			}
		}
	}
	for i, ss := range g.Succs {
		for _, s := range ss {
			g.Preds[s] = append(g.Preds[s], i)
		}
	}
	return g
}

// RegBitmap is a 32-register liveness set.
type RegBitmap uint32

// Has reports membership.
func (m RegBitmap) Has(r Reg) bool { return m&(1<<uint(r)) != 0 }

// With returns the set plus r.
func (m RegBitmap) With(r Reg) RegBitmap { return m | 1<<uint(r) }

// Without returns the set minus r.
func (m RegBitmap) Without(r Reg) RegBitmap { return m &^ (1 << uint(r)) }

// Count returns the population.
func (m RegBitmap) Count() int {
	n := 0
	for m != 0 {
		m &= m - 1
		n++
	}
	return n
}

// LiveIn computes, for every instruction, the set of registers live before
// it — a straightforward backward fixed point at instruction granularity.
// RESTORE counts as a definition (it produces the register); recovery
// blocks therefore participate naturally.
func (g *ProgCFG) LiveIn() []RegBitmap {
	n := len(g.Prog.Insts)
	in := make([]RegBitmap, n)
	changed := true
	var usebuf [3]Reg
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			inst := &g.Prog.Insts[i]
			var out RegBitmap
			for _, s := range g.Succs[i] {
				out |= in[s]
			}
			v := out
			if d, ok := inst.Def(); ok {
				v = v.Without(d)
			}
			for _, u := range inst.Uses(usebuf[:0]) {
				v = v.With(u)
			}
			if v != in[i] {
				in[i] = v
				changed = true
			}
		}
	}
	return in
}
