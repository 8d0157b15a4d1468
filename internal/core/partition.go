// Package core implements the Turnstile/Turnpike compiler co-design on top
// of the physical (post-register-allocation) IR: store-buffer-aware region
// partitioning, eager checkpointing of live-out registers, optimal
// checkpoint pruning, checkpoint sinking (LICM), recovery-block generation,
// and lowering to an executable isa.Program. The scheme drivers in
// compile.go assemble these into the Baseline, Turnstile, and Turnpike
// pipelines evaluated in the paper.
package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
)

// partition inserts BOUND markers so that no region has more than budget
// store instructions (program stores, spill stores, and checkpoint stores
// alike) along any path, mirroring the paper's §2.1/§4.3.1 partitioning:
//
//   - a boundary at the function entry,
//   - a boundary at the top of every loop header (as in Turnstile, so every
//     iteration is its own region), and
//   - a boundary before any store that would exceed the budget, determined
//     by a path-insensitive max-stores dataflow over the loop-reduced CFG.
//
// countCkpts selects whether checkpoint stores count against the budget:
// they do for Turnstile and for coloring-less configurations (checkpoints
// quarantine in the SB like any store), but not when hardware coloring is
// assumed — colored checkpoints release to cache immediately and never
// occupy a quarantine slot, which is what lets Turnpike keep its regions
// long despite the added checkpoints.
//
// The function returns the number of BOUNDs inserted. It is re-run by the
// checkpointing fixpoint in checkpoint.go after checkpoint stores are
// inserted when checkpoints count against the budget.
func partition(f *ir.Func, budget int, countCkpts bool) (int, error) {
	if budget < 1 {
		return 0, fmt.Errorf("core: store budget %d < 1", budget)
	}
	inserted := 0

	// Entry boundary.
	entry := f.Blocks[0]
	if len(entry.Instrs) == 0 || entry.Instrs[0].Op != isa.BOUND {
		entry.Instrs = append([]ir.Instr{{Op: isa.BOUND}}, entry.Instrs...)
		inserted++
	}

	// Loop-header boundaries.
	dt := ir.ComputeDominators(f)
	loops := ir.FindLoops(f, dt)
	headers := map[*ir.Block]bool{}
	for _, l := range loops.Loops {
		headers[l.Header] = true
	}
	for h := range headers {
		if len(h.Instrs) == 0 || h.Instrs[0].Op != isa.BOUND {
			h.Instrs = append([]ir.Instr{{Op: isa.BOUND}}, h.Instrs...)
			inserted++
		}
	}

	// Budget boundaries: forward max-stores dataflow in reverse postorder.
	// Loop headers reset the incoming count (they start with a BOUND), so
	// ignoring back edges keeps the analysis a single DAG pass.
	rpo := f.ReversePostorder()
	pos := map[*ir.Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	out := map[*ir.Block]int{}
	for _, b := range rpo {
		in := 0
		for _, p := range b.Preds {
			pp, reachable := pos[p]
			if !reachable || pp >= pos[b] {
				continue
			}
			if out[p] > in {
				in = out[p]
			}
		}
		cnt := in
		instrs := b.Instrs
		for i := 0; i < len(instrs); i++ {
			op := instrs[i].Op
			if op == isa.BOUND {
				cnt = 0
				continue
			}
			if op.IsStore() && (countCkpts || op != isa.CKPT) {
				if cnt+1 > budget {
					// Insert a boundary before this store. When the store
					// is a checkpoint adjacent to its defining instruction,
					// the boundary goes before the *definition* instead:
					// separating a def from its checkpoint would let an
					// error in the checkpoint's region leave the def's
					// region verified with a stale checkpoint, breaking
					// recovery (§4.1.4's constraint).
					at := i
					if instrs[i].Op == isa.CKPT && i > 0 {
						if d, ok := instrs[i-1].Def(); ok && d == instrs[i].Src2 {
							at = i - 1
						}
					}
					instrs = append(instrs[:at:at], append([]ir.Instr{{Op: isa.BOUND}}, instrs[at:]...)...)
					b.Instrs = instrs
					inserted++
					cnt = 0
					i = at // resume just after the new BOUND
					continue
				}
				cnt++
			}
		}
		out[b] = cnt
	}
	return inserted, nil
}

// checkBudget verifies that no region exceeds budget stores along any path,
// using the same loop-reduced dataflow as partition. It returns the number
// of violations found (0 means the partitioning is valid).
func checkBudget(f *ir.Func, budget int, countCkpts bool) int {
	rpo := f.ReversePostorder()
	pos := map[*ir.Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	out := map[*ir.Block]int{}
	violations := 0
	for _, b := range rpo {
		in := 0
		for _, p := range b.Preds {
			pp, ok := pos[p]
			if !ok || pp >= pos[b] {
				continue
			}
			if out[p] > in {
				in = out[p]
			}
		}
		cnt := in
		for i := range b.Instrs {
			switch {
			case b.Instrs[i].Op == isa.BOUND:
				cnt = 0
			case b.Instrs[i].Op.IsStore() && (countCkpts || b.Instrs[i].Op != isa.CKPT):
				cnt++
				if cnt > budget {
					violations++
				}
			}
		}
		out[b] = cnt
	}
	return violations
}

// stripCheckpoints removes every CKPT instruction, returning the count.
// Used by the partition/checkpoint fixpoint between rounds.
func stripCheckpoints(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for i := range b.Instrs {
			if b.Instrs[i].Op == isa.CKPT {
				n++
				continue
			}
			out = append(out, b.Instrs[i])
		}
		b.Instrs = out
	}
	return n
}
