package passes

import (
	"repro/internal/ir"
	"repro/internal/isa"
)

// ScheduleConfig tunes the list scheduler.
type ScheduleConfig struct {
	// LoadLatency is the assumed load-to-use latency (L1 hit) the
	// scheduler plans for, in cycles.
	LoadLatency int
	// DeprioritizeCheckpoints schedules CKPT stores as late as their
	// dependences allow, implementing the paper's checkpoint-aware
	// instruction scheduling (§4.2): independent instructions fill the gap
	// between a register-update instruction and its checkpoint store so
	// the in-order pipeline does not stall on the data hazard.
	DeprioritizeCheckpoints bool
}

// Schedule list-schedules every basic block of f for an in-order pipeline.
// BOUND instructions and terminators act as barriers: nothing moves across
// them, so region store budgets and control flow are preserved. Memory
// operations keep their relative order except CKPT stores, which access
// disjoint architected storage and only depend on their data register and
// on same-register checkpoint order. Returns the number of instructions
// that changed position.
func Schedule(f *ir.Func, cfg ScheduleConfig) int {
	if cfg.LoadLatency <= 0 {
		cfg.LoadLatency = 2
	}
	moved := 0
	for _, b := range f.Blocks {
		moved += scheduleBlock(b, cfg)
	}
	return moved
}

func scheduleBlock(b *ir.Block, cfg ScheduleConfig) int {
	moved := 0
	// Split into segments at barriers (BOUND, branch, HALT); schedule each
	// segment independently and keep barriers in place.
	start := 0
	for i := 0; i <= len(b.Instrs); i++ {
		atEnd := i == len(b.Instrs)
		isBarrier := !atEnd && (b.Instrs[i].Op == isa.BOUND || b.Instrs[i].Op.IsBranch() || b.Instrs[i].Op == isa.HALT)
		if !atEnd && !isBarrier {
			continue
		}
		if i-start > 1 {
			moved += scheduleSegment(b.Instrs[start:i], cfg)
		}
		start = i + 1
	}
	return moved
}

type schedNode struct {
	idx      int // original position within segment
	succs    []int
	preds    int // unscheduled predecessor count
	latency  int
	critical int // longest latency path to any sink
}

func scheduleSegment(seg []ir.Instr, cfg ScheduleConfig) int {
	n := len(seg)
	nodes := make([]schedNode, n)
	addEdge := func(from, to int) {
		if from == to {
			return
		}
		for _, s := range nodes[from].succs {
			if s == to {
				return
			}
		}
		nodes[from].succs = append(nodes[from].succs, to)
		nodes[to].preds++
	}

	lastDef := map[ir.VReg]int{}
	lastUses := map[ir.VReg][]int{}
	lastMem := -1                 // last LD or ST (program/spill memory order)
	lastStore := -1               // last ST
	lastCkpt := map[ir.VReg]int{} // same-register checkpoint order
	var uses []ir.VReg
	for i := range seg {
		in := &seg[i]
		nodes[i].idx = i
		lat := in.Op.ExLatency()
		if in.Op == isa.LD || in.Op == isa.RESTORE {
			lat = cfg.LoadLatency
		}
		nodes[i].latency = lat
		uses = in.Uses(uses[:0])
		for _, u := range uses {
			if d, ok := lastDef[u]; ok {
				addEdge(d, i) // RAW
			}
		}
		if d, ok := in.Def(); ok {
			if p, ok2 := lastDef[d]; ok2 {
				addEdge(p, i) // WAW
			}
			for _, u := range lastUses[d] {
				addEdge(u, i) // WAR
			}
			lastDef[d] = i
			lastUses[d] = lastUses[d][:0]
		}
		for _, u := range uses {
			lastUses[u] = append(lastUses[u], i)
		}
		switch in.Op {
		case isa.LD, isa.RESTORE:
			if lastStore >= 0 {
				addEdge(lastStore, i)
			}
			lastMem = i
		case isa.ST:
			if lastMem >= 0 {
				addEdge(lastMem, i)
			}
			lastMem, lastStore = i, i
		case isa.CKPT:
			// Checkpoint storage is disjoint from program memory; only
			// same-register checkpoint order matters (last writer wins at
			// the architected slot).
			if p, ok := lastCkpt[in.Src2]; ok {
				addEdge(p, i)
			}
			lastCkpt[in.Src2] = i
		}
	}

	// Critical path lengths (reverse topological = reverse index order,
	// since edges always go forward).
	for i := n - 1; i >= 0; i-- {
		c := nodes[i].latency
		for _, s := range nodes[i].succs {
			if v := nodes[i].latency + nodes[s].critical; v > c {
				c = v
			}
		}
		nodes[i].critical = c
	}

	// Greedy list scheduling: simulate in-order issue; at each step pick
	// the ready node that can start earliest; break ties by criticality
	// (descending) then original order. Checkpoints optionally sort last
	// so independent work fills the def-to-checkpoint gap.
	readyAt := make([]int, n) // earliest cycle the node may start
	scheduled := make([]bool, n)
	order := make([]int, 0, n)
	clock := 0
	for len(order) < n {
		best := -1
		for i := 0; i < n; i++ {
			if scheduled[i] || nodes[i].preds > 0 {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			bi, bb := nodes[i], nodes[best]
			si, sb := maxInt(readyAt[i], clock), maxInt(readyAt[best], clock)
			ci, cb := seg[i].Op == isa.CKPT, seg[best].Op == isa.CKPT
			if cfg.DeprioritizeCheckpoints && ci != cb {
				if cb && !ci {
					best = i
				}
				continue
			}
			if si != sb {
				if si < sb {
					best = i
				}
				continue
			}
			if bi.critical != bb.critical {
				if bi.critical > bb.critical {
					best = i
				}
				continue
			}
			if bi.idx < bb.idx {
				best = i
			}
		}
		issue := maxInt(readyAt[best], clock)
		scheduled[best] = true
		order = append(order, best)
		clock = issue // in-order issue: next instruction not before this one
		done := issue + nodes[best].latency
		for _, s := range nodes[best].succs {
			nodes[s].preds--
			if done > readyAt[s] {
				readyAt[s] = done
			}
		}
	}

	moved := 0
	for pos, idx := range order {
		if pos != idx {
			moved++
		}
	}
	if moved == 0 {
		return 0
	}
	out := make([]ir.Instr, n)
	for pos, idx := range order {
		out[pos] = seg[idx]
	}
	copy(seg, out)
	return moved
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
