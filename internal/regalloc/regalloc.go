// Package regalloc assigns physical registers to IR virtual registers with
// a linear-scan allocator and inserts spill code for the rest.
//
// The paper's "store-aware register allocation" (§4.1.1) is the WriteWeight
// knob: traditional allocators weigh reads and writes equally when choosing
// spill candidates, which generates superfluous spill *stores*; Turnpike
// raises the cost of writes so frequently-written variables stay in
// registers and store-buffer traffic drops.
package regalloc

import (
	"fmt"
	"sort"

	"repro/internal/ir"
	"repro/internal/isa"
)

// Config controls allocation.
type Config struct {
	// WriteWeight is the spill-cost multiplier for definitions. 1 models a
	// traditional allocator; Turnpike's store-aware allocation uses a
	// larger value (the paper's "RA trick").
	WriteWeight int
}

// Register partitioning. r0 is the stack pointer; r29..r31 are reserved as
// spill scratch so any instruction's operands can be reloaded.
const (
	firstAlloc = 1
	lastAlloc  = 28
	scratch0   = 29
	scratch1   = 30
	scratch2   = 31
)

// Result reports what the allocator did, for the Fig. 23 store breakdown.
type Result struct {
	// Spilled lists the spilled virtual registers of the input function.
	Spilled []ir.VReg
	// SpillStores / SpillLoads count inserted static spill instructions.
	SpillStores int
	SpillLoads  int
	// Assigned maps input vregs to physical registers (spilled vregs absent).
	Assigned map[ir.VReg]isa.Reg
}

type interval struct {
	vreg       ir.VReg
	start, end int
	weight     float64
}

// Allocate rewrites f so that every remaining virtual register number is a
// physical register number in [0, isa.NumRegs). It inserts spill code and a
// prologue that initializes the stack pointer. The rewritten function still
// passes ir.Verify and can be interpreted directly (spill slots are ordinary
// memory in [isa.StackBase, isa.StackLimit)).
func Allocate(f *ir.Func, cfg Config) (*Result, error) {
	if cfg.WriteWeight <= 0 {
		cfg.WriteWeight = 1
	}
	lv := ir.ComputeLiveness(f)
	dt := ir.ComputeDominators(f)
	loops := ir.FindLoops(f, dt)

	// Linearize: number instructions in block order. Each block occupies
	// [blockStart[b], blockEnd[b]).
	pos := 0
	blockStart := make(map[*ir.Block]int, len(f.Blocks))
	blockEnd := make(map[*ir.Block]int, len(f.Blocks))
	for _, b := range f.Blocks {
		blockStart[b] = pos
		pos += len(b.Instrs)
		blockEnd[b] = pos
	}

	// Build conservative live intervals: a vreg's interval covers every
	// position where it is defined or used, extended over whole blocks
	// where it is live-in or live-out.
	iv := map[ir.VReg]*interval{}
	touch := func(v ir.VReg, p int, w float64) {
		if int(v) < 0 {
			return
		}
		in, ok := iv[v]
		if !ok {
			in = &interval{vreg: v, start: p, end: p}
			iv[v] = in
		}
		if p < in.start {
			in.start = p
		}
		if p > in.end {
			in.end = p
		}
		in.weight += w
	}
	var uses []ir.VReg
	for _, b := range f.Blocks {
		freq := blockFreq(loops.Depth(b))
		p := blockStart[b]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				touch(u, p, freq)
			}
			if d, ok := in.Def(); ok {
				touch(d, p, freq*float64(cfg.WriteWeight))
			}
			p++
		}
		extend := func(v ir.VReg, at int) {
			if in, ok := iv[v]; ok {
				if at < in.start {
					in.start = at
				}
				if at > in.end {
					in.end = at
				}
			} else {
				iv[v] = &interval{vreg: v, start: at, end: at}
			}
		}
		lv.In[b].ForEach(func(v ir.VReg) {
			extend(v, blockStart[b])
			if e := blockEnd[b] - 1; e >= blockStart[b] {
				extend(v, e)
			}
		})
		lv.Out[b].ForEach(func(v ir.VReg) {
			extend(v, blockStart[b])
			if e := blockEnd[b] - 1; e >= blockStart[b] {
				extend(v, e)
			}
		})
	}

	ivs := make([]*interval, 0, len(iv))
	for _, in := range iv {
		ivs = append(ivs, in)
	}
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].start != ivs[j].start {
			return ivs[i].start < ivs[j].start
		}
		return ivs[i].vreg < ivs[j].vreg
	})

	// Linear scan with spilling of the cheapest conflicting interval.
	res := &Result{Assigned: make(map[ir.VReg]isa.Reg, len(ivs))}
	free := make([]isa.Reg, 0, lastAlloc-firstAlloc+1)
	for r := lastAlloc; r >= firstAlloc; r-- {
		free = append(free, isa.Reg(r)) // pop from tail -> ascending order
	}
	type active struct {
		in  *interval
		reg isa.Reg
	}
	var act []active
	spilled := map[ir.VReg]bool{}
	for _, in := range ivs {
		// Expire finished intervals.
		kept := act[:0]
		for _, a := range act {
			if a.in.end < in.start {
				free = append(free, a.reg)
			} else {
				kept = append(kept, a)
			}
		}
		act = kept
		if len(free) > 0 {
			r := free[len(free)-1]
			free = free[:len(free)-1]
			res.Assigned[in.vreg] = r
			act = append(act, active{in, r})
			continue
		}
		// Spill the interval with the lowest weight *density* (weight per
		// covered instruction) among active + current — the classic
		// cost/degree heuristic. Without the normalization, long-lived
		// low-traffic values (live-through-loop constants) would out-rank
		// short hot loop temporaries and the allocator would thrash.
		density := func(iv *interval) float64 {
			return iv.weight / float64(iv.end-iv.start+1)
		}
		victim := -1 // index into act; -1 means current
		minW := density(in)
		for i, a := range act {
			if d := density(a.in); d < minW {
				minW = d
				victim = i
			}
		}
		if victim == -1 {
			spilled[in.vreg] = true
			res.Spilled = append(res.Spilled, in.vreg)
			continue
		}
		v := act[victim]
		spilled[v.in.vreg] = true
		res.Spilled = append(res.Spilled, v.in.vreg)
		delete(res.Assigned, v.in.vreg)
		res.Assigned[in.vreg] = v.reg
		act[victim] = active{in, v.reg}
	}
	sort.Slice(res.Spilled, func(i, j int) bool { return res.Spilled[i] < res.Spilled[j] })

	// Assign stack slots to spilled vregs.
	slotOf := map[ir.VReg]int64{}
	for i, v := range res.Spilled {
		off := int64(i) * 8
		if isa.StackBase+uint64(off) >= isa.StackLimit {
			return nil, fmt.Errorf("regalloc: %s spill area overflow (%d spills)", f.Name, len(res.Spilled))
		}
		slotOf[v] = off
	}

	// Rewrite instructions: map assigned vregs to phys numbers, wrap
	// spilled operands with scratch loads/stores.
	mapReg := func(v ir.VReg) ir.VReg {
		if v == ir.NoReg {
			return ir.NoReg
		}
		if r, ok := res.Assigned[v]; ok {
			return ir.VReg(r)
		}
		panic(fmt.Sprintf("regalloc: unmapped vreg %v", v))
	}
	for _, b := range f.Blocks {
		out := make([]ir.Instr, 0, len(b.Instrs))
		for i := range b.Instrs {
			in := b.Instrs[i] // copy
			scratches := []ir.VReg{scratch0, scratch1, scratch2}
			takeScratch := func() ir.VReg {
				s := scratches[0]
				scratches = scratches[1:]
				return s
			}
			reload := func(v ir.VReg) ir.VReg {
				if v == ir.NoReg {
					return ir.NoReg
				}
				if !spilled[v] {
					return mapReg(v)
				}
				s := takeScratch()
				out = append(out, ir.Instr{Op: isa.LD, Dst: s, Src1: 0, Src2: ir.NoReg, Imm: slotOf[v] + int64(isa.StackBase)})
				res.SpillLoads++
				return s
			}
			// Source operands first (loads precede the instruction). Only
			// operands the op actually reads are mapped — synthesized
			// instructions (e.g. a NOP left by a pass) may carry
			// zero-valued operand fields that are not register references.
			src1, src2 := in.Src1, in.Src2
			if usesSrc1(&in) {
				in.Src1 = reload(src1)
			} else {
				in.Src1 = ir.NoReg
			}
			if usesSrc2(&in) {
				in.Src2 = reload(src2)
			} else {
				in.Src2 = ir.NoReg
			}
			// Destination.
			var spillDst ir.VReg = ir.NoReg
			if d, ok := in.Def(); ok {
				if spilled[d] {
					s := takeScratch()
					in.Dst = s
					spillDst = d
				} else {
					in.Dst = mapReg(d)
				}
			} else {
				in.Dst = ir.NoReg
			}
			out = append(out, in)
			if spillDst != ir.NoReg {
				out = append(out, ir.Instr{
					Op: isa.ST, Dst: ir.NoReg, Src1: 0, Src2: out[len(out)-1].Dst,
					Imm: slotOf[spillDst] + int64(isa.StackBase), Kind: isa.StoreSpill,
				})
				res.SpillStores++
				// Keep terminators terminal: defs never terminate blocks, so
				// this is safe (branches/halt define nothing).
			}
		}
		b.Instrs = out
	}

	// Prologue: initialize the stack pointer. Even spill-free functions get
	// it so every compiled program has a consistent register file.
	entry := f.Blocks[0]
	entry.Instrs = append([]ir.Instr{{Op: isa.MOVI, Dst: 0, Src1: ir.NoReg, Src2: ir.NoReg, Imm: int64(isa.StackBase)}}, entry.Instrs...)

	f.NumVRegs = isa.NumRegs
	f.RecomputePreds()
	if err := f.Verify(); err != nil {
		return nil, fmt.Errorf("regalloc: output invalid: %w", err)
	}
	return res, nil
}

// usesSrc1 reports whether the instruction reads Src1.
func usesSrc1(in *ir.Instr) bool {
	switch in.Op {
	case isa.MOVI, isa.NOP, isa.BOUND, isa.HALT, isa.JMP, isa.RESTORE:
		return false
	case isa.CKPT:
		return false // checkpoint data travels in Src2
	default:
		return true
	}
}

// usesSrc2 reports whether the instruction reads Src2.
func usesSrc2(in *ir.Instr) bool {
	switch in.Op {
	case isa.ST, isa.CKPT:
		return true
	case isa.MOVI, isa.MOV, isa.LD, isa.NOP, isa.BOUND, isa.HALT, isa.JMP, isa.RESTORE:
		return false
	default:
		return !in.HasImm
	}
}

// blockFreq estimates execution frequency from loop depth, the standard
// 10^depth heuristic.
func blockFreq(depth int) float64 {
	f := 1.0
	for i := 0; i < depth && i < 6; i++ {
		f *= 10
	}
	return f
}
