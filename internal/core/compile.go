package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/passes"
	"repro/internal/regalloc"
)

// Scheme selects the resilience compilation strategy.
type Scheme int

const (
	// Baseline compiles without any resilience support: no regions, no
	// checkpoints. Its cycle count is the denominator of every overhead
	// figure in the paper.
	Baseline Scheme = iota
	// Turnstile is the prior work (Liu et al., MICRO'16): SB-sized
	// regions, eager checkpointing, full store-buffer quarantine, no
	// compiler or hardware fast-release optimizations.
	Turnstile
	// Turnpike is the paper's scheme: half-SB regions plus the
	// optimizations selected in Options.
	Turnpike
)

func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case Turnstile:
		return "turnstile"
	case Turnpike:
		return "turnpike"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Options configures a compilation. The five optimization toggles map to
// the paper's Fig. 21 ablation axes; hardware fast-release (CLQ, coloring)
// is a simulator option, not a compiler one.
type Options struct {
	Scheme Scheme
	// SBSize is the store-buffer capacity partitioning plans for.
	SBSize int
	// StoreAwareRA raises the register allocator's write weight (§4.1.1).
	StoreAwareRA bool
	// LIVM merges loop induction variables (§4.1.2).
	LIVM bool
	// Prune removes reconstructible checkpoints (§4.1.3).
	Prune bool
	// Sink applies checkpoint LICM/sinking (§4.1.4).
	Sink bool
	// Sched applies checkpoint-aware instruction scheduling (§4.2).
	Sched bool
	// ColoredCkpts tells the partitioner that the target core has the
	// hardware coloring of §4.3.2: checkpoint stores release to cache
	// immediately and never occupy a quarantine slot, so they do not count
	// against the region store budget. Must match the simulator's
	// HWColoring setting — compiling with ColoredCkpts for a core without
	// coloring can wedge the store buffer.
	ColoredCkpts bool
	// LoadLatency the scheduler plans for (defaults to the L1 hit time).
	LoadLatency int
}

// TurnpikeAll returns Options with every Turnpike compiler optimization on,
// targeting a core with both fast-release hardware schemes.
func TurnpikeAll(sbSize int) Options {
	return Options{Scheme: Turnpike, SBSize: sbSize,
		StoreAwareRA: true, LIVM: true, Prune: true, Sink: true, Sched: true,
		ColoredCkpts: true}
}

// Stats describes what the compiler did, feeding Figs. 4, 23, and 26.
type Stats struct {
	Scheme        Scheme
	StoreBudget   int
	Regions       int
	Checkpoints   int // static CKPTs remaining in the binary
	PrunedCkpts   int
	SunkInBlock   int
	SunkOutOfLoop int
	LIVMMerged    int
	SpillStores   int
	SpillLoads    int
	InstrCount    int // static body instructions (excluding recovery blocks)
	RecoveryInsts int // static recovery-block instructions
}

// Compiled bundles the executable program with compile-time statistics.
type Compiled struct {
	Prog  *isa.Program
	Stats Stats
}

// Compile lowers fn under the given scheme. The input function is not
// modified. The returned program validates and, for resilient schemes, has
// a recovery block per region.
func Compile(fn *ir.Func, opt Options) (*Compiled, error) {
	if opt.SBSize <= 0 {
		opt.SBSize = 4
	}
	f := fn.Clone()
	st := Stats{Scheme: opt.Scheme}

	// Machine-independent optimization, mirroring -O3: strength reduction
	// runs for every scheme (it is the baseline compiler behaviour the
	// paper's §4.1.2 pushes back against), LIVM only when asked.
	passes.StrengthReduce(f)
	if opt.Scheme == Turnpike && opt.LIVM {
		st.LIVMMerged = passes.LIVM(f)
	}

	ww := 1
	if opt.Scheme == Turnpike && opt.StoreAwareRA {
		ww = 3
	}
	ra, err := regalloc.Allocate(f, regalloc.Config{WriteWeight: ww})
	if err != nil {
		return nil, err
	}
	st.SpillStores, st.SpillLoads = ra.SpillStores, ra.SpillLoads

	if opt.Scheme == Baseline {
		// Generic scheduling, then a plain lowering without regions.
		passes.Schedule(f, passes.ScheduleConfig{LoadLatency: opt.LoadLatency})
		st.InstrCount = f.InstrCount()
		prog, err := lower(f, nil, false)
		if err != nil {
			return nil, err
		}
		return &Compiled{Prog: prog, Stats: st}, nil
	}

	budget := opt.SBSize
	if opt.Scheme == Turnpike {
		// §4.3.1: Turnpike regions use at most half the SB so one region's
		// verification overlaps the next region's execution.
		budget = opt.SBSize / 2
		if budget < 1 {
			budget = 1
		}
	}
	st.StoreBudget = budget

	countCkpts := !(opt.Scheme == Turnpike && opt.ColoredCkpts)
	if _, err := partitionAndCheckpoint(f, budget, countCkpts); err != nil {
		return nil, err
	}
	st.Regions = numberBounds(f)

	recipes := RecipeMap{}
	if opt.Scheme == Turnpike && opt.Prune {
		n, r, err := pruneCheckpoints(f)
		if err != nil {
			return nil, err
		}
		st.PrunedCkpts, recipes = n, r
	}
	if opt.Scheme == Turnpike && opt.Sink {
		st.SunkInBlock, st.SunkOutOfLoop = sinkCheckpoints(f, budget, countCkpts)
	}
	if opt.Scheme == Turnpike && opt.Sched {
		passes.Schedule(f, passes.ScheduleConfig{
			LoadLatency:             opt.LoadLatency,
			DeprioritizeCheckpoints: true,
		})
	}
	st.Checkpoints = countCheckpoints(f)
	st.InstrCount = f.InstrCount()

	prog, err := lower(f, recipes, true)
	if err != nil {
		return nil, err
	}
	// Recovery code occupies the tail, starting at the earliest recovery
	// PC (the body may be longer than the IR instruction count when the
	// lowering synthesizes fall-through jumps).
	recoveryStart := len(prog.Insts)
	for _, ri := range prog.Regions {
		if ri.RecoveryPC >= 0 && ri.RecoveryPC < recoveryStart {
			recoveryStart = ri.RecoveryPC
		}
	}
	st.RecoveryInsts = len(prog.Insts) - recoveryStart
	return &Compiled{Prog: prog, Stats: st}, nil
}
