package pipeline

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
)

// GoldenState is the immutable snapshot a fault campaign forks every
// trial from: the compiled program, the validated simulator
// configuration, the seeded initial memory image, the simulator's
// initial state value, and the golden run's warmed cache hierarchy.
// Capturing it once means trials stop paying for compilation, memory
// re-seeding, and cache-hierarchy construction — each worker forks one
// simulator and Resets it between trials, and the steady-state reset
// allocates nothing. RecordEpochs, run once before the trials, adds the
// restore points RunTrial resumes trials from, jumps them between and
// cuts them at.
type GoldenState struct {
	prog  *isa.Program
	cfg   Config
	init  *isa.Memory // frozen seeded image; forks share its pages
	img   cache.Image
	start simState // the unstepped simulator's state

	stats  Stats
	output *isa.Memory
	// memSpan and memOwned are the golden run's page-table length and
	// written-page count (memory pre-size); accesses is its number of
	// cache accesses (access stream pre-size).
	memSpan, memOwned, accesses int

	// epochs are the warm golden run's restore points in run order
	// (RecordEpochs); RunTrial resumes a trial from the last one at or
	// before its first fault event.
	epochs []epoch

	// What RunTrial compares trials with the epochs by,
	// recorded with them: the warm run's cache access stream and final
	// per-set cache clocks, the registers live before each instruction,
	// and whether the golden run leaves the checkpoint window to
	// checkpoints, so that a cut may rename colours and skip the window
	// (cut.go).
	stream     *cache.Stream
	setClocks  cache.SetClocks
	live       []isa.RegBitmap
	renameCkpt bool
}

// CaptureGolden snapshots s's pre-execution state (program,
// configuration, state value, and the seeded memory image, frozen so
// that forks share its pages copy-on-write), runs the golden execution
// to completion on s, and captures the warmed cache hierarchy. s must be freshly
// constructed — seeded, with attachments if desired, but not yet
// stepped. After a successful capture s itself is at the golden halt
// state and may be discarded or Reset.
func CaptureGolden(s *Sim) (*GoldenState, error) {
	if s.halted || s.Stats.Insts != 0 || s.cycle != 1 {
		return nil, fmt.Errorf("pipeline: CaptureGolden needs an unstepped simulator")
	}
	g := &GoldenState{prog: s.Prog, cfg: s.Cfg, init: s.Mem.Freeze()}
	g.start.copyFrom(&s.simState)
	st, err := s.Run()
	if err != nil {
		return nil, err
	}
	g.stats = st
	g.output = s.OutputMemory()
	g.memSpan, g.memOwned = s.Mem.PageUse()
	h := s.hier
	g.accesses = int(h.L1I.Hits + h.L1I.Misses + h.L1D.Hits + h.L1D.Misses)
	s.hier.Snapshot(&g.img)
	return g, nil
}

// Config returns the simulator configuration the snapshot was captured
// under, with New's defaults resolved.
func (g *GoldenState) Config() Config { return g.cfg }

// Stats returns the golden run's statistics.
func (g *GoldenState) Stats() Stats { return g.stats }

// Output returns the golden run's output memory (quarantine drained,
// checkpoint storage masked). Callers must treat it as immutable — every
// trial of the campaign classifies against it.
func (g *GoldenState) Output() *isa.Memory { return g.output }

// Fork builds a simulator primed at the snapshot's trial-start point:
// seeded memory, warmed caches, program entry. Each campaign worker
// forks once and Resets between trials.
func (g *GoldenState) Fork() (*Sim, error) {
	s, err := New(g.prog, g.cfg)
	if err != nil {
		return nil, err
	}
	g.Adopt(s)
	return s, nil
}

// Adopt primes s at the snapshot's trial-start point, as Fork does for
// a new simulator. s must have been built for the snapshot's program and
// configuration: a fresh New, or the simulator CaptureGolden ran on,
// which a campaign reuses as its first worker.
//
// Adopt pre-sizes the memory's page table and spare pages for the
// golden run's footprint, and the detection queue to its bound, so
// injected trials recycle pages instead of growing them one at a time.
// A trial that still outruns the pages just grows them — correctness is
// unaffected.
func (g *GoldenState) Adopt(s *Sim) {
	s.Mem.Reserve(g.memSpan, g.memOwned)
	if cap(s.pendingDetects) < s.Cfg.DetectQueue {
		s.pendingDetects = make([]detectEvent, 0, s.Cfg.DetectQueue)
	}
	g.Reset(s)
}

// Reset reprimes a forked simulator for the next trial: memory, caches
// and the state value return to the trial-start snapshot, while the
// simulator's grown buffers (the value's slices, memory pages) keep
// their capacity — the steady-state reset allocates nothing, and the
// memory swaps back only the pages the last trial wrote. Observability
// attachments (AttachObs, AttachLogger, AttachProgress) are preserved,
// with nothing published yet. s must have been built for the same
// program and configuration as the snapshot (normally via Fork or
// Adopt).
func (g *GoldenState) Reset(s *Sim) {
	s.Mem.ResetTo(g.init)
	s.hier.Restore(&g.img)
	s.copyFrom(&g.start)
	if c, ok := s.clq.(*idealCLQ); ok {
		c.clearAll()
	}
	s.regionLog = s.regionLog[:0]
	s.published = publishedCounters{}
}

// resetAt reprimes s, like Reset, for a trial whose first fault event
// fires once inst instructions have retired: it Resets s, replays the
// memory and cache deltas of every epoch up to the last one at or
// before inst, and copies in that epoch's state value. A trial is
// identical to the warm golden run until its first event fires and the
// simulator is deterministic, so the trial that resumes there is
// byte-identical to one run from the start. Reset left nothing
// published, so the run's first publication carries the whole resumed
// prefix into an attached Progress, whose totals come out as for a run
// from the start. With an observability attachment (AttachObs) resetAt
// ignores the epochs, so traces and histograms cover the whole run.
func (g *GoldenState) resetAt(s *Sim, inst uint64) {
	g.Reset(s)
	if s.obs != nil {
		return
	}
	k := 0
	for k < len(g.epochs) && g.epochs[k].insts <= inst {
		k++
	}
	if k == 0 {
		return
	}
	g.replay(s.Mem, s.hier, 0, k)
	s.copyFrom(&g.epochs[k-1].state)
}

// replay applies the memory and cache deltas of epochs [from, to) to
// mem and hier, which hold the state at epoch from-1 (the trial-start
// snapshot for from = 0), or a trial's that matches it (jump).
func (g *GoldenState) replay(mem *isa.Memory, hier *cache.Hierarchy, from, to int) {
	for i := from; i < to; i++ {
		e := &g.epochs[i]
		for _, w := range e.mem {
			mem.Store(w.Addr, w.Val)
		}
		hier.Apply(&e.caches)
	}
}
