package pipeline

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/isa"
)

// GoldenState is the immutable snapshot a fault campaign forks every
// trial from: the compiled program, the validated simulator
// configuration, the seeded initial memory image, and the golden run's
// warmed cache hierarchy. Capturing it once means trials stop paying for
// compilation, memory re-seeding, and cache-hierarchy construction —
// each worker forks one simulator and Resets it between trials, and the
// steady-state reset allocates nothing.
type GoldenState struct {
	prog *isa.Program
	cfg  Config
	init *isa.Memory // frozen seeded image; forks share its pages
	img  cache.Image

	stats   Stats
	output  *isa.Memory
	regions int // dynamic regions the golden run bound (arena pre-size)
	// memSpan and memOwned are the golden run's page-table length and
	// written-page count (memory pre-size).
	memSpan, memOwned int
}

// CaptureGolden snapshots s's pre-execution state (program,
// configuration, and the seeded memory image, frozen so that forks share
// its pages copy-on-write), runs the golden execution to completion on
// s, and captures the warmed cache hierarchy. s must be freshly
// constructed — seeded, with attachments if desired, but not yet
// stepped. After a successful capture s itself is at the golden halt
// state and may be discarded or Reset.
func CaptureGolden(s *Sim) (*GoldenState, error) {
	if s.halted || s.Stats.Insts != 0 || s.cycle != 1 {
		return nil, fmt.Errorf("pipeline: CaptureGolden needs an unstepped simulator")
	}
	g := &GoldenState{prog: s.Prog, cfg: s.Cfg, init: s.Mem.Freeze()}
	st, err := s.Run()
	if err != nil {
		return nil, err
	}
	g.stats = st
	g.output = s.OutputMemory()
	g.regions = s.regionsUsed
	g.memSpan, g.memOwned = s.Mem.PageUse()
	s.hier.Snapshot(&g.img)
	return g, nil
}

// Stats returns the golden run's statistics.
func (g *GoldenState) Stats() Stats { return g.stats }

// Output returns the golden run's output memory (quarantine drained,
// checkpoint storage masked). Callers must treat it as immutable — every
// trial of the campaign classifies against it.
func (g *GoldenState) Output() *isa.Memory { return g.output }

// Program returns the compiled program the snapshot was captured from.
func (g *GoldenState) Program() *isa.Program { return g.prog }

// Config returns the validated simulator configuration of the snapshot.
func (g *GoldenState) Config() Config { return g.cfg }

// Fork builds a simulator primed at the snapshot's trial-start point:
// seeded memory, warmed caches, program entry. Each campaign worker
// forks once and Resets between trials.
func (g *GoldenState) Fork() (*Sim, error) {
	s, err := New(g.prog, g.cfg)
	if err != nil {
		return nil, err
	}
	// Pre-size the region arena for the golden run's region count plus
	// recovery headroom (each recovery re-binds the regions it squashed
	// as fresh dynamic regions), the memory's page table and spare pages
	// for the golden run's footprint, and the detection queue to its
	// bound, so injected trials recycle records and pages instead of
	// growing them one at a time. A trial that still outruns the arena or
	// the pages just grows them — correctness is unaffected.
	const regionSlack = 32
	for len(s.regionArena) < g.regions+regionSlack {
		s.regionArena = append(s.regionArena, &regionInst{})
	}
	s.Mem.Reserve(g.memSpan, g.memOwned)
	s.pendingDetects = make([]detectEvent, 0, s.Cfg.DetectQueue)
	g.Reset(s)
	return s, nil
}

// Reset reprimes a forked simulator for the next trial: architectural
// state, caches, and every micro-architectural structure return to the
// trial-start snapshot, while the simulator's grown buffers (store
// buffer, RBB and its region arena, memory pages, color free lists) keep
// their capacity — the steady-state reset allocates nothing, and the
// memory swaps back only the pages the last trial wrote. Observability
// attachments (AttachObs, AttachLogger, AttachProgress) are preserved. s
// must have been built for the same program and configuration as the
// snapshot (normally via Fork).
func (g *GoldenState) Reset(s *Sim) {
	s.Regs = [isa.NumRegs]uint64{}
	s.Taint = [isa.NumRegs]bool{}
	s.regReady = [isa.NumRegs]uint64{}
	s.Mem.ResetTo(g.init)
	s.PC = g.prog.Entry
	s.cycle = 1
	s.slots = 0
	s.hier.Restore(&g.img)
	s.sb.reset()
	clear(s.predictor)
	s.rbb = s.rbb[:0]
	s.cur = nil
	s.nextRegion = 0
	s.regionsUsed = 0
	if s.clq != nil {
		s.clq.clearAll()
		s.clqEnabled = true
	}
	if s.colors != nil {
		s.colors.reset()
	}
	s.pendingDetects = s.pendingDetects[:0]
	s.degradedUntil = 0
	s.inRecovery = false
	s.lastRestart = -1
	s.regionLog = s.regionLog[:0]
	s.Stats = Stats{}
	s.published = publishedCounters{}
	s.halted = false
}
