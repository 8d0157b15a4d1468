package pipeline

import (
	"context"
	"fmt"
	"log/slog"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/obs/span"
)

// regionInst is one dynamic region (an RBB entry): the instance of a
// static region opened by a committed BOUND. The RBB holds the records
// by value; store-buffer entries and pending detections name a region
// by its id, noRegion for none.
type regionInst struct {
	id       int
	staticID int
	boundPC  int
	start    uint64
	end      uint64     // 0 while open
	verifyAt uint64     // end + WCDL; infCycle while open
	colors   usedColors // UC: colors used by this region's checkpoints

	// Per-region observability counters (events.go). insts also
	// leaves netInsts when recovery squashes the region.
	warFree, colored, quarantined int
	insts                         uint64
}

// noRegion is the region id of a store or a strike outside every region.
const noRegion = -1

// Sim simulates one program under one configuration. It is both the
// functional and the timing model; fault-free runs reproduce the reference
// machine's memory exactly.
//
// A Sim is a fixed context around one simState value. The context is
// the program and configuration, the memory image and cache hierarchy
// (each with its own reset and delta mechanisms), the attachments and
// the region log; the value is everything else a run carries from one
// step to the next. GoldenState.Reset, the epochs and the reconvergence
// check all copy or compare that value.
type Sim struct {
	Prog *isa.Program
	Cfg  Config
	Mem  *isa.Memory
	hier *cache.Hierarchy

	simState

	// clq is the committed-load queue, nil without WAR-free release: the
	// compact design's entries live in the value (&s.compact), the ideal
	// design's maps here, outside it. Only Figs. 14/15 use the ideal
	// one, which neither records epochs nor cuts; Reset clears it.
	clq committedLoadQueue

	// regionLog records per-region events when Cfg.RecordRegions is set.
	regionLog []RegionEvent

	// obs is the optional observability attachment (AttachObs). Nil means
	// disabled; every instrumentation site is guarded by one nil check.
	obs *Obs

	// log is the optional structured-logging attachment (AttachLogger);
	// logCtx carries its correlation chain. Nil log disables; only rare
	// events (recovery, DUE, degrade transitions) are logged.
	log    *slog.Logger
	logCtx context.Context

	// progress is the optional live-progress attachment (AttachProgress);
	// published remembers the counter values already pushed into it so
	// each publication pushes deltas.
	progress  *Progress
	published publishedCounters
}

// simState is the simulator's state apart from memory and caches. Its
// records hold no pointers to one another, so a copy of the value is a
// copy of the state (copyFrom).
type simState struct {
	Regs [isa.NumRegs]uint64
	// Taint marks architecturally corrupted registers during fault
	// campaigns (the per-register parity bit of §5 plus derived values,
	// standing in for the hardened AGU). Cleared by recovery.
	Taint    [isa.NumRegs]bool
	regReady [isa.NumRegs]uint64
	PC       int
	cycle    uint64
	slots    int
	// netInsts is the golden-equivalent progress: instructions retired,
	// minus those of squashed regions and of recovery blocks. A fault-free
	// run keeps it equal to Stats.Insts; a recovered trial that is the
	// golden run again holds the golden run's count (cut.go).
	netInsts  uint64
	predictor []uint8 // bimodal 2-bit counters, indexed by PC

	// Resilience state. The RBB holds the unverified regions, oldest
	// first, with consecutive ids; its tail is the open region while
	// its verifyAt is infCycle (cur). A region has verified once it has
	// left the RBB: recovery discards everything that names a region it
	// squashes, so an id below the RBB's head names a verified region
	// (unverifiedFrom).
	sb         storeBuffer
	rbb        []regionInst
	nextRegion int
	compact    compactCLQ
	clqEnabled bool
	colors     colorMaps

	// Fault state (driven by package fault). pendingDetects holds every
	// in-flight sensor event ordered by firing cycle (fault bursts put
	// several strikes inside one detection window); degradedUntil is
	// nonzero while the degradation controller has fast release
	// suspended after a late detection (0 = healthy).
	pendingDetects []detectEvent
	degradedUntil  uint64
	inRecovery     bool // executing a recovery block
	lastRestart    int  // static ID of the last restarted region, -1 before any recovery

	Stats  Stats
	halted bool
}

// copyFrom makes d a copy of src: it assigns the whole value, then
// copies each slice back into d's own backing array, so the two share
// no memory and a d that has held as much before copies without
// allocating.
func (d *simState) copyFrom(src *simState) {
	pred, sb, rbb, clq, det := d.predictor, d.sb.entries, d.rbb, d.compact.entries, d.pendingDetects
	*d = *src
	d.predictor = append(pred[:0], src.predictor...)
	d.sb.entries = append(sb[:0], src.sb.entries...)
	d.rbb = append(rbb[:0], src.rbb...)
	d.compact.entries = append(clq[:0], src.compact.entries...)
	d.pendingDetects = append(det[:0], src.pendingDetects...)
}

// cur returns the open region, the RBB's tail until it closes, or nil.
// The pointer is valid until the next verification pops the RBB.
func (s *simState) cur() *regionInst {
	if n := len(s.rbb); n > 0 && s.rbb[n-1].verifyAt == infCycle {
		return &s.rbb[n-1]
	}
	return nil
}

// regionID returns r's id, or noRegion for nil.
func regionID(r *regionInst) int {
	if r == nil {
		return noRegion
	}
	return r.id
}

// unverifiedFrom returns the id of the RBB's head, or nextRegion when
// the RBB is empty: the regions a store-buffer entry or a pending
// detection names have verified exactly when their ids lie below it.
func (s *simState) unverifiedFrom() int {
	if len(s.rbb) > 0 {
		return s.rbb[0].id
	}
	return s.nextRegion
}

// closeRegion closes the open region r at cycle end, to verify at
// verifyAt, and stamps verifyAt onto its stores, which drain from then
// on once r has left the RBB.
func (s *simState) closeRegion(r *regionInst, end, verifyAt uint64) {
	r.end, r.verifyAt = end, verifyAt
	for i := range s.sb.entries {
		if e := &s.sb.entries[i]; e.region == r.id {
			e.verifyAt = verifyAt
		}
	}
}

// publishedCounters remembers the progress figures already pushed into
// the attachment, so each publication pushes deltas.
type publishedCounters struct {
	Cycles, Insts, RegionsExecuted, RegionsVerified, Recoveries uint64
}

// NewContext is New under a wall-clock span: when ctx carries a span
// tracer (internal/obs/span), simulator construction — config/program
// validation, cache hierarchy build, memory image — is recorded as a
// "pipeline"/"setup" span nested under the caller's current span.
// Without a tracer it is exactly New.
func NewContext(ctx context.Context, prog *isa.Program, cfg Config) (*Sim, error) {
	_, sp := span.Start(ctx, "pipeline", "setup")
	s, err := New(prog, cfg)
	sp.End()
	return s, err
}

// New builds a simulator. The program must validate; resilient configs
// require region metadata.
func New(prog *isa.Program, cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if cfg.Resilient && len(prog.Regions) == 0 {
		return nil, fmt.Errorf("pipeline: resilient config but program has no regions")
	}
	if cfg.MaxInsts == 0 {
		cfg.MaxInsts = 500_000_000
	}
	hier, err := newHierarchy(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DetectQueue == 0 {
		cfg.DetectQueue = DefaultDetectQueue
	}
	if cfg.DegradeWindow == 0 && cfg.Resilient {
		cfg.DegradeWindow = 8 * uint64(cfg.WCDL)
	}
	s := &Sim{Prog: prog, Cfg: cfg, Mem: isa.NewMemory(), hier: hier}
	s.PC = prog.Entry
	s.cycle = 1
	s.lastRestart = -1
	s.predictor = make([]uint8, len(prog.Insts))
	s.colors.reset()
	if cfg.Resilient && cfg.WARFreeRelease {
		if cfg.CLQ == CLQIdeal {
			s.clq = newIdealCLQ()
		} else {
			s.compact.entries = make([]compactEntry, cfg.CLQSize)
			s.clq = &s.compact
		}
		s.clqEnabled = true
	}
	return s, nil
}

// newHierarchy builds cfg's cache hierarchy; a zero Hier is the
// default.
func newHierarchy(cfg Config) (*cache.Hierarchy, error) {
	hcfg := cfg.Hier
	if hcfg.MemLatency == 0 {
		hcfg = cache.DefaultHierarchyConfig()
	}
	return cache.NewHierarchy(hcfg)
}

// Cycle returns the current cycle.
func (s *Sim) Cycle() uint64 { return s.cycle }

// Halted reports whether the program has finished.
func (s *Sim) Halted() bool { return s.halted }

// Run executes to completion and returns the statistics.
func (s *Sim) Run() (Stats, error) {
	if s.progress == nil {
		// Fast path: call the cycle kernel directly so the detached-
		// observability loop costs exactly one call per cycle (the Step
		// wrapper is beyond the inline budget).
		for !s.halted {
			if err := s.step(); err != nil {
				return s.Stats, err
			}
		}
		return s.Stats, nil
	}
	for !s.halted {
		if err := s.Step(); err != nil {
			return s.Stats, err
		}
	}
	return s.Stats, nil
}

// OutputMemory returns the architectural memory with all pending
// quarantined stores applied (as if the machine drained at halt), masking
// checkpoint storage.
func (s *Sim) OutputMemory() *isa.Memory {
	out := s.Mem.Clone()
	for _, e := range s.sb.entries {
		if e.quarantined {
			out.Store(e.addr, e.val)
		}
	}
	out.ClearRange(s.Prog.CkptBase, s.Prog.CkptBase+ckptBytes)
	return out
}

// DrainOutput folds every still-buffered quarantined store into the
// architectural memory in place and returns s.Mem — OutputMemory without
// the clone and the checkpoint masking, for campaign workers that
// classify the image with isa.Memory.EqualMasked and then Reset the
// simulator. The returned memory still holds checkpoint and stack
// words; callers mask those ranges during comparison.
func (s *Sim) DrainOutput() *isa.Memory {
	for i := range s.sb.entries {
		e := &s.sb.entries[i]
		if e.quarantined {
			s.Mem.Store(e.addr, e.val)
		}
	}
	s.sb.entries = s.sb.entries[:0]
	return s.Mem
}

// advanceTo moves the issue cursor to cycle c (processing verification
// events), attributing the stall to the given counter.
func (s *Sim) advanceTo(c uint64, counter *uint64) {
	if c <= s.cycle {
		return
	}
	if counter != nil {
		*counter += c - s.cycle
	}
	s.cycle = c
	s.slots = 0
	s.processVerifications()
}

// processVerifications retires regions whose WCDL window has elapsed. A
// pending detection event caps the verification clock: the sensors fired
// at pendingDetectAt, so a region whose window reaches to or past that
// instant is aborted, not verified — even when the simulated clock has
// already jumped further due to a stall.
func (s *Sim) processVerifications() {
	limit := s.cycle
	if at := s.nextDetectAt(); at <= limit {
		limit = at - 1
	}
	n := 0
	for ; n < len(s.rbb); n++ {
		r := &s.rbb[n]
		if r.verifyAt == infCycle || r.verifyAt > limit {
			break
		}
		s.Stats.RegionsVerified++
		s.regionClosed(r, false)
		// Colors: UC -> VC, reclaiming previous VC colors.
		for regs := r.colors.regs; regs != 0; regs &= regs - 1 {
			reg := isa.Reg(bits.TrailingZeros64(regs))
			s.colors.verify(reg, r.colors.of(reg))
		}
		// CLQ bookkeeping: free the region's entry. Re-enabling after an
		// overflow happens at a region *start* (commitBound), not here —
		// fast release is only safe when every unverified region's loads
		// are recorded, which holds again once all prior regions verify.
		if s.clq != nil {
			s.clq.clearRegion(r.id)
		}
	}
	// Pop the verified regions by copying down so the slice keeps its
	// backing array — reslicing forward would strand the array head and
	// force append to reallocate every trial of a GoldenState campaign.
	if n > 0 {
		s.rbb = s.rbb[:copy(s.rbb, s.rbb[n:])]
	}
}

// Step executes one instruction (or triggers a pending fault detection).
// An attached Progress receives the step's counts in batches (publishDue).
func (s *Sim) Step() error {
	err := s.step()
	if s.progress != nil {
		s.publishDue(err)
	}
	return err
}

func (s *Sim) step() error {
	if s.halted {
		return nil
	}
	if s.Stats.Insts >= s.Cfg.MaxInsts {
		return fmt.Errorf("pipeline: instruction limit %d exceeded", s.Cfg.MaxInsts)
	}
	s.processVerifications()
	if s.cycle >= s.nextDetectAt() {
		return s.fireDetections()
	}
	if s.PC < 0 || s.PC >= len(s.Prog.Insts) {
		return fmt.Errorf("pipeline: PC %d out of range", s.PC)
	}
	in := &s.Prog.Insts[s.PC]

	// Region boundaries are compiler metadata the RBB recognizes by PC —
	// they occupy no fetch slot, no issue slot, and no instruction count
	// (the paper's boundaries add no instructions to the binary).
	if in.Op == isa.BOUND {
		if err := s.commitBound(in, s.cycle); err != nil {
			return err
		}
		s.PC++
		s.Stats.Cycles = s.cycle
		return nil
	}

	// Fetch: instruction cache.
	if lat := s.hier.InstAccess(uint64(s.PC) * 4); lat > 0 {
		if s.obs != nil {
			s.obsFetchMiss(lat)
		}
		s.advanceTo(s.cycle+uint64(lat), &s.Stats.FetchStalls)
	}

	// Issue: operand readiness (full forwarding — ready cycle is when the
	// producing instruction's result is available).
	start := s.cycle
	var usebuf [3]isa.Reg
	uses := in.Uses(usebuf[:0])
	for _, r := range uses {
		if s.regReady[r] > start {
			start = s.regReady[r]
		}
	}
	if start > s.cycle {
		if s.obs != nil {
			s.obsDataStall(start)
		}
		s.advanceTo(start, &s.Stats.DataStalls)
	}
	// Dual-issue slot accounting.
	if s.slots >= s.Cfg.IssueWidth {
		s.advanceTo(s.cycle+1, nil)
	}
	s.slots++
	start = s.cycle

	s.Stats.Insts++
	if !s.inRecovery {
		s.netInsts++
	}
	if r := s.cur(); r != nil && !s.inRecovery {
		r.insts++
	} else if s.Cfg.Resilient {
		s.Stats.OutsideRegionInsts++
	}
	next := s.PC + 1

	switch {
	case in.Op == isa.HALT:
		if s.Cfg.Resilient && len(s.pendingDetects) > 0 {
			// The program cannot retire with sensor events in flight:
			// either a detection aborts the halt into recovery (a
			// corrupted value may even be what steered execution here),
			// or — for a late detection whose region already verified —
			// the event must still be adjudicated (DUE or dropped)
			// before the machine may claim a clean exit.
			if at := s.nextDetectAt(); at > s.cycle {
				s.advanceTo(at, nil)
			}
			return s.fireDetections()
		}
		s.halted = true
		if s.Cfg.Resilient {
			// The last region's verification tail is real time: the core
			// cannot retire the program's final stores to cache earlier.
			s.advanceTo(s.cycle+uint64(s.Cfg.WCDL), nil)
			if r := s.cur(); r != nil {
				s.closeRegion(r, s.cycle, s.cycle) // program over; window degenerate
			}
			s.processVerifications()
		}
		s.drain(infCycle - 1)
		if s.sb.lastDrain > s.cycle {
			s.cycle = s.sb.lastDrain
		}
		s.Stats.Cycles = s.cycle
		return nil

	case in.Op == isa.NOP:

	case in.Op == isa.MOVI:
		s.Regs[in.Rd] = uint64(in.Imm)
		s.Taint[in.Rd] = false
		s.regReady[in.Rd] = start + 1

	case in.Op == isa.MOV:
		s.Regs[in.Rd] = s.Regs[in.Rs1]
		s.Taint[in.Rd] = s.Taint[in.Rs1]
		s.regReady[in.Rd] = start + 1

	case in.Op.IsALU():
		b := s.Regs[in.Rs2]
		taint := s.Taint[in.Rs1]
		if in.HasImm {
			b = uint64(in.Imm)
		} else {
			taint = taint || s.Taint[in.Rs2]
		}
		s.Regs[in.Rd] = isa.ALUOp(in.Op, s.Regs[in.Rs1], b)
		s.Taint[in.Rd] = taint
		s.regReady[in.Rd] = start + uint64(in.Op.ExLatency())

	case in.Op == isa.LD:
		addr := s.Regs[in.Rs1] + uint64(in.Imm)
		if s.Taint[in.Rs1] {
			// Parity on the address register trips before the access.
			return s.parityTrip()
		}
		var lat int
		if v, ok := s.sb.forward(addr); ok {
			s.Regs[in.Rd] = v
			lat = s.hier.L1D.HitLatency() // forwarding at L1-hit time
			s.hier.TouchData(addr)        // keep cache state warm
		} else {
			s.Regs[in.Rd] = s.Mem.Load(addr)
			lat = s.hier.DataAccess(addr)
			if s.obs != nil {
				s.obsLoadAccess(addr, lat)
			}
		}
		s.Taint[in.Rd] = false
		s.regReady[in.Rd] = start + uint64(lat)
		if s.Cfg.Resilient && s.clq != nil && s.clqEnabled && !s.inRecovery {
			if r := s.cur(); r != nil && !s.clq.noteLoad(r.id, addr) {
				// Overflow: disable fast release and wipe (Fig. 13).
				s.clqEnabled = false
				s.clq.clearAll()
				s.Stats.CLQOverflows++
			}
		}

	case in.Op == isa.ST:
		if s.Taint[in.Rs1] {
			return s.parityTrip()
		}
		addr := s.Regs[in.Rs1] + uint64(in.Imm)
		recovered, err := s.commitStore(in, addr, s.Regs[in.Rs2], false, 0)
		if err != nil {
			return err
		}
		if recovered {
			return nil // PC already redirected to the recovery block
		}

	case in.Op == isa.CKPT:
		recovered, err := s.commitCkpt(in)
		if err != nil {
			return err
		}
		if recovered {
			return nil
		}

	case in.Op == isa.RESTORE:
		// Recovery-block load from the verified checkpoint slot.
		color := 0
		if vc := s.colors.verified(in.Rd); vc >= 0 {
			color = vc
		}
		addr := s.Prog.CkptSlot(in.Rd, color)
		if v, ok := s.sb.forward(addr); ok {
			s.Regs[in.Rd] = v
		} else {
			s.Regs[in.Rd] = s.Mem.Load(addr)
		}
		lat := s.hier.DataAccess(addr)
		s.Taint[in.Rd] = false
		s.regReady[in.Rd] = start + uint64(lat)

	case in.Op == isa.JMP:
		next = in.Target
		if s.inRecovery && s.Prog.Insts[next].Op == isa.BOUND {
			// Jumping back into the program body ends the recovery block.
			s.inRecovery = false
		}

	case in.Op.IsCondBranch():
		b := s.Regs[in.Rs2]
		if in.HasImm {
			b = uint64(in.Imm)
		}
		taken := isa.BranchTaken(in.Op, s.Regs[in.Rs1], b)
		if taken {
			next = in.Target
		}
		// Bimodal predictor: 2-bit counter per branch PC.
		ctr := s.predictor[s.PC]
		predictTaken := ctr >= 2
		if predictTaken != taken {
			if s.obs != nil {
				s.obsMispredict()
			}
			s.advanceTo(s.cycle+uint64(s.Cfg.BranchPenalty), &s.Stats.BranchBubbles)
		}
		if taken && ctr < 3 {
			s.predictor[s.PC] = ctr + 1
		} else if !taken && ctr > 0 {
			s.predictor[s.PC] = ctr - 1
		}

	default:
		return fmt.Errorf("pipeline: unimplemented op %v at %d", in.Op, s.PC)
	}

	if !s.halted {
		s.PC = next
	}
	s.Stats.Cycles = s.cycle
	return nil
}

// commitBound closes the current region and opens the next RBB entry.
func (s *Sim) commitBound(in *isa.Inst, now uint64) error {
	if !s.Cfg.Resilient {
		return nil // boundaries are inert without resilience hardware
	}
	if r := s.cur(); r != nil {
		s.closeRegion(r, now, now+uint64(s.Cfg.WCDL))
	}
	// Degradation controller: a region boundary is the recalibration
	// point — once the degrade window has elapsed with no further late
	// detections, the mesh is trusted again and fast release resumes
	// for regions opened from here on.
	if s.degradedUntil != 0 && now >= s.degradedUntil {
		s.degradedUntil = 0
		s.Stats.DegradeExits++
		if s.obs != nil {
			s.obs.Tracer.Instant(trackSensor, "mesh", "recalibrated", now, nil)
		}
	}
	// RBB capacity: stall until the oldest region verifies.
	for len(s.rbb) >= s.Cfg.RBBSize {
		oldest := &s.rbb[0]
		if oldest.verifyAt == infCycle {
			return fmt.Errorf("pipeline: RBB wedged (open region at head)")
		}
		s.advanceTo(oldest.verifyAt, &s.Stats.RBBFullStalls)
		now = s.cycle
	}
	s.rbb = append(s.rbb, regionInst{id: s.nextRegion, staticID: int(in.Imm), boundPC: s.PC, start: now, verifyAt: infCycle})
	s.nextRegion++
	s.Stats.RegionsExecuted++
	// Fig. 13's selective control, with the paper's in-order-release
	// condition: after an overflow, CLQ insertion resumes only at a region
	// start once every prior region is verified (rbb holds just the new
	// region) — otherwise older unverified regions would have unrecorded
	// loads and the WAR check would be unsound.
	if s.clq != nil && !s.clqEnabled && len(s.rbb) == 1 {
		s.clqEnabled = true
	}
	// Sample CLQ occupancy at boundaries (Fig. 24).
	if s.clq != nil {
		occ := s.clq.occupancy()
		s.Stats.CLQOccSamples++
		s.Stats.CLQOccSum += uint64(occ)
		if uint64(occ) > s.Stats.CLQOccMax {
			s.Stats.CLQOccMax = uint64(occ)
		}
		if s.obs != nil && s.obs.clqOcc != nil {
			s.obs.clqOcc.Observe(uint64(occ))
		}
	}
	return nil
}

// degradedHeadroom reports whether the store buffer can take one more
// quarantined entry of a still-open region without risking a wedge: the
// buffer must keep at least one slot free of entries that cannot drain
// until an open region closes, or a Turnpike-partitioned region (sized
// for fast release, not for Turnstile quarantine) could fill the SB with
// undrainable stores and deadlock the pipeline.
func (s *Sim) degradedHeadroom() bool {
	n := 0
	for i := range s.sb.entries {
		if s.sb.entries[i].pendingVerifyAt() == infCycle {
			n++
		}
	}
	return n < s.Cfg.SBSize-1
}

// reserveSBSlot stalls until the store buffer has a free entry, sizing the
// stall from pending verification events. When a fault detection fires
// before the hazard resolves, it triggers recovery and reports
// recovered=true — the store never commits and will re-execute.
func (s *Sim) reserveSBSlot() (recovered bool, err error) {
	s.drain(s.cycle)
	for s.sb.len() >= s.Cfg.SBSize {
		t := s.sb.nextEventAt()
		if t == infCycle {
			return false, s.sb.wedgedError()
		}
		if at := s.nextDetectAt(); t >= at {
			// The sensors fire before the structural hazard resolves.
			// recovered=true either way: the store did not commit and
			// re-executes (immediately, if the detection was dropped).
			s.advanceTo(at, &s.Stats.SBFullStalls)
			return true, s.fireDetections()
		}
		if t > s.cycle {
			s.advanceTo(t, &s.Stats.SBFullStalls)
		} else {
			s.advanceTo(s.cycle+1, &s.Stats.SBFullStalls)
		}
		s.drain(s.cycle)
	}
	return false, nil
}

// drain retires the store buffer's drainable entries up to cycle now.
func (s *Sim) drain(now uint64) {
	s.sb.drainUntil(now, s.Mem, s.unverifiedFrom(), s.obs)
}

// commitStore pushes a regular (program/spill) store or a checkpoint that
// fell back to quarantine. recovered=true means a fault detection fired
// during the structural stall and the store did not commit.
func (s *Sim) commitStore(in *isa.Inst, addr, val uint64, isCkpt bool, ckptReg isa.Reg) (recovered bool, err error) {
	// Structural hazard: wait for a free SB slot.
	if recovered, err := s.reserveSBSlot(); recovered || err != nil {
		return recovered, err
	}
	switch in.Kind {
	case isa.StoreProgram:
		s.Stats.ProgStores++
	case isa.StoreSpill:
		s.Stats.SpillStores++
	case isa.StoreCheckpoint:
		s.Stats.CkptStores++
	}

	cur := s.cur()
	quarantine := s.Cfg.Resilient
	if quarantine && !isCkpt && s.clq != nil && s.clqEnabled && cur != nil && !s.inRecovery {
		if s.degraded() && s.degradedHeadroom() {
			// Degradation controller: the WCDL bound is in doubt, so
			// hold the store in quarantine (Turnstile-style) as long as
			// the SB has headroom. Regions partitioned for Turnpike can
			// out-store the SB, so under pressure the controller yields
			// back to the WAR-free release below — forward progress
			// over conservatism, and the release itself is still sound
			// for timely detections.
		} else if s.clq.warFree(addr) {
			// Fast release of WAR-free regular stores (§4.3.1), guarded
			// by the forwarding-CAM WAW check for same-address ordering.
			if s.sb.hasOlderSameAddr(addr) {
				s.Stats.WAWBlocked++
			} else {
				quarantine = false
				s.Stats.WARFreeReleased++
				cur.warFree++
			}
		}
	}
	if quarantine {
		s.Stats.Quarantined++
		if cur != nil {
			cur.quarantined++
		} else {
			s.Stats.OutsideRegionStores++
		}
		s.sb.push(sbEntry{addr: addr, val: val, quarantined: true, region: regionID(cur),
			isCkpt: isCkpt, ckptReg: ckptReg, commitAt: s.cycle}, s.obs)
	} else {
		// Applied architecturally at commit; the SB entry models drain
		// bandwidth only.
		s.Mem.Store(addr, val)
		s.sb.push(sbEntry{addr: addr, val: val, region: noRegion, commitAt: s.cycle}, s.obs)
	}
	if s.obs != nil {
		s.obsCommitStore(addr, quarantine, isCkpt)
	}
	// Charge the L1 write access for cache-state realism.
	s.hier.TouchData(addr)
	return false, nil
}

// commitCkpt handles a checkpoint store: colored fast release when
// enabled, else quarantine to the register's slot 0.
func (s *Sim) commitCkpt(in *isa.Inst) (recovered bool, err error) {
	r := in.Rs2
	val := s.Regs[r]
	if s.Cfg.Resilient && s.Cfg.HWColoring && s.cur() != nil && !s.inRecovery {
		color := s.colors.acquire(r)
		for color < 0 {
			// Color pool dry: stall until the next verification event
			// reclaims one (rare; bounded by in-flight regions).
			if len(s.rbb) == 0 || s.rbb[0].verifyAt == infCycle {
				return false, fmt.Errorf("pipeline: color pool wedged for %v", r)
			}
			t := s.rbb[0].verifyAt
			if at := s.nextDetectAt(); t >= at {
				s.advanceTo(at, &s.Stats.ColorStalls)
				return true, s.fireDetections()
			}
			s.advanceTo(t, &s.Stats.ColorStalls)
			color = s.colors.acquire(r)
		}
		if recovered, err := s.reserveSBSlot(); recovered || err != nil {
			if recovered {
				// The store never committed; the color was not recorded in
				// UC yet, so hand it straight back.
				s.colors.squash(r, color)
			}
			return recovered, err
		}
		// The stalls may have verified older regions, moving the open one
		// down the RBB.
		cur := s.cur()
		if cur.colors.has(r) {
			// Second checkpoint of r in one region: the earlier color is
			// superseded; reclaim it immediately.
			s.colors.squash(r, cur.colors.of(r))
		}
		cur.colors.set(r, color)
		addr := s.Prog.CkptSlot(r, color)
		s.Stats.CkptStores++
		if s.degraded() && s.degradedHeadroom() {
			// Degradation controller: the mesh recently delivered a late
			// detection, so the WCDL bound underpinning colored fast
			// release cannot be trusted. Keep the coloring bookkeeping
			// (RESTORE's verified-color lookup must stay consistent) but
			// hold the value in quarantine until the region verifies —
			// unless the SB is out of headroom (see commitStore).
			s.Stats.Quarantined++
			cur.quarantined++
			s.sb.push(sbEntry{addr: addr, val: val, quarantined: true, region: cur.id,
				isCkpt: true, ckptReg: r, commitAt: s.cycle}, s.obs)
			if s.obs != nil {
				s.obsCommitStore(addr, true, true)
			}
			s.hier.TouchData(addr)
			return false, nil
		}
		// Fast release: SB entry for bandwidth, memory applied at commit.
		s.Mem.Store(addr, val)
		s.sb.push(sbEntry{addr: addr, val: val, region: noRegion, commitAt: s.cycle}, s.obs)
		s.hier.TouchData(addr)
		s.Stats.ColoredReleased++
		cur.colored++
		if s.obs != nil {
			s.obsCommitCkptColored(addr, color)
		}
		return false, nil
	}
	// No coloring: quarantine to slot 0 like any store.
	addr := s.Prog.CkptSlot(r, 0)
	return s.commitStore(in, addr, val, true, r)
}
