package pipeline

import (
	"bytes"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/isa"
)

// The trial driver. RunTrial resumes a fault trial from the last epoch
// before its first fault event (epoch.go), fires its events and
// compares it with the warm golden run at the epoch boundaries it
// reaches.
//
// Reconvergence cut-off. Recovery squashes the unverified regions and
// re-executes them from the last verified boundary, so a recovered trial
// is soon the golden run again, a few cycles late. Once a trial whose
// fault events have all fired is equivalent to the golden run at an
// epoch, RunTrial stops simulating: the trial's future is the golden
// run's from that epoch, shifted in time, so its outcome is the golden
// outcome and its statistics are its own so far plus the golden suffix.
// DESIGN.md §3 ("Reconvergence cut-off") gives the soundness argument
// for every difference the comparison allows.
//
// Between two fault events RunTrial makes the same comparison, strictly,
// and on a match jumps the trial across the golden run to the last
// epoch before its next event (DESIGN.md §3, "Jumping between fault
// events").

// ckptBytes is the size of the checkpoint storage window at
// Program.CkptBase.
const ckptBytes = isa.NumRegs * isa.NumColors * 8

// Shadow is what RunTrial compares a trial's memory and caches with: a
// memory image and a cache hierarchy that it rebuilds, from the golden
// state's deltas, as they were at the epoch the trial has reached, and
// the two hierarchies the cache replay runs on. Each campaign worker
// owns one.
type Shadow struct {
	g    *GoldenState
	mem  *isa.Memory
	hier *cache.Hierarchy
	at   int // epochs replayed since the last rebuild from the image, -1 before the first
	// scratch is a copy of the trial's caches that the replay runs the
	// golden accesses on; future holds the golden caches at the epochs
	// the replay reaches; img carries the copies.
	scratch, future *cache.Hierarchy
	img             cache.Image

	// Counts tallies the trials RunTrial ran with the shadow.
	Counts CutCounts
}

// CutCounts tallies trials, in the order of fault.CutCounters: the
// trials cut; the reconvergence comparisons made for cuts and jumps,
// and how many each check rejected, counted by the first check that
// failed: a pending detection, recovery block, degraded mesh, taint or
// the instruction limit (Pending), the state value, memory, or the
// caches. A cut's cache comparison that fails directly is decided by
// the cache replay: Replayed counts the cuts it decided, Mismatches the
// replays refused at an access served at another level. Jumps counts
// the jumps between fault events, Jumped the instructions they skipped.
// Resumed, Before and After count the instructions the trials resumed
// past, stepped before their last event fired (or they halted) and
// simulated after it; a trial that ends in an error before its last
// event adds to none of them, nor to Cuts. Every count is a sum over
// trials of a pure function of the trial.
type CutCounts struct {
	Cuts                          uint64
	Comparisons                   uint64
	Pending, State, Memory, Cache uint64
	Replayed, Mismatches          uint64
	Jumps, Jumped                 uint64
	Resumed, Before, After        uint64
}

// NewShadow builds a Shadow for g's trials. It holds nothing until a
// trial is first compared with an epoch.
func (g *GoldenState) NewShadow() (*Shadow, error) {
	var hier [3]*cache.Hierarchy
	for i := range hier {
		h, err := newHierarchy(g.cfg)
		if err != nil {
			return nil, err
		}
		hier[i] = h
	}
	mem := isa.NewMemory()
	mem.Reserve(g.memSpan, g.memOwned)
	sh := &Shadow{g: g, mem: mem, hier: hier[0], scratch: hier[1], future: hier[2], at: -1}
	sh.hier.Snapshot(&sh.img) // sizes the image, so the replay allocates nothing
	return sh, nil
}

// moveTo rebuilds the shadow at epoch k: forward from the epoch it
// holds, or from the golden image when that lies beyond k.
func (sh *Shadow) moveTo(k int) {
	g := sh.g
	if sh.at < 0 || sh.at > k+1 {
		sh.mem.ResetTo(g.init)
		sh.hier.Restore(&g.img)
		sh.at = 0
	}
	g.replay(sh.mem, sh.hier, sh.at, k+1)
	sh.at = k + 1
}

// Event is one fault event of a trial: a flip of bit Bit of register
// Reg or, with Spurious, a detection with no strike, that fires once At
// instructions have retired and is detected Latency cycles later.
type Event struct {
	At       uint64
	Reg      isa.Reg
	Bit      uint
	Latency  int
	Spurious bool
}

// fire injects ev into s now.
func (s *Sim) fire(ev *Event) error {
	if ev.Spurious {
		return s.InjectFalseDetection(ev.Latency)
	}
	return s.InjectBitFlip(ev.Reg, ev.Bit, ev.Latency)
}

// RunTrial runs the fault trial of evs, ordered by At and not empty, on
// s, a simulator forked from g, to halt, like Run. It resumes s at the
// last epoch at or before evs[0].At (resetAt) and fires each event once
// s's Stats.Insts reaches its At: an event due after s halts never
// fires, and one that fails to fire ends the trial with its error.
//
// On the way it compares s with g's epochs through sh, a Shadow of g's,
// at every step boundary where s's golden-equivalent progress reaches
// an epoch's instruction count. Before the last event fires, where a
// later epoch would still leave s at or before the next event, it
// compares s with the epoch strictly; on a match it moves s at once to
// the last such epoch, and s holds what stepping there would have left
// it with (jump), so the events fire as on a trial that stepped. After
// the last event, on a match it stops and returns, with cut = true, the
// statistics the run to halt would have returned; the output of a cut
// trial equals the golden output. s is then left at the boundary where
// it stopped, not halted, and must be Reset before it runs again. An
// attached Progress receives the same totals as from a run to halt from
// the start.
//
// RunTrial counts the trial in sh.Counts. It never compares without a
// shadow or epochs, with an observability attachment (AttachObs), with
// which it also runs s from the start, or with Config.RecordRegions,
// whose traces and logs must cover the whole run, nor while a detection
// is pending, a recovery block runs, the mesh is degraded or a register
// is tainted.
func (g *GoldenState) RunTrial(s *Sim, sh *Shadow, evs []Event) (st Stats, cut bool, err error) {
	g.resetAt(s, evs[0].At)
	return g.run(s, sh, evs)
}

// run is RunTrial from where s stands, at a step boundary with none of
// evs fired.
func (g *GoldenState) run(s *Sim, sh *Shadow, evs []Event) (st Stats, cut bool, err error) {
	compare := g.compares(s, sh)
	resumed, last, jumped := s.Stats.Insts, uint64(0), uint64(0)
	next, k, check := 0, 0, false
	for !s.halted {
		for next < len(evs) && s.Stats.Insts >= evs[next].At {
			if err := s.fire(&evs[next]); err != nil {
				s.FlushProgress() // the run ends here, between batches
				return s.Stats, false, err
			}
			next, last, check = next+1, s.Stats.Insts, false
		}
		if check {
			var at bool
			k, at = g.epochAt(s, k)
			if at && next == len(evs) && g.reconverged(s, sh, k, g.epochs[k].suffix.Insts, false) {
				cut = true
				break
			}
			if at && next < len(evs) {
				if j := g.landing(s, k, evs[next].At); j > k &&
					g.reconverged(s, sh, k, g.epochs[j].insts-g.epochs[k].insts, true) {
					jumped += g.jump(s, sh, k, j)
					k, check = j, false
					continue
				}
			}
		}
		net := s.netInsts
		err = s.step()
		if s.progress != nil {
			s.publishDue(err)
		}
		if err != nil {
			if next < len(evs) {
				return s.Stats, false, err
			}
			break
		}
		check = compare && s.netInsts != net
	}
	if sh != nil {
		if next < len(evs) {
			last = s.Stats.Insts // halted before its last event
		}
		c := &sh.Counts
		c.Resumed += resumed
		c.Before += last - resumed - jumped
		c.After += s.Stats.Insts - last
		if cut {
			c.Cuts++
		}
	}
	st = s.Stats
	if cut {
		e := &g.epochs[k]
		st.Merge(&e.suffix)
		st.Cycles = s.cycle + e.suffix.Cycles
		if s.progress != nil {
			own := s.Stats
			s.Stats = st
			s.publishProgress()
			s.Stats = own
		}
	}
	return st, cut, err
}

// compares reports whether RunTrial may compare s with g's epochs
// through sh.
func (g *GoldenState) compares(s *Sim, sh *Shadow) bool {
	return sh != nil && sh.g == g && len(g.epochs) > 0 && s.obs == nil && !s.Cfg.RecordRegions
}

// epochAt returns the first epoch from k on, searching either way,
// whose instruction count s's golden-equivalent progress has not
// passed, and whether s is at that count.
func (g *GoldenState) epochAt(s *Sim, k int) (int, bool) {
	for k > 0 && g.epochs[k-1].insts >= s.netInsts {
		k--
	}
	for k < len(g.epochs) && g.epochs[k].insts < s.netInsts {
		k++
	}
	return k, k < len(g.epochs) && g.epochs[k].insts == s.netInsts
}

// landing returns the last epoch j ≥ k that s, at epoch k, reaches with
// Stats.Insts at most inst: a trial that follows the golden run from k
// retires what it retires between the epochs.
func (g *GoldenState) landing(s *Sim, k int, inst uint64) int {
	limit := g.epochs[k].insts + inst - s.Stats.Insts
	j := k
	for j+1 < len(g.epochs) && g.epochs[j+1].insts <= limit {
		j++
	}
	return j
}

// jump moves s, which matched epoch k strictly, to epoch j > k. It
// takes the golden memory at j and the golden state value at j, with
// the value's cycles, region ids and store-buffer sequence numbers
// shifted by s's offsets at k. Its caches take the golden sets the run
// touches from k to j and keep their own of the rest. It keeps its own
// Stats plus what the golden run gained from k to j, with CLQOccMax the
// largest occupancy sampled in between, its own lastRestart, and its
// own value and ready cycle of every register the golden run does not
// write from k to j. That is the state stepping from k would reach: a
// strict match steps as the golden run does, shifted, and leaves what
// it does not write as it was. DESIGN.md §3 ("Jumping between fault
// events") gives the argument. It returns the instructions jumped.
func (g *GoldenState) jump(s *Sim, sh *Shadow, k, j int) uint64 {
	from, to := &g.epochs[k].state, &g.epochs[j].state
	d, dr, ds := s.cycle-from.cycle, s.nextRegion-from.nextRegion, s.sb.seq-from.sb.seq
	span := statsSince(&to.Stats, &from.Stats)
	span.CLQOccMax = 0
	var written isa.RegBitmap
	for i := k; i < j; i++ {
		span.CLQOccMax = max(span.CLQOccMax, g.epochs[i].clqMax)
		written |= g.epochs[i+1].written
	}
	st := s.Stats
	st.Merge(&span)
	regs, ready, restart := s.Regs, s.regReady, s.lastRestart

	g.replay(s.Mem, s.hier, k+1, j+1)
	s.copyFrom(to)
	s.shift(d, dr, ds)
	for r := range isa.Reg(isa.NumRegs) {
		if !written.Has(r) {
			s.Regs[r], s.regReady[r] = regs[r], ready[r]
		}
	}
	s.Stats, s.lastRestart = st, restart
	sh.Counts.Jumps++
	sh.Counts.Jumped += span.Insts
	return span.Insts
}

// shift moves the state value's cycles by d, its region ids by dr and
// its store-buffer sequence numbers by ds, keeping the sentinels (an
// open region's end 0, infCycle, noRegion); a golden state value holds
// no pending detection or degraded mesh.
func (st *simState) shift(d uint64, dr int, ds uint64) {
	st.cycle += d
	for r := range st.regReady {
		st.regReady[r] += d
	}
	st.nextRegion += dr
	for i := range st.rbb {
		x := &st.rbb[i]
		x.id += dr
		x.start += d
		if x.end != 0 {
			x.end += d
		}
		if x.verifyAt != infCycle {
			x.verifyAt += d
		}
	}
	st.sb.lastDrain += d
	st.sb.seq += ds
	for i := range st.sb.entries {
		x := &st.sb.entries[i]
		x.commitAt += d
		x.seq += ds
		if x.region != noRegion {
			x.region += dr
		}
		if x.verifyAt != infCycle {
			x.verifyAt += d
		}
	}
	for i := range st.compact.entries {
		if x := &st.compact.entries[i]; x.used {
			x.region += dr
		}
	}
}

// reconverged reports whether s, at golden-equivalent progress
// epochs[k].insts, is equivalent to the warm golden run at epoch k, with
// skip more instructions to retire than s has (the golden suffix for a
// cut, the span for a jump), and counts the comparison in sh.Counts.
// For a cut, equivalent means the run to halt from either state behaves
// identically, up to a constant cycle offset. For a jump (strict), a
// later fault event may roll s back and re-read anything the jump
// takes from the golden run, so colours are not renamed and the
// checkpoint window is compared; and no cache replay decides the
// caches, because it shows the golden accesses served alike, not the
// sets they touch left alike, and the jump takes those sets.
func (g *GoldenState) reconverged(s *Sim, sh *Shadow, k int, skip uint64, strict bool) bool {
	e := &g.epochs[k]
	c := &sh.Counts
	c.Comparisons++
	if len(s.pendingDetects) > 0 || s.inRecovery || s.degradedUntil != 0 ||
		s.Taint != [isa.NumRegs]bool{} || s.Stats.Insts+skip >= s.Cfg.MaxInsts {
		c.Pending++
		return false
	}
	if !g.sameState(&s.simState, &e.state, strict) {
		c.State++
		return false
	}
	sh.moveTo(k)
	var lo, hi uint64
	if g.renameCkpt && !strict {
		lo, hi = g.prog.CkptBase, g.prog.CkptBase+ckptBytes
	}
	switch {
	case !s.Mem.EqualMasked(sh.mem, lo, hi, lo, hi):
		c.Memory++
		return false
	case s.hier.Equivalent(sh.hier, &g.setClocks):
		return true
	case !strict && sh.replay(s.hier, k):
		c.Replayed++
		return true
	}
	c.Cache++
	return false
}

// replay decides the caches of a trial whose state and memory match
// epoch k while its caches, hier, do not match the golden ones. It runs
// the golden run's accesses from epoch k on through a copy of hier and
// reports whether each is served at the level the golden run recorded
// until the copy is equivalent to the golden caches at a later epoch,
// or until halt. It leaves hier and the shadow's epoch as they were.
// DESIGN.md §3 ("Cache sets the golden run touches again") gives the
// argument.
func (sh *Shadow) replay(hier *cache.Hierarchy, k int) bool {
	g, es := sh.g, sh.g.epochs
	from := es[k].access
	if from < 0 {
		return false
	}
	hier.Snapshot(&sh.img)
	sh.scratch.Restore(&sh.img)
	for j := k + 1; j < len(es) && es[j].access >= 0; j++ {
		if !sh.replayTo(from, es[j].access) {
			return false
		}
		from = es[j].access
		if j == k+1 {
			sh.hier.Snapshot(&sh.img)
			sh.future.Restore(&sh.img)
		}
		sh.future.Apply(&es[j].caches)
		if sh.scratch.Equivalent(sh.future, &g.setClocks) {
			return true
		}
	}
	// Past the last epoch the stream runs to halt, unless it was cut
	// short, beyond which nothing is known.
	return !g.stream.Short() && sh.replayTo(from, g.stream.Len())
}

// replayTo runs the golden accesses [from, to) on the scratch
// hierarchy, reporting whether each was served at its recorded level.
func (sh *Shadow) replayTo(from, to int) bool {
	if sh.scratch.Replay(sh.g.stream, from, to) != to {
		sh.Counts.Mismatches++
		return false
	}
	return true
}

// sameState compares a trial's state value a with the golden run's b
// at an epoch; reconverged compares memory and caches. It allows
// exactly these differences:
//   - every cycle is offset by d = a.cycle - b.cycle, and a register's
//     ready cycle counts only as its distance past the current cycle;
//   - region ids are offset by the regions opened, store-buffer
//     sequence numbers by the stores committed;
//   - registers dead before the PC may hold anything;
//   - CLQ entries may sit in other slots;
//   - with renameCkpt, each register's colours may be renamed, as long
//     as one renaming maps the free stacks, the verified colours, the
//     RBB regions' used colours and the checkpoint slots the store
//     buffer holds onto the golden run's.
//
// Strict, for a jump, renames no colour and also requires each RBB
// region to have retired as many instructions, which a later squash
// takes back from netInsts.
func (g *GoldenState) sameState(a, b *simState, strict bool) bool {
	if a.PC != b.PC || a.slots != b.slots || a.clqEnabled != b.clqEnabled ||
		len(a.sb.entries) != len(b.sb.entries) || len(a.rbb) != len(b.rbb) ||
		!bytes.Equal(a.predictor, b.predictor) {
		return false
	}
	d := a.cycle - b.cycle
	live := g.live[a.PC]
	for r := range isa.NumRegs {
		if live.Has(isa.Reg(r)) && (a.Regs[r] != b.Regs[r] ||
			pastCycle(a.regReady[r], a.cycle) != pastCycle(b.regReady[r], b.cycle)) {
			return false
		}
	}
	rn := renaming{on: !strict && g.renameCkpt && g.cfg.Resilient && g.cfg.HWColoring}
	for r := range isa.Reg(isa.NumRegs) {
		n := a.colors.nfree[r]
		if n != b.colors.nfree[r] || (a.colors.vc[r] < 0) != (b.colors.vc[r] < 0) {
			return false
		}
		for i := range n {
			if !rn.bind(r, a.colors.free[r][i], b.colors.free[r][i]) {
				return false
			}
		}
		if a.colors.vc[r] >= 0 && !rn.bind(r, a.colors.vc[r], b.colors.vc[r]) {
			return false
		}
	}
	dr := a.nextRegion - b.nextRegion
	for i := range a.rbb {
		x, y := &a.rbb[i], &b.rbb[i]
		if x.id != y.id+dr || x.staticID != y.staticID || x.boundPC != y.boundPC ||
			!shifted(x.end, y.end, d, 0) || !shifted(x.verifyAt, y.verifyAt, d, infCycle) ||
			x.colors.regs != y.colors.regs || (strict && x.insts != y.insts) {
			return false
		}
		for regs := x.colors.regs; regs != 0; regs &= regs - 1 {
			r := isa.Reg(bits.TrailingZeros64(regs))
			if !rn.bind(r, x.colors.color[r], y.colors.color[r]) {
				return false
			}
		}
	}
	if a.sb.lastDrain != b.sb.lastDrain+d {
		return false
	}
	ds := a.sb.seq - b.sb.seq
	for i := range a.sb.entries {
		x, y := &a.sb.entries[i], &b.sb.entries[i]
		if x.val != y.val || x.quarantined != y.quarantined || x.commitAt != y.commitAt+d ||
			x.seq != y.seq+ds || !shiftedID(x.region, y.region, dr) ||
			!shifted(x.verifyAt, y.verifyAt, d, infCycle) || !g.sameSlot(&rn, x.addr, y.addr) {
			return false
		}
	}
	return sameCLQ(a.compact.entries, b.compact.entries, dr)
}

// pastCycle returns how many cycles after now c lies, 0 if not after.
func pastCycle(c, now uint64) uint64 {
	if c > now {
		return c - now
	}
	return 0
}

// shifted reports whether the trial's cycle a is the golden b shifted
// by d; the sentinel value none matches only itself.
func shifted(a, b, d, none uint64) bool {
	if b == none {
		return a == none
	}
	return a == b+d
}

// shiftedID reports whether the trial's region id a is the golden b
// offset by dr; noRegion matches only itself.
func shiftedID(a, b, dr int) bool {
	if b == noRegion {
		return a == noRegion
	}
	return a == b+dr
}

// sameSlot reports whether the trial's store address a is the golden
// b: equal, or, when both are checkpoint slots and colours are renamed,
// the same register's slot under the renaming.
func (g *GoldenState) sameSlot(rn *renaming, a, b uint64) bool {
	lo := g.prog.CkptBase
	if !rn.on || a < lo || a >= lo+ckptBytes || (a-lo)%8 != 0 {
		return a == b
	}
	slot := (a - lo) / 8
	r, c := isa.Reg(slot/isa.NumColors), rn.to[slot/isa.NumColors][slot%isa.NumColors]
	return c > 0 && b == g.prog.CkptSlot(r, int(c-1))
}

// sameCLQ reports whether the trial's compact CLQ entries a hold the
// golden b's used entries in any slots, with region ids offset by dr.
func sameCLQ(a, b []compactEntry, dr int) bool {
	n := 0
	for i := range a {
		if !a[i].used {
			continue
		}
		n++
		want := compactEntry{region: a[i].region - dr, min: a[i].min, max: a[i].max, used: true}
		found := false
		for j := range b {
			found = found || b[j] == want
		}
		if !found {
			return false
		}
	}
	for i := range b {
		if b[i].used {
			n--
		}
	}
	return n == 0
}

// renaming is a per-register bijection from the trial's colours to the
// golden run's, built up as sameState walks the colour state; to and
// from hold a colour plus one, 0 while unbound. Without renaming every
// colour must map to itself.
type renaming struct {
	on       bool
	to, from [isa.NumRegs][isa.NumColors]int8
}

// bind maps r's trial colour a to golden colour b, reporting whether
// that agrees with the renaming so far.
func (rn *renaming) bind(r isa.Reg, a, b int8) bool {
	if !rn.on {
		return a == b
	}
	if rn.to[r][a] == 0 && rn.from[r][b] == 0 {
		rn.to[r][a], rn.from[r][b] = b+1, a+1
	}
	return rn.to[r][a] == b+1
}
