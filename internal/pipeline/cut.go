package pipeline

import (
	"bytes"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/isa"
)

// Reconvergence cut-off. Recovery squashes the unverified regions and
// re-executes them from the last verified boundary, so a recovered trial
// is soon the golden run again, a few cycles late. RunCut compares a
// trial whose fault events have all fired with the warm golden run at
// each epoch boundary, and once the two states are equivalent it stops
// simulating: the trial's future is the golden run's from that epoch,
// shifted in time, so its outcome is the golden outcome and its
// statistics are its own so far plus the golden suffix. DESIGN.md §3
// ("Reconvergence cut-off") gives the soundness argument for every
// difference the comparison allows.

// ckptBytes is the size of the checkpoint storage window at
// Program.CkptBase.
const ckptBytes = isa.NumRegs * isa.NumColors * 8

// Shadow is what RunCut compares a trial's memory and caches with: a
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

	// Counts tallies the comparisons RunCut made with the shadow.
	Counts CutCounts
}

// CutCounts tallies reconvergence comparisons: how many were made, and
// how many each check rejected, counted by the first check that failed:
// a pending detection, recovery block, degraded mesh, taint or the
// instruction limit (Pending), the state value, memory, or the caches.
// A cache comparison that fails directly is decided by the cache
// replay: Replayed counts the cuts it decided, Mismatches the replays
// refused at an access served at another level. Every count is a sum
// over trials of a pure function of the trial.
type CutCounts struct {
	Comparisons                   uint64
	Pending, State, Memory, Cache uint64
	Replayed, Mismatches          uint64
}

// NewShadow builds a Shadow for g's trials. It holds nothing until
// RunCut first compares a trial with an epoch.
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

// RunCut runs s, a trial forked from g whose fault events have all
// fired, to halt, like Run. At every step boundary where s's
// golden-equivalent progress reaches an epoch's instruction count, it
// compares s with that epoch, using sh, a Shadow of g's; on a match it
// stops and returns, with cut = true, the statistics the run to halt
// would have returned. The output of a cut trial equals the golden
// output. s is then left at the boundary where it stopped, not halted,
// and must be Reset before it runs again. An attached Progress receives
// the same totals as from a run to halt.
//
// RunCut never cuts without a shadow or epochs, with an observability attachment
// (AttachObs) or with Config.RecordRegions, whose traces and logs must
// cover the whole run, nor while a detection is pending, a recovery
// block runs, the mesh is degraded or a register is tainted.
func (g *GoldenState) RunCut(s *Sim, sh *Shadow) (st Stats, cut bool, err error) {
	if sh == nil || sh.g != g || len(g.epochs) == 0 || s.obs != nil || s.Cfg.RecordRegions {
		st, err = s.Run()
		return st, false, err
	}
	k, check := 0, false
	for !s.halted {
		if check {
			for k > 0 && g.epochs[k-1].insts >= s.netInsts {
				k--
			}
			for k < len(g.epochs) && g.epochs[k].insts < s.netInsts {
				k++
			}
			if k < len(g.epochs) && g.epochs[k].insts == s.netInsts {
				if g.reconverged(s, sh, k) {
					e := &g.epochs[k]
					st = s.Stats
					st.Merge(&e.suffix)
					st.Cycles = s.cycle + e.suffix.Cycles
					if s.progress != nil {
						own := s.Stats
						s.Stats = st
						s.publishProgress()
						s.Stats = own
					}
					return st, true, nil
				}
			}
		}
		net := s.netInsts
		err := s.step()
		if s.progress != nil {
			s.publishProgress()
		}
		if err != nil {
			return s.Stats, false, err
		}
		check = s.netInsts != net
	}
	return s.Stats, false, nil
}

// reconverged reports whether s, at golden-equivalent progress
// epochs[k].insts, is equivalent to the warm golden run at epoch k: the
// run to halt from either state behaves identically, up to a constant
// cycle offset. It counts the comparison in sh.Counts.
func (g *GoldenState) reconverged(s *Sim, sh *Shadow, k int) bool {
	e := &g.epochs[k]
	c := &sh.Counts
	c.Comparisons++
	if len(s.pendingDetects) > 0 || s.inRecovery || s.degradedUntil != 0 ||
		s.Taint != [isa.NumRegs]bool{} || s.Stats.Insts+e.suffix.Insts >= s.Cfg.MaxInsts {
		c.Pending++
		return false
	}
	if !g.sameState(&s.simState, &e.state) {
		c.State++
		return false
	}
	sh.moveTo(k)
	var lo, hi uint64
	if g.renameCkpt {
		lo, hi = g.prog.CkptBase, g.prog.CkptBase+ckptBytes
	}
	switch {
	case !s.Mem.EqualMasked(sh.mem, lo, hi, lo, hi):
		c.Memory++
		return false
	case s.hier.Equivalent(sh.hier, &g.setClocks):
		return true
	case sh.replay(s.hier, k):
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
func (g *GoldenState) sameState(a, b *simState) bool {
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
	rn := renaming{on: g.renameCkpt && g.cfg.Resilient && g.cfg.HWColoring}
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
			x.colors.regs != y.colors.regs {
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
