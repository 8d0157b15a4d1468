package pipeline

import (
	"fmt"

	"repro/internal/isa"
)

// infCycle marks "no event" times.
const infCycle = ^uint64(0)

// sbEntry is one gated-store-buffer slot.
type sbEntry struct {
	addr, val uint64
	// quarantined entries apply to memory at drain, which requires their
	// region to be *verified* (not merely for a timestamp to pass — a
	// pending error detection can abort a verification whose window the
	// simulated clock has already jumped over). Fast/baseline entries are
	// applied at commit and model drain bandwidth only.
	quarantined bool
	// region is the id of the region a quarantined entry belongs to,
	// noRegion for fast entries and stores outside every region.
	// verifyAt is the region's verification cycle, stamped when the
	// region closes (infCycle until then and without a region).
	region   int
	verifyAt uint64
	commitAt uint64
	isCkpt   bool
	ckptReg  isa.Reg
	seq      uint64
}

// drainableAt returns the earliest cycle this entry may drain, ignoring
// the 1-per-cycle port: commit time for fast entries, the region's
// verification time for quarantined ones once the region has verified —
// its id lies below unverified, the id of the oldest region still in
// the RBB — and infCycle before (callers advance time, which runs
// verification). An entry without a region never drains: its verifyAt
// stays infCycle.
func (e *sbEntry) drainableAt(unverified int) uint64 {
	if !e.quarantined {
		return e.commitAt
	}
	if e.region >= unverified {
		return infCycle
	}
	return e.verifyAt
}

// pendingVerifyAt returns when the entry *would* become drainable assuming
// verification proceeds undisturbed; used to size structural-hazard stalls.
func (e *sbEntry) pendingVerifyAt() uint64 {
	if !e.quarantined {
		return e.commitAt
	}
	return e.verifyAt // infCycle while the region is still open
}

// storeBuffer models the GSB: bounded entries (Config.SBSize), one drain
// per cycle to L1, oldest-drainable-first (out-of-order across quarantine
// classes is safe — the simulator's WAW check refuses fast release when
// an older same-address entry is pending).
type storeBuffer struct {
	entries   []sbEntry
	lastDrain uint64
	seq       uint64
}

func (sb *storeBuffer) len() int { return len(sb.entries) }

// push appends a committed store, observed into o's occupancy histogram
// when o is non-nil. Callers must ensure space (drain/stall).
func (sb *storeBuffer) push(e sbEntry, o *Obs) {
	sb.seq++
	e.seq = sb.seq
	e.verifyAt = infCycle
	sb.entries = append(sb.entries, e)
	if o != nil && o.sbOcc != nil {
		o.sbOcc.Observe(uint64(len(sb.entries)))
	}
}

// drainUntil retires drainable entries with the 1/cycle port up to cycle
// now, applying quarantined writes to mem; regions with ids from
// unverified on have not verified. Verification state must be current
// (the simulator advances time before calling). o, when non-nil,
// receives each drained entry's residency span.
func (sb *storeBuffer) drainUntil(now uint64, mem *isa.Memory, unverified int, o *Obs) {
	for {
		i := sb.oldestDrainable(unverified)
		if i < 0 {
			return
		}
		t := sb.entries[i].drainableAt(unverified)
		if t < sb.lastDrain+1 {
			t = sb.lastDrain + 1
		}
		if t > now {
			return
		}
		sb.applyAndRemove(i, t, mem, o)
		sb.lastDrain = t
	}
}

// nextEventAt returns the earliest cycle at which some entry could drain,
// assuming pending verifications complete on schedule. infCycle means the
// buffer is wedged on an open region (a partitioning bug).
func (sb *storeBuffer) nextEventAt() uint64 {
	best := infCycle
	for i := range sb.entries {
		t := sb.entries[i].pendingVerifyAt()
		if t == infCycle {
			continue
		}
		if t < sb.lastDrain+1 {
			t = sb.lastDrain + 1
		}
		if t < best {
			best = t
		}
	}
	return best
}

func (sb *storeBuffer) oldestDrainable(unverified int) int {
	best := -1
	for i := range sb.entries {
		if sb.entries[i].drainableAt(unverified) == infCycle {
			continue
		}
		if best == -1 || sb.entries[i].seq < sb.entries[best].seq {
			best = i
		}
	}
	return best
}

func (sb *storeBuffer) applyAndRemove(i int, drainAt uint64, mem *isa.Memory, o *Obs) {
	e := sb.entries[i]
	if e.quarantined {
		mem.Store(e.addr, e.val)
	}
	if o != nil {
		o.obsDrained(&e, drainAt)
	}
	sb.entries = append(sb.entries[:i], sb.entries[i+1:]...)
}

// hasOlderSameAddr reports whether any pending entry targets addr — the
// WAW guard consulted before fast-releasing a store (the forwarding CAM
// provides this search in hardware).
func (sb *storeBuffer) hasOlderSameAddr(addr uint64) bool {
	for i := range sb.entries {
		if sb.entries[i].addr == addr {
			return true
		}
	}
	return false
}

// forward searches quarantined entries for the youngest value at addr
// (store-to-load forwarding); fast entries already hit memory.
func (sb *storeBuffer) forward(addr uint64) (uint64, bool) {
	bestSeq := uint64(0)
	var val uint64
	found := false
	for i := range sb.entries {
		e := &sb.entries[i]
		if e.quarantined && e.addr == addr && e.seq >= bestSeq {
			bestSeq, val, found = e.seq, e.val, true
		}
	}
	return val, found
}

// discardUnverified drops quarantined entries of unverified regions
// (ids from unverified on) and of none; recovery calls this before
// emptying the RBB. Returns the count dropped.
func (sb *storeBuffer) discardUnverified(unverified int) int {
	n := 0
	kept := sb.entries[:0]
	for i := range sb.entries {
		e := sb.entries[i]
		if e.quarantined && (e.region == noRegion || e.region >= unverified) {
			n++
			continue
		}
		kept = append(kept, e)
	}
	sb.entries = kept
	return n
}

// wedgedError describes a store buffer that can never drain.
func (sb *storeBuffer) wedgedError() error {
	return fmt.Errorf("pipeline: store buffer wedged: %d entries, none can ever drain (region exceeds SB size?)", len(sb.entries))
}
