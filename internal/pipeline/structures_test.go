package pipeline

import (
	"testing"

	"repro/internal/isa"
)

// --- compact CLQ ---

func TestCompactCLQRangeSemantics(t *testing.T) {
	c := &compactCLQ{entries: make([]compactEntry, 2)}
	if !c.noteLoad(1, 100) || !c.noteLoad(1, 200) {
		t.Fatal("insert failed with free entries")
	}
	// Range [100,200]: conservative — 150 was never loaded but falls in
	// range (the precision loss the paper accepts).
	for _, addr := range []uint64{100, 150, 200} {
		if c.warFree(addr) {
			t.Errorf("addr %d inside range reported WAR-free", addr)
		}
	}
	for _, addr := range []uint64{99, 201} {
		if !c.warFree(addr) {
			t.Errorf("addr %d outside range reported conflicting", addr)
		}
	}
	if c.occupancy() != 1 {
		t.Fatalf("occupancy = %d", c.occupancy())
	}
}

func TestCompactCLQPerRegionEntries(t *testing.T) {
	c := &compactCLQ{entries: make([]compactEntry, 2)}
	c.noteLoad(1, 100)
	c.noteLoad(2, 500)
	if c.occupancy() != 2 {
		t.Fatalf("occupancy = %d", c.occupancy())
	}
	// The WAR check spans all unverified regions.
	if c.warFree(100) || c.warFree(500) {
		t.Fatal("cross-region load missed")
	}
	// A third region overflows.
	if c.noteLoad(3, 900) {
		t.Fatal("overflow not reported")
	}
	// Verification of region 1 frees its entry.
	c.clearRegion(1)
	if c.occupancy() != 1 {
		t.Fatalf("occupancy after clear = %d", c.occupancy())
	}
	if !c.warFree(100) {
		t.Fatal("cleared region still blocks")
	}
	if !c.noteLoad(3, 900) {
		t.Fatal("freed entry not reusable")
	}
}

func TestCompactCLQClearAll(t *testing.T) {
	c := &compactCLQ{entries: make([]compactEntry, 2)}
	c.noteLoad(1, 100)
	c.noteLoad(2, 200)
	c.clearAll()
	if c.occupancy() != 0 || !c.warFree(100) {
		t.Fatal("clearAll incomplete")
	}
}

// --- ideal CLQ ---

func TestIdealCLQExactMatching(t *testing.T) {
	c := newIdealCLQ()
	for i := uint64(0); i < 100; i++ {
		if !c.noteLoad(int(i%5), i*8) {
			t.Fatal("ideal CLQ overflowed")
		}
	}
	if c.warFree(40) {
		t.Fatal("loaded address reported WAR-free")
	}
	// Exact matching: a hole between loaded addresses stays releasable.
	if !c.warFree(41) {
		t.Fatal("unloaded address reported conflicting")
	}
	if c.occupancy() != 5 {
		t.Fatalf("occupancy = %d", c.occupancy())
	}
	c.clearRegion(0)
	if c.occupancy() != 4 {
		t.Fatalf("occupancy after clear = %d", c.occupancy())
	}
}

// --- color maps ---

func TestColorMapsLifecycle(t *testing.T) {
	var cm colorMaps
	cm.reset()
	r := isa.Reg(5)
	if cm.verified(r) != -1 {
		t.Fatal("fresh register has a verified color")
	}
	// Acquire all four colors.
	var got []int
	for i := 0; i < isa.NumColors; i++ {
		c := cm.acquire(r)
		if c < 0 {
			t.Fatalf("pool dry after %d acquires", i)
		}
		got = append(got, c)
	}
	if cm.acquire(r) != -1 {
		t.Fatal("fifth acquire succeeded")
	}
	// Verify the first: becomes VC; pool still dry (nothing reclaimed —
	// no previous VC existed).
	cm.verify(r, got[0])
	if cm.verified(r) != got[0] {
		t.Fatalf("VC = %d, want %d", cm.verified(r), got[0])
	}
	if cm.acquire(r) != -1 {
		t.Fatal("acquire succeeded with all colors in VC/UC")
	}
	// Verify the second: the first returns to the pool.
	cm.verify(r, got[1])
	if cm.verified(r) != got[1] {
		t.Fatal("VC not updated")
	}
	if c := cm.acquire(r); c != got[0] {
		t.Fatalf("reclaimed color = %d, want %d", c, got[0])
	}
	// Squash returns an unverified color directly.
	cm.squash(r, got[2])
	if c := cm.acquire(r); c != got[2] {
		t.Fatalf("squashed color not reusable: got %d", c)
	}
}

func TestColorMapsPerRegisterIndependence(t *testing.T) {
	var cm colorMaps
	cm.reset()
	a, b := isa.Reg(1), isa.Reg(2)
	for i := 0; i < isa.NumColors; i++ {
		if cm.acquire(a) < 0 {
			t.Fatal("pool dry")
		}
	}
	if cm.acquire(b) < 0 {
		t.Fatal("register b starved by register a")
	}
}

// --- store buffer ---

// sbState returns a state whose RBB holds open regions 0 … n-1, with
// the store buffer empty.
func sbState(n int) *simState {
	s := &simState{nextRegion: n}
	for id := range n {
		s.rbb = append(s.rbb, regionInst{id: id, verifyAt: infCycle})
	}
	return s
}

func TestStoreBufferQuarantineGatesOnVerification(t *testing.T) {
	s := sbState(1)
	mem := isa.NewMemory()
	s.sb.push(sbEntry{addr: 0x100, val: 7, quarantined: true, region: 0, commitAt: 5}, nil)
	s.closeRegion(&s.rbb[0], 10, 20)
	// Time passes beyond the stamp, but the region is unverified: no drain.
	s.sb.drainUntil(100, mem, s.unverifiedFrom(), nil)
	if s.sb.len() != 1 || mem.Load(0x100) != 0 {
		t.Fatal("unverified entry drained")
	}
	s.rbb = s.rbb[:0] // the region verifies: it leaves the RBB
	s.sb.drainUntil(100, mem, s.unverifiedFrom(), nil)
	if s.sb.len() != 0 || mem.Load(0x100) != 7 || s.sb.lastDrain != 20 {
		t.Fatalf("verified entry not drained/applied at its region's verification (drained at %d)", s.sb.lastDrain)
	}
}

func TestStoreBufferDrainRate(t *testing.T) {
	var sb storeBuffer
	mem := isa.NewMemory()
	for i := 0; i < 4; i++ {
		sb.push(sbEntry{addr: uint64(0x100 + i*8), val: 1, region: noRegion, commitAt: 10}, nil)
	}
	// One drain per cycle starting at the commit cycle: 10, 11, 12 drain
	// by cycle 12, the fourth waits for cycle 13.
	sb.drainUntil(12, mem, 0, nil)
	if sb.len() != 1 {
		t.Fatalf("len = %d after 3 drain cycles, want 1", sb.len())
	}
	sb.drainUntil(13, mem, 0, nil)
	if sb.len() != 0 {
		t.Fatalf("len = %d, want 0", sb.len())
	}
}

func TestStoreBufferForwardingYoungest(t *testing.T) {
	var sb storeBuffer
	sb.push(sbEntry{addr: 0x100, val: 1, quarantined: true, region: 0}, nil)
	sb.push(sbEntry{addr: 0x100, val: 2, quarantined: true, region: 0}, nil)
	if v, ok := sb.forward(0x100); !ok || v != 2 {
		t.Fatalf("forward = %d,%v want youngest 2", v, ok)
	}
	if _, ok := sb.forward(0x108); ok {
		t.Fatal("forwarded a miss")
	}
	// Fast entries already applied to memory: not forwarded.
	var sb2 storeBuffer
	sb2.push(sbEntry{addr: 0x200, val: 9, region: noRegion, commitAt: 1}, nil)
	if _, ok := sb2.forward(0x200); ok {
		t.Fatal("fast entry forwarded")
	}
}

func TestStoreBufferWAWGuard(t *testing.T) {
	var sb storeBuffer
	sb.push(sbEntry{addr: 0x300, val: 1, quarantined: true, region: 0}, nil)
	if !sb.hasOlderSameAddr(0x300) {
		t.Fatal("same-address entry missed")
	}
	if sb.hasOlderSameAddr(0x308) {
		t.Fatal("false WAW hit")
	}
}

func TestStoreBufferDiscardUnverified(t *testing.T) {
	s := sbState(2)
	mem := isa.NewMemory()
	s.sb.push(sbEntry{addr: 0x100, val: 1, quarantined: true, region: 0}, nil)
	s.sb.push(sbEntry{addr: 0x108, val: 2, quarantined: true, region: 1}, nil)
	s.sb.push(sbEntry{addr: 0x110, val: 3, region: noRegion, commitAt: 2}, nil) // fast
	s.closeRegion(&s.rbb[0], 5, 15)
	s.rbb = s.rbb[1:] // region 0 verifies; region 1 stays open
	if n := s.sb.discardUnverified(s.unverifiedFrom()); n != 1 {
		t.Fatalf("discarded %d, want 1", n)
	}
	if s.sb.len() != 2 {
		t.Fatalf("len = %d, want 2", s.sb.len())
	}
	s.sb.drainUntil(1000, mem, s.unverifiedFrom(), nil)
	if mem.Load(0x100) != 1 {
		t.Fatal("verified entry lost")
	}
	if mem.Load(0x108) != 0 {
		t.Fatal("discarded entry applied")
	}
}

func TestStoreBufferNextEventAt(t *testing.T) {
	s := sbState(1) // region 0 is open
	s.sb.push(sbEntry{addr: 1, val: 1, quarantined: true, region: 0}, nil)
	if s.sb.nextEventAt() != infCycle {
		t.Fatal("open region entry has a drain event")
	}
	s.closeRegion(&s.rbb[0], 40, 50) // region ended; verification pending
	if s.sb.nextEventAt() != 50 {
		t.Fatalf("nextEventAt = %d, want 50", s.sb.nextEventAt())
	}
	s.sb.push(sbEntry{addr: 2, val: 1, region: noRegion, commitAt: 7}, nil)
	if s.sb.nextEventAt() != 7 {
		t.Fatalf("nextEventAt = %d, want 7 (fast entry)", s.sb.nextEventAt())
	}
}
