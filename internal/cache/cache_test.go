package cache

import (
	"reflect"
	"testing"
)

func TestGeometryValidation(t *testing.T) {
	if _, err := New(Config{Name: "bad", SizeBytes: 0, Assoc: 2}); err == nil {
		t.Fatal("accepted zero size")
	}
	if _, err := New(Config{Name: "bad", SizeBytes: 1 << 10, Assoc: 3, HitLatency: 1}); err == nil {
		t.Fatal("accepted non-dividing associativity")
	}
	if _, err := New(Config{Name: "ok", SizeBytes: 32 << 10, Assoc: 2, HitLatency: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := MustNew(Config{Name: "c", SizeBytes: 4 << 10, Assoc: 2, HitLatency: 2})
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1008) {
		t.Fatal("same-line access missed")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2 sets x 2 ways x 64B = 256B cache; lines mapping to set 0 are
	// multiples of 128.
	c := MustNew(Config{Name: "t", SizeBytes: 256, Assoc: 2, HitLatency: 1})
	a, b, d := uint64(0), uint64(128), uint64(256)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a now MRU
	c.Access(d) // evicts b (LRU)
	if !c.Contains(a) {
		t.Fatal("a evicted despite MRU")
	}
	if c.Contains(b) {
		t.Fatal("b not evicted")
	}
	if !c.Contains(d) {
		t.Fatal("d not installed")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	// Cold: L1 miss + L2 miss -> full memory latency.
	lat := h.DataAccess(0x4000)
	want := h.L1D.HitLatency() + h.L2.HitLatency() + h.MemLatency
	if lat != want {
		t.Fatalf("cold access latency %d, want %d", lat, want)
	}
	// Warm: L1 hit.
	if lat := h.DataAccess(0x4000); lat != h.L1D.HitLatency() {
		t.Fatalf("warm access latency %d, want %d", lat, h.L1D.HitLatency())
	}
}

func TestHierarchyL2Backfill(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	h.DataAccess(0x8000) // install in L1D and L2
	// Thrash L1D set while keeping L2 resident: touch many addresses
	// mapping to the same L1 set (L1D is 64KB 2-way -> 512 sets, stride
	// 512*64 = 32KB).
	for i := uint64(1); i <= 4; i++ {
		h.DataAccess(0x8000 + i*32768)
	}
	lat := h.DataAccess(0x8000)
	want := h.L1D.HitLatency() + h.L2.HitLatency()
	if lat != want {
		t.Fatalf("L2 hit latency %d, want %d", lat, want)
	}
}

func TestInstAccessHidesHits(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	if lat := h.InstAccess(0); lat == 0 {
		t.Fatal("cold fetch free")
	}
	if lat := h.InstAccess(4); lat != 0 {
		t.Fatalf("warm fetch cost %d", lat)
	}
}

func TestReset(t *testing.T) {
	c := MustNew(Config{Name: "r", SizeBytes: 4 << 10, Assoc: 2, HitLatency: 1})
	c.Access(0x100)
	c.Reset()
	if c.Contains(0x100) || c.Hits != 0 || c.Misses != 0 {
		t.Fatal("reset incomplete")
	}
}

// TestDeltaChain: restoring an Image and applying, in order, deltas each
// taken since the previous one's clock rebuilds the hierarchy exactly —
// contents, clocks and hit/miss counters — and a delta holds only the
// sets touched since its clock.
func TestDeltaChain(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	for a := uint64(0); a < 1<<17; a += 192 {
		h.DataAccess(a)
		h.InstAccess(a / 4)
	}
	var img Image
	h.Snapshot(&img)
	clock := img.Clock()
	type state struct {
		img          Image
		hits, misses [3]uint64
	}
	stateOf := func(h *Hierarchy) state {
		var s state
		h.Snapshot(&s.img)
		for i, c := range h.levels() {
			s.hits[i], s.misses[i] = c.Hits, c.Misses
		}
		return s
	}
	h.Restore(&img)
	var deltas []Delta
	var want []state
	for round := range 6 {
		for i := range uint64(round * 300) {
			h.DataAccess(i * 4160 % (1 << 19))
		}
		d := h.DeltaSince(clock)
		clock = d.Clock()
		deltas = append(deltas, d)
		want = append(want, stateOf(h))
	}
	h.Restore(&img)
	h.DataAccess((1<<17 - 1) / 192 * 192) // the last line warmed: an L1D hit
	if d := h.DeltaSince(img.Clock()); len(d.lv[0].sets) != 0 || len(d.lv[1].sets) != 1 || len(d.lv[2].sets) != 0 {
		t.Fatalf("one L1D hit is a delta of %d/%d/%d sets, want 0/1/0",
			len(d.lv[0].sets), len(d.lv[1].sets), len(d.lv[2].sets))
	}
	r := MustNewHierarchy(DefaultHierarchyConfig())
	r.Restore(&img)
	for i := range deltas {
		r.Apply(&deltas[i])
		if got := stateOf(r); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("after %d deltas the hierarchy differs from the one they were taken from", i+1)
		}
	}
}

// TestApplyKeepsTheLaterClock: a delta applied to a hierarchy whose
// clock is past the delta's, as a fault trial's is once it has
// reconverged with the run the delta was taken from, keeps the later
// clock. An access to a set the delta does not hold then still stamps
// the newest way of its set, and the set's next miss evicts the other.
func TestApplyKeepsTheLaterClock(t *testing.T) {
	h := MustNewHierarchy(DefaultHierarchyConfig())
	var img Image
	h.Snapshot(&img)
	h.DataAccess(0) // the delta holds L1D set 0
	d := h.DeltaSince(img.Clock())

	h.Restore(&img)
	sets := uint64(h.L1D.sets)
	a, b, c := uint64(LineSize), (1+sets)*LineSize, (1+2*sets)*LineSize // lines of L1D set 1
	for _, x := range []uint64{a, b, b, b, b} {
		h.DataAccess(x) // the clock runs past the delta's
	}
	h.Apply(&d)
	h.DataAccess(a)
	h.DataAccess(c)
	if !h.L1D.Contains(a) || h.L1D.Contains(b) {
		t.Fatal("the miss after an applied delta evicted the line just touched, not the least recent one")
	}
}
