package isa

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refMemory is the map-backed memory image the paged Memory replaced,
// kept as the reference the differential fuzz checks every paged result
// against: one map entry per non-zero word, whatever its address.
type refMemory struct{ words map[uint64]uint64 }

func newRefMemory() *refMemory { return &refMemory{words: make(map[uint64]uint64)} }

func (m *refMemory) Load(addr uint64) uint64 { return m.words[addr] }

func (m *refMemory) Store(addr, val uint64) {
	if val == 0 {
		delete(m.words, addr)
		return
	}
	m.words[addr] = val
}

func (m *refMemory) Len() int { return len(m.words) }

func (m *refMemory) Clone() *refMemory {
	c := newRefMemory()
	for a, v := range m.words {
		c.words[a] = v
	}
	return c
}

func (m *refMemory) Equal(o *refMemory) bool {
	if len(m.words) != len(o.words) {
		return false
	}
	for a, v := range m.words {
		if o.words[a] != v {
			return false
		}
	}
	return true
}

func (m *refMemory) Snapshot() []MemEntry {
	out := make([]MemEntry, 0, len(m.words))
	for a, v := range m.words {
		out = append(out, MemEntry{a, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func (m *refMemory) ResetTo(snap []MemEntry) {
	clear(m.words)
	for _, e := range snap {
		m.words[e.Addr] = e.Val
	}
}

func (m *refMemory) ClearRange(lo, hi uint64) {
	for a := range m.words {
		if a >= lo && a < hi {
			delete(m.words, a)
		}
	}
}

func (m *refMemory) EqualMasked(o *refMemory, aLo, aHi, bLo, bHi uint64) bool {
	for _, p := range [2][2]*refMemory{{m, o}, {o, m}} {
		for a, v := range p[0].words {
			if (a < aLo || a >= aHi) && (a < bLo || a >= bHi) && p[1].words[a] != v {
				return false
			}
		}
	}
	return true
}

// memPair is a paged memory and the reference it must match.
type memPair struct {
	mem *Memory
	ref *refMemory
}

func (p memPair) check(t *testing.T, what string) {
	t.Helper()
	if got, want := p.mem.Len(), p.ref.Len(); got != want {
		t.Fatalf("%s: Len %d, reference %d", what, got, want)
	}
	if got, want := p.mem.Snapshot(), p.ref.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Snapshot diverged from the reference\npaged: %x\nref:   %x", what, got, want)
	}
}

// fuzzBytes doles out a fuzz input; past its end every read is zero.
type fuzzBytes []byte

func (b *fuzzBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b.byte())
	}
	return v
}

// addr draws an address biased to the edges the paged layout has:
// page and window boundaries, the stack and checkpoint pages, unaligned
// offsets and addresses near 2^64.
func (b *fuzzBytes) addr() uint64 {
	pages := []uint64{0, 1, 2, 15, 16, 0x100, 0x101, uint64(densePages) - 1, uint64(densePages), uint64(densePages) + 1}
	words := []uint64{0, 1, 2, pageWords - 2, pageWords - 1}
	sel := b.byte()
	var a uint64
	switch sel % 8 {
	case 0, 1, 2:
		a = pages[int(b.byte())%len(pages)]<<pageShift + words[int(b.byte())%len(words)]*8
	case 3:
		a = uint64(b.byte()%4)<<pageShift + uint64(b.byte())*8
	case 4:
		a = ^uint64(0) - uint64(b.byte()%32)
	case 5:
		a = DenseLimit - 16 + uint64(b.byte()%32)
	case 6:
		a = b.u64()
	case 7:
		a = 1<<63 + uint64(b.byte())*8
	}
	if sel&0x80 != 0 {
		a += uint64(sel>>4) & 7 // unaligned (or not, when the offset is 0)
	}
	return a
}

func (b *fuzzBytes) val() uint64 {
	switch b.byte() % 4 {
	case 0, 1:
		return 0
	case 2:
		return uint64(b.byte())
	}
	return b.u64()
}

// FuzzMemoryDifferential runs random operation sequences on the paged
// Memory and on the map-backed reference it replaced, and checks every
// result against the reference after each step: loads and stores on
// aligned, unaligned, edge and near-2^64 addresses; Freeze and ResetTo
// to the same or another image; Clone, Len, Snapshot, Equal, ClearRange
// and EqualMasked with random masks. Frozen images must never change.
func FuzzMemoryDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 3, 0xff, 2, 1, 3, 0, 4, 5, 6, 7})
	f.Add([]byte{0, 1, 6, 1, 3, 9, 2, 0, 7, 1, 5, 3, 0, 8, 0x80, 0, 1, 1, 3, 0, 9, 9})
	f.Add([]byte{0, 4, 0, 0, 2, 5, 0, 2, 6, 1, 3, 0, 1, 7, 0, 2, 8, 1, 5, 0, 0, 3, 3, 2})
	seed := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		cur := memPair{NewMemory(), newRefMemory()}
		var others, bases []memPair
		pick := func(ps []memPair) (memPair, bool) {
			if len(ps) == 0 {
				return memPair{}, false
			}
			return ps[int(in.byte())%len(ps)], true
		}
		for step := 0; len(in) > 0 && step < 256; step++ {
			op := in.byte() % 11
			switch op {
			case 0, 1: // Store
				a, v := in.addr(), in.val()
				cur.mem.Store(a, v)
				cur.ref.Store(a, v)
			case 2: // Load
				a := in.addr()
				if got, want := cur.mem.Load(a), cur.ref.Load(a); got != want {
					t.Fatalf("step %d: Load(%#x) = %#x, reference %#x", step, a, got, want)
				}
			case 3: // Freeze: cur goes on as a fork of the new image.
				bases = append(bases, memPair{cur.mem.Freeze(), cur.ref.Clone()})
			case 4: // ResetTo an image, often the last one again.
				if b, ok := pick(bases); ok {
					cur.mem.ResetTo(b.mem)
					cur.ref.ResetTo(b.ref.Snapshot())
				}
			case 5: // Clone; keep working on either copy.
				c := memPair{cur.mem.Clone(), cur.ref.Clone()}
				c.check(t, "clone")
				if in.byte()&1 == 0 {
					cur, c = c, cur
				}
				others = append(others, c)
			case 6: // Switch to another live memory.
				if len(others) > 0 {
					i := int(in.byte()) % len(others)
					cur, others[i] = others[i], cur
				}
			case 7: // Equal against another memory or image.
				o, ok := pick(slices.Concat(others, bases))
				if !ok {
					o = cur
				}
				if got, want := cur.mem.Equal(o.mem), cur.ref.Equal(o.ref); got != want {
					t.Fatalf("step %d: Equal = %v, reference %v", step, got, want)
				}
			case 8: // ClearRange
				lo, hi := in.addr(), in.addr()
				if lo > hi {
					lo, hi = hi, lo
				}
				cur.mem.ClearRange(lo, hi)
				cur.ref.ClearRange(lo, hi)
			case 9: // EqualMasked against a perturbed copy, masked or not.
				var r [4]uint64
				for i := range r {
					r[i] = in.addr()
				}
				sort.Slice(r[:], func(i, j int) bool { return r[i] < r[j] })
				aLo, aHi, bLo, bHi := r[0], r[1], r[2], r[3]
				if in.byte()&1 == 0 {
					aLo, aHi, bLo, bHi = r[0], r[2], r[1], r[3] // overlapping masks
				}
				src, ok := pick(slices.Concat(others, bases))
				if !ok || in.byte()&1 == 0 {
					src = cur
				}
				o := memPair{src.mem.Clone(), src.ref.Clone()}
				for n := in.byte() % 4; n > 0; n-- {
					a, v := in.addr(), in.val()
					o.mem.Store(a, v)
					o.ref.Store(a, v)
				}
				if in.byte()&1 == 0 {
					o.mem.ClearRange(aLo, aHi)
					o.mem.ClearRange(bLo, bHi)
					o.ref.ClearRange(aLo, aHi)
					o.ref.ClearRange(bLo, bHi)
				}
				if got, want := cur.mem.EqualMasked(o.mem, aLo, aHi, bLo, bHi),
					cur.ref.EqualMasked(o.ref, aLo, aHi, bLo, bHi); got != want {
					t.Fatalf("step %d: EqualMasked([%#x,%#x), [%#x,%#x)) = %v, reference %v",
						step, aLo, aHi, bLo, bHi, got, want)
				}
			case 10: // Reserve never changes contents.
				cur.mem.Reserve(int(in.byte()), int(in.byte()%8))
			}
			cur.check(t, "step")
		}
		for _, p := range slices.Concat(others, bases) {
			p.check(t, "final")
		}
	})
}

// TestPageTableBoundedByWindow: stores at page stride across and beyond
// the dense window, and at unaligned addresses, never grow the page
// table past the window; everything outside it lands in the fallback
// map, one entry per word, and reads back exactly.
func TestPageTableBoundedByWindow(t *testing.T) {
	m := NewMemory()
	want := map[uint64]uint64{}
	store := func(a uint64) {
		v := a | 1
		m.Store(a, v)
		want[a] = v
	}
	for a := uint64(0); a < DenseLimit+64*pageBytes; a += pageBytes {
		store(a)
		store(a + 3) // unaligned: fallback map, even inside the window
	}
	for _, a := range []uint64{DenseLimit - 8, DenseLimit + 8, 1 << 40, ^uint64(0) - 7, ^uint64(0)} {
		store(a)
	}
	spill := 0
	for a := range want {
		if a&7 != 0 || a >= DenseLimit {
			spill++
		}
	}
	if len(m.tab) > densePages || cap(m.tab) > densePages {
		t.Fatalf("page table len %d cap %d, window has %d pages", len(m.tab), cap(m.tab), densePages)
	}
	if len(m.spill) != spill {
		t.Fatalf("fallback map holds %d words, want %d", len(m.spill), spill)
	}
	if m.Len() != len(want) {
		t.Fatalf("Len %d, stored %d words", m.Len(), len(want))
	}
	for a, v := range want {
		if got := m.Load(a); got != v {
			t.Fatalf("Load(%#x) = %#x, want %#x", a, got, v)
		}
	}
}

// TestResetToDirtyPagesOnly: after ResetTo the same image, a memory
// shares every page it did not write, so EqualMasked against a sibling
// fork sees pointer-equal pages, and the pages it wrote go back to the
// spare pool for the next trial instead of being reallocated.
func TestResetToDirtyPagesOnly(t *testing.T) {
	seed := NewMemory()
	for a := uint64(0); a < 8*pageBytes; a += 8 {
		seed.Store(a, a+1)
	}
	img := seed.Freeze()
	m := NewMemory()
	m.ResetTo(img)
	m.Store(3*pageBytes, 7)
	m.Store(DefaultCkptBase, 9)
	if span, owned := m.PageUse(); owned != 2 || span <= int(DefaultCkptBase>>pageShift) {
		t.Fatalf("PageUse = (%d, %d), want 2 owned pages", span, owned)
	}
	if m.tab[2].p != img.tab[2].p {
		t.Fatal("an unwritten page was copied")
	}
	m.ResetTo(img)
	if !m.Equal(img) || len(m.spare) != 2 || len(m.dirty) != 0 {
		t.Fatalf("reset: equal %v, spare %d, dirty %d", m.Equal(img), len(m.spare), len(m.dirty))
	}
	allocs := testing.AllocsPerRun(50, func() {
		m.Store(3*pageBytes, 7)
		m.Store(DefaultCkptBase, 9)
		m.ResetTo(img)
	})
	if allocs != 0 {
		t.Fatalf("steady-state write+reset allocates %.1f objects", allocs)
	}
}

// TestFrozenImageRejectsStores: a frozen image is shared by every fork,
// so writing it is a bug that must not pass silently.
func TestFrozenImageRejectsStores(t *testing.T) {
	m := NewMemory()
	m.Store(8, 1)
	img := m.Freeze()
	for name, write := range map[string]func(){
		"store":       func() { img.Store(8, 2) },
		"unaligned":   func() { img.Store(9, 2) },
		"clear-range": func() { img.ClearRange(0, 16) },
		"reset":       func() { img.ResetTo(img) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen image did not panic", name)
				}
			}()
			write()
		}()
	}
	m.Store(8, 3) // the fork stays writable
	if img.Load(8) != 1 || m.Load(8) != 3 {
		t.Fatalf("image %d, fork %d", img.Load(8), m.Load(8))
	}
}

// TestDeltaTrackerChain: replaying a tracked memory's chained deltas,
// in order, onto the image it started from rebuilds each of its later
// states, and each delta holds exactly the words that changed — aligned,
// unaligned and out-of-window ones, zeroed words included.
func TestDeltaTrackerChain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	addr := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return DenseLimit + uint64(rng.Intn(64))*8 // out of window
		case 1:
			return uint64(rng.Intn(8*pageBytes)) | 1 // unaligned
		}
		return uint64(rng.Intn(8*pageWords)) * 8
	}
	seed := NewMemory()
	for range 200 {
		seed.Store(addr(), rng.Uint64())
	}
	image := seed.Freeze()
	m := NewMemory()
	m.ResetTo(image)
	tr := m.Track()
	replay := NewMemory()
	replay.ResetTo(image)
	for round := range 12 {
		before := m.Clone()
		for range rng.Intn(3) * 40 {
			v := rng.Uint64()
			if rng.Intn(3) == 0 {
				v = 0
			}
			m.Store(addr(), v)
		}
		if round%4 == 3 {
			a := addr()
			m.Store(a, m.Load(a)) // rewrites an equal value
		}
		d := tr.Delta(nil)
		changed := 0
		for _, w := range m.Snapshot() {
			if before.Load(w.Addr) != w.Val {
				changed++
			}
		}
		for _, w := range before.Snapshot() {
			if m.Load(w.Addr) == 0 {
				changed++
			}
		}
		if len(d) != changed {
			t.Fatalf("round %d: delta holds %d words, %d changed", round, len(d), changed)
		}
		for _, w := range d {
			replay.Store(w.Addr, w.Val)
		}
		if !replay.Equal(m) {
			t.Fatalf("round %d: replayed deltas differ from the tracked memory:\n%s", round, replay.Diff(m, 5))
		}
	}
}
