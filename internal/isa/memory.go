package isa

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// The memory image is paged. Aligned words below DenseLimit live in
// 4 KiB pages behind a page table indexed by address >> pageShift; every
// other word — an unaligned address, or one at or above DenseLimit —
// lives in a small fallback map. The compiler only emits aligned
// accesses, so the map holds what corrupted pointers and submitted IR
// reach; it keeps their semantics exact (each byte address names its own
// 64-bit word, as in a sparse map) without letting them grow the table.
const (
	pageShift = 12
	pageBytes = 1 << pageShift
	pageWords = pageBytes / 8

	// DenseLimit bounds the paged window [0, DenseLimit). It is the
	// smallest page-aligned window holding every built-in benchmark's
	// seeded image (the highest seeded word is lbm's at 0x2907f8) and the
	// checkpoint storage at DefaultCkptBase, so one memory pins at most
	// densePages pages (2.57 MiB) however sparsely a program stores.
	DenseLimit uint64 = 0x291000
	densePages        = int(DenseLimit >> pageShift)
)

type page [pageWords]uint64

// zeroPage stands in for every page a memory has not materialized.
var zeroPage page

// pte is one page-table entry. A nil page reads as zero. An unowned page
// belongs to a frozen image and is copied before its first write.
type pte struct {
	p     *page
	owned bool
}

// Memory is a sparse 64-bit word-addressable store. Addresses are byte
// addresses; the compiler only emits 8-byte-aligned accesses.
//
// Memories share pages copy-on-write. Freeze turns a memory's contents
// into an immutable image; ResetTo points a memory's page table at such
// an image, and a store to a shared page first copies it into a page the
// memory owns (taken from its spare pool) and logs it as dirty. Resetting
// to the same image again swaps back only the dirty pages, and comparing
// two memories skips the pages they share.
type Memory struct {
	tab    []pte             // page table over [0, DenseLimit), grown on demand
	spill  map[uint64]uint64 // unaligned and out-of-window words, never zero
	n      int               // non-zero words
	frozen bool
	base   *Memory // the frozen image every unowned page belongs to, or nil
	dirty  []int32 // indices of the owned pages
	spare  []*page // pages returned by ResetTo, reused by the next copies
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory { return &Memory{} }

// Load reads the 64-bit word at addr (zero if never written).
func (m *Memory) Load(addr uint64) uint64 {
	if addr&7 == 0 && addr < DenseLimit {
		if i := addr >> pageShift; i < uint64(len(m.tab)) {
			if p := m.tab[i].p; p != nil {
				return p[addr>>3&(pageWords-1)]
			}
		}
		return 0
	}
	return m.spill[addr]
}

// Store writes the 64-bit word at addr. A zero store to a word that is
// already zero materializes and copies nothing, so memories with the
// same contents compare equal however they were built.
func (m *Memory) Store(addr, val uint64) {
	if addr&7 != 0 || addr >= DenseLimit {
		m.storeSpill(addr, val)
		return
	}
	i := int(addr >> pageShift)
	var p *page
	if i < len(m.tab) && m.tab[i].owned {
		p = m.tab[i].p
	} else if val == 0 && m.Load(addr) == 0 {
		return
	} else {
		p = m.own(i)
	}
	w := &p[addr>>3&(pageWords-1)]
	switch {
	case *w == 0 && val != 0:
		m.n++
	case *w != 0 && val == 0:
		m.n--
	}
	*w = val
}

func (m *Memory) storeSpill(addr, val uint64) {
	if m.frozen {
		panic("isa: store to a frozen Memory")
	}
	_, had := m.spill[addr]
	switch {
	case val == 0:
		if had {
			delete(m.spill, addr)
			m.n--
		}
		return
	case m.spill == nil:
		m.spill = make(map[uint64]uint64)
	}
	if !had {
		m.n++
	}
	m.spill[addr] = val
}

// own returns page i for writing, first copying a shared page (or
// zero-filling an absent one) into a page m owns.
func (m *Memory) own(i int) *page {
	if m.frozen {
		panic("isa: store to a frozen Memory")
	}
	m.grow(i + 1)
	e := &m.tab[i]
	if e.owned {
		return e.p
	}
	var p *page
	if n := len(m.spare); n > 0 {
		p = m.spare[n-1]
		m.spare = m.spare[:n-1]
	} else {
		p = new(page)
	}
	if e.p != nil {
		*p = *e.p
	} else {
		*p = zeroPage
	}
	*e = pte{p: p, owned: true}
	m.dirty = append(m.dirty, int32(i))
	return p
}

// grow extends the page table to n entries. Within the table's capacity
// it only reslices: a trial that reaches a page above its image (the
// checkpoint storage, say) after every reset must not allocate.
func (m *Memory) grow(n int) {
	if n <= len(m.tab) {
		return
	}
	if n > cap(m.tab) {
		t := make([]pte, len(m.tab), min(max(n, 2*cap(m.tab)), densePages))
		copy(t, m.tab)
		m.tab = t
	}
	old := len(m.tab)
	m.tab = m.tab[:n]
	clear(m.tab[old:])
}

// pageAt returns page i for reading.
func (m *Memory) pageAt(i int) *page {
	if i < len(m.tab) && m.tab[i].p != nil {
		return m.tab[i].p
	}
	return &zeroPage
}

// Len returns the number of non-zero words.
func (m *Memory) Len() int { return m.n }

// Clone returns an independent copy. Pages of a frozen image stay
// shared (nobody may write them); pages m owns are copied.
func (m *Memory) Clone() *Memory {
	c := &Memory{tab: slices.Clone(m.tab), spill: maps.Clone(m.spill), n: m.n, base: m.base}
	if m.frozen {
		c.base = m
	}
	for i := range c.tab {
		if e := &c.tab[i]; e.owned {
			p := new(page)
			*p = *e.p
			e.p = p
			c.dirty = append(c.dirty, int32(i))
		}
	}
	return c
}

// Freeze moves m's contents into a new immutable image and returns it;
// m carries on as a copy-on-write fork of that image, with the same
// contents. Any number of memories may then ResetTo the image and share
// its pages.
func (m *Memory) Freeze() *Memory {
	if m.frozen {
		return m
	}
	for i := range m.tab {
		m.tab[i].owned = false
	}
	f := &Memory{tab: slices.Clone(m.tab), spill: m.spill, n: m.n, frozen: true}
	m.spill = maps.Clone(f.spill)
	m.dirty = m.dirty[:0]
	m.base = f
	return f
}

// ResetTo restores m to exactly the contents of base, which must be
// frozen. When m last reset to (or was frozen into) base, only the pages
// written since are swapped back; their copies return to m's spare pool,
// so once m has grown to a trial's footprint, resetting allocates nothing.
func (m *Memory) ResetTo(base *Memory) {
	if !base.frozen {
		panic("isa: ResetTo needs a frozen image")
	}
	if m.frozen {
		panic("isa: ResetTo on a frozen Memory")
	}
	if m.base == base && len(m.tab) >= len(base.tab) {
		for _, i := range m.dirty {
			m.spare = append(m.spare, m.tab[i].p)
			m.tab[i] = pte{}
			if int(i) < len(base.tab) {
				m.tab[i] = base.tab[i]
			}
		}
	} else {
		for _, i := range m.dirty {
			m.spare = append(m.spare, m.tab[i].p)
		}
		clear(m.tab)
		m.tab = m.tab[:0]
		m.grow(len(base.tab))
		copy(m.tab, base.tab)
		m.base = base
	}
	m.dirty = m.dirty[:0]
	clear(m.spill)
	for a, v := range base.spill {
		if m.spill == nil {
			m.spill = make(map[uint64]uint64, len(base.spill))
		}
		m.spill[a] = v
	}
	m.n = base.n
}

// PageUse reports the page-table length and the number of pages m owns
// (wrote since its last ResetTo or Freeze): the shape Reserve pre-sizes
// a fork for.
func (m *Memory) PageUse() (span, owned int) { return len(m.tab), len(m.dirty) }

// Reserve pre-sizes m so that a run touching pages below span and
// writing at most owned of them allocates nothing: page-table capacity
// for span entries and a spare pool of owned pages.
func (m *Memory) Reserve(span, owned int) {
	if span > cap(m.tab) {
		t := make([]pte, len(m.tab), min(span, densePages))
		copy(t, m.tab)
		m.tab = t
	}
	m.dirty = slices.Grow(m.dirty, owned)
	m.spare = slices.Grow(m.spare, owned)
	for len(m.spare)+len(m.dirty) < owned {
		m.spare = append(m.spare, new(page))
	}
}

// ClearRange zeroes every word whose address lies in [lo, hi), aligned
// or not.
func (m *Memory) ClearRange(lo, hi uint64) {
	for a := range m.spill {
		if a >= lo && a < hi {
			m.storeSpill(a, 0)
		}
	}
	if end := min(hi, uint64(len(m.tab))<<pageShift); lo < end {
		for a := (lo + 7) &^ 7; a < end; a += 8 {
			m.Store(a, 0)
		}
	}
}

// Equal reports whether two memories hold identical contents.
func (m *Memory) Equal(o *Memory) bool {
	if m.n != o.n || len(m.spill) != len(o.spill) {
		return false
	}
	for i := range max(len(m.tab), len(o.tab)) {
		if pm, po := m.pageAt(i), o.pageAt(i); pm != po && *pm != *po {
			return false
		}
	}
	for a, v := range m.spill {
		if o.spill[a] != v {
			return false
		}
	}
	return true
}

// EqualMasked reports whether m and o hold identical contents outside
// the two masked address ranges [aLo,aHi) and [bLo,bHi). o must already
// be masked (hold no words in either range) — campaign golden images
// are; words of m inside the ranges are skipped. Pages the two memories
// share are skipped and the rest compare as whole arrays; only a page
// that differs is scanned for a difference outside the ranges. It is the
// allocation-free equivalent of copying m minus the masked ranges into a
// fresh image and calling Equal.
func (m *Memory) EqualMasked(o *Memory, aLo, aHi, bLo, bHi uint64) bool {
	masked := func(a uint64) bool { return (a >= aLo && a < aHi) || (a >= bLo && a < bHi) }
	for i := range max(len(m.tab), len(o.tab)) {
		pm, po := m.pageAt(i), o.pageAt(i)
		if pm == po || *pm == *po {
			continue
		}
		lo := uint64(i) << pageShift
		for w := range pm {
			if pm[w] != po[w] && !masked(lo+uint64(w)*8) {
				return false
			}
		}
	}
	n := 0
	for a, v := range m.spill {
		if masked(a) {
			continue
		}
		if o.spill[a] != v {
			return false
		}
		n++
	}
	return n == len(o.spill)
}

// Diff returns a human-readable summary of up to max differing words,
// for test failure messages.
func (m *Memory) Diff(o *Memory, max int) string {
	a, b := m.Snapshot(), o.Snapshot()
	var s strings.Builder
	for i, j, n := 0, 0, 0; (i < len(a) || j < len(b)) && n < max; {
		var addr, mv, ov uint64
		switch {
		case j == len(b) || (i < len(a) && a[i].Addr < b[j].Addr):
			addr, mv = a[i].Addr, a[i].Val
			i++
		case i == len(a) || b[j].Addr < a[i].Addr:
			addr, ov = b[j].Addr, b[j].Val
			j++
		default:
			addr, mv, ov = a[i].Addr, a[i].Val, b[j].Val
			i++
			j++
			if mv == ov {
				continue
			}
		}
		fmt.Fprintf(&s, "  [0x%x] %d != %d\n", addr, mv, ov)
		n++
	}
	return s.String()
}

// MemEntry is one address/value pair of a memory image snapshot.
type MemEntry = struct{ Addr, Val uint64 }

// Snapshot returns addr->value pairs sorted by address, for hashing and
// deterministic comparison in tests.
func (m *Memory) Snapshot() []MemEntry {
	out := make([]MemEntry, 0, m.n)
	for i, e := range m.tab {
		if e.p == nil {
			continue
		}
		lo := uint64(i) << pageShift
		for w, v := range e.p {
			if v != 0 {
				out = append(out, MemEntry{lo + uint64(w)*8, v})
			}
		}
	}
	if len(m.spill) > 0 {
		for a, v := range m.spill {
			out = append(out, MemEntry{a, v})
		}
		slices.SortFunc(out, func(x, y MemEntry) int { return cmp.Compare(x.Addr, y.Addr) })
	}
	return out
}
