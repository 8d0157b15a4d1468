// Package cache models a set-associative cache hierarchy with LRU
// replacement, mirroring the paper's gem5 configuration for an ARM
// Cortex-A53-class core: 32KB/64KB 2-way L1 I/D caches with a 2-cycle hit,
// a unified 128KB 16-way L2 with a 20-cycle hit, and main memory behind it.
// Only timing is modeled here (data lives in the simulator's functional
// memory); the hierarchy returns access latencies and records statistics.
package cache

import (
	"fmt"
	"slices"

	"repro/internal/obs"
)

// LineSize is the cache line size in bytes.
const LineSize = 64

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	Assoc      int
	HitLatency int // cycles, charged on hit at this level
}

// Cache is one set-associative level with LRU replacement.
type Cache struct {
	cfg  Config
	sets int
	// tags and lru are flat [set*assoc+way] arrays, so a snapshot or a
	// restore is one copy each: tag values (0 means empty; tags are
	// offset by +1) and last-touch stamps.
	tags  []uint64
	lru   []uint64
	stamp uint64

	Hits   uint64
	Misses uint64
}

// New builds a cache from cfg, validating the geometry.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 {
		return nil, fmt.Errorf("cache %s: invalid geometry %d/%d", cfg.Name, cfg.SizeBytes, cfg.Assoc)
	}
	lines := cfg.SizeBytes / LineSize
	if lines%cfg.Assoc != 0 {
		return nil, fmt.Errorf("cache %s: %d lines not divisible by assoc %d", cfg.Name, lines, cfg.Assoc)
	}
	sets := lines / cfg.Assoc
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	return &Cache{cfg: cfg, sets: sets, tags: make([]uint64, lines), lru: make([]uint64, lines)}, nil
}

// MustNew is New for static configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr / LineSize
	return int(line) & (c.sets - 1), line/uint64(c.sets) + 1 // +1 so 0 = empty
}

// ways returns set's tag and stamp slots.
func (c *Cache) ways(set int) (tags, lru []uint64) {
	lo, hi := set*c.cfg.Assoc, (set+1)*c.cfg.Assoc
	return c.tags[lo:hi:hi], c.lru[lo:hi:hi]
}

// Access touches addr, returning whether it hit and installing the line on
// miss (allocate-on-miss for both reads and writes).
func (c *Cache) Access(addr uint64) bool {
	set, tag := c.index(addr)
	c.stamp++
	ways, lru := c.ways(set)
	for w, t := range ways {
		if t == tag {
			lru[w] = c.stamp
			c.Hits++
			return true
		}
	}
	c.Misses++
	// Install into LRU way.
	victim := 0
	for w := 1; w < len(lru); w++ {
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	ways[victim] = tag
	lru[victim] = c.stamp
	return false
}

// Contains reports whether addr's line is resident, without touching LRU.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	ways, _ := c.ways(set)
	for _, t := range ways {
		if t == tag {
			return true
		}
	}
	return false
}

// HitLatency returns this level's hit latency.
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.tags)
	clear(c.lru)
	c.stamp, c.Hits, c.Misses = 0, 0, 0
}

// levelImage is one cache level's captured replacement state.
type levelImage struct {
	tags, lru []uint64
	stamp     uint64
}

func (c *Cache) snapshotInto(img *levelImage) {
	img.tags = append(img.tags[:0], c.tags...)
	img.lru = append(img.lru[:0], c.lru...)
	img.stamp = c.stamp
}

// restoreFrom primes the level's contents from img and zeroes the
// hit/miss counters; img must come from a level with the same geometry.
func (c *Cache) restoreFrom(img *levelImage) {
	copy(c.tags, img.tags)
	copy(c.lru, img.lru)
	c.stamp = img.stamp
	c.Hits, c.Misses = 0, 0
}

// Image is a reusable snapshot of a hierarchy's full replacement state
// (tags, LRU stamps, clock). Fault campaigns capture the golden run's
// warmed hierarchy once and restore every trial's simulator from it —
// after the first Snapshot into an Image, both directions are
// allocation-free.
type Image struct {
	lv [3]levelImage // L1I, L1D, L2
}

// Snapshot captures the hierarchy's replacement state into img.
func (h *Hierarchy) Snapshot(img *Image) {
	for i, c := range h.levels() {
		c.snapshotInto(&img.lv[i])
	}
}

// Restore primes the hierarchy from img and zeroes the per-level
// hit/miss counters, so a restored simulator's statistics count only
// its own run. img must come from a hierarchy with the same geometry.
func (h *Hierarchy) Restore(img *Image) {
	for i, c := range h.levels() {
		c.restoreFrom(&img.lv[i])
	}
}

// Clock is a hierarchy's per-level LRU clock. A set touched after the
// clock was read holds a newer stamp than it.
type Clock [3]uint64

// Clock returns the clock the image was taken at.
func (img *Image) Clock() Clock {
	return Clock{img.lv[0].stamp, img.lv[1].stamp, img.lv[2].stamp}
}

// Delta is the part of a hierarchy's state that changed after a Clock:
// every set holding a newer LRU stamp, by value, plus each level's clock
// and hit/miss counters. Restoring an Image and then applying, in order,
// a chain of deltas each taken since the previous one's clock rebuilds
// the hierarchy exactly as it was when the last delta was taken.
type Delta struct {
	lv [3]levelDelta // L1I, L1D, L2
}

// levelDelta is one level's changed sets: their indices, and their tags
// and stamps (assoc entries per set).
type levelDelta struct {
	sets                []int32
	tags, lru           []uint64
	stamp, hits, misses uint64
}

// DeltaSince captures every set of h touched after since.
func (h *Hierarchy) DeltaSince(since Clock) Delta {
	var d Delta
	for i, c := range h.levels() {
		ld := &d.lv[i]
		for set := range c.sets {
			if c.stamp == since[i] {
				break // the level served no access since: no newer stamp
			}
			if _, lru := c.ways(set); slices.Max(lru) > since[i] {
				ld.sets = append(ld.sets, int32(set))
			}
		}
		ld.fill(c)
	}
	return d
}

// fill copies the ways of ld's sets, and c's clock and counters, from c.
func (ld *levelDelta) fill(c *Cache) {
	a := c.cfg.Assoc
	ld.tags = make([]uint64, 0, len(ld.sets)*a)
	ld.lru = make([]uint64, 0, len(ld.sets)*a)
	for _, set := range ld.sets {
		tags, lru := c.ways(int(set))
		ld.tags = append(ld.tags, tags...)
		ld.lru = append(ld.lru, lru...)
	}
	ld.stamp, ld.hits, ld.misses = c.stamp, c.Hits, c.Misses
}

// Apply writes d's sets and counters into h, which must have the
// geometry d was taken from, and advances each level's clock to d's
// unless h's is later. A hierarchy that held the state d was taken
// since then holds the state d was taken at. A fault trial's, whose
// clock may be past d's, keeps its other sets' stamps below its clock,
// so the next access still stamps the newest way of its set.
func (h *Hierarchy) Apply(d *Delta) {
	for i, c := range h.levels() {
		ld := &d.lv[i]
		a := c.cfg.Assoc
		for k, set := range ld.sets {
			tags, lru := c.ways(int(set))
			copy(tags, ld.tags[k*a:])
			copy(lru, ld.lru[k*a:])
		}
		c.stamp, c.Hits, c.Misses = max(c.stamp, ld.stamp), ld.hits, ld.misses
	}
}

// Merge makes d, taken since some clock, the delta since that clock of
// the state later was taken at, where later was taken since d's clock:
// the sets of both, later's where both hold a set, and later's clocks
// and counters. d's slices are replaced, not written, so a copy of d
// made before keeps its sets.
func (d *Delta) Merge(later *Delta) {
	for i := range d.lv {
		d.lv[i].merge(&later.lv[i])
	}
}

func (ld *levelDelta) merge(o *levelDelta) {
	m := levelDelta{stamp: o.stamp, hits: o.hits, misses: o.misses}
	if n := len(ld.sets) + len(o.sets); n > 0 {
		a := (len(ld.tags) + len(o.tags)) / n
		take := func(from *levelDelta, k int) {
			m.sets = append(m.sets, from.sets[k])
			m.tags = append(m.tags, from.tags[k*a:(k+1)*a]...)
			m.lru = append(m.lru, from.lru[k*a:(k+1)*a]...)
		}
		i, j := 0, 0
		for i < len(ld.sets) || j < len(o.sets) {
			switch {
			case j == len(o.sets) || (i < len(ld.sets) && ld.sets[i] < o.sets[j]):
				take(ld, i)
				i++
			default:
				if i < len(ld.sets) && ld.sets[i] == o.sets[j] {
					i++
				}
				take(o, j)
				j++
			}
		}
	}
	*ld = m
}

// Clock returns the clock d was taken at.
func (d *Delta) Clock() Clock {
	return Clock{d.lv[0].stamp, d.lv[1].stamp, d.lv[2].stamp}
}

// Bytes returns the size of d's set records.
func (d *Delta) Bytes() int {
	n := 0
	for i := range d.lv {
		n += 4*len(d.lv[i].sets) + 8*(len(d.lv[i].tags)+len(d.lv[i].lru))
	}
	return n
}

// SetClocks holds, per level, each set's newest LRU stamp: the level's
// clock at the set's most recent access (0 for a set never touched).
// Every access stamps the way it hits or fills with the level's next
// clock value, so a set holds a stamp newer than a Clock exactly when it
// was accessed after that clock was read.
type SetClocks [3][]uint64

// SetClocks returns h's per-set newest stamps.
func (h *Hierarchy) SetClocks() SetClocks {
	var sc SetClocks
	for i, c := range h.levels() {
		sc[i] = make([]uint64, c.sets)
		for set := range c.sets {
			_, lru := c.ways(set)
			sc[i][set] = slices.Max(lru)
		}
	}
	return sc
}

// Equivalent reports whether h replaces lines exactly as o does on any
// access sequence that touches only the sets that last holds a stamp
// newer than o's clock for. On each such set the two must hold the same
// tag in every way and order their ways' stamps the same way; the
// stamps themselves may differ, because a victim is the way with the
// oldest stamp of its set and every later access stamps newer than all
// of them. The other sets, and the hit/miss counters, are not compared.
func (h *Hierarchy) Equivalent(o *Hierarchy, last *SetClocks) bool {
	ol := o.levels()
	for i, c := range h.levels() {
		oc := ol[i]
		for set, t := range last[i] {
			if t <= oc.stamp {
				continue
			}
			tags, lru := c.ways(set)
			otags, olru := oc.ways(set)
			if !slices.Equal(tags, otags) || !sameOrder(lru, olru) {
				return false
			}
		}
	}
	return true
}

// sameOrder reports whether a and b, of equal length, order their
// elements identically.
func sameOrder(a, b []uint64) bool {
	if slices.Equal(a, b) {
		return true
	}
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			if (a[i] < a[j]) != (b[i] < b[j]) || (a[i] > a[j]) != (b[i] > b[j]) {
				return false
			}
		}
	}
	return true
}

// Hierarchy is the two-level hierarchy with a flat memory behind it.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	// MemLatency is the main-memory access latency in cycles.
	MemLatency int

	rec *Stream // nil unless recording (Record)
}

// HierarchyConfig sizes a hierarchy; DefaultHierarchy gives the paper's.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	MemLatency   int
}

// DefaultHierarchyConfig is the paper's §6.1 gem5 configuration.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:        Config{Name: "l1i", SizeBytes: 32 << 10, Assoc: 2, HitLatency: 2},
		L1D:        Config{Name: "l1d", SizeBytes: 64 << 10, Assoc: 2, HitLatency: 2},
		L2:         Config{Name: "l2", SizeBytes: 128 << 10, Assoc: 16, HitLatency: 20},
		MemLatency: 100,
	}
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l1i, err := New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	if cfg.MemLatency <= 0 {
		return nil, fmt.Errorf("cache: memory latency %d <= 0", cfg.MemLatency)
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, MemLatency: cfg.MemLatency}, nil
}

// MustNewHierarchy panics on config errors; for static configurations.
func MustNewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h, err := NewHierarchy(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Kinds of access a Stream records.
const (
	instKind  = iota // InstAccess
	dataKind         // DataAccess
	touchKind        // TouchData
)

// DataAccess returns the latency of a data access to addr, updating L1D/L2
// state. Writes allocate like reads (write-allocate, write-back timing is
// folded into the store-buffer model).
func (h *Hierarchy) DataAccess(addr uint64) int {
	switch {
	case h.L1D.Access(addr):
		h.record(addr, dataKind, 0)
		return h.L1D.HitLatency()
	case h.L2.Access(addr):
		h.record(addr, dataKind, 1)
		return h.L1D.HitLatency() + h.L2.HitLatency()
	}
	h.record(addr, dataKind, 2)
	return h.L1D.HitLatency() + h.L2.HitLatency() + h.MemLatency
}

// InstAccess returns the latency of an instruction fetch from addr.
func (h *Hierarchy) InstAccess(addr uint64) int {
	switch {
	case h.L1I.Access(addr):
		h.record(addr, instKind, 0)
		return 0 // fetch hit is hidden by the pipeline
	case h.L2.Access(addr):
		h.record(addr, instKind, 1)
		return h.L2.HitLatency()
	}
	h.record(addr, instKind, 2)
	return h.L2.HitLatency() + h.MemLatency
}

// TouchData accesses addr in the L1D alone, for the accesses whose
// latency is not charged: a load the store buffer forwards, and a store
// or checkpoint at commit. Its level is 0 on a hit, 1 on a miss.
func (h *Hierarchy) TouchData(addr uint64) {
	if h.L1D.Access(addr) {
		h.record(addr, touchKind, 0)
	} else {
		h.record(addr, touchKind, 1)
	}
}

// record appends an access to the stream h records into, if any.
func (h *Hierarchy) record(addr uint64, kind, level int) {
	if h.rec != nil {
		h.rec.add(addr, kind, level)
	}
}

// serve performs one access of kind to addr as InstAccess, DataAccess
// or TouchData does, recording included, and returns the level that
// served it. Those three do not call it: on the simulator's fetch path
// the extra call cost about 15% of an access.
func (h *Hierarchy) serve(kind int, addr uint64) (level int) {
	l1 := h.L1D
	if kind == instKind {
		l1 = h.L1I
	}
	switch {
	case l1.Access(addr):
	case kind == touchKind || h.L2.Access(addr):
		level = 1
	default:
		level = 2
	}
	h.record(addr, kind, level)
	return level
}

// Stream is a hierarchy's recorded access sequence (Record), one 32-bit
// word per access: line<<4 | kind<<2 | level, with the line address, the
// kind of access (InstAccess, DataAccess or TouchData) and the level
// that served it. Its capacity is fixed when it is made. An access past
// it, or to a line beyond 1<<28 (16 GiB), is dropped, and the stream is
// then cut short.
type Stream struct {
	words []uint32
	short bool
}

// NewStream makes an empty stream with room for n accesses.
func NewStream(n int) *Stream { return &Stream{words: make([]uint32, 0, n)} }

func (st *Stream) add(addr uint64, kind, level int) {
	line := addr / LineSize
	if st.short || len(st.words) == cap(st.words) || line >= 1<<28 {
		st.short = true
		return
	}
	st.words = append(st.words, uint32(line)<<4|uint32(kind)<<2|uint32(level))
}

// Len returns the number of accesses recorded.
func (st *Stream) Len() int { return len(st.words) }

// Short reports whether an access was dropped (the stream was full, or
// the line out of range): the recorded accesses then end before the
// recording did.
func (st *Stream) Short() bool { return st.short }

// Record makes h append every access to st from now on; nil stops.
func (h *Hierarchy) Record(st *Stream) { h.rec = st }

// Replay performs st's accesses [from, to) on h, in order, and returns
// the index of the first one that h serves at another level than the
// recorded one, or to when every level matches.
func (h *Hierarchy) Replay(st *Stream, from, to int) int {
	for i, w := range st.words[from:to] {
		if h.serve(int(w>>2&3), uint64(w>>4)*LineSize) != int(w&3) {
			return from + i
		}
	}
	return to
}

// levels returns the hierarchy's caches in Image and Delta order.
func (h *Hierarchy) levels() [3]*Cache { return [3]*Cache{h.L1I, h.L1D, h.L2} }

// Reset clears all levels.
func (h *Hierarchy) Reset() {
	for _, c := range h.levels() {
		c.Reset()
	}
}

// FillRegistry exports per-level hit/miss counters and hit rates into reg
// under "cache.<level>.*". Values add on repeat calls; use a fresh
// registry per run.
func (h *Hierarchy) FillRegistry(reg *obs.Registry) {
	for _, c := range h.levels() {
		c.FillRegistry(reg)
	}
}

// FillRegistry exports this level's hit/miss counters into reg.
func (c *Cache) FillRegistry(reg *obs.Registry) {
	name := c.cfg.Name
	if name == "" {
		name = "cache"
	}
	reg.Counter("cache." + name + ".hits").Add(c.Hits)
	reg.Counter("cache." + name + ".misses").Add(c.Misses)
}
