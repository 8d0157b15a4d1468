package pipeline

// committedLoadQueue abstracts the two CLQ designs of §4.3.1. Both track,
// per in-flight region, the addresses of committed loads so a committing
// regular store can be tested for WAR-freedom. The check spans *all*
// entries — every unverified region, not just the current one: a detected
// error restarts the earliest unverified region, which re-executes its
// loads, so a fast-released store may not overlap any unverified region's
// load set (this is why CLQ entries are cleared at region *verification*,
// not at region end). noteLoad reports false on overflow (compact design
// out of entries), which drives the selective-control FSM.
type committedLoadQueue interface {
	noteLoad(region int, addr uint64) bool
	warFree(addr uint64) bool
	clearRegion(region int)
	clearAll()
	occupancy() int
}

// compactCLQ is the paper's design: one {min,max} address range per
// region, capped at a fixed number of entries (2 by default). Range
// checking trades a little precision for a tiny, CAM-free structure.
// Its entries are part of the simulator's state value.
type compactCLQ struct {
	entries []compactEntry
}

type compactEntry struct {
	region   int
	min, max uint64
	used     bool
}

func (c *compactCLQ) noteLoad(region int, addr uint64) bool {
	var free *compactEntry
	for i := range c.entries {
		e := &c.entries[i]
		if e.used && e.region == region {
			if addr < e.min {
				e.min = addr
			}
			if addr > e.max {
				e.max = addr
			}
			return true
		}
		if !e.used && free == nil {
			free = e
		}
	}
	if free == nil {
		return false
	}
	*free = compactEntry{region: region, min: addr, max: addr, used: true}
	return true
}

func (c *compactCLQ) warFree(addr uint64) bool {
	for i := range c.entries {
		e := &c.entries[i]
		if e.used && addr >= e.min && addr <= e.max {
			return false
		}
	}
	return true // no unverified region loaded this address
}

func (c *compactCLQ) clearRegion(region int) {
	for i := range c.entries {
		if c.entries[i].used && c.entries[i].region == region {
			c.entries[i] = compactEntry{}
		}
	}
}

func (c *compactCLQ) clearAll() {
	for i := range c.entries {
		c.entries[i] = compactEntry{}
	}
}

func (c *compactCLQ) occupancy() int {
	n := 0
	for i := range c.entries {
		if c.entries[i].used {
			n++
		}
	}
	return n
}

// idealCLQ keeps exact per-region load address sets with no capacity
// bound: the 100%-accurate comparison point of Figs. 14/15.
type idealCLQ struct {
	byRegion map[int]map[uint64]bool
}

func newIdealCLQ() *idealCLQ { return &idealCLQ{byRegion: map[int]map[uint64]bool{}} }

func (c *idealCLQ) noteLoad(region int, addr uint64) bool {
	s := c.byRegion[region]
	if s == nil {
		s = map[uint64]bool{}
		c.byRegion[region] = s
	}
	s[addr] = true
	return true
}

func (c *idealCLQ) warFree(addr uint64) bool {
	for _, s := range c.byRegion {
		if s[addr] {
			return false
		}
	}
	return true
}

func (c *idealCLQ) clearRegion(region int) { delete(c.byRegion, region) }

func (c *idealCLQ) clearAll() { c.byRegion = map[int]map[uint64]bool{} }

func (c *idealCLQ) occupancy() int { return len(c.byRegion) }
