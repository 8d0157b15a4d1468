package pipeline

import "repro/internal/isa"

// colorMaps implements the hardware coloring of §4.3.2: a pool of
// isa.NumColors checkpoint storage slots per register and three maps —
// Available (AC), Used (UC, kept per region in the RBB), and Verified (VC).
// A checkpoint store grabs a free color and is released to cache
// immediately; when its region verifies, the color moves into VC (and the
// previously verified color returns to AC); when its region is squashed by
// recovery, the color returns to AC directly. Recovery restores a register
// from its VC color.
//
// The maps are fixed-size arrays, so copying a colorMaps copies the whole
// state (epochs store it by value). Each color of a register is in
// exactly one of AC, VC and some region's UC (the invariant checker
// verifies the partition), so a free list never holds more than
// isa.NumColors entries.
type colorMaps struct {
	free  [isa.NumRegs][isa.NumColors]int8 // AC: free colors per register, a stack of nfree[r]
	nfree [isa.NumRegs]uint8
	vc    [isa.NumRegs]int8 // VC: verified color, -1 if none
}

// reset returns every color to the free pool, in color order, and
// clears the verified map.
func (cm *colorMaps) reset() {
	for r := range cm.free {
		for c := range cm.free[r] {
			cm.free[r][c] = int8(c)
		}
		cm.nfree[r] = isa.NumColors
		cm.vc[r] = -1
	}
}

// freeColors returns reg's free colors, the next to be acquired last.
func (cm *colorMaps) freeColors(r isa.Reg) []int8 { return cm.free[r][:cm.nfree[r]] }

// acquire takes a free color for reg, or returns -1 when the pool is dry.
func (cm *colorMaps) acquire(r isa.Reg) int {
	n := cm.nfree[r]
	if n == 0 {
		return -1
	}
	cm.nfree[r] = n - 1
	return int(cm.free[r][n-1])
}

// release returns color to reg's free pool.
func (cm *colorMaps) release(r isa.Reg, color int) {
	cm.free[r][cm.nfree[r]] = int8(color)
	cm.nfree[r]++
}

// verify moves reg's used color into VC, reclaiming the previous verified
// color into AC.
func (cm *colorMaps) verify(r isa.Reg, color int) {
	if prev := cm.vc[r]; prev >= 0 {
		cm.release(r, int(prev))
	}
	cm.vc[r] = int8(color)
}

// squash returns a used-but-unverified color to AC (its region was
// discarded by recovery).
func (cm *colorMaps) squash(r isa.Reg, color int) { cm.release(r, color) }

// verified returns reg's verified color, or -1 when reg has never had a
// verified checkpoint (its slot 0 holds the initial image, by convention).
func (cm *colorMaps) verified(r isa.Reg) int { return int(cm.vc[r]) }

// usedColors is one region's UC map: the color each register's
// checkpoint took in the region. regs has bit r set when register r
// holds one, and walking it lowest bit first visits registers in order.
// Each register's pool is independent, so the order in which verify and
// squash visit registers cannot change a result.
type usedColors struct {
	regs  uint64
	color [isa.NumRegs]int8
}

// The regs bitmask must have a bit per register.
var _ [64 - isa.NumRegs]struct{}

func (u *usedColors) has(r isa.Reg) bool { return u.regs&(1<<r) != 0 }

// of returns r's color; only meaningful when has(r).
func (u *usedColors) of(r isa.Reg) int { return int(u.color[r]) }

func (u *usedColors) set(r isa.Reg, c int) {
	u.regs |= 1 << r
	u.color[r] = int8(c)
}
