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
type colorMaps struct {
	free [isa.NumRegs][]int // AC: free colors per register
	vc   [isa.NumRegs]int   // VC: verified color, -1 if none
}

func newColorMaps() *colorMaps {
	cm := &colorMaps{}
	for r := range cm.free {
		for c := 0; c < isa.NumColors; c++ {
			cm.free[r] = append(cm.free[r], c)
		}
		cm.vc[r] = -1
	}
	return cm
}

// reset returns every color to the free pool in newColorMaps order and
// clears the verified map, reusing the free-list backing arrays.
func (cm *colorMaps) reset() {
	for r := range cm.free {
		fl := cm.free[r][:0]
		for c := 0; c < isa.NumColors; c++ {
			fl = append(fl, c)
		}
		cm.free[r] = fl
		cm.vc[r] = -1
	}
}

// acquire takes a free color for reg, or returns -1 when the pool is dry.
func (cm *colorMaps) acquire(r isa.Reg) int {
	fl := cm.free[r]
	if len(fl) == 0 {
		return -1
	}
	c := fl[len(fl)-1]
	cm.free[r] = fl[:len(fl)-1]
	return c
}

// verify moves reg's used color into VC, reclaiming the previous verified
// color into AC.
func (cm *colorMaps) verify(r isa.Reg, color int) {
	if prev := cm.vc[r]; prev >= 0 {
		cm.free[r] = append(cm.free[r], prev)
	}
	cm.vc[r] = color
}

// squash returns a used-but-unverified color to AC (its region was
// discarded by recovery).
func (cm *colorMaps) squash(r isa.Reg, color int) {
	cm.free[r] = append(cm.free[r], color)
}

// verified returns reg's verified color, or -1 when reg has never had a
// verified checkpoint (its slot 0 holds the initial image, by convention).
func (cm *colorMaps) verified(r isa.Reg) int { return cm.vc[r] }

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
