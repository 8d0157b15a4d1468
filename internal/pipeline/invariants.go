package pipeline

import (
	"fmt"

	"repro/internal/isa"
)

// CheckInvariants audits the simulator's internal consistency; tests call
// it periodically while stepping (it is O(state), too heavy for every
// cycle in production use). A non-nil error indicates a simulator bug, not
// a program bug.
//
// Invariants:
//
//  1. RBB holds unverified regions in FIFO (monotone instance) order, all
//     with monotone start cycles; at most one (the last) is still open.
//  2. The store buffer never exceeds its capacity, and every quarantined
//     entry's region is tracked (in the RBB or already verified).
//  3. The color maps partition each register's pool: free + in-flight
//     (UC) + verified (VC) colors are distinct and total NumColors.
//  4. The compact CLQ occupancy never exceeds its capacity, and every
//     entry belongs to an unverified region.
func (s *Sim) CheckInvariants() error {
	// 1: RBB ordering.
	for i := 1; i < len(s.rbb); i++ {
		if s.rbb[i].id <= s.rbb[i-1].id {
			return fmt.Errorf("invariant: RBB instances out of order at %d", i)
		}
		if s.rbb[i].start < s.rbb[i-1].start {
			return fmt.Errorf("invariant: RBB starts out of order at %d", i)
		}
	}
	for i, r := range s.rbb {
		if r.verified {
			return fmt.Errorf("invariant: verified region %d still in RBB", r.id)
		}
		open := r.verifyAt == infCycle
		if open && i != len(s.rbb)-1 {
			return fmt.Errorf("invariant: open region %d is not the RBB tail", r.id)
		}
	}

	// 2: store buffer.
	if s.sb.len() > s.Cfg.SBSize {
		return fmt.Errorf("invariant: SB holds %d > %d entries", s.sb.len(), s.Cfg.SBSize)
	}
	inRBB := map[*regionInst]bool{}
	for _, r := range s.rbb {
		inRBB[r] = true
	}
	for i := range s.sb.entries {
		e := &s.sb.entries[i]
		if !e.quarantined {
			continue
		}
		if e.region == nil {
			return fmt.Errorf("invariant: quarantined SB entry without region")
		}
		if !e.region.verified && !inRBB[e.region] {
			return fmt.Errorf("invariant: quarantined entry's region %d neither tracked nor verified", e.region.id)
		}
	}

	// 3: color partition.
	if s.colors != nil {
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			seen := map[int]string{}
			claim := func(c int, who string) error {
				if c < 0 || c >= isa.NumColors {
					return fmt.Errorf("invariant: %v color %d out of range (%s)", r, c, who)
				}
				if prev, dup := seen[c]; dup {
					return fmt.Errorf("invariant: %v color %d claimed by %s and %s", r, c, prev, who)
				}
				seen[c] = who
				return nil
			}
			for _, c := range s.colors.freeColors(r) {
				if err := claim(int(c), "AC"); err != nil {
					return err
				}
			}
			if vc := s.colors.verified(r); vc >= 0 {
				if err := claim(vc, "VC"); err != nil {
					return err
				}
			}
			for _, reg := range s.rbb {
				if reg.colors.has(r) {
					if err := claim(reg.colors.of(r), fmt.Sprintf("UC(region %d)", reg.id)); err != nil {
						return err
					}
				}
			}
			if len(seen) > isa.NumColors {
				return fmt.Errorf("invariant: %v has %d colors", r, len(seen))
			}
		}
	}

	// 4: CLQ.
	if c, ok := s.clq.(*compactCLQ); ok && c != nil {
		if c.occupancy() > len(c.entries) {
			return fmt.Errorf("invariant: CLQ occupancy exceeds capacity")
		}
		unverified := map[int]bool{}
		for _, r := range s.rbb {
			unverified[r.id] = true
		}
		for _, e := range c.entries {
			if e.used && !unverified[e.region] {
				return fmt.Errorf("invariant: CLQ entry for verified/unknown region %d", e.region)
			}
		}
	}
	return nil
}
