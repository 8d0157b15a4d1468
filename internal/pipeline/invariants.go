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
//  1. The RBB holds unverified regions with consecutive ids below
//     nextRegion and monotone start cycles; at most one (the last) is
//     still open.
//  2. The store buffer never exceeds its capacity. Every quarantined
//     entry names a region, and every region id an entry or a pending
//     detection names lies below nextRegion. An entry whose region has
//     left the RBB (verified) has a finite drain cycle.
//  3. The color maps partition each register's pool: free + in-flight
//     (UC) + verified (VC) colors are distinct and total NumColors.
//  4. The compact CLQ occupancy never exceeds its capacity, and every
//     entry belongs to an unverified region.
//  5. The issue cursor holds at most IssueWidth instructions.
func (s *Sim) CheckInvariants() error {
	// 1: RBB ordering.
	for i, r := range s.rbb {
		if r.id != s.rbb[0].id+i || r.id >= s.nextRegion {
			return fmt.Errorf("invariant: RBB region %d at %d after %d, next region %d", r.id, i, s.rbb[0].id, s.nextRegion)
		}
		if i > 0 && r.start < s.rbb[i-1].start {
			return fmt.Errorf("invariant: RBB starts out of order at %d", i)
		}
		if r.verifyAt == infCycle && i != len(s.rbb)-1 {
			return fmt.Errorf("invariant: open region %d is not the RBB tail", r.id)
		}
	}

	// 2: store buffer and detection anchors.
	if s.sb.len() > s.Cfg.SBSize {
		return fmt.Errorf("invariant: SB holds %d > %d entries", s.sb.len(), s.Cfg.SBSize)
	}
	unverified := s.unverifiedFrom()
	for i := range s.sb.entries {
		e := &s.sb.entries[i]
		if !e.quarantined {
			continue
		}
		if e.region == noRegion {
			return fmt.Errorf("invariant: quarantined SB entry without region")
		}
		if e.region < 0 || e.region >= s.nextRegion {
			return fmt.Errorf("invariant: SB entry names region %d, next region %d", e.region, s.nextRegion)
		}
		if e.region < unverified && e.verifyAt == infCycle {
			return fmt.Errorf("invariant: SB entry of verified region %d never drains", e.region)
		}
	}
	for _, d := range s.pendingDetects {
		if d.anchor < noRegion || d.anchor >= s.nextRegion {
			return fmt.Errorf("invariant: detection anchored on region %d, next region %d", d.anchor, s.nextRegion)
		}
	}

	// 3: color partition.
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

	// 4: CLQ.
	if c, ok := s.clq.(*compactCLQ); ok {
		if c.occupancy() > len(c.entries) {
			return fmt.Errorf("invariant: CLQ occupancy exceeds capacity")
		}
		for _, e := range c.entries {
			if e.used && (e.region < unverified || e.region >= s.nextRegion) {
				return fmt.Errorf("invariant: CLQ entry for verified/unknown region %d", e.region)
			}
		}
	}

	// 5: issue slots.
	if s.slots > s.Cfg.IssueWidth {
		return fmt.Errorf("invariant: %d instructions issued in cycle %d, width %d", s.slots, s.cycle, s.Cfg.IssueWidth)
	}
	return nil
}
