package pipeline

import (
	"reflect"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/isa"
)

// Epoch fast-forward. A fault trial is identical to the warm golden run
// until its first fault event fires, so instead of re-simulating that
// fault-free prefix a trial resumes from the last epoch the golden run
// recorded before the event (GoldenState.ResetAt).

// epochs is how many equal instruction intervals the warm golden run is
// cut into. The state at the start of every interval is an epoch; the
// first one is the trial-start snapshot itself, so epochs-1 are stored.
const epochs = 16

// epochBudget caps the bytes a golden state's epochs hold. A program
// that rewrites many pages or cache sets every interval stops recording
// at the first epoch that would exceed it, and later trials start from
// the last epoch recorded.
const epochBudget = 512 << 10

// epoch is the complete simulator state at the first step boundary of
// the warm golden run at which insts instructions had retired: memory
// words and cache sets as chained deltas against the previous epoch (or
// the trial-start snapshot), and a copy of the state value.
type epoch struct {
	insts  uint64
	mem    []isa.MemEntry // words changed since the previous epoch
	caches cache.Delta    // sets touched since the previous epoch

	// suffix is what the golden run adds to its statistics from here to
	// halt (RunCut): counters, Cycles from this epoch's cycle, and the
	// largest CLQ occupancy sampled after this epoch.
	suffix Stats

	state simState
}

// RecordEpochs Resets s, which must have been built for the snapshot's
// program and configuration (Fork, Adopt), runs the warm golden
// execution on it to halt and returns the run's statistics. On the way
// it records the epochs ResetAt resumes trials from: the state at the
// first step boundary where Stats.Insts reaches k·Insts/epochs of the
// golden run's instruction count, for k = 1 … epochs-1, until the
// epochs would exceed epochBudget. A BOUND step retires no instruction,
// so only the first boundary at an instruction count is the one at
// which a trial fires an event scheduled for that count. A snapshot
// whose configuration records regions (the region log must be whole)
// or uses the ideal CLQ records none. RecordEpochs replaces any earlier
// recording; it must not run concurrently with ResetAt.
//
// It also records what RunCut compares trials with the epochs by: each
// epoch's golden suffix statistics, the run's final per-set cache
// clocks, register liveness, and whether the checkpoint window may be
// compared up to a colour renaming.
func (g *GoldenState) RecordEpochs(s *Sim) (Stats, error) {
	g.Reset(s)
	g.epochs = nil
	if g.cfg.RecordRegions || (s.clq != nil && g.cfg.CLQ == CLQIdeal) {
		return s.Run()
	}
	target := func(k int) uint64 { return g.stats.Insts * uint64(k) / epochs }
	next := func(k int) int {
		for k < epochs && target(k) <= s.Stats.Insts {
			k++
		}
		return k
	}
	mem := s.Mem.Track()
	clock := g.img.Clock()
	size := 0
	lo, hi := g.prog.CkptBase, g.prog.CkptBase+ckptBytes
	touched := false
	var occ []uint64 // per epoch, the largest CLQ occupancy sampled until the next
	for k := next(1); !s.halted; {
		if k < epochs && s.Stats.Insts >= target(k) {
			e := s.epoch(mem, clock)
			if size += e.bytes(); size > epochBudget {
				k = epochs
			} else {
				g.epochs = append(g.epochs, e)
				occ = append(occ, 0)
				clock = e.caches.Clock()
				k = next(k)
			}
		}
		if in := &s.Prog.Insts[s.PC]; in.Op == isa.LD || in.Op == isa.ST {
			a := s.Regs[in.Rs1] + uint64(in.Imm)
			touched = touched || (a >= lo && a < hi)
		}
		samples := s.Stats.CLQOccSamples
		if err := s.Step(); err != nil {
			return s.Stats, err
		}
		if n := len(occ); n > 0 && s.Stats.CLQOccSamples != samples {
			// A boundary sampled the CLQ as its step's last change.
			occ[n-1] = max(occ[n-1], uint64(s.clq.occupancy()))
		}
	}
	after := uint64(0)
	for i := len(g.epochs) - 1; i >= 0; i-- {
		e := &g.epochs[i]
		after = max(after, occ[i])
		e.suffix = statsSince(s.Stats, e.state.Stats)
		e.suffix.Cycles = s.Stats.Cycles - e.state.cycle
		e.suffix.CLQOccMax = after
	}
	g.setClocks = s.hier.SetClocks()
	g.live = isa.BuildCFG(g.prog).LiveIn()
	g.renameCkpt = g.prog.CkptBase%32 == 0 && !touched
	return s.Stats, nil
}

// statsSince returns the counters end gained since start.
func statsSince(end, start Stats) Stats {
	d, o := reflect.ValueOf(&end).Elem(), reflect.ValueOf(start)
	for i := range d.NumField() {
		d.Field(i).SetUint(d.Field(i).Uint() - o.Field(i).Uint())
	}
	return end
}

// epoch captures s's state, with memory and cache deltas since the
// previous capture: mem tracks s.Mem, and clock is the cache clock of
// the previous capture.
func (s *Sim) epoch(mem *isa.DeltaTracker, clock cache.Clock) epoch {
	e := epoch{insts: s.Stats.Insts, mem: mem.Delta(nil), caches: s.hier.DeltaSince(clock)}
	e.state.copyFrom(&s.simState)
	return e
}

// bytes returns the epoch's size: the struct, the deltas and the state
// value's slices.
func (e *epoch) bytes() int {
	n := int(unsafe.Sizeof(*e)) + e.caches.Bytes() + len(e.mem)*int(unsafe.Sizeof(isa.MemEntry{}))
	return n + sliceBytes(reflect.ValueOf(e.state))
}

// sliceBytes returns the bytes the slices among v's fields hold,
// searching nested structs.
func sliceBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Slice:
		return v.Len() * int(v.Type().Elem().Size())
	case reflect.Struct:
		n := 0
		for i := range v.NumField() {
			n += sliceBytes(v.Field(i))
		}
		return n
	}
	return 0
}
