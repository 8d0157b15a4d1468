package pipeline

import (
	"cmp"
	"reflect"
	"slices"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/isa"
)

// Epoch fast-forward. A fault trial is identical to the warm golden run
// until its first fault event fires, so instead of re-simulating that
// fault-free prefix a trial resumes from the last epoch the golden run
// recorded before the event (GoldenState.RunTrial).

// The warm golden run is cut into epochCount equal instruction
// intervals: at least minEpochs, and more for a long run, so that
// epochs lie at most epochSpacing instructions apart. The state at the
// start of every interval is an epoch; the first one is the
// trial-start snapshot itself, so one fewer is stored. A trial resumes
// from the last epoch before its first fault event, may jump between
// epochs until its last and is compared with the golden run at every
// epoch after it (RunTrial), so the spacing bounds the fault-free
// instructions it steps around each event.
const (
	minEpochs    = 16
	epochSpacing = 512
)

// epochCount returns how many intervals a run of insts instructions is
// cut into.
func epochCount(insts uint64) int {
	return max(minEpochs, int((insts+epochSpacing-1)/epochSpacing))
}

// epochBudget caps the bytes a golden state's epochs hold. When the
// next epoch would exceed it, the epochs recorded so far are thinned:
// each pair is merged into its later epoch and the spacing doubles. A
// program whose thinned epochs still exceed it (one that writes new
// pages or cache sets every interval) stops recording there, and later
// trials start from the last epoch recorded.
const epochBudget = 512 << 10

// streamBudget caps the bytes of the warm golden run's cache access
// stream (cache.Stream): four bytes per access, sized once from the
// cold run's access count. A stream cut short by it ends the cache
// replay (cut.go) without a cut.
const streamBudget = 1 << 20

// epoch is the complete simulator state at the first step boundary of
// the warm golden run at which insts instructions had retired: memory
// words and cache sets as chained deltas against the previous epoch (or
// the trial-start snapshot), and a copy of the state value.
type epoch struct {
	insts  uint64
	mem    []isa.MemEntry // words changed since the previous epoch
	caches cache.Delta    // sets touched since the previous epoch
	// access is the index into the golden state's cache access stream
	// of the first access after the epoch, -1 when the stream was cut
	// short before it.
	access int

	// suffix is what the golden run adds to its statistics from here to
	// halt, which a cut adds: counters, Cycles from this epoch's cycle, and the
	// largest CLQ occupancy sampled after this epoch.
	suffix Stats
	// clqMax is the largest CLQ occupancy sampled after this epoch and
	// up to the next.
	clqMax uint64
	// written holds the registers the golden run wrote since the
	// previous epoch: a trial that jumps across them takes their golden
	// values and keeps its own of the rest.
	written isa.RegBitmap

	state simState
}

// RecordEpochs Resets s, which must have been built for the snapshot's
// program and configuration (Fork, Adopt), runs the warm golden
// execution on it to halt and returns the run's statistics. On the way
// it records the epochs RunTrial resumes trials from: the state at the
// first step boundary where Stats.Insts reaches k·Insts/n of the golden
// run's instruction count, for n = epochCount(Insts) and k = 1 … n-1,
// thinned or stopped by epochBudget. A BOUND step retires no
// instruction, so only the first boundary at an instruction count is
// the one at which a trial fires an event scheduled for that count. A
// snapshot whose configuration records regions (the region log must be
// whole) or uses the ideal CLQ records none. RecordEpochs replaces any
// earlier recording; it must not run concurrently with RunTrial.
//
// It also records what RunTrial compares trials with the epochs by and
// what a jump between epochs takes: each epoch's golden suffix
// statistics, CLQ occupancy and written registers, the run's cache
// access stream, its final per-set cache clocks, register liveness,
// and whether the checkpoint window may be compared up to a colour
// renaming.
func (g *GoldenState) RecordEpochs(s *Sim) (Stats, error) {
	g.Reset(s)
	g.epochs, g.stream = nil, nil
	if g.cfg.RecordRegions || (s.clq != nil && g.cfg.CLQ == CLQIdeal) {
		return s.Run()
	}
	n := epochCount(g.stats.Insts)
	target := func(k int) uint64 { return g.stats.Insts * uint64(k) / uint64(n) }
	stride := 1
	// next returns the first multiple of stride after k whose target
	// the run has not passed.
	next := func(k int) int {
		k += stride - k%stride
		for k < n && target(k) <= s.Stats.Insts {
			k += stride
		}
		return k
	}
	g.stream = cache.NewStream(min(g.accesses, streamBudget/4))
	s.hier.Record(g.stream)
	defer s.hier.Record(nil)
	mem := s.Mem.Track()
	clock := g.img.Clock()
	size := 0
	lo, hi := g.prog.CkptBase, g.prog.CkptBase+ckptBytes
	touched := false
	var written isa.RegBitmap // since the last epoch
	for k := next(0); !s.halted; {
		if k < n && s.Stats.Insts >= target(k) {
			e := s.epoch(mem, clock)
			e.access = g.stream.Len()
			if g.stream.Short() {
				e.access = -1
			}
			e.written, written = written, 0
			clock = e.caches.Clock()
			g.epochs = append(g.epochs, e)
			if size += e.bytes(); size > epochBudget {
				if es, thinned := thin(g.epochs); thinned <= epochBudget {
					g.epochs, size = es, thinned
					stride *= 2
				} else {
					g.epochs = g.epochs[:len(g.epochs)-1]
					k = n
				}
			}
			if k < n {
				k = next(k)
			}
		}
		in := &s.Prog.Insts[s.PC]
		if in.Op == isa.LD || in.Op == isa.ST {
			a := s.Regs[in.Rs1] + uint64(in.Imm)
			touched = touched || (a >= lo && a < hi)
		}
		if r, ok := in.Def(); ok {
			written = written.With(r)
		}
		samples := s.Stats.CLQOccSamples
		if err := s.Step(); err != nil {
			return s.Stats, err
		}
		if n := len(g.epochs); n > 0 && s.Stats.CLQOccSamples != samples {
			// A boundary sampled the CLQ as its step's last change.
			e := &g.epochs[n-1]
			e.clqMax = max(e.clqMax, uint64(s.clq.occupancy()))
		}
	}
	after := uint64(0)
	for i := len(g.epochs) - 1; i >= 0; i-- {
		e := &g.epochs[i]
		after = max(after, e.clqMax)
		e.suffix = statsSince(&s.Stats, &e.state.Stats)
		e.suffix.Cycles = s.Stats.Cycles - e.state.cycle
		e.suffix.CLQOccMax = after
	}
	g.setClocks = s.hier.SetClocks()
	g.live = isa.BuildCFG(g.prog).LiveIn()
	g.renameCkpt = g.prog.CkptBase%32 == 0 && !touched
	return s.Stats, nil
}

// thin merges each pair of consecutive epochs, from the first, into the
// later one, which takes both deltas and written registers; an odd last
// epoch stays. The dropped epoch's CLQ occupancy, sampled before the
// later one, joins the previous kept epoch's (the first pair's has none
// and drops it). It returns the thinned epochs and their bytes, and
// leaves es as it was.
func thin(es []epoch) ([]epoch, int) {
	var out []epoch
	size := 0
	for i := 0; i < len(es); i += 2 {
		e := es[i]
		if i+1 < len(es) {
			if n := len(out); n > 0 {
				out[n-1].clqMax = max(out[n-1].clqMax, e.clqMax)
			}
			later := es[i+1]
			later.mem = mergeMem(e.mem, later.mem)
			c := e.caches
			c.Merge(&later.caches)
			later.caches = c
			later.written |= e.written
			e = later
		}
		out = append(out, e)
		size += e.bytes()
	}
	return out, size
}

// mergeMem returns the stores of a followed by those of b, keeping only
// the last store to each word.
func mergeMem(a, b []isa.MemEntry) []isa.MemEntry {
	m := slices.Concat(a, b)
	slices.SortStableFunc(m, func(x, y isa.MemEntry) int { return cmp.Compare(x.Addr, y.Addr) })
	out := m[:0]
	for i, w := range m {
		if i+1 == len(m) || m[i+1].Addr != w.Addr {
			out = append(out, w)
		}
	}
	return out
}

// statsSince returns the counters end gained since start. Every field
// of Stats is a uint64 (TestStatsMergeCoversEveryField), so the two
// are read as arrays; the trial loop calls it, and reflection would
// allocate.
func statsSince(end, start *Stats) Stats {
	d := *end
	a := (*[unsafe.Sizeof(Stats{}) / 8]uint64)(unsafe.Pointer(&d))
	b := (*[unsafe.Sizeof(Stats{}) / 8]uint64)(unsafe.Pointer(start))
	for i := range a {
		a[i] -= b[i]
	}
	return d
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
	return n + sliceBytes(reflect.ValueOf(&e.state).Elem())
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
