package pipeline

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workload"
)

// jumpTrial is a hand-built trial of the jump tests: a strike, then a
// false positive where a jump from the first epoch the recovered trial
// reaches lands, three epochs further on.
type jumpTrial struct {
	strike cutStrike
	fpAt   uint64
	land   int // the landing epoch
}

// jumpTrialAt builds the jump trial of strike st on g: it steps the
// trial on s until it has recovered from the strike, places the false
// positive three epochs past the first epoch it reaches then, at the
// instruction count it retires there, and steps s on to it. ok is false
// when no such epoch exists.
func jumpTrialAt(t *testing.T, g *GoldenState, s *Sim, st cutStrike) (jt jumpTrial, ok bool) {
	t.Helper()
	st.inject(t, g, s)
	for !s.halted && (len(s.pendingDetects) > 0 || s.inRecovery || s.Taint != [isa.NumRegs]bool{}) {
		if err := s.Step(); err != nil {
			return jt, false
		}
	}
	k, _ := g.epochAt(s, 0)
	if s.halted || k+3 >= len(g.epochs) {
		return jt, false
	}
	// No event is left before the false positive, so the trial retires
	// the golden run's instructions between the epochs.
	jt = jumpTrial{strike: st, land: k + 3}
	jt.fpAt = s.Stats.Insts - s.netInsts + g.epochs[jt.land].insts
	stepTo(t, s, jt.fpAt)
	return jt, true
}

// run resumes s on g by ResetAt, fires the strike, applies perturb and
// runs s to the false positive with RunUntil through sh.
func (jt jumpTrial) run(t *testing.T, g *GoldenState, s *Sim, sh *Shadow, perturb func(*Sim)) {
	t.Helper()
	jt.strike.inject(t, g, s)
	perturb(s)
	if err := g.RunUntil(s, sh, jt.fpAt); err != nil {
		t.Fatal(err)
	}
}

// finish fires the false positive on s and runs it to halt, RunCut
// finishing it when sh is not nil, and returns its statistics and, when
// it was not cut, its output.
func (jt jumpTrial) finish(t *testing.T, g *GoldenState, s *Sim, sh *Shadow) (Stats, []isa.MemEntry) {
	t.Helper()
	if err := s.InjectFalseDetection(3); err != nil {
		t.Fatal(err)
	}
	st, cut, err := g.RunCut(s, sh)
	if err != nil {
		t.Fatal(err)
	}
	if cut {
		return st, g.Output().Snapshot()
	}
	return st, s.OutputMemory().Snapshot()
}

// sameAtEvent reports where the jumped trial a differs from the trial b
// that stepped to the same event, both of g: in every register and
// ready cycle, the PC, cycle, statistics, golden-equivalent progress
// and lastRestart, memory, and every cache set, or "" when nowhere.
func sameAtEvent(g *GoldenState, a, b *Sim) string {
	var every cache.SetClocks // a stamp newer than any clock in every set
	for i, sets := range g.setClocks {
		every[i] = make([]uint64, len(sets))
		for set := range sets {
			every[i][set] = math.MaxUint64
		}
	}
	switch {
	case a.Regs != b.Regs:
		return "registers"
	case a.regReady != b.regReady:
		return "ready cycles"
	case a.PC != b.PC || a.cycle != b.cycle || a.netInsts != b.netInsts:
		return "PC, cycle or progress"
	case a.Stats != b.Stats:
		return "statistics"
	case a.lastRestart != b.lastRestart:
		return "lastRestart"
	case !a.Mem.EqualMasked(b.Mem, 0, 0, 0, 0):
		return "memory"
	case !a.hier.Equivalent(b.hier, &every):
		return "caches"
	}
	return ""
}

// TestJumpMatchesFromStart is the targeted differential test of the jump
// between fault events (RunUntil). Over hand-built trials on gcc — a
// strike, then a false positive three epochs after the trial recovers,
// exactly where a jump lands — it takes the first whose trial jumps and
// whose struck register, stepped to the false positive, still holds a
// value the golden run does not: a register dead at the landing epoch
// that the span does not write, which only the jump's carry keeps. At
// the false positive that trial must hold the state of the same trial
// run from the start on a golden state without epochs, as fault.Replay
// runs one, and after it both must end with the same statistics and
// output.
//
// A trial whose caches differ from the golden run's only in a set the
// golden run never touches again jumps too, and keeps its own set, as
// stepping does: a later rollback may touch the set.
func TestJumpMatchesFromStart(t *testing.T) {
	p, _ := workload.ByName("gcc")
	c, err := core.Compile(p.Build(5), core.TurnpikeAll(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := TurnpikeConfig(4, 10)
	g := recordEpochs(t, c.Prog, cfg, p.SeedMemory)
	want, err := New(c.Prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.SeedMemory(want.Mem)
	ref, err := CaptureGolden(want)
	if err != nil {
		t.Fatal(err)
	}
	ref.Adopt(want)
	s, err := g.Fork()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := g.NewShadow()
	if err != nil {
		t.Fatal(err)
	}
	// fromStart runs want from the start to the false positive, with
	// perturb applied after the strike.
	fromStart := func(jt jumpTrial, perturb func(*Sim)) {
		jt.strike.inject(t, ref, want)
		perturb(want)
		stepTo(t, want, jt.fpAt)
	}

	var jt jumpTrial
	found := false
	for at := g.epochs[0].insts; at < g.epochs[len(g.epochs)/2].insts && !found; at += 37 {
		for r := isa.Reg(1); r < isa.NumRegs && !found; r++ {
			var ok bool
			if jt, ok = jumpTrialAt(t, g, want, cutStrike{reg: r, bit: 5, at: at, lat: 10}); !ok {
				continue
			}
			if want.Regs[r] == g.epochs[jt.land].state.Regs[r] {
				continue
			}
			sh.Counts = CutCounts{}
			jt.run(t, g, s, sh, func(*Sim) {})
			found = sh.Counts.Jumps == 1
		}
	}
	if !found {
		t.Fatal("no hand-built trial with a struck register the golden run does not hold jumps")
	}
	r, land := jt.strike.reg, &g.epochs[jt.land]
	t.Logf("strike r%d at %d, false positive at %d, landing at epoch %d of %d after %d instructions",
		r, jt.strike.at, jt.fpAt, jt.land, len(g.epochs), sh.Counts.Jumped)
	if g.live[land.state.PC].Has(r) || s.netInsts != land.insts {
		t.Fatalf("r%d is live at the landing epoch, or the trial is not there", r)
	}
	for i := jt.land; g.epochs[i].insts > land.insts-sh.Counts.Jumped; i-- {
		if g.epochs[i].written.Has(r) {
			t.Fatalf("the golden run writes r%d in the span jumped", r)
		}
	}
	fromStart(jt, func(*Sim) {})
	if where := sameAtEvent(g, s, want); where != "" {
		t.Fatalf("at the false positive the jumped trial differs from the trial from the start in its %s", where)
	}
	gotSt, gotOut := jt.finish(t, g, s, sh)
	wantSt, wantOut := jt.finish(t, ref, want, nil)
	if gotSt != wantSt || !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("the jumped trial ends with\n%+v\nthe trial from the start with\n%+v", gotSt, wantSt)
	}

	t.Run("foreign line in a set never touched again", func(t *testing.T) {
		// An L1D set the golden run does not touch after the trial
		// resumes, at the last epoch before the strike, takes a line of an
		// address beyond the image.
		k := 0
		for k+1 < len(g.epochs) && g.epochs[k+1].insts <= jt.strike.at {
			k++
		}
		clock := g.epochs[k].caches.Clock()[1]
		sets := len(g.setClocks[1])
		set := slices.IndexFunc(g.setClocks[1], func(c uint64) bool { return c <= clock })
		if set < 0 {
			t.Skip("the golden run touches every L1D set again")
		}
		foreign := func(x *Sim) { x.hier.L1D.Access(uint64(set+sets<<20) * cache.LineSize) }
		sh.Counts = CutCounts{}
		jt.run(t, g, s, sh, foreign)
		fromStart(jt, foreign)
		if sh.Counts.Jumps != 1 {
			t.Fatalf("the trial with a foreign line in L1D set %d did not jump: %+v", set, sh.Counts)
		}
		if where := sameAtEvent(g, s, want); where != "" {
			t.Fatalf("at the false positive the trial differs from the trial from the start in its %s", where)
		}
	})
}
