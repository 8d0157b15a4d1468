package pipeline

import (
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/workload"
)

// cutGolden compiles benchmark name at scale percent for Turnpike, lets
// tweak change the program, and records its epochs.
func cutGolden(t *testing.T, name string, scale int, tweak func(*isa.Program)) *GoldenState {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %s", name)
	}
	c, err := core.Compile(p.Build(scale), core.TurnpikeAll(4))
	if err != nil {
		t.Fatal(err)
	}
	prog := *c.Prog
	if tweak != nil {
		tweak(&prog)
	}
	return recordEpochs(t, &prog, TurnpikeConfig(4, 10), p.SeedMemory)
}

// cutStrike is one bit flip of a trial.
type cutStrike struct {
	reg isa.Reg
	bit uint
	at  uint64
	lat int
}

// strikes returns n strikes spread over a run of insts instructions.
func strikes(n int, insts uint64) []cutStrike {
	out := make([]cutStrike, n)
	for i := range out {
		out[i] = cutStrike{isa.Reg(1 + i*7%31), uint(i * 13 % 64), 1 + uint64(i+1)*insts*9/10/uint64(n+1), 1 + i%10}
	}
	return out
}

// event returns the strike as a fault event.
func (st cutStrike) event() Event {
	return Event{At: st.at, Reg: st.reg, Bit: st.bit, Latency: st.lat}
}

// cutFixture is a trial that RunTrial cut: s stopped at the boundary it
// matched epoch e at, and the shadow holding e.
type cutFixture struct {
	g  *GoldenState
	s  *Sim
	sh *Shadow
	e  *epoch
}

// stop runs st on f.s through RunTrial and reports whether it was cut;
// if so, f.e is the epoch it matched.
func (f *cutFixture) stop(t *testing.T, st cutStrike) bool {
	t.Helper()
	_, cut, err := f.g.RunTrial(f.s, f.sh, []Event{st.event()})
	if err != nil {
		t.Fatal(err)
	}
	f.e = nil
	if !cut {
		return false
	}
	for i := range f.g.epochs {
		if f.g.epochs[i].insts == f.s.netInsts {
			f.e = &f.g.epochs[i]
		}
	}
	if f.e == nil || &f.g.epochs[f.sh.at-1] != f.e {
		t.Fatalf("cut at %d golden-equivalent instructions, where no epoch is", f.s.netInsts)
	}
	return true
}

// matches reruns the reconvergence check at f's boundary.
func (f *cutFixture) matches() bool {
	return f.g.reconverged(f.s, f.sh, f.sh.at-1, f.e.suffix.Insts, false)
}

// direct reports whether f's caches match the golden caches at its
// boundary without the replay.
func (f *cutFixture) direct() bool { return f.s.hier.Equivalent(f.sh.hier, &f.g.setClocks) }

// predicted runs f's trial from its boundary to halt and reports
// whether it returns the statistics a cut there predicts and the golden
// output.
func (f *cutFixture) predicted(t *testing.T) bool {
	t.Helper()
	want := f.s.Stats
	want.Merge(&f.e.suffix)
	want.Cycles = f.s.cycle + f.e.suffix.Cycles
	got, err := f.s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return got == want && reflect.DeepEqual(f.s.OutputMemory().Snapshot(), f.g.Output().Snapshot())
}

// replayCuts requires that f's caches fail the direct comparison, that
// the replay cuts, and that the run to halt is the predicted one.
func (f *cutFixture) replayCuts(t *testing.T) {
	t.Helper()
	replayed := f.sh.Counts.Replayed
	if f.direct() {
		t.Fatal("the direct comparison matches")
	}
	if !f.matches() || f.sh.Counts.Replayed != replayed+1 {
		t.Fatal("the replay refuses")
	}
	if !f.predicted(t) {
		t.Fatal("the run to halt differs from the cut's prediction")
	}
}

// liveSet returns the first L1D set the golden run touches after f's
// boundary that holds n resident lines.
func (f *cutFixture) liveSet(t *testing.T, n int) int {
	t.Helper()
	lines, live := f.l1dSets()
	for set := range f.g.setClocks[1] {
		if live(set) && len(lines[set]) == n {
			return set
		}
	}
	t.Fatalf("no live L1D set with %d resident lines", n)
	return 0
}

// shortStream replaces the golden access stream with one cut short at
// f's epoch, as a budget that filled there would leave it, and returns
// the function that restores it: the prefix is recorded again by
// replaying it from the warm caches, one access past its capacity.
func (f *cutFixture) shortStream(t *testing.T) (restore func()) {
	t.Helper()
	g, at := f.g, f.e.access
	h, err := newHierarchy(g.cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Restore(&g.img)
	short := cache.NewStream(at)
	h.Record(short)
	if h.Replay(g.stream, 0, at+1) != at+1 || !short.Short() || short.Len() != at {
		t.Fatal("the golden stream's prefix does not replay from the warm caches")
	}
	full, access := g.stream, make([]int, len(g.epochs))
	g.stream = short
	for i := range g.epochs {
		access[i] = g.epochs[i].access
		if access[i] > at {
			g.epochs[i].access = -1
		}
	}
	return func() {
		g.stream = full
		for i := range g.epochs {
			g.epochs[i].access = access[i]
		}
	}
}

// newCutFixture forks a trial simulator and a shadow from g.
func newCutFixture(t *testing.T, g *GoldenState) *cutFixture {
	t.Helper()
	s, err := g.Fork()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := g.NewShadow()
	if err != nil {
		t.Fatal(err)
	}
	return &cutFixture{g: g, s: s, sh: sh}
}

// renameReg returns a register r and two of its colours, a and b,
// whose swap renames all three places a colour lives: a is the colour
// both of a checkpoint slot the store buffer holds and of an RBB
// region's used-colour entry, and b is on r's free stack. ok is false
// when the trial holds no such register.
func (f *cutFixture) renameReg() (r isa.Reg, a, b int8, ok bool) {
	lo, hi := f.s.Prog.CkptWindow()
	for _, en := range f.s.sb.entries {
		if en.addr < lo || en.addr >= hi {
			continue
		}
		slot := (en.addr - lo) / 8
		r, a = isa.Reg(slot/isa.NumColors), int8(slot%isa.NumColors)
		n := f.s.colors.nfree[r]
		if n == 0 {
			continue
		}
		for _, reg := range f.s.rbb {
			if reg.colors.has(r) && reg.colors.color[r] == a {
				return r, a, f.s.colors.free[r][n-1], true
			}
		}
	}
	return 0, 0, 0, false
}

// swapColours swaps r's colours a and b everywhere the trial holds
// them: the free stack, the verified colour, the RBB regions' used
// colours, the store buffer's checkpoint slots and the slots' words.
func (f *cutFixture) swapColours(r isa.Reg, a, b int8) {
	sw := func(c int8) int8 {
		switch c {
		case a:
			return b
		case b:
			return a
		}
		return c
	}
	cm := &f.s.colors
	for i := range cm.nfree[r] {
		cm.free[r][i] = sw(cm.free[r][i])
	}
	if cm.vc[r] >= 0 {
		cm.vc[r] = sw(cm.vc[r])
	}
	for i := range f.s.rbb {
		if reg := &f.s.rbb[i]; reg.colors.has(r) {
			reg.colors.color[r] = sw(reg.colors.color[r])
		}
	}
	sa, sb := f.s.Prog.CkptSlot(r, int(a)), f.s.Prog.CkptSlot(r, int(b))
	for i := range f.s.sb.entries {
		switch en := &f.s.sb.entries[i]; en.addr {
		case sa:
			en.addr = sb
		case sb:
			en.addr = sa
		}
	}
	va, vb := f.s.Mem.Load(sa), f.s.Mem.Load(sb)
	f.s.Mem.Store(sa, vb)
	f.s.Mem.Store(sb, va)
}

// reg returns the first register that is live (or dead) before the PC.
func (f *cutFixture) reg(t *testing.T, live bool) isa.Reg {
	t.Helper()
	set := f.g.live[f.s.PC]
	for r := range isa.Reg(isa.NumRegs) {
		if set.Has(r) == live {
			return r
		}
	}
	t.Fatalf("no register with liveness %v at PC %d", live, f.s.PC)
	return 0
}

// l1dSets returns, for each L1D set of f's boundary, the resident lines
// found among the data and stack addresses, and whether the golden run
// touches the set again after the epoch.
func (f *cutFixture) l1dSets() (lines map[int][]uint64, live func(set int) bool) {
	l1d := f.s.hier.L1D
	sets := len(f.g.setClocks[1])
	lines = map[int][]uint64{}
	for a := uint64(0); a < isa.DenseLimit; a += cache.LineSize {
		if l1d.Contains(a) {
			set := int(a/cache.LineSize) % sets
			lines[set] = append(lines[set], a)
		}
	}
	clock := f.e.caches.Clock()
	return lines, func(set int) bool { return f.g.setClocks[1][set] > clock[1] }
}

// TestCutChecksWhatItMayIgnore is the reconvergence check's table test.
// From a trial RunTrial cut, it changes one thing at a time and asks the
// check again: differences the cut's soundness argument allows must
// still match, every other difference must not.
func TestCutChecksWhatItMayIgnore(t *testing.T) {
	g := cutGolden(t, "gcc", 5, nil)
	if !g.renameCkpt {
		t.Fatal("gcc's golden run leaves the checkpoint window to checkpoints, yet colours are not renamed")
	}
	f := newCutFixture(t, g)
	var strike cutStrike
	found := false
	for _, st := range strikes(64, g.Stats().Insts) {
		if !f.stop(t, st) {
			continue
		}
		s, e := f.s, f.e
		_, _, _, rename := f.renameReg()
		c := s.clq.(*compactCLQ)
		if rename && s.cycle != e.state.cycle && s.nextRegion != e.state.nextRegion && s.sb.seq != e.state.sb.seq &&
			c.entries[0].used != c.entries[1].used {
			strike, found = st, true
			break
		}
	}
	if !found {
		t.Fatal("no cut trial stops with an offset clock, region ids and store sequence, a renameable checkpoint and a half-full CLQ")
	}
	fresh := func(t *testing.T) *cutFixture {
		t.Helper()
		if !f.stop(t, strike) || !f.matches() {
			t.Fatal("the fixture trial no longer stops where the check matches")
		}
		return f
	}
	for _, tc := range []struct {
		name  string
		match bool
		edit  func(t *testing.T, f *cutFixture)
	}{
		{"unchanged", true, func(*testing.T, *cutFixture) {}},
		{"dead register value", true, func(t *testing.T, f *cutFixture) { f.s.Regs[f.reg(t, false)] ^= 0xff }},
		{"dead register ready cycle", true, func(t *testing.T, f *cutFixture) { f.s.regReady[f.reg(t, false)] = f.s.cycle + 7 }},
		{"live ready cycle already past", true, func(t *testing.T, f *cutFixture) {
			for r := range isa.Reg(isa.NumRegs) {
				if f.g.live[f.s.PC].Has(r) && f.s.regReady[r] <= f.s.cycle {
					f.s.regReady[r] = 0
					return
				}
			}
			t.Fatal("no live register is ready")
		}},
		{"set never touched again", true, func(t *testing.T, f *cutFixture) {
			lines, live := f.l1dSets()
			for set := range f.g.setClocks[1] {
				if !live(set) && len(lines[set]) == 0 {
					f.s.hier.L1D.Access(uint64(set) * cache.LineSize)
					return
				}
			}
			t.Fatal("no dead L1D set")
		}},
		{"colour renaming", true, func(t *testing.T, f *cutFixture) {
			r, a, b, _ := f.renameReg()
			f.swapColours(r, a, b)
		}},
		{"checkpoint window word", true, func(t *testing.T, f *cutFixture) {
			f.s.Mem.Store(f.s.Prog.CkptBase+8, f.s.Mem.Load(f.s.Prog.CkptBase+8)+1)
		}},
		{"CLQ slots swapped", true, func(t *testing.T, f *cutFixture) {
			c := f.s.clq.(*compactCLQ)
			c.entries[0], c.entries[1] = c.entries[1], c.entries[0]
		}},
		{"live register value", false, func(t *testing.T, f *cutFixture) { f.s.Regs[f.reg(t, true)] ^= 1 }},
		{"live register ready cycle", false, func(t *testing.T, f *cutFixture) {
			r := f.reg(t, true)
			f.s.regReady[r] = max(f.s.regReady[r], f.s.cycle) + 1
		}},
		{"SB commit cycle", false, func(t *testing.T, f *cutFixture) { f.s.sb.entries[0].commitAt++ }},
		{"SB sequence number", false, func(t *testing.T, f *cutFixture) { f.s.sb.entries[0].seq++ }},
		{"SB last drain", false, func(t *testing.T, f *cutFixture) { f.s.sb.lastDrain++ }},
		{"predictor counter", false, func(t *testing.T, f *cutFixture) { f.s.predictor[f.s.PC] ^= 1 }},
		{"data word", false, func(t *testing.T, f *cutFixture) {
			f.s.Mem.Store(isa.DataBase, f.s.Mem.Load(isa.DataBase)+1)
		}},
		{"spill word", false, func(t *testing.T, f *cutFixture) {
			f.s.Mem.Store(isa.StackBase, f.s.Mem.Load(isa.StackBase)+1)
		}},
		{"word past the window", false, func(t *testing.T, f *cutFixture) {
			_, a := f.s.Prog.CkptWindow()
			f.s.Mem.Store(a, f.s.Mem.Load(a)+1)
		}},
		{"colour pool count", false, func(t *testing.T, f *cutFixture) {
			r, _, _, _ := f.renameReg()
			f.s.colors.nfree[r]--
		}},
		{"colour of one structure only", false, func(t *testing.T, f *cutFixture) {
			r, a, b, _ := f.renameReg()
			for i := range f.s.rbb {
				if reg := &f.s.rbb[i]; reg.colors.has(r) && reg.colors.color[r] == a {
					reg.colors.color[r] = b
				}
			}
		}},
		{"CLQ range", false, func(t *testing.T, f *cutFixture) {
			c := f.s.clq.(*compactCLQ)
			for i := range c.entries {
				if c.entries[i].used {
					c.entries[i].max++
				}
			}
		}},
		{"RBB verification time", false, func(t *testing.T, f *cutFixture) {
			r := &f.s.rbb[0]
			if r.verifyAt == infCycle {
				r.end = f.s.cycle
			}
			r.verifyAt--
		}},
		{"pending detection", false, func(t *testing.T, f *cutFixture) {
			if err := f.s.InjectFalseDetection(3); err != nil {
				t.Fatal(err)
			}
		}},
		{"degraded mesh", false, func(t *testing.T, f *cutFixture) { f.s.degradedUntil = f.s.cycle + 100 }},
		{"tainted dead register", false, func(t *testing.T, f *cutFixture) { f.s.Taint[f.reg(t, false)] = true }},
		{"recovery block", false, func(t *testing.T, f *cutFixture) { f.s.inRecovery = true }},
		{"predicted Insts reach MaxInsts", false, func(t *testing.T, f *cutFixture) {
			f.s.Cfg.MaxInsts = f.s.Stats.Insts + f.e.suffix.Insts
		}},
		{"predicted Insts below MaxInsts", true, func(t *testing.T, f *cutFixture) {
			f.s.Cfg.MaxInsts = f.s.Stats.Insts + f.e.suffix.Insts + 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := fresh(t)
			defer func() { f.s.Cfg.MaxInsts = g.cfg.MaxInsts }()
			tc.edit(t, f)
			if got := f.matches(); got != tc.match {
				t.Fatalf("check matches %v, want %v", got, tc.match)
			}
		})
	}

	// Caches: a difference in a set the golden run touches again fails
	// the direct comparison, and the replay of the golden future decides
	// it. A foreign tag, or a swapped replacement order, that no later
	// golden access is served differently by is cut, and the run to
	// halt is the one the cut predicts.
	t.Run("tag of a live set", func(t *testing.T) {
		f := fresh(t)
		f.s.hier.L1D.Access(uint64(f.liveSet(t, 1))*cache.LineSize + 1<<30)
		f.replayCuts(t)
	})
	// Touching a live set's two resident lines oldest first keeps their
	// order and matches directly; newest first swaps it.
	t.Run("LRU order of a live set", func(t *testing.T) {
		set := fresh(t).liveSet(t, 2)
		lines, _ := f.l1dSets()
		a, b := lines[set][0], lines[set][1]
		var got [2]bool
		for i, order := range [2][2]uint64{{a, b}, {b, a}} {
			f := fresh(t)
			f.s.hier.L1D.Access(order[0])
			f.s.hier.L1D.Access(order[1])
			got[i] = f.direct()
		}
		if got[0] == got[1] {
			t.Fatalf("touching set %d's lines in either order: direct comparison matches %v", set, got)
		}
		swap := [2]uint64{b, a}
		if got[1] {
			swap = [2]uint64{a, b}
		}
		f := fresh(t)
		f.s.hier.L1D.Access(swap[0])
		f.s.hier.L1D.Access(swap[1])
		f.replayCuts(t)
	})
	// Evicting a line the golden run loads again before it refills the
	// set changes that load's level: the replay must refuse, and indeed
	// the run to halt is not the one a cut would predict.
	t.Run("eviction of a line loaded again", func(t *testing.T) {
		lines, live := fresh(t).l1dSets()
		for set := range f.g.setClocks[1] {
			if !live(set) || len(lines[set]) != 2 {
				continue
			}
			for i := range 2 {
				f := fresh(t)
				f.s.hier.L1D.Access(lines[set][1-i]) // the other line becomes the newest
				f.s.hier.L1D.Access(uint64(set)*cache.LineSize + 1<<30)
				mismatches := f.sh.Counts.Mismatches
				if f.direct() || f.matches() || f.sh.Counts.Mismatches != mismatches+1 {
					continue
				}
				if f.predicted(t) {
					t.Fatalf("evicting %#x: the replay refused, yet the run to halt is the predicted one", lines[set][i])
				}
				return
			}
		}
		t.Fatal("no eviction changes the level of a later golden access")
	})
	// A stream cut short at the epoch's access knows nothing of the
	// future: a difference the whole stream cuts is refused.
	t.Run("stream cut short", func(t *testing.T) {
		f := fresh(t)
		f.s.hier.L1D.Access(uint64(f.liveSet(t, 1))*cache.LineSize + 1<<30)
		defer f.shortStream(t)()
		if f.direct() || f.matches() {
			t.Fatal("the check matches past the end of a stream cut short")
		}
	})

	// Without the two conditions, colours and the window compare
	// exactly.
	for _, tc := range []struct {
		name string
		g    *GoldenState
	}{
		{"window not 32-byte aligned", cutGolden(t, "gcc", 5, func(p *isa.Program) { p.CkptBase += 8 })},
		{"golden run loads from the window", cutGolden(t, "mcf", 20, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.renameCkpt {
				t.Fatal("colours are renamed")
			}
			f := newCutFixture(t, tc.g)
			for _, st := range strikes(64, tc.g.Stats().Insts) {
				if !f.stop(t, st) {
					continue
				}
				if r, a, b, ok := f.renameReg(); ok {
					if !f.matches() {
						t.Fatal("the trial no longer stops where the check matches")
					}
					f.swapColours(r, a, b)
					if f.matches() {
						t.Fatal("a colour renaming matches the golden state")
					}
					f.stop(t, st)
					f.s.Mem.Store(f.s.Prog.CkptBase+8, f.s.Mem.Load(f.s.Prog.CkptBase+8)+1)
					if f.matches() {
						t.Fatal("a changed checkpoint slot matches the golden state")
					}
					return
				}
			}
			t.Fatal("no cut trial stops with a renameable checkpoint")
		})
	}
}

// TestStreamReplaysTheGoldenCaches: the recorded access stream is the
// whole of the warm golden run's cache traffic. Replayed from the warm
// trial-start caches, every access is served at its recorded level, and
// at every epoch's index the replayed hierarchy is exactly the golden
// caches at that epoch, tags, stamps and clocks alike. A stream that
// missed a kind of access (the L1D-only touches of forwarded loads and
// commits, say) would leave lines out and fail here.
func TestStreamReplaysTheGoldenCaches(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *GoldenState
	}{
		{"gcc", cutGolden(t, "gcc", 5, nil)},
		{"lbm", cutGolden(t, "lbm", 5, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			h, err := newHierarchy(g.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := g.NewShadow()
			if err != nil {
				t.Fatal(err)
			}
			h.Restore(&g.img)
			from := 0
			var got, want cache.Image
			for k := range g.epochs {
				to := g.epochs[k].access
				if at := h.Replay(g.stream, from, to); at != to {
					t.Fatalf("access %d of %d is served at another level than recorded", at, g.stream.Len())
				}
				sh.moveTo(k)
				h.Snapshot(&got)
				sh.hier.Snapshot(&want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("at epoch %d the replayed caches differ from the golden caches", k)
				}
				from = to
			}
			if at := h.Replay(g.stream, from, g.stream.Len()); at != g.stream.Len() || g.stream.Short() {
				t.Fatalf("the stream's tail does not replay: access %d of %d, cut short %v", at, g.stream.Len(), g.stream.Short())
			}
		})
	}
}

// TestCutNeverWhereRunsMustBeWhole: RunTrial runs a trial to halt, never
// cutting it, when the golden state has no epochs, or when an
// observability attachment is present: a tracer, which holds the run's
// region log (its region spans), or metrics. The run to halt it returns
// is the one Run returns.
func TestCutNeverWhereRunsMustBeWhole(t *testing.T) {
	c, err := core.Compile(buildBench(120), core.TurnpikeAll(4))
	if err != nil {
		t.Fatal(err)
	}
	seedMem := func(m *isa.Memory) { seed(m, 120) }
	epochs := recordEpochs(t, c.Prog, TurnpikeConfig(4, 10), seedMem)
	for _, tc := range []struct {
		name string
		g    *GoldenState
		obs  *Obs
	}{
		{"no epochs", captureBench(t, 120), nil},
		{"region log", epochs, NewObs(obs.NewTracer(&regionTrace{}), nil)},
		{"observability", epochs, NewObs(nil, obs.NewRegistry())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := cutStrike{reg: 3, bit: 17, at: tc.g.Stats().Insts / 3, lat: 4}
			a, err := tc.g.Fork()
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.g.Fork()
			if err != nil {
				t.Fatal(err)
			}
			a.AttachObs(tc.obs)
			sh, err := tc.g.NewShadow()
			if err != nil {
				t.Fatal(err)
			}
			got, cut, err := tc.g.RunTrial(a, sh, []Event{st.event()})
			if err != nil || cut {
				t.Fatalf("RunTrial: cut %v, error %v", cut, err)
			}
			tc.g.Reset(b)
			want := runInjected(b, st.reg, st.bit, st.at, st.lat)
			if got != want.Stats || !a.halted {
				t.Fatalf("RunTrial returned %+v, a run to halt %+v", got, want.Stats)
			}
		})
	}
}

// TestCutPredictsTheRun: for every strike of a spread, a trial cut by
// RunTrial returns the statistics of the same trial run to halt from the
// start, that run's output is the golden output, and an attached
// Progress ends with the same totals as the run to halt's. It covers
// the renamed path (gcc) and both ways into the exact one.
func TestCutPredictsTheRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *GoldenState
		minCuts int
	}{
		{"gcc", cutGolden(t, "gcc", 5, nil), 20},
		{"gcc misaligned window", cutGolden(t, "gcc", 5, func(p *isa.Program) { p.CkptBase += 8 }), 1},
		{"mcf loads from the window", cutGolden(t, "mcf", 20, nil), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cuts := checkCutPredictions(t, tc.g)
			t.Logf("cut %d of 24 trials", cuts)
			if cuts < tc.minCuts {
				t.Fatalf("want at least %d cut", tc.minCuts)
			}
		})
	}
}

// checkCutPredictions runs TestCutPredictsTheRun's strikes on g and
// returns how many were cut.
func checkCutPredictions(t *testing.T, g *GoldenState) (cuts int) {
	a, err := g.Fork()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Fork()
	if err != nil {
		t.Fatal(err)
	}
	golden := g.Output().Snapshot()
	sh, err := g.NewShadow()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range strikes(24, g.Stats().Insts) {
		pa, pb := NewProgress(obs.NewRegistry()), NewProgress(obs.NewRegistry())
		a.AttachProgress(pa)
		b.AttachProgress(pb)
		got, cut, err := g.RunTrial(a, sh, []Event{st.event()})
		if err != nil {
			t.Fatal(err)
		}
		g.Reset(b)
		want := runInjected(b, st.reg, st.bit, st.at, st.lat)
		if want.Err != "" || got != want.Stats {
			t.Fatalf("%+v (cut %v): RunTrial returned %+v, the run from the start %+v (%s)", st, cut, got, want.Stats, want.Err)
		}
		if liveTotals(pa) != liveTotals(pb) {
			t.Fatalf("%+v (cut %v): Progress totals differ from the run from the start's", st, cut)
		}
		if !cut {
			continue
		}
		cuts++
		if !reflect.DeepEqual(want.Mem, golden) {
			t.Fatalf("%+v: cut, but the run from the start's output differs from the golden output", st)
		}
	}
	a.AttachProgress(nil)
	b.AttachProgress(nil)
	return cuts
}

// TestCutCoversEveryField keeps the reconvergence check in step with the
// simulator's state: every field of the state value and of the records
// it holds is either compared (or normalised) by the check, or ignored
// with the reason it cannot change the run from the boundary to halt.
// A field added later fails here until it is placed on one of the lists
// (and, if compared, in sameState). Memory and caches are context, which
// reconverged compares apart.
func TestCutCoversEveryField(t *testing.T) {
	for _, tc := range []struct {
		v                 any
		compared, ignored map[string]string
	}{
		{simState{}, map[string]string{
			"Regs":           "equal where live before the PC",
			"Taint":          "must be clear",
			"regReady":       "equal as distance past the cycle, where live",
			"PC":             "equal",
			"cycle":          "defines the cycle offset",
			"slots":          "equal",
			"netInsts":       "equal to the epoch's instruction count",
			"predictor":      "equal",
			"sb":             "see storeBuffer",
			"rbb":            "see regionInst; same length",
			"nextRegion":     "defines the region-id offset",
			"compact":        "see compactCLQ",
			"clqEnabled":     "equal",
			"colors":         "see colorMaps",
			"pendingDetects": "must be empty",
			"degradedUntil":  "must be 0",
			"inRecovery":     "must be false",
			"halted":         "RunTrial checks only before halt",
			"Stats":          "not compared: the cut returns the trial's own plus the golden suffix",
		}, map[string]string{
			"lastRestart": "only recover reads it, and no recovery follows a cut",
		}},
		{storeBuffer{}, map[string]string{
			"entries":   "see sbEntry; same length and order",
			"lastDrain": "cycle offset",
			"seq":       "defines the sequence offset",
		}, nil},
		{sbEntry{}, map[string]string{
			"addr":        "equal, or the same slot under the colour renaming",
			"val":         "equal",
			"quarantined": "equal",
			"region":      "region-id offset, noRegion only where noRegion",
			"verifyAt":    "cycle offset, infCycle while the region is open",
			"commitAt":    "cycle offset",
			"seq":         "sequence offset",
		}, map[string]string{
			"isCkpt":  "only observability reads it",
			"ckptReg": "only observability reads it",
		}},
		{regionInst{}, map[string]string{
			"id":       "region-id offset",
			"staticID": "equal",
			"boundPC":  "equal",
			"end":      "cycle offset, 0 while open",
			"verifyAt": "cycle offset, infCycle while open",
			"colors":   "renamed",
		}, map[string]string{
			"start":       "only region logs, traces and CheckInvariants read it",
			"warFree":     "observability counter",
			"colored":     "observability counter",
			"quarantined": "observability counter",
			"insts":       "observability counter; leaves netInsts only on a squash, which no cut trial has",
		}},
		{usedColors{}, map[string]string{
			"regs":  "equal",
			"color": "renamed where regs has the register",
		}, nil},
		{colorMaps{}, map[string]string{
			"free":  "renamed, position by position up to nfree",
			"nfree": "equal",
			"vc":    "renamed, -1 only where -1",
		}, nil},
		{compactCLQ{}, map[string]string{
			"entries": "used entries equal as a set",
		}, nil},
		{compactEntry{}, map[string]string{
			"region": "region-id offset",
			"min":    "equal",
			"max":    "equal",
			"used":   "only used entries count",
		}, nil},
	} {
		placesEveryField(t, "the reconvergence check", tc.v, map[string]map[string]string{
			"compared": tc.compared, "ignored": tc.ignored,
		})
	}
}

// TestJumpCoversEveryField keeps the jump between fault events in step
// with the simulator's state. A later fault event may roll the trial
// back, so the jump places every field of the state value and its
// records by what the jumped trial holds: compared strictly and then
// the golden value, shifted by the trial's offsets (and compared so
// where sameState compares), carried from the trial, or invisible to
// the later events, with the reason. A field added later fails here
// until it is placed, and, if shifted, in simState.shift.
func TestJumpCoversEveryField(t *testing.T) {
	for _, tc := range []struct {
		v                                     any
		compared, shifted, carried, invisible map[string]string
	}{
		{simState{}, map[string]string{
			"Taint":          "must be clear, as in the golden run",
			"PC":             "equal",
			"slots":          "equal",
			"netInsts":       "equal to the epoch's instruction count",
			"predictor":      "equal",
			"sb":             "see storeBuffer",
			"rbb":            "see regionInst; same length",
			"compact":        "see compactCLQ",
			"clqEnabled":     "equal",
			"colors":         "see colorMaps; not renamed",
			"pendingDetects": "must be empty, as in the golden run",
			"degradedUntil":  "must be 0, as in the golden run",
			"inRecovery":     "must be false, as in the golden run",
			"halted":         "false at every epoch: RunTrial steps only before halt",
		}, map[string]string{
			"cycle":      "cycle offset",
			"nextRegion": "region-id offset",
		}, map[string]string{
			"Regs":        "the trial's where the span writes none (equal where live), the golden value where it does",
			"regReady":    "as Regs; the golden one shifted by the cycle offset where the span writes it",
			"Stats":       "the trial's own plus the golden span's",
			"lastRestart": "the trial's own: a later recovery with no region in flight reads it",
		}, nil},
		{storeBuffer{}, map[string]string{
			"entries": "see sbEntry; same length and order",
		}, map[string]string{
			"lastDrain": "cycle offset",
			"seq":       "sequence offset",
		}, nil, nil},
		{sbEntry{}, map[string]string{
			"addr":        "equal: no colour renaming",
			"val":         "equal",
			"quarantined": "equal",
		}, map[string]string{
			"region":   "region-id offset, noRegion kept",
			"verifyAt": "cycle offset, infCycle kept",
			"commitAt": "cycle offset",
			"seq":      "sequence offset",
		}, nil, map[string]string{
			"isCkpt":  "only observability reads it",
			"ckptReg": "only observability reads it",
		}},
		{regionInst{}, map[string]string{
			"staticID": "equal",
			"boundPC":  "equal",
			"colors":   "equal: no colour renaming",
			"insts":    "equal, as a later squash takes it back from netInsts",
		}, map[string]string{
			"id":       "region-id offset",
			"end":      "cycle offset, 0 kept",
			"verifyAt": "cycle offset, infCycle kept",
			"start":    "cycle offset; only region logs, traces and CheckInvariants read it",
		}, nil, map[string]string{
			"warFree":     "observability counter; RunTrial never jumps with traces or region logs",
			"colored":     "observability counter; RunTrial never jumps with traces or region logs",
			"quarantined": "observability counter; RunTrial never jumps with traces or region logs",
		}},
		{usedColors{}, map[string]string{
			"regs":  "equal",
			"color": "equal where regs has the register",
		}, nil, nil, nil},
		{colorMaps{}, map[string]string{
			"free":  "equal up to nfree",
			"nfree": "equal",
			"vc":    "equal",
		}, nil, nil, nil},
		{compactCLQ{}, map[string]string{
			"entries": "used entries equal as a set; every CLQ operation scans all slots, so a slot answers nothing",
		}, nil, nil, nil},
		{compactEntry{}, map[string]string{
			"min":  "equal",
			"max":  "equal",
			"used": "only used entries count",
		}, map[string]string{
			"region": "region-id offset where used",
		}, nil, nil},
	} {
		placesEveryField(t, "the jump", tc.v, map[string]map[string]string{
			"compared": tc.compared, "shifted": tc.shifted, "carried": tc.carried, "invisible": tc.invisible,
		})
	}
}

// placesEveryField requires every field of v's struct type to be on
// exactly one of the named lists, and every listed name to be a field.
func placesEveryField(t *testing.T, check string, v any, lists map[string]map[string]string) {
	t.Helper()
	typ := reflect.TypeOf(v)
	fields := map[string]bool{}
	for i := range typ.NumField() {
		name := typ.Field(i).Name
		fields[name] = true
		var on []string
		for list, m := range lists {
			if _, ok := m[name]; ok {
				on = append(on, list)
			}
		}
		if len(on) != 1 {
			t.Errorf("%s.%s is placed by %s on %d lists %v, want one", typ.Name(), name, check, len(on), on)
		}
	}
	for _, m := range lists {
		for name := range m {
			if !fields[name] {
				t.Errorf("%s has no field %s", typ.Name(), name)
			}
		}
	}
}
