package pipeline

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/obs"
)

// recordEpochs captures prog's golden state under cfg and records its
// epochs on the adopted golden-run simulator, as fault.Prepare does.
func recordEpochs(t testing.TB, prog *isa.Program, cfg Config, seedMem func(*isa.Memory)) *GoldenState {
	t.Helper()
	s, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedMem(s.Mem)
	gs, err := CaptureGolden(s)
	if err != nil {
		t.Fatal(err)
	}
	gs.Adopt(s)
	st, err := gs.RecordEpochs(s)
	if err != nil {
		t.Fatal(err)
	}
	if st.Insts != gs.Stats().Insts {
		t.Fatalf("warm run retired %d instructions, cold run %d", st.Insts, gs.Stats().Insts)
	}
	return gs
}

// sameSim reports whether a and b hold the same state: equal state
// values (slices compared by content, nil as empty), memory images,
// caches and cache counters, and published progress.
func sameSim(a, b *Sim) bool {
	var x, y simState
	x.copyFrom(&a.simState)
	y.copyFrom(&b.simState)
	var ia, ib cache.Image
	a.hier.Snapshot(&ia)
	b.hier.Snapshot(&ib)
	ca, cb := []*cache.Cache{a.hier.L1I, a.hier.L1D, a.hier.L2}, []*cache.Cache{b.hier.L1I, b.hier.L1D, b.hier.L2}
	for i := range ca {
		if ca[i].Hits != cb[i].Hits || ca[i].Misses != cb[i].Misses {
			return false
		}
	}
	return reflect.DeepEqual(x, y) && reflect.DeepEqual(a.Mem.Snapshot(), b.Mem.Snapshot()) &&
		reflect.DeepEqual(ia, ib) && a.published == b.published
}

// TestCopyFromSharesNoSlice: after copyFrom no slice of the copy shares
// a backing array with the source, so a trial never writes into the
// golden state it was Reset or resumed from, and a second copy into
// the same value reuses its arrays, so Reset allocates nothing. Every
// slice of the source is made non-empty by reflection, so a slice field
// added later that copyFrom does not copy back fails here.
func TestCopyFromSharesNoSlice(t *testing.T) {
	var src, dst simState
	slicesOf(&src, func(_ string, v reflect.Value) { v.Set(reflect.MakeSlice(v.Type(), 1, 1)) })
	own, first := map[string]uintptr{}, map[string]uintptr{}
	slicesOf(&src, func(path string, v reflect.Value) { own[path] = v.Pointer() })
	dst.copyFrom(&src)
	slicesOf(&dst, func(path string, v reflect.Value) { first[path] = v.Pointer() })
	dst.copyFrom(&src)
	slicesOf(&dst, func(path string, v reflect.Value) {
		switch p := v.Pointer(); {
		case v.Len() != 1:
			t.Errorf("%s holds %d elements after copyFrom, want 1", path, v.Len())
		case p == own[path]:
			t.Errorf("%s shares the source's backing array", path)
		case p != first[path]:
			t.Errorf("%s was reallocated by a second copyFrom", path)
		}
	})
	if len(own) < 5 {
		t.Fatalf("found %d slices in simState, want at least 5", len(own))
	}
}

// slicesOf calls f with every slice field of *s, searching nested
// structs, as a settable value named by its field path.
func slicesOf(s *simState, f func(path string, v reflect.Value)) {
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			f(path, reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem())
		case reflect.Struct:
			for i := range v.NumField() {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	}
	walk("simState", reflect.ValueOf(s).Elem())
}

// stepTo steps s to the first boundary at which inst instructions have
// retired.
func stepTo(t *testing.T, s *Sim, inst uint64) {
	t.Helper()
	for s.Stats.Insts < inst {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResetAtMatchesStepping pins resetAt to the state Reset plus
// stepping reaches: at every epoch, at the instruction just before it,
// and past the last one, the restored simulator holds exactly the
// stepped one's state, runs to the same halt state, and publishes the
// same Progress totals and cache counters. The configurations are
// chosen so that some epoch holds each case the restore must carry:
// store-buffer entries of already-verified regions, several regions in
// the RBB, part-drained color pools and live cache counters.
func TestResetAtMatchesStepping(t *testing.T) {
	var sbVerified, rbbSeveral, colorsDrained, counters bool
	bench := buildBench(120)
	for _, tc := range []struct {
		name string
		f    *ir.Func
		opt  core.Options
		cfg  Config
	}{
		{"turnpike", bench, core.TurnpikeAll(4), TurnpikeConfig(4, 10)},
		{"turnstile", bench, core.Options{Scheme: core.Turnstile, SBSize: 4}, TurnstileConfig(4, 10)},
		{"turnpike-wcdl50", bench, core.TurnpikeAll(8), TurnpikeConfig(8, 50)},
		// A sweep larger than a small L1D misses even from warm caches.
		{"l1d-sweep", buildSweep(1024, 1), core.TurnpikeAll(4), smallL1D(TurnpikeConfig(4, 10))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(tc.f, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			gs := recordEpochs(t, c.Prog, tc.cfg, func(m *isa.Memory) { seed(m, 120) })
			if len(gs.epochs) != epochCount(gs.Stats().Insts)-1 {
				t.Fatalf("recorded %d epochs, want %d", len(gs.epochs), epochCount(gs.Stats().Insts)-1)
			}
			for i := range gs.epochs {
				e := &gs.epochs[i].state
				for _, en := range e.sb.entries {
					sbVerified = sbVerified || (en.quarantined && en.region != noRegion && en.region < e.unverifiedFrom())
				}
				rbbSeveral = rbbSeveral || len(e.rbb) >= 2
				for _, n := range e.colors.nfree {
					colorsDrained = colorsDrained || (e.cur() != nil && n <= isa.NumColors-2)
				}
			}
			a, err := gs.Fork()
			if err != nil {
				t.Fatal(err)
			}
			b, err := gs.Fork()
			if err != nil {
				t.Fatal(err)
			}
			prev := uint64(0)
			for i := range gs.epochs {
				at := gs.epochs[i].insts
				gs.resetAt(a, at-1)
				if a.Stats.Insts != prev {
					t.Fatalf("resetAt(%d) resumed at %d instructions, want %d", at-1, a.Stats.Insts, prev)
				}
				for _, inst := range []uint64{at, at + 1} {
					counters = checkResetAt(t, gs, a, b, inst, at) || counters
				}
				prev = at
			}
			checkResetAt(t, gs, a, b, math.MaxUint64, prev)
		})
	}
	if !sbVerified || !rbbSeveral || !colorsDrained || !counters {
		t.Errorf("epochs miss a case: SB entry of a verified region %v, several RBB regions %v, part-drained color pool %v, cache counters %v",
			sbVerified, rbbSeveral, colorsDrained, counters)
	}
}

// smallL1D gives cfg a 4 KiB L1D over a 16 KiB L2.
func smallL1D(cfg Config) Config {
	cfg.Hier.L1D.SizeBytes = 4 << 10
	cfg.Hier.L2.SizeBytes = 16 << 10
	return cfg
}

// checkResetAt resumes a at inst, which must select the epoch at
// instruction count at, and compares it with b stepped there from the
// start, then runs both to halt with a Progress attached. It reports
// whether the resumed caches carried hit and miss counts.
func checkResetAt(t *testing.T, gs *GoldenState, a, b *Sim, inst, at uint64) (counters bool) {
	t.Helper()
	gs.resetAt(a, inst)
	gs.Reset(b)
	stepTo(t, b, at)
	if a.Stats.Insts != at {
		t.Fatalf("resetAt(%d) resumed at %d instructions, want %d", inst, a.Stats.Insts, at)
	}
	if !sameSim(a, b) {
		t.Fatalf("resetAt(%d) state differs from stepping to %d instructions:\nresumed %+v\nstepped %+v", inst, at, a.simState, b.simState)
	}
	counters = a.hier.L1D.Hits > 0 && a.hier.L1D.Misses > 0
	// Neither has published anything, so both publish their whole run.
	pa, pb := NewProgress(obs.NewRegistry()), NewProgress(obs.NewRegistry())
	a.AttachProgress(pa)
	b.AttachProgress(pb)
	defer a.AttachProgress(nil)
	defer b.AttachProgress(nil)
	for _, s := range []*Sim{a, b} {
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if !sameSim(a, b) {
		t.Fatalf("run resumed at %d instructions halts in another state than a run from the start", at)
	}
	if got := liveTotals(pa); got != countsOf(a.Stats) || got != liveTotals(pb) {
		t.Fatalf("resumed at %d: Progress totals %+v; run %+v", at, got, a.Stats)
	}
	ra, rb := obs.NewRegistry(), obs.NewRegistry()
	a.FillMetrics(ra)
	b.FillMetrics(rb)
	if !reflect.DeepEqual(ra.Snapshot(), rb.Snapshot()) {
		t.Fatalf("resumed at %d: metrics differ", at)
	}
	return counters
}

// TestNoEpochsWhereRunsMustBeWhole: a configuration that uses the ideal
// CLQ records no epochs, and resetAt ignores epochs while an
// observability attachment is present, so traces (the region spans
// among them) and histograms cover whole runs.
func TestNoEpochsWhereRunsMustBeWhole(t *testing.T) {
	c, err := core.Compile(buildBench(60), core.TurnpikeAll(4))
	if err != nil {
		t.Fatal(err)
	}
	seedMem := func(m *isa.Memory) { seed(m, 60) }
	ideal := TurnpikeConfig(4, 10)
	ideal.CLQ = CLQIdeal
	if gs := recordEpochs(t, c.Prog, ideal, seedMem); len(gs.epochs) != 0 {
		t.Errorf("ideal CLQ: recorded %d epochs, want none", len(gs.epochs))
	}
	gs := recordEpochs(t, c.Prog, TurnpikeConfig(4, 10), seedMem)
	s, err := gs.Fork()
	if err != nil {
		t.Fatal(err)
	}
	s.AttachObs(NewObs(nil, obs.NewRegistry()))
	if gs.resetAt(s, math.MaxUint64); len(gs.epochs) == 0 || s.Stats.Insts != 0 {
		t.Fatalf("with observability attached resetAt resumed at %d instructions (%d epochs), want the start",
			s.Stats.Insts, len(gs.epochs))
	}
}

// buildSweep builds a kernel that stores to words consecutive words on
// each of passes passes, each pass with new nonzero values (word i of
// pass p holds (p+1)·i), so that every pass changes every word but the
// first and every cache set the sweep touches.
func buildSweep(words, passes int64) *ir.Func {
	b := ir.NewBuilder("sweep")
	base := b.MovI(int64(isa.DataBase))
	p := b.MovI(0)
	i := b.MovI(0)
	outer, inner, body, next, exit := b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Fallthrough(outer)
	b.SetBlock(outer)
	b.BranchI(isa.BGE, p, passes, exit, inner)
	b.SetBlock(inner)
	b.BranchI(isa.BGE, i, words, next, body)
	b.SetBlock(body)
	addr := b.Op(isa.ADD, base, b.OpI(isa.SHL, i, 3))
	b.Store(addr, 0, b.Op(isa.MUL, b.OpI(isa.ADD, p, 1), i))
	b.OpITo(isa.ADD, i, i, 1)
	b.Jump(inner)
	b.SetBlock(next)
	b.MovITo(i, 0)
	b.OpITo(isa.ADD, p, p, 1)
	b.Jump(outer)
	b.SetBlock(exit)
	b.Halt()
	return b.MustFinish()
}

// TestEpochBudget: two kernels pin far more than epochBudget in epochs
// at the schedule's spacing. One rewrites the same few words every
// interval, so merging pairs of its epochs shrinks them: the epochs are
// thinned to fit and still reach the end of the run. The other writes
// new words every interval, so merging does not shrink them: recording
// stops at the first epoch that does not fit. Either way injected
// trials resumed from the epochs match runs from the start.
func TestEpochBudget(t *testing.T) {
	for _, tc := range []struct {
		name          string
		words, passes int64
		whole         bool
	}{
		{"rewrites thinned", 2048, 16, true},
		{"new words truncated", 65536, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := core.Compile(buildSweep(tc.words, tc.passes), core.TurnpikeAll(4))
			if err != nil {
				t.Fatal(err)
			}
			gs := recordEpochs(t, c.Prog, TurnpikeConfig(4, 10), func(*isa.Memory) {})
			size := 0
			for i := range gs.epochs {
				size += gs.epochs[i].bytes()
			}
			insts, n := gs.Stats().Insts, epochCount(gs.Stats().Insts)
			if len(gs.epochs) == 0 || len(gs.epochs) >= n-1 || size > epochBudget {
				t.Fatalf("recorded %d epochs of %d bytes; want some but not all %d, within %d bytes",
					len(gs.epochs), size, n-1, epochBudget)
			}
			last := gs.epochs[len(gs.epochs)-1].insts
			t.Logf("recorded %d of %d epochs, %d bytes, the last at %d of %d instructions", len(gs.epochs), n-1, size, last, insts)
			if whole := last >= insts*3/4; whole != tc.whole {
				t.Fatalf("the last epoch lies at %d of %d instructions", last, insts)
			}
			a, err := gs.Fork()
			if err != nil {
				t.Fatal(err)
			}
			b, err := gs.Fork()
			if err != nil {
				t.Fatal(err)
			}
			for i, at := range []uint64{last / 2, last, last + 1, insts * 9 / 10} {
				reg, bit, lat := isa.Reg(1+3*i), uint(5*i), 1+i
				gs.resetAt(a, at)
				gs.Reset(b)
				if got, want := runInjected(a, reg, bit, at, lat), runInjected(b, reg, bit, at, lat); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial striking at %d diverged from its run from the start", at)
				}
			}
		})
	}
}

// TestThinKeepsOccupancyAfterEachEpoch: an epoch's CLQ occupancy is the
// largest sampled after it and before the next, which a suffix or a
// jump's span reads. Thinning merges each pair into its later epoch, so
// the dropped epoch's occupancy, sampled before the kept one, belongs to
// the previous kept epoch (the first pair's to none), and the kept
// epoch's written registers include the dropped one's.
func TestThinKeepsOccupancyAfterEachEpoch(t *testing.T) {
	for _, tc := range []struct {
		occ, want []uint64
	}{
		{[]uint64{5, 1, 1, 1}, []uint64{1, 1}},
		{[]uint64{1, 1, 7, 1}, []uint64{7, 1}},
		{[]uint64{1, 2, 3, 4, 9}, []uint64{3, 4, 9}},
	} {
		es := make([]epoch, len(tc.occ))
		for i := range es {
			es[i] = epoch{insts: uint64(i + 1), clqMax: tc.occ[i], written: 1 << i}
		}
		out, _ := thin(es)
		var occ []uint64
		var written isa.RegBitmap
		for i, e := range out {
			occ = append(occ, e.clqMax)
			if want := es[min(2*i+1, len(es)-1)].insts; e.insts != want {
				t.Errorf("occupancies %v: kept epoch %d at %d instructions, want %d", tc.occ, i, e.insts, want)
			}
			if e.written&written != 0 {
				t.Errorf("occupancies %v: kept epoch %d repeats written registers %b", tc.occ, i, e.written&written)
			}
			written |= e.written
		}
		if !slices.Equal(occ, tc.want) {
			t.Errorf("occupancies %v thin to %v, want %v", tc.occ, occ, tc.want)
		}
		if written != 1<<len(es)-1 {
			t.Errorf("occupancies %v: kept epochs write %b, want every epoch's", tc.occ, written)
		}
	}
}
