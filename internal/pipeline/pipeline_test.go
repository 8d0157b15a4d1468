package pipeline

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
)

// buildBench builds a loop kernel with loads, branching, cross-region live
// values, and both WAR and WAR-free stores — enough structure to exercise
// every simulator mechanism.
func buildBench(n int64) *ir.Func {
	b := ir.NewBuilder("bench")
	a := b.MovI(int64(isa.DataBase))
	out := b.MovI(int64(isa.DataBase) + 8192)
	i := b.MovI(0)
	s := b.MovI(0)
	head, body, odd, join, exit := b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock(), b.NewBlock()
	b.Fallthrough(head)
	b.SetBlock(head)
	b.BranchI(isa.BGE, i, n, exit, body)
	b.SetBlock(body)
	off := b.OpI(isa.SHL, i, 3)
	ai := b.Op(isa.ADD, a, off)
	v := b.Load(ai, 0)
	b.OpTo(isa.ADD, s, s, v)
	oi := b.Op(isa.ADD, out, off)
	b.Store(oi, 0, s) // WAR-free (never loaded in-region)
	b.Store(ai, 0, s) // WAR with the load above (same address)
	bit := b.OpI(isa.AND, v, 1)
	b.BranchI(isa.BEQ, bit, 1, odd, join)
	b.SetBlock(odd)
	b.OpITo(isa.XOR, s, s, 0x55)
	b.Fallthrough(join)
	b.SetBlock(join)
	b.OpITo(isa.ADD, i, i, 1)
	b.Jump(head)
	b.SetBlock(exit)
	b.Store(out, 4096, s)
	b.Halt()
	return b.MustFinish()
}

func seed(mem *isa.Memory, n int) {
	for i := 0; i < n; i++ {
		mem.Store(isa.DataBase+uint64(i)*8, uint64(i*31+7))
	}
}

func maskPrivate(m *isa.Memory) *isa.Memory {
	out := isa.NewMemory()
	for _, e := range m.Snapshot() {
		if e.Addr >= isa.StackBase && e.Addr < isa.StackLimit {
			continue
		}
		if e.Addr >= isa.DefaultCkptBase {
			continue
		}
		out.Store(e.Addr, e.Val)
	}
	return out
}

func goldenRun(t *testing.T, prog *isa.Program, n int) *isa.Memory {
	t.Helper()
	m := isa.NewMachine(prog)
	m.StepLimit = 100_000_000
	seed(m.Mem, n)
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return maskPrivate(m.OutputMemory())
}

func compileFor(t *testing.T, f *ir.Func, scheme core.Scheme, sb int) *isa.Program {
	t.Helper()
	opt := core.Options{Scheme: scheme, SBSize: sb}
	if scheme == core.Turnpike {
		opt = core.TurnpikeAll(sb)
	}
	c, err := core.Compile(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c.Prog
}

func simRun(t *testing.T, prog *isa.Program, cfg Config, n int) (*Sim, Stats) {
	t.Helper()
	s, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, n)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

func TestBaselineFunctionalEquivalence(t *testing.T) {
	f := buildBench(60)
	prog := compileFor(t, f, core.Baseline, 4)
	want := goldenRun(t, prog, 60)
	s, st := simRun(t, prog, BaselineConfig(4), 60)
	if !want.Equal(maskPrivate(s.OutputMemory())) {
		t.Fatalf("baseline sim output differs:\n%s", want.Diff(maskPrivate(s.OutputMemory()), 10))
	}
	if st.Cycles == 0 || st.Insts == 0 {
		t.Fatalf("no progress: %+v", st)
	}
	if st.IPC() > float64(BaselineConfig(4).IssueWidth) {
		t.Fatalf("IPC %.2f exceeds issue width", st.IPC())
	}
}

func TestTurnstileFunctionalEquivalence(t *testing.T) {
	f := buildBench(60)
	prog := compileFor(t, f, core.Turnstile, 4)
	want := goldenRun(t, prog, 60)
	s, st := simRun(t, prog, TurnstileConfig(4, 10), 60)
	if !want.Equal(maskPrivate(s.OutputMemory())) {
		t.Fatalf("turnstile sim output differs")
	}
	if st.Quarantined == 0 {
		t.Fatal("turnstile quarantined nothing")
	}
	if st.WARFreeReleased != 0 || st.ColoredReleased != 0 {
		t.Fatal("turnstile fast-released stores")
	}
	if st.RegionsExecuted < 60 {
		t.Fatalf("regions executed = %d", st.RegionsExecuted)
	}
}

func TestTurnpikeFunctionalEquivalence(t *testing.T) {
	f := buildBench(60)
	prog := compileFor(t, f, core.Turnpike, 4)
	want := goldenRun(t, prog, 60)
	s, st := simRun(t, prog, TurnpikeConfig(4, 10), 60)
	if !want.Equal(maskPrivate(s.OutputMemory())) {
		t.Fatalf("turnpike sim output differs:\n%s", want.Diff(maskPrivate(s.OutputMemory()), 10))
	}
	if st.WARFreeReleased == 0 {
		t.Fatal("no WAR-free fast releases")
	}
	if st.ColoredReleased == 0 {
		t.Fatal("no colored checkpoint releases")
	}
}

func TestOverheadOrdering(t *testing.T) {
	// The paper's headline: cycles(baseline) <= cycles(turnpike) <
	// cycles(turnstile) for the small-SB in-order configuration.
	f := buildBench(200)
	base := compileFor(t, f, core.Baseline, 4)
	tsProg := compileFor(t, f, core.Turnstile, 4)
	tpProg := compileFor(t, f, core.Turnpike, 4)

	_, stBase := simRun(t, base, BaselineConfig(4), 200)
	_, stTS := simRun(t, tsProg, TurnstileConfig(4, 30), 200)
	_, stTP := simRun(t, tpProg, TurnpikeConfig(4, 30), 200)

	if stTS.Cycles <= stBase.Cycles {
		t.Fatalf("turnstile (%d) not slower than baseline (%d)", stTS.Cycles, stBase.Cycles)
	}
	if stTP.Cycles >= stTS.Cycles {
		t.Fatalf("turnpike (%d) not faster than turnstile (%d)", stTP.Cycles, stTS.Cycles)
	}
}

func TestWCDLScalesTurnstileOverhead(t *testing.T) {
	f := buildBench(150)
	prog := compileFor(t, f, core.Turnstile, 4)
	var prev uint64
	for _, wcdl := range []int{10, 30, 50} {
		_, st := simRun(t, prog, TurnstileConfig(4, wcdl), 150)
		if st.Cycles < prev {
			t.Fatalf("cycles decreased when WCDL grew: %d -> %d", prev, st.Cycles)
		}
		prev = st.Cycles
	}
}

func TestSBSizeReducesTurnstileOverhead(t *testing.T) {
	f := buildBench(150)
	var prev uint64 = 1 << 62
	for _, sb := range []int{4, 8, 40} {
		prog := compileFor(t, f, core.Turnstile, sb)
		_, st := simRun(t, prog, TurnstileConfig(sb, 10), 150)
		if st.Cycles > prev {
			t.Fatalf("cycles increased when SB grew to %d: %d -> %d", sb, prev, st.Cycles)
		}
		prev = st.Cycles
	}
}

func TestWARDetectionQuarantinesConflict(t *testing.T) {
	// A region that loads an address then stores to it must quarantine
	// that store; the disjoint store must fast-release.
	f := buildBench(50)
	prog := compileFor(t, f, core.Turnpike, 4)
	_, st := simRun(t, prog, TurnpikeConfig(4, 10), 50)
	if st.Quarantined == 0 {
		t.Fatal("WAR store escaped quarantine")
	}
	if st.WARFreeReleased == 0 {
		t.Fatal("disjoint store not fast-released")
	}
}

func TestIdealCLQBeatsCompactOnDetection(t *testing.T) {
	f := buildBench(120)
	prog := compileFor(t, f, core.Turnpike, 4)
	cfgC := TurnpikeConfig(4, 10)
	cfgI := cfgC
	cfgI.CLQ = CLQIdeal
	_, stC := simRun(t, prog, cfgC, 120)
	_, stI := simRun(t, prog, cfgI, 120)
	if stI.WARFreeReleased < stC.WARFreeReleased {
		t.Fatalf("ideal CLQ detected fewer WAR-free stores (%d) than compact (%d)",
			stI.WARFreeReleased, stC.WARFreeReleased)
	}
	if stI.Cycles > stC.Cycles {
		t.Fatalf("ideal CLQ slower (%d) than compact (%d)", stI.Cycles, stC.Cycles)
	}
}

func TestCLQOccupancyBounded(t *testing.T) {
	f := buildBench(100)
	prog := compileFor(t, f, core.Turnpike, 4)
	_, st := simRun(t, prog, TurnpikeConfig(4, 10), 100)
	if st.CLQOccMax > 2 {
		t.Fatalf("compact CLQ occupancy %d exceeds capacity 2", st.CLQOccMax)
	}
	if st.CLQOccSamples == 0 {
		t.Fatal("no occupancy samples")
	}
}

func TestDeterminism(t *testing.T) {
	f := buildBench(80)
	prog := compileFor(t, f, core.Turnpike, 4)
	_, a := simRun(t, prog, TurnpikeConfig(4, 10), 80)
	_, b := simRun(t, prog, TurnpikeConfig(4, 10), 80)
	if a != b {
		t.Fatalf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

// --- Fault injection ---

func TestFaultRecoveryNoSDC(t *testing.T) {
	// Inject single-bit flips at random points under both schemes; the
	// final memory must always equal the fault-free image — the paper's
	// SDC-freedom guarantee as an executable property.
	f := buildBench(40)
	for _, scheme := range []core.Scheme{core.Turnstile, core.Turnpike} {
		prog := compileFor(t, f, scheme, 4)
		want := goldenRun(t, prog, 40)
		cfg := TurnstileConfig(4, 10)
		if scheme == core.Turnpike {
			cfg = TurnpikeConfig(4, 10)
		}
		rng := rand.New(rand.NewSource(12345))
		for trial := 0; trial < 60; trial++ {
			s, err := New(prog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			seed(s.Mem, 40)
			injectAt := uint64(rng.Intn(3000))
			reg := isa.Reg(1 + rng.Intn(28))
			bit := uint(rng.Intn(64))
			lat := 1 + rng.Intn(cfg.WCDL)
			injected := false
			for !s.Halted() {
				if !injected && s.Stats.Insts >= injectAt {
					if err := s.InjectBitFlip(reg, bit, lat); err != nil {
						t.Fatal(err)
					}
					injected = true
				}
				if err := s.Step(); err != nil {
					t.Fatalf("%v trial %d: %v", scheme, trial, err)
				}
			}
			got := maskPrivate(s.OutputMemory())
			if !want.Equal(got) {
				t.Fatalf("%v trial %d (reg=%v bit=%d at=%d lat=%d): SDC!\n%s",
					scheme, trial, reg, bit, injectAt, lat, want.Diff(got, 10))
			}
			if injected && s.Stats.Recoveries == 0 && s.Stats.ParityTrips == 0 {
				// A flip of a dead register may truly not need recovery —
				// but the detection event must still have fired.
				t.Fatalf("%v trial %d: injected fault never detected", scheme, trial)
			}
		}
	}
}

func TestRecoveryReexecutionCost(t *testing.T) {
	f := buildBench(40)
	prog := compileFor(t, f, core.Turnpike, 4)
	cfg := TurnpikeConfig(4, 10)
	s, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, 40)
	injected := false
	for !s.Halted() {
		if !injected && s.Stats.Insts >= 500 {
			if err := s.InjectBitFlip(5, 3, 5); err != nil {
				t.Fatal(err)
			}
			injected = true
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats.Recoveries == 0 {
		t.Fatal("no recovery happened")
	}
	if s.Stats.RecoveryCycles == 0 {
		t.Fatal("recovery cost not accounted")
	}
}

func TestInjectValidation(t *testing.T) {
	f := buildBench(10)
	prog := compileFor(t, f, core.Turnpike, 4)
	cfg := TurnpikeConfig(4, 10)
	cfg.DetectQueue = 2
	s, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InjectBitFlip(1, 0, 0); err == nil {
		t.Fatal("accepted zero latency")
	}
	// Latency beyond WCDL models a degraded mesh and is accepted; the
	// strike is flagged late.
	if err := s.InjectBitFlip(1, 0, 11); err != nil {
		t.Fatal(err)
	}
	if s.Stats.LateDetections != 1 {
		t.Fatalf("LateDetections = %d, want 1", s.Stats.LateDetections)
	}
	// Bursts are accepted up to the queue bound.
	if err := s.InjectBitFlip(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.InjectBitFlip(1, 0, 5); err == nil {
		t.Fatal("accepted a burst beyond the detect-queue capacity")
	}
	if got := s.Stats.DetectQueuePeak; got != 2 {
		t.Fatalf("DetectQueuePeak = %d, want 2", got)
	}
	b, err := New(prog, BaselineConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.InjectBitFlip(1, 0, 5); err == nil {
		t.Fatal("baseline accepted injection")
	}
}

func TestConfigValidation(t *testing.T) {
	f := buildBench(10)
	prog := compileFor(t, f, core.Turnpike, 4)
	bad := TurnpikeConfig(4, 10)
	bad.SBSize = 0
	if _, err := New(prog, bad); err == nil {
		t.Fatal("accepted SB size 0")
	}
	bad = TurnpikeConfig(4, 0)
	if _, err := New(prog, bad); err == nil {
		t.Fatal("accepted WCDL 0")
	}
	baseProg := compileFor(t, f, core.Baseline, 4)
	if _, err := New(baseProg, TurnpikeConfig(4, 10)); err == nil {
		t.Fatal("accepted resilient sim of region-less program")
	}
}
