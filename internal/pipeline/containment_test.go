package pipeline

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
)

// runWithInjection executes prog under cfg, invoking inject once when the
// instruction count reaches at. It returns the simulator and the first
// error from Step (nil on clean completion).
func runWithInjection(t *testing.T, cfg Config, n int64, at uint64, inject func(*Sim) error) (*Sim, error) {
	t.Helper()
	f := buildBench(n)
	prog := compileFor(t, f, core.Turnpike, cfg.SBSize)
	s, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, int(n))
	injected := false
	for !s.Halted() {
		if !injected && s.Stats.Insts >= at {
			if err := inject(s); err != nil {
				t.Fatal(err)
			}
			injected = true
		}
		if err := s.Step(); err != nil {
			return s, err
		}
	}
	if !injected {
		t.Fatalf("program retired %d insts before injection point %d", s.Stats.Insts, at)
	}
	return s, nil
}

// TestLateDetectionContainmentDUE pins the containment invariant at the
// pipeline level: a detection arriving long after its region verified and
// released stores must abort as a DUE — never complete as if clean.
func TestLateDetectionContainmentDUE(t *testing.T) {
	cfg := TurnpikeConfig(4, 10)
	if !cfg.Containment {
		t.Fatal("resilient configs must default to containment on")
	}
	s, err := runWithInjection(t, cfg, 40, 500, func(s *Sim) error {
		return s.InjectBitFlip(4, 48, 5000) // detection far beyond every window
	})
	var due *DUEError
	if !errors.As(err, &due) {
		t.Fatalf("err = %v, want DUEError", err)
	}
	if !due.Late {
		t.Fatal("DUE not flagged late")
	}
	if s.Stats.DUEs != 1 {
		t.Fatalf("DUEs = %d, want 1", s.Stats.DUEs)
	}
	if s.Stats.DroppedDetections != 0 {
		t.Fatalf("DroppedDetections = %d with containment on", s.Stats.DroppedDetections)
	}
}

// TestLateDetectionDroppedWithoutContainment is the unsafe operating
// point: the same strike with containment off is dropped and the machine
// runs to completion on corrupted state.
func TestLateDetectionDroppedWithoutContainment(t *testing.T) {
	cfg := TurnpikeConfig(4, 10)
	cfg.Containment = false
	s, err := runWithInjection(t, cfg, 40, 500, func(s *Sim) error {
		return s.InjectBitFlip(4, 48, 5000)
	})
	if err != nil {
		t.Fatalf("expected the run to complete with the detection dropped, got %v", err)
	}
	if s.Stats.DUEs != 0 {
		t.Fatalf("DUEs = %d with containment off", s.Stats.DUEs)
	}
	if s.Stats.DroppedDetections == 0 {
		t.Fatal("late detection was not counted as dropped")
	}
}

// TestLateButContainedRecovers: a detection past the WCDL whose region is
// still unverified is recoverable — and must trip the degradation
// controller into quarantine mode, with a later boundary recalibrating.
func TestLateButContainedRecovers(t *testing.T) {
	cfg := TurnpikeConfig(4, 10)
	cfg.DegradeWindow = 40
	f := buildBench(40)
	prog := compileFor(t, f, core.Turnpike, 4)
	want := goldenRun(t, prog, 40)
	s, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, 40)
	injected := false
	for !s.Halted() {
		// Inject mid-region: latency 12 > WCDL 10, but the open region
		// will not have verified 12 cycles from now.
		if r := s.cur(); !injected && s.Stats.Insts >= 500 && r != nil && r.insts > 2 {
			if err := s.InjectBitFlip(4, 48, 12); err != nil {
				t.Fatal(err)
			}
			injected = true
		}
		if err := s.Step(); err != nil {
			t.Fatalf("late-but-contained strike should recover, got %v", err)
		}
	}
	if !injected {
		t.Fatal("never reached the injection point")
	}
	if s.Stats.Recoveries == 0 {
		t.Fatal("no recovery for a contained late detection")
	}
	if s.Stats.DegradeEntries == 0 {
		t.Fatal("late detection did not enter degraded mode")
	}
	if s.Stats.DegradeExits == 0 {
		t.Fatal("degraded mode never recalibrated")
	}
	got := maskPrivate(s.OutputMemory())
	if !want.Equal(got) {
		t.Fatalf("SDC after contained late detection:\n%s", want.Diff(got, 8))
	}
}

// TestBurstRecovery: several strikes inside one detection window resolve
// with correct final memory, exercising the pending-detection queue.
func TestBurstRecovery(t *testing.T) {
	cfg := TurnpikeConfig(4, 10)
	f := buildBench(40)
	prog := compileFor(t, f, core.Turnpike, 4)
	want := goldenRun(t, prog, 40)
	s, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, 40)
	injected := false
	for !s.Halted() {
		if !injected && s.Stats.Insts >= 600 {
			for i, lat := range []int{3, 6, 9} {
				if err := s.InjectBitFlip(isa.Reg(4+i), uint(16+8*i), lat); err != nil {
					t.Fatal(err)
				}
			}
			injected = true
		}
		if err := s.Step(); err != nil {
			t.Fatalf("burst should recover, got %v", err)
		}
	}
	if s.Stats.DetectQueuePeak < 3 {
		t.Fatalf("DetectQueuePeak = %d, want >= 3", s.Stats.DetectQueuePeak)
	}
	if s.Stats.Recoveries == 0 {
		t.Fatal("no recovery after burst")
	}
	got := maskPrivate(s.OutputMemory())
	if !want.Equal(got) {
		t.Fatalf("SDC after burst:\n%s", want.Diff(got, 8))
	}
}

// TestFalsePositiveCostsARecovery: a spurious detection with no strike
// triggers one wasted recovery and leaves memory untouched.
func TestFalsePositiveCostsARecovery(t *testing.T) {
	cfg := TurnpikeConfig(4, 10)
	f := buildBench(40)
	prog := compileFor(t, f, core.Turnpike, 4)
	want := goldenRun(t, prog, 40)
	s, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, 40)
	injected := false
	for !s.Halted() {
		if !injected && s.Stats.Insts >= 500 {
			if err := s.InjectFalseDetection(5); err != nil {
				t.Fatal(err)
			}
			injected = true
		}
		if err := s.Step(); err != nil {
			t.Fatalf("false positive must not kill the run: %v", err)
		}
	}
	if s.Stats.FalseDetections != 1 {
		t.Fatalf("FalseDetections = %d, want 1", s.Stats.FalseDetections)
	}
	if s.Stats.Recoveries == 0 {
		t.Fatal("false positive did not cost a recovery")
	}
	got := maskPrivate(s.OutputMemory())
	if !want.Equal(got) {
		t.Fatalf("false positive corrupted memory:\n%s", want.Diff(got, 8))
	}
}

// TestDegradedModeQuarantines: while degraded, fast release is suspended
// — no WAR-free or colored releases happen until recalibration.
func TestDegradedModeQuarantines(t *testing.T) {
	cfg := TurnpikeConfig(4, 10)
	cfg.DegradeWindow = 1 << 40 // never recalibrate within this run
	f := buildBench(40)
	prog := compileFor(t, f, core.Turnpike, 4)
	want := goldenRun(t, prog, 40)
	s, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, 40)
	injected := false
	var fastAtInject, quarAtInject uint64
	for !s.Halted() {
		if r := s.cur(); !injected && s.Stats.Insts >= 500 && r != nil && r.insts > 2 {
			if err := s.InjectBitFlip(4, 48, 12); err != nil {
				t.Fatal(err)
			}
			fastAtInject = s.Stats.WARFreeReleased + s.Stats.ColoredReleased
			quarAtInject = s.Stats.Quarantined
			injected = true
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats.DegradeEntries == 0 {
		t.Fatal("never degraded")
	}
	if s.Stats.DegradeExits != 0 {
		t.Fatal("recalibrated despite an unreachable degrade window")
	}
	// While degraded, quarantine must dominate: fast release only
	// engages as the SB-headroom escape hatch, so quarantined stores
	// after the detection must outnumber fast-released ones.
	fastAfter := s.Stats.WARFreeReleased + s.Stats.ColoredReleased - fastAtInject
	quarAfter := s.Stats.Quarantined - quarAtInject
	if quarAfter == 0 || fastAfter >= quarAfter {
		t.Fatalf("degraded mode not conservative: %d fast vs %d quarantined after detection",
			fastAfter, quarAfter)
	}
	got := maskPrivate(s.OutputMemory())
	if !want.Equal(got) {
		t.Fatalf("SDC in degraded mode:\n%s", want.Diff(got, 8))
	}
}
