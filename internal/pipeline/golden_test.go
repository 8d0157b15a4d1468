package pipeline

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
)

// captureBench compiles the standard test kernel and captures its golden
// state at the given scale. testing.TB so fuzz targets can share it.
func captureBench(t testing.TB, n int) *GoldenState {
	t.Helper()
	c, err := core.Compile(buildBench(int64(n)), core.TurnpikeAll(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(c.Prog, TurnpikeConfig(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, n)
	gs, err := CaptureGolden(s)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

// trialResult is one injected run's complete observable outcome.
type trialResult struct {
	Stats Stats
	Mem   []isa.MemEntry
	Err   string
}

// runInjected drives s to halt, injecting one bit flip when the
// instruction count reaches atInst, and returns everything a campaign
// would observe from the trial.
func runInjected(s *Sim, reg isa.Reg, bit uint, atInst uint64, lat int) trialResult {
	return runWithFalsePositive(s, reg, bit, atInst, lat, 0, 0)
}

// runWithFalsePositive is runInjected plus, when fpAt is nonzero, a
// spurious detection with latency fpLat once fpAt instructions have
// retired (after the strike on a tie, as campaigns order them).
func runWithFalsePositive(s *Sim, reg isa.Reg, bit uint, atInst uint64, lat int, fpAt uint64, fpLat int) trialResult {
	injected, fired := false, fpAt == 0
	for !s.Halted() {
		if !injected && s.Stats.Insts >= atInst {
			injected = true
			if err := s.InjectBitFlip(reg, bit, lat); err != nil {
				return trialResult{Stats: s.Stats, Err: err.Error()}
			}
		}
		if !fired && s.Stats.Insts >= fpAt {
			fired = true
			if err := s.InjectFalseDetection(fpLat); err != nil {
				return trialResult{Stats: s.Stats, Err: err.Error()}
			}
		}
		if err := s.Step(); err != nil {
			return trialResult{Stats: s.Stats, Err: err.Error()}
		}
	}
	return trialResult{Stats: s.Stats, Mem: s.OutputMemory().Snapshot()}
}

// TestSimResetMatchesFresh is the Reset path's contract: a single
// simulator Reset between injected trials produces byte-identical
// results to a fresh Fork per trial, across trials that recover, mask,
// and corrupt state.
func TestSimResetMatchesFresh(t *testing.T) {
	gs := captureBench(t, 60)
	reused, err := gs.Fork()
	if err != nil {
		t.Fatal(err)
	}
	insts := gs.Stats().Insts
	for i := 0; i < 24; i++ {
		reg := isa.Reg(1 + i%31)
		bit := uint((i * 7) % 64)
		at := 1 + uint64(i)*insts/25
		lat := 1 + i%10

		gs.Reset(reused)
		got := runInjected(reused, reg, bit, at, lat)

		fresh, err := gs.Fork()
		if err != nil {
			t.Fatal(err)
		}
		want := runInjected(fresh, reg, bit, at, lat)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (r%d bit %d at %d lat %d): reused Reset diverged from fresh fork\nreused: %+v\nfresh:  %+v",
				i, reg, bit, at, lat, got, want)
		}
	}
}

// TestGoldenForkIsolation: corrupting or running one fork must not leak
// into a sibling fork or into the snapshot itself, and Reset must fully
// recover the corrupted fork.
func TestGoldenForkIsolation(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, s *Sim)
	}{
		{"registers", func(t *testing.T, s *Sim) {
			for r := range s.Regs {
				s.Regs[r] = 0xDEADBEEF
				s.Taint[r] = true
			}
		}},
		{"memory", func(t *testing.T, s *Sim) {
			s.Mem.Store(isa.DataBase, 0xBAD)
			s.Mem.Store(isa.DataBase+8, 0)
			s.Mem.Store(isa.StackBase, 0xBAD)
		}},
		{"run-to-halt", func(t *testing.T, s *Sim) {
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"injected-run", func(t *testing.T, s *Sim) {
			runInjected(s, 3, 17, 40, 5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gs := captureBench(t, 60)
			goldenImage := gs.Output().Snapshot()
			goldenStats := gs.Stats()

			// Warm reference: what any clean fork run must reproduce.
			// (Forks start from the warmed cache snapshot, so their cycle
			// counts differ from the cold capture run's — deterministically.)
			ref, err := gs.Fork()
			if err != nil {
				t.Fatal(err)
			}
			refStats, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref.OutputMemory().Snapshot(), goldenImage) {
				t.Fatal("clean fork run does not reproduce the golden output")
			}

			a, err := gs.Fork()
			if err != nil {
				t.Fatal(err)
			}
			b, err := gs.Fork()
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, a)

			// The sibling fork is untouched: its clean run reproduces the
			// reference output and statistics exactly.
			st, err := b.Run()
			if err != nil {
				t.Fatalf("sibling run: %v", err)
			}
			if !reflect.DeepEqual(b.OutputMemory().Snapshot(), goldenImage) {
				t.Error("sibling fork output diverged after corrupting its sibling")
			}
			if st != refStats {
				t.Errorf("sibling stats diverged: %+v vs %+v", st, refStats)
			}

			// The snapshot itself is immutable.
			if !reflect.DeepEqual(gs.Output().Snapshot(), goldenImage) {
				t.Error("golden output mutated by a fork")
			}
			if gs.Stats() != goldenStats {
				t.Error("golden stats mutated by a fork")
			}

			// Reset recovers the corrupted fork completely.
			gs.Reset(a)
			st, err = a.Run()
			if err != nil {
				t.Fatalf("post-Reset run: %v", err)
			}
			if !reflect.DeepEqual(a.OutputMemory().Snapshot(), goldenImage) {
				t.Error("Reset did not recover the corrupted fork")
			}
			if st != refStats {
				t.Errorf("post-Reset stats diverged: %+v vs %+v", st, refStats)
			}
		})
	}
	t.Run("concurrent-forks", concurrentForks)
}

// concurrentForks: forks share the frozen seeded image's pages, so
// trials running concurrently on several forks — each writing,
// corrupting and resetting its own memory — must leave the image, the
// golden output and every sibling's results untouched.
func concurrentForks(t *testing.T) {
	gs := captureBench(t, 60)
	initImage := gs.init.Snapshot()
	goldenImage := gs.Output().Snapshot()
	insts := gs.Stats().Insts
	trial := func(s *Sim, i int) trialResult {
		gs.Reset(s)
		if i%3 == 0 {
			s.Mem.Store(isa.DataBase+uint64(i)*8, 0xBAD) // a wild store into a shared page
		}
		return runInjected(s, isa.Reg(1+i%31), uint((i*7)%64), 1+uint64(i)*insts/13, 1+i%10)
	}
	ref, err := gs.Fork()
	if err != nil {
		t.Fatal(err)
	}
	const forks, trials = 4, 12
	want := make([]trialResult, trials)
	for i := range want {
		want[i] = trial(ref, i)
	}
	got := make([][]trialResult, forks)
	var wg sync.WaitGroup
	for f := range got {
		s, err := gs.Fork()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < trials; i++ {
				got[f] = append(got[f], trial(s, (i+f)%trials))
			}
		}()
	}
	wg.Wait()
	for f := range got {
		for i, r := range got[f] {
			if w := want[(i+f)%trials]; !reflect.DeepEqual(r, w) {
				t.Errorf("fork %d trial %d diverged from the serial run", f, (i+f)%trials)
			}
		}
	}
	if !reflect.DeepEqual(gs.init.Snapshot(), initImage) {
		t.Error("frozen seeded image changed under concurrent forks")
	}
	if !reflect.DeepEqual(gs.Output().Snapshot(), goldenImage) {
		t.Error("golden output changed under concurrent forks")
	}
}

// FuzzGoldenFork fuzzes the golden state's trial paths over the whole
// injection parameter space: for any strike, with an optional false
// positive, a reused simulator that has already executed a prior
// corrupting trial must reproduce a fresh fork's result bit for bit —
// and so must the same trial resumed by ResetAt from any instruction
// count at or before its first event. Run between its events by
// RunUntil and finished by RunCut instead, the resumed trial must
// reproduce it too; when RunCut cuts it, the predicted statistics must
// be the full run's and the full run's output the golden output.
func FuzzGoldenFork(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint16(1), uint8(1), uint16(0), uint16(0))
	f.Add(uint8(3), uint8(17), uint16(40), uint8(5), uint16(40), uint16(0))
	f.Add(uint8(31), uint8(63), uint16(500), uint8(10), uint16(300), uint16(420))
	f.Add(uint8(7), uint8(32), uint16(65535), uint8(3), uint16(65535), uint16(7))

	gs := captureBench(f, 40)
	reused, err := gs.Fork()
	if err != nil {
		f.Fatal(err)
	}
	if _, err := gs.RecordEpochs(reused); err != nil {
		f.Fatal(err)
	}
	insts := gs.Stats().Insts
	goldenOut := gs.Output().Snapshot()
	shadow, err := gs.NewShadow()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, regRaw, bitRaw uint8, atRaw uint16, latRaw uint8, fromRaw, fpRaw uint16) {
		reg := isa.Reg(1 + int(regRaw)%(isa.NumRegs-1))
		bit := uint(bitRaw) % 64
		at := 1 + uint64(atRaw)%insts
		lat := 1 + int(latRaw)%10
		first, fpAt, fpLat := at, uint64(0), 0
		if fpRaw != 0 {
			fpAt, fpLat = 1+uint64(fpRaw)%insts, 1+int(fpRaw)%10
			first = min(at, fpAt)
		}
		from := uint64(fromRaw) % (first + 1)
		run := func(s *Sim) trialResult {
			return runWithFalsePositive(s, reg, bit, at, lat, fpAt, fpLat)
		}

		// Dirty the reused simulator with a fixed corrupting trial first,
		// so Reset always starts from non-trivial residue.
		gs.Reset(reused)
		runInjected(reused, 5, 11, at/2+1, 2)

		gs.Reset(reused)
		got := run(reused)

		fresh, err := gs.Fork()
		if err != nil {
			t.Fatal(err)
		}
		want := run(fresh)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reused Reset diverged from fresh fork for r%d bit %d at %d lat %d, false positive at %d",
				reg, bit, at, lat, fpAt)
		}

		gs.ResetAt(reused, from)
		if reused.Stats.Insts > from {
			t.Fatalf("ResetAt(%d) resumed past it, at %d instructions", from, reused.Stats.Insts)
		}
		if resumed := run(reused); !reflect.DeepEqual(resumed, want) {
			t.Fatalf("trial resumed by ResetAt(%d) diverged from its run from the start for r%d bit %d at %d lat %d, false positive at %d",
				from, reg, bit, at, lat, fpAt)
		}

		// The resumed trial finished by RunCut: cut or not, its outcome
		// and statistics are the run from the start's.
		gs.ResetAt(reused, from)
		got, cut := runCut(gs, reused, shadow, reg, bit, at, lat, fpAt, fpLat)
		if cut {
			ok := want.Err == "" && got.Stats == want.Stats && reflect.DeepEqual(want.Mem, goldenOut)
			if !ok {
				t.Fatalf("trial cut by RunCut mispredicts its run from the start for r%d bit %d at %d lat %d, false positive at %d:\npredicted %+v\nfull run  %+v (%s, output equals golden: %v)",
					reg, bit, at, lat, fpAt, got.Stats, want.Stats, want.Err, reflect.DeepEqual(want.Mem, goldenOut))
			}
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial finished by RunCut diverged from its run from the start for r%d bit %d at %d lat %d, false positive at %d",
				reg, bit, at, lat, fpAt)
		}
	})
}

// runCut is runWithFalsePositive with the run between the events
// taken by RunUntil, which may jump, and the run after the last event
// finished by RunCut. For a cut trial it returns the predicted
// statistics and no memory.
func runCut(g *GoldenState, s *Sim, sh *Shadow, reg isa.Reg, bit uint, atInst uint64, lat int, fpAt uint64, fpLat int) (trialResult, bool) {
	injected, fired := false, fpAt == 0
	for !s.Halted() && !(injected && fired) {
		if !injected && s.Stats.Insts >= atInst {
			injected = true
			if err := s.InjectBitFlip(reg, bit, lat); err != nil {
				return trialResult{Stats: s.Stats, Err: err.Error()}, false
			}
		}
		if !fired && s.Stats.Insts >= fpAt {
			fired = true
			if err := s.InjectFalseDetection(fpLat); err != nil {
				return trialResult{Stats: s.Stats, Err: err.Error()}, false
			}
		}
		if injected && fired {
			break
		}
		next := fpAt
		if !injected && (fired || atInst < fpAt) {
			next = atInst
		}
		if err := g.RunUntil(s, sh, next); err != nil {
			return trialResult{Stats: s.Stats, Err: err.Error()}, false
		}
	}
	st, cut, err := g.RunCut(s, sh)
	switch {
	case err != nil:
		return trialResult{Stats: st, Err: err.Error()}, false
	case cut:
		return trialResult{Stats: st}, true
	}
	return trialResult{Stats: st, Mem: s.OutputMemory().Snapshot()}, false
}
