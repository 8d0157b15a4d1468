package fault

import (
	"context"
	"flag"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// meshAdversary is the adversarial mesh of the campaign-gcc benchmark
// workload: late detections, bursts, false positives and DUE aborts.
var meshAdversary = &Adversary{MissProb: 0.1, FalsePositiveRate: 0.2, DeadSensors: 2, BurstMax: 3}

// TestEpochTrialsMatchFromStart is the differential gate of the epoch
// fast-forward and the reconvergence cut-off. For every built-in
// benchmark under Turnpike and Turnstile, with a perfect and an
// adversarial mesh, each trial record of a prepared campaign, whose
// trials resume from the warm golden run's epochs and stop once they
// reconverge with it, must be byte-identical to a from-start run of the
// same injection on a golden state with no epochs, as Replay builds,
// which never cuts. The cut must also carry its weight: it logs the
// share of trials cut per cell, and at least 80% of the trials that do
// not end in a DUE must be cut.
func TestEpochTrialsMatchFromStart(t *testing.T) {
	checkEpochScale(t, 5, 16, 0.8)
}

// scale100Trials is the trials per cell of
// TestEpochTrialsMatchFromStartAtScale100; nightly runs more.
var scale100Trials = flag.Int("scale100-trials", 8, "trials per cell of TestEpochTrialsMatchFromStartAtScale100")

// TestEpochTrialsMatchFromStartAtScale100 is the same gate at scale
// 100, where runs are long enough for the schedule to place more than
// the minimum of epochs and where most trials reach the cache replay:
// there at least 95% of the non-DUE trials must be cut.
func TestEpochTrialsMatchFromStartAtScale100(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-100 campaigns over every benchmark")
	}
	checkEpochScale(t, 100, *scale100Trials, 0.95)
}

// checkEpochScale runs every benchmark's cells at scale with trials per
// cell and requires that at least share of the non-DUE trials be cut.
func checkEpochScale(t *testing.T, scale, trials int, share float64) {
	var cut, eligible atomic.Int64
	// Cleanup runs once every parallel subtest has finished.
	t.Cleanup(func() {
		if t.Failed() || eligible.Load() == 0 {
			return
		}
		got := float64(cut.Load()) / float64(eligible.Load())
		t.Logf("cut %d of %d non-DUE trials (%.1f%%)", cut.Load(), eligible.Load(), 100*got)
		if got < share {
			t.Errorf("cut %.1f%% of the non-DUE trials, want at least %.0f%%", 100*got, 100*share)
		}
	})
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c, n := checkEpochTrials(t, name, scale, trials)
			cut.Add(int64(c))
			eligible.Add(int64(n))
		})
	}
}

// checkEpochTrials runs one benchmark's cells of
// TestEpochTrialsMatchFromStart at scale with trials per cell and
// returns how many trials were cut of those that did not end in a DUE.
func checkEpochTrials(t *testing.T, name string, scale, trials int) (cut, eligible int) {
	ctx := context.Background()
	p, _ := workload.ByName(name)
	f := p.Build(scale)
	var skipped, insts uint64
	for _, sc := range []struct {
		name string
		opt  core.Options
		sim  pipeline.Config
	}{
		{"turnpike", core.TurnpikeAll(4), pipeline.TurnpikeConfig(4, 10)},
		{"turnstile", core.Options{Scheme: core.Turnstile, SBSize: 4}, pipeline.TurnstileConfig(4, 10)},
	} {
		c, err := core.Compile(f, sc.opt)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		gs, sim, err := fromStart(ctx, c.Prog, Config{Sim: sc.sim}, p.SeedMemory)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		for _, adv := range []*Adversary{nil, meshAdversary} {
			cfg := Config{Trials: trials, Seed: 5, Workers: 1, FailureBudget: -1,
				Sim: sc.sim, Adversary: adv}
			prep, err := Prepare(ctx, c.Prog, cfg, p.SeedMemory)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			e, r := prep.e, prep.runners[0]
			ref := *e
			ref.gs = gs
			refRunner := &trialRunner{sim: sim, det: e.det}
			var got, want TrialRecord
			cellCut, cellEligible := 0, 0
			for trial := range trials {
				resumed := r.shadow.Counts.Resumed
				wasCut := e.runTrial(ctx, r, trial, &got)
				skipped += r.shadow.Counts.Resumed - resumed
				if ref.runTrial(ctx, refRunner, trial, &want) {
					t.Fatalf("%s adversary=%v trial %d: a golden state without epochs cut a trial", sc.name, adv != nil, trial)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s adversary=%v trial %d (cut %v): resumed record differs from the run from the start:\n%+v\n%+v",
						sc.name, adv != nil, trial, wasCut, got, want)
				}
				insts += got.Stats.Insts
				if got.Outcome != DUE {
					cellEligible++
					if wasCut {
						cellCut++
					}
				}
			}
			t.Logf("%s adversary=%v: cut %d of %d non-DUE trials", sc.name, adv != nil, cellCut, cellEligible)
			cut += cellCut
			eligible += cellEligible
		}
	}
	if skipped == 0 {
		t.Fatal("no trial resumed from an epoch")
	}
	t.Logf("trials resumed past %.1f%% of their instructions", 100*float64(skipped)/float64(insts))
	return cut, eligible
}
