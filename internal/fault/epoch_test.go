package fault

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// meshAdversary is the adversarial mesh of the campaign-gcc benchmark
// workload: late detections, bursts, false positives and DUE aborts.
var meshAdversary = &Adversary{MissProb: 0.1, FalsePositiveRate: 0.2, DeadSensors: 2, BurstMax: 3}

// TestEpochTrialsMatchFromStart is the epoch fast-forward's
// differential gate. For every built-in benchmark under Turnpike and
// Turnstile, with a perfect and an adversarial mesh, each trial record
// of a prepared campaign, whose trials resume from the warm golden run's
// epochs, must be byte-identical to a from-start run of the same
// injection on a golden state with no epochs, as Replay builds.
func TestEpochTrialsMatchFromStart(t *testing.T) {
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			checkEpochTrials(t, name)
		})
	}
}

// checkEpochTrials runs one benchmark's cells of
// TestEpochTrialsMatchFromStart.
func checkEpochTrials(t *testing.T, name string) {
	const scale, trials = 5, 16
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
			refRunner := &trialRunner{sim: sim}
			var got, want TrialRecord
			for trial := range trials {
				inj := e.plan(trial)
				e.gs.ResetAt(r.sim, inj.events()[0].atInst)
				skipped += r.sim.Stats.Insts
				e.runTrial(ctx, r, trial, &got)
				ref.runTrial(ctx, refRunner, trial, &want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s adversary=%v trial %d: resumed record differs from the run from the start:\n%+v\n%+v",
						sc.name, adv != nil, trial, got, want)
				}
				insts += got.Stats.Insts
			}
		}
	}
	if skipped == 0 {
		t.Fatal("no trial resumed from an epoch")
	}
	t.Logf("trials resumed past %.1f%% of their instructions", 100*float64(skipped)/float64(insts))
}
