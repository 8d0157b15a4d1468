package fault

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// progressTotals is what a Progress accumulates from runs with the given
// statistics.
type progressTotals struct {
	Cycles, Insts, Regions, RegionsVerified, Recoveries uint64
}

func totalsOf(sts ...pipeline.Stats) progressTotals {
	var t progressTotals
	for _, st := range sts {
		t.Cycles += st.Cycles
		t.Insts += st.Insts
		t.Regions += st.RegionsExecuted
		t.RegionsVerified += st.RegionsVerified
		t.Recoveries += st.Recoveries
	}
	return t
}

func progressTotalsOf(p *pipeline.Progress) progressTotals {
	return progressTotals{p.Cycles.Load(), p.Insts.Load(), p.Regions.Load(),
		p.RegionsVerified.Load(), p.Recoveries.Load()}
}

// TestProgressMatchesCampaign pins the live-progress totals, which the
// simulator publishes in batches: once a campaign has run, its Progress
// holds exactly the cold and the warm golden run plus every trial's
// statistics (Result.Agg), whether a trial resumed from an epoch, was
// cut at reconvergence or ended in a DUE, on one worker or two sharing
// the Progress. A campaign handed on by Reuse runs no golden run, so its
// Progress holds its trials alone.
func TestProgressMatchesCampaign(t *testing.T) {
	ctx := context.Background()
	var cut, due uint64
	for _, bench := range []string{"gcc", "mcf", "lbm"} {
		prog, p := compiledAt(t, bench, core.Turnpike, 5)
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", bench, workers), func(t *testing.T) {
				var pr pipeline.Progress
				reg := obs.NewRegistry()
				cfg := Config{Trials: 32, Seed: 11, Workers: workers, FailureBudget: -1,
					Sim: pipeline.TurnpikeConfig(4, 10), Adversary: meshAdversary,
					Progress: &pr, Metrics: reg}
				prep, err := Prepare(ctx, prog, cfg, p.SeedMemory)
				if err != nil {
					t.Fatal(err)
				}
				// GoldenStats is the cold run's, with the warm run's cycles.
				cold, warm := prep.e.gs.Stats(), prep.GoldenStats()
				res, err := prep.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := progressTotalsOf(&pr), totalsOf(cold, warm, res.Agg); got != want {
					t.Errorf("Progress holds %+v, want golden runs plus trials %+v", got, want)
				}
				cut += reg.Snapshot().Counters["fault.cut.trials"]
				due += uint64(res.Outcomes[DUE])

				var again pipeline.Progress
				cfg.Seed, cfg.Progress = 12, &again
				reused, err := prep.Reuse(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err = reused.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := progressTotalsOf(&again), totalsOf(res.Agg); got != want {
					t.Errorf("reused campaign's Progress holds %+v, want its trials %+v", got, want)
				}
				if got, want := again.Runs.Load(), uint64(res.CompletedTrials-res.Outcomes[DUE]); got != want {
					t.Errorf("reused campaign's Progress counts %d runs, want its %d trials that did not end in a DUE", got, want)
				}
			})
		}
	}
	if cut == 0 || due == 0 {
		t.Fatalf("the campaigns cut %d trials and ended %d in a DUE; the identity needs both", cut, due)
	}
}
