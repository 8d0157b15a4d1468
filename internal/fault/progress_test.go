package fault

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// progressTotals is what a registry's live.* gauges accumulate from runs
// with the given statistics.
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

func progressTotalsOf(reg *obs.Registry) progressTotals {
	g := reg.Snapshot().Gauges
	return progressTotals{uint64(g["live.cycles"]), uint64(g["live.insts"]), uint64(g["live.regions"]),
		uint64(g["live.regions_verified"]), uint64(g["live.recoveries"])}
}

// TestProgressMatchesCampaign pins the live-progress totals, which the
// simulator publishes in batches: once a campaign has run, the live.*
// gauges of its Metrics hold exactly the cold and the warm golden run
// plus every trial's statistics (Result.Agg), whether a trial resumed
// from an epoch, was cut at reconvergence or ended in a DUE, on one
// worker or two sharing the gauges. A campaign handed on by Reuse runs
// no golden run, so its gauges hold its trials alone.
func TestProgressMatchesCampaign(t *testing.T) {
	ctx := context.Background()
	var cut, due uint64
	for _, bench := range []string{"gcc", "mcf", "lbm"} {
		prog, p := compiledAt(t, bench, core.Turnpike, 5)
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", bench, workers), func(t *testing.T) {
				reg := obs.NewRegistry()
				cfg := Config{Trials: 32, Seed: 11, Workers: workers, FailureBudget: -1,
					Sim: pipeline.TurnpikeConfig(4, 10), Adversary: meshAdversary, Metrics: reg}
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
				if got, want := progressTotalsOf(reg), totalsOf(cold, warm, res.Agg); got != want {
					t.Errorf("live gauges hold %+v, want golden runs plus trials %+v", got, want)
				}
				if got, want := reg.Gauge("live.runs").Value(), int64(2+res.CompletedTrials-res.Outcomes[DUE]); got != want {
					t.Errorf("live.runs = %d, want the golden runs and the %d trials that did not end in a DUE", got, want-2)
				}
				cut += reg.Snapshot().Counters["fault.cut.trials"]
				due += uint64(res.Outcomes[DUE])

				again := obs.NewRegistry()
				cfg.Seed, cfg.Metrics = 12, again
				reused, err := prep.Reuse(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err = reused.Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := progressTotalsOf(again), totalsOf(res.Agg); got != want {
					t.Errorf("reused campaign's live gauges hold %+v, want its trials %+v", got, want)
				}
				if got, want := again.Gauge("live.runs").Value(), int64(res.CompletedTrials-res.Outcomes[DUE]); got != want {
					t.Errorf("reused campaign's live.runs = %d, want its %d trials that did not end in a DUE", got, want)
				}
				if w := again.Gauge("live.workers").Value(); w != 0 {
					t.Errorf("live.workers = %d after the campaign, want 0", w)
				}
			})
		}
	}
	if cut == 0 || due == 0 {
		t.Fatalf("the campaigns cut %d trials and ended %d in a DUE; the identity needs both", cut, due)
	}
}
