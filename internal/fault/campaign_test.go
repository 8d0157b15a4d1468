package fault

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestCampaignWorkerCountInvariant is the engine's core guarantee: the
// merged result — outcome histogram, aggregate statistics, slowdown
// samples, failure report, and the metric registry fed from them — is
// identical for every worker count at a fixed seed.
func TestCampaignWorkerCountInvariant(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	base := Config{Trials: 80, Seed: 42, Sim: pipeline.TurnpikeConfig(4, 10)}

	results := make([]*Result, 0, 3)
	snaps := make([]obs.Snapshot, 0, 3)
	for _, workers := range []int{1, 3, 8} {
		cfg := base
		cfg.Workers = workers
		cfg.Metrics = obs.NewRegistry()
		res, err := Campaign(prog, cfg, p.SeedMemory)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results = append(results, res)
		snaps = append(snaps, cfg.Metrics.Snapshot())
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Errorf("result diverged between worker counts:\n%+v\nvs\n%+v", results[0], results[i])
		}
		if !reflect.DeepEqual(snaps[0], snaps[i]) {
			t.Errorf("metric snapshot diverged between worker counts")
		}
	}
	if results[0].CompletedTrials != base.Trials {
		t.Fatalf("completed %d/%d trials", results[0].CompletedTrials, base.Trials)
	}
}

// plan derives trial's injection on a fresh copy of the campaign's
// detector, as checkpoint restore and shard validation do.
func (e *engine) plan(trial int) Injection {
	det := e.det
	return e.planWith(trial, &det)
}

// TestTrialPlanIsPure pins the seeding scheme: a trial's injection is a
// pure function of (seed, trial), independent of any other trial.
func TestTrialPlanIsPure(t *testing.T) {
	e := &engine{cfg: Config{Seed: 7, Trials: 100, Sim: pipeline.TurnpikeConfig(4, 10)}, maxAt: 5000}
	if err := e.resolveDetector(); err != nil {
		t.Fatal(err)
	}
	want := make([]Injection, 16)
	for i := range want {
		want[i] = e.plan(i)
	}
	// Re-derive in reverse order from a fresh engine: identical plans.
	e2 := &engine{cfg: e.cfg, maxAt: e.maxAt}
	if err := e2.resolveDetector(); err != nil {
		t.Fatal(err)
	}
	for i := len(want) - 1; i >= 0; i-- {
		if got := e2.plan(i); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("trial %d plan not pure: %+v vs %+v", i, got, want[i])
		}
	}
	// Different seeds must decorrelate.
	e3 := &engine{cfg: Config{Seed: 8, Trials: 100, Sim: e.cfg.Sim}, maxAt: e.maxAt}
	if err := e3.resolveDetector(); err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range want {
		if reflect.DeepEqual(e3.plan(i), want[i]) {
			same++
		}
	}
	if same == len(want) {
		t.Fatal("seed change did not change the plan")
	}
}

// TestFailureBudgetRecordsAndAborts drives the engine against a
// non-resilient binary, where every injection attempt crashes (the
// pipeline rejects injection without a resilient config): the budget must
// bound how many failures are recorded, and a negative budget must record
// all of them without an error.
func TestFailureBudgetRecordsAndAborts(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Baseline)
	cfg := Config{Trials: 10, Seed: 1, Sim: pipeline.BaselineConfig(4), Workers: 1}

	// Unlimited budget: every trial recorded, no abort.
	cfg.FailureBudget = -1
	res, err := Campaign(prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatalf("unlimited budget must not abort: %v", err)
	}
	if res.Outcomes[Crash] != 10 || len(res.Failures) != 10 {
		t.Fatalf("outcomes %v, %d failures recorded", res.Outcomes, len(res.Failures))
	}
	for i, f := range res.Failures {
		if f.Trial != i || f.Outcome != Crash || f.Err == "" {
			t.Fatalf("failure %d malformed: %+v", i, f)
		}
	}

	// Budget of 3 on one worker: exactly three trials run, then abort.
	cfg.FailureBudget = 3
	res, err = Campaign(prog, cfg, p.SeedMemory)
	if err == nil {
		t.Fatal("exhausted budget must return an error")
	}
	if res.CompletedTrials != 3 || len(res.Failures) != 3 {
		t.Fatalf("completed=%d failures=%d, want 3/3", res.CompletedTrials, len(res.Failures))
	}

	// Default (zero) budget keeps the historical fail-fast contract.
	cfg.FailureBudget = 0
	res, err = Campaign(prog, cfg, p.SeedMemory)
	if err == nil || len(res.Failures) != 1 {
		t.Fatalf("fail-fast default: err=%v failures=%d", err, len(res.Failures))
	}
}

// TestReplayMatchesCheckpointRecords replays trials recorded in a
// checkpoint file and requires the classification to reproduce — the
// failure-report debugging loop, exercised on healthy trials.
func TestReplayMatchesCheckpointRecords(t *testing.T) {
	prog, p := compiled(t, "fft", core.Turnpike)
	ckpt := filepath.Join(t.TempDir(), "camp.json")
	cfg := Config{Trials: 12, Seed: 3, Sim: pipeline.TurnpikeConfig(4, 10), Checkpoint: ckpt}
	if _, err := Campaign(prog, cfg, p.SeedMemory); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var ck campaignCheckpoint
	if err := json.Unmarshal(b, &ck); err != nil {
		t.Fatal(err)
	}
	if len(ck.Done) != cfg.Trials {
		t.Fatalf("checkpoint has %d/%d trials", len(ck.Done), cfg.Trials)
	}
	for _, rec := range ck.Done[:4] {
		out, st, err := Replay(prog, Config{Sim: cfg.Sim}, p.SeedMemory, rec.Inj)
		if err != nil {
			t.Fatalf("trial %d replay: %v", rec.Trial, err)
		}
		if out != rec.Outcome {
			t.Fatalf("trial %d replayed as %s, recorded %s", rec.Trial, out, rec.Outcome)
		}
		if st != rec.Stats {
			t.Fatalf("trial %d replay stats diverged", rec.Trial)
		}
	}
}

// TestCampaignResume kills a campaign mid-flight via context
// cancellation, restarts it from the checkpoint file, and requires the
// merged result to equal an uninterrupted run at the same seed.
func TestCampaignResume(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	base := Config{Trials: 60, Seed: 9, Sim: pipeline.TurnpikeConfig(4, 10)}

	uninterrupted, err := Campaign(prog, base, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "resume.json")
	cfg := base
	cfg.Checkpoint = ckpt
	cfg.CheckpointEvery = 1
	cfg.Workers = 2
	cfg.Progress = &pipeline.Progress{}

	// Cancel once a handful of trials completed (Runs counts the golden
	// run too); the final checkpoint write must preserve the watermark.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for cfg.Progress.Runs.Load() < 6 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	partial, err := CampaignContext(ctx, prog, cfg, p.SeedMemory)
	if err == nil {
		t.Fatal("cancelled campaign must report interruption")
	}
	if partial.CompletedTrials == 0 {
		t.Fatal("cancellation landed before any trial completed")
	}
	if partial.CompletedTrials >= base.Trials {
		t.Fatalf("cancellation landed after all %d trials; nothing to resume", base.Trials)
	}

	cfg.Progress = nil
	resumed, err := CampaignContext(context.Background(), prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(resumed, uninterrupted) {
		t.Fatalf("resumed result diverged from uninterrupted run:\n%+v\nvs\n%+v", resumed, uninterrupted)
	}
}

// TestCheckpointMismatchRejected: a checkpoint from one campaign must not
// silently seed a different one.
func TestCheckpointMismatchRejected(t *testing.T) {
	prog, p := compiled(t, "fft", core.Turnpike)
	ckpt := filepath.Join(t.TempDir(), "camp.json")
	cfg := Config{Trials: 8, Seed: 3, Sim: pipeline.TurnpikeConfig(4, 10), Checkpoint: ckpt}
	if _, err := Campaign(prog, cfg, p.SeedMemory); err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 4
	if _, err := Campaign(prog, cfg, p.SeedMemory); err == nil {
		t.Fatal("seed change over an existing checkpoint must be rejected")
	}
}

// TestSlowdownPercentileNearestRank pins the nearest-rank definition:
// rank = ceil(p/100*n), clamped to [1, n]. The previous truncating index
// biased P95/P99 low on small sample counts.
func TestSlowdownPercentileNearestRank(t *testing.T) {
	four := &Result{SlowdownSamples: []float64{1.0, 1.1, 1.2, 1.3}}
	ten := &Result{SlowdownSamples: []float64{1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09, 1.10}}
	cases := []struct {
		name string
		r    *Result
		p    float64
		want float64
	}{
		{"empty", &Result{}, 50, 0},
		{"p0 clamps to first", four, 0, 1.0},
		{"p25 of 4", four, 25, 1.0},
		{"p50 of 4", four, 50, 1.1},
		{"p95 of 4 is the max", four, 95, 1.3}, // truncation said 1.2
		{"p99 of 4 is the max", four, 99, 1.3},
		{"p100 of 4", four, 100, 1.3},
		{"p90 of 10", ten, 90, 1.09},
		{"p91 of 10 rounds up", ten, 91, 1.10}, // truncation said 1.09
		{"p99 of 10 is the max", ten, 99, 1.10},
		{"p10 of 10", ten, 10, 1.01},
	}
	for _, c := range cases {
		if got := c.r.SlowdownPercentile(c.p); got != c.want {
			t.Errorf("%s: P%.0f = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

// BenchmarkCampaignWorkers reports the campaign's wall-clock scaling with
// the worker pool; on a multi-core runner the parallel variant should
// approach workers-fold speedup since trials are embarrassingly parallel.
// CI gates only the determinism of the result, never the speedup.
func BenchmarkCampaignWorkers(b *testing.B) {
	p, ok := workload.ByName("gcc")
	if !ok {
		b.Fatal("no gcc benchmark")
	}
	f := p.Build(4)
	c, err := core.Compile(f, core.TurnpikeAll(4))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		b.Run(map[int]string{1: "serial", 8: "workers8"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Campaign(c.Prog, Config{
					Trials: 64, Seed: 42, Workers: workers,
					Sim: pipeline.TurnpikeConfig(4, 10),
				}, p.SeedMemory)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
