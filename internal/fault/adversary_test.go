package fault

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// adversarialConfig is the reference hostile campaign: a lossy mesh
// (misses, dead sensors), multi-strike bursts, and false positives, run
// against a containment-enabled Turnpike pipeline. Tests derive their
// variants from it so the knobs stay in one place.
func adversarialConfig(workers int) Config {
	sim := pipeline.TurnpikeConfig(4, 10)
	sim.DetectQueue = 8
	return Config{
		Trials: 120, Seed: 1234, Sim: sim, Workers: workers,
		FailureBudget: -1, // record everything; asserts inspect the counts
		Adversary: &Adversary{
			MissProb:          0.25,
			FalsePositiveRate: 0.10,
			DeadSensors:       40,
			BurstMax:          3,
			LateFactor:        64, // far beyond any region's verify window
		},
	}
}

// TestAdversarialContainmentInvariant is the PR's headline guarantee: an
// imperfect mesh (late detections, dead sensors, bursts, false positives)
// with containment on produces zero SDC — every miss that escapes recovery
// becomes a DUE, never a silently-wrong result.
func TestAdversarialContainmentInvariant(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	res, err := Campaign(prog, adversarialConfig(0), p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[SDC] != 0 {
		t.Fatalf("containment violated: %d SDC outcomes (%v)", res.Outcomes[SDC], res.Outcomes)
	}
	if res.Outcomes[Crash] != 0 {
		t.Fatalf("adversarial campaign crashed the simulator: %v", res.Outcomes)
	}
	if res.Outcomes[DUE] == 0 {
		t.Fatalf("adversary drew no DUEs — knobs too soft to exercise containment: %v", res.Outcomes)
	}
	if res.MissedDetections == 0 {
		t.Fatal("adversary planned no missed detections")
	}
	if res.Strikes <= res.CompletedTrials {
		t.Fatalf("no bursts materialized: %d strikes over %d trials", res.Strikes, res.CompletedTrials)
	}
	// The statistics must be internally consistent.
	if got := res.Coverage; got.Total != res.Strikes || got.Successes != res.Strikes-res.MissedDetections {
		t.Fatalf("coverage interval inconsistent: %+v vs %d/%d strikes detected",
			got, res.Strikes-res.MissedDetections, res.Strikes)
	}
	if res.Coverage.Lo > res.Coverage.Rate || res.Coverage.Rate > res.Coverage.Hi {
		t.Fatalf("coverage interval does not bracket the rate: %+v", res.Coverage)
	}
	if res.SDCRate.Successes != 0 || res.SDCRate.Hi == 0 {
		t.Fatalf("SDC rate must be zero with a nonzero Wilson upper bound: %+v", res.SDCRate)
	}
	if res.DUERate.Successes != res.Outcomes[DUE] {
		t.Fatalf("DUE rate %+v disagrees with outcomes %v", res.DUERate, res.Outcomes)
	}
}

// TestAdversarialWithoutContainmentYieldsSDC is the negative control
// guarding the invariant test's power: the same campaign with containment
// switched off must produce silent corruption, proving the misses are real
// and containment — not luck — is what eliminates SDC above.
func TestAdversarialWithoutContainmentYieldsSDC(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	cfg := adversarialConfig(0)
	cfg.Sim.Containment = false
	res, err := Campaign(prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[SDC] == 0 {
		t.Fatalf("containment off must leak SDC under this adversary (else the invariant test proves nothing): %v",
			res.Outcomes)
	}
	if res.Outcomes[DUE] != 0 {
		t.Fatalf("DUEs reported with containment off: %v", res.Outcomes)
	}
	if res.SDCRate.Successes != res.Outcomes[SDC] {
		t.Fatalf("SDC rate %+v disagrees with outcomes %v", res.SDCRate, res.Outcomes)
	}
}

// TestAdversarialWorkerCountInvariant extends the engine's determinism
// guarantee to the adversarial planner: burst plans, mesh draws, and false
// positives are pure functions of (Seed, trial), so one worker and eight
// must merge byte-identical Results.
func TestAdversarialWorkerCountInvariant(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	one, err := Campaign(prog, adversarialConfig(1), p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Campaign(prog, adversarialConfig(8), p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, eight) {
		t.Fatalf("adversarial campaign diverged between 1 and 8 workers:\n%+v\nvs\n%+v", one, eight)
	}
}

// TestAdversaryValidation pins the knob ranges and the burst/queue
// coupling: a burst that cannot fit the pending-detection queue is a
// configuration error, not a mid-campaign surprise.
func TestAdversaryValidation(t *testing.T) {
	prog, p := compiled(t, "fft", core.Turnpike)
	run := func(mut func(*Config)) error {
		cfg := adversarialConfig(1)
		cfg.Trials = 1
		mut(&cfg)
		_, err := Campaign(prog, cfg, p.SeedMemory)
		return err
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"miss prob above one", func(c *Config) { c.Adversary.MissProb = 1.5 }},
		{"negative miss prob", func(c *Config) { c.Adversary.MissProb = -0.1 }},
		{"fp rate above one", func(c *Config) { c.Adversary.FalsePositiveRate = 2 }},
		{"negative dead sensors", func(c *Config) { c.Adversary.DeadSensors = -1 }},
		{"negative burst", func(c *Config) { c.Adversary.BurstMax = -1 }},
		{"burst exceeds queue", func(c *Config) { c.Adversary.BurstMax = 8; c.Sim.DetectQueue = 4 }},
		{"negative late factor", func(c *Config) { c.Adversary.LateFactor = -1 }},
		{"dead sensors swallow the mesh", func(c *Config) { c.Adversary.DeadSensors = 1 << 20 }},
	}
	for _, tc := range cases {
		if err := run(tc.mut); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := run(func(c *Config) {}); err != nil {
		t.Errorf("reference adversary rejected: %v", err)
	}
}

// TestAdversarialReplayAndResume closes the loop on the debugging
// workflow: every checkpointed adversarial trial replays to its recorded
// outcome, and a fresh campaign over the finished checkpoint file merges
// to the identical Result without re-running anything.
func TestAdversarialReplayAndResume(t *testing.T) {
	prog, p := compiled(t, "fft", core.Turnpike)
	cfg := adversarialConfig(4)
	cfg.Trials = 30
	cfg.Checkpoint = t.TempDir() + "/adv.json"
	res, err := Campaign(prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	// Replay the first few trials and require no silent corruption.
	replayed := 0
	for trial := 0; trial < cfg.Trials && replayed < 4; trial++ {
		inj := planFor(t, prog, cfg, p.SeedMemory, trial)
		out, _, err := Replay(prog, Config{Sim: cfg.Sim}, p.SeedMemory, inj)
		if err != nil {
			t.Fatalf("trial %d replay errored: %v", trial, err)
		}
		if out == SDC {
			t.Fatalf("trial %d replayed as SDC under containment", trial)
		}
		replayed++
	}
	resumed, err := Campaign(prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, resumed) {
		t.Fatalf("resume over a complete adversarial checkpoint diverged:\n%+v\nvs\n%+v", res, resumed)
	}
}

// planFor re-derives one trial's plan exactly as the campaign engine does,
// including the golden-run-derived injection window.
func planFor(t *testing.T, prog *isa.Program, cfg Config, seedMem func(*isa.Memory), trial int) Injection {
	t.Helper()
	e, _, err := replayer(context.Background(), prog, cfg, seedMem)
	if err != nil {
		t.Fatal(err)
	}
	e.maxAt = max(e.gs.Stats().Insts*9/10, 1)
	if err := e.resolveDetector(); err != nil {
		t.Fatal(err)
	}
	return e.plan(trial)
}

// events flattens the injection into a freshly allocated schedule.
func (inj *Injection) events() []injEvent {
	return inj.appendEvents(make([]injEvent, 0, 1+len(inj.Extra)+len(inj.FalsePositives)))
}

// TestEventScheduleOrder pins the fault-event schedule's order: by
// instruction point, and on ties the primary strike, then the burst
// extras in injection order, then the false positives.
func TestEventScheduleOrder(t *testing.T) {
	inj := Injection{Reg: 1, AtInst: 10, Latency: 1,
		Extra:          []Strike{{Reg: 2, AtInst: 10}, {Reg: 3, AtInst: 4}, {Reg: 4, AtInst: 10}},
		FalsePositives: []FalsePositive{{AtInst: 10, Latency: 5}, {AtInst: 2, Latency: 6}}}
	type ev struct {
		at  uint64
		reg isa.Reg
		fp  int
	}
	var got []ev
	for _, e := range inj.events() {
		got = append(got, ev{e.atInst, e.strike.Reg, e.fpLat})
	}
	want := []ev{{2, 0, 6}, {4, 3, 0}, {10, 1, 0}, {10, 2, 0}, {10, 4, 0}, {10, 0, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("schedule %v, want %v", got, want)
	}
}
