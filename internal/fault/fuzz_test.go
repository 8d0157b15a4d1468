package fault

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestQuickFuzzNoSDC is the strongest end-to-end property in the suite:
// for random structured programs, random optimization subsets, random
// hardware configurations, and random single-bit strikes, the pipeline
// must never produce silent data corruption. Every counterexample this
// test has found became a named regression elsewhere.
func TestQuickFuzzNoSDC(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed ^ 0xfa07))
		f := workload.Fuzz(seed)

		scheme := core.Turnstile
		opt := core.Options{Scheme: core.Turnstile, SBSize: 4}
		wcdl := 5 + rng.Intn(30)
		cfg := pipeline.TurnstileConfig(4, wcdl)
		if rng.Intn(2) == 0 {
			scheme = core.Turnpike
			opt = core.Options{
				Scheme: core.Turnpike, SBSize: 4,
				StoreAwareRA: rng.Intn(2) == 0,
				LIVM:         rng.Intn(2) == 0,
				Prune:        rng.Intn(2) == 0,
				Sink:         rng.Intn(2) == 0,
				Sched:        rng.Intn(2) == 0,
				ColoredCkpts: true,
			}
			cfg = pipeline.TurnpikeConfig(4, wcdl)
			if rng.Intn(3) == 0 {
				cfg.CLQ = pipeline.CLQIdeal
			}
		}
		_ = scheme

		compiled, err := core.Compile(f, opt)
		if err != nil {
			t.Logf("seed %d: compile: %v", seed, err)
			return false
		}
		seedMem := func(m *isa.Memory) { workload.FuzzSeedMemory(m, seed) }

		ctx := context.Background()
		e, r, err := replayer(ctx, compiled.Prog, Config{Sim: cfg}, seedMem)
		if err != nil {
			t.Logf("seed %d: golden: %v", seed, err)
			return false
		}
		for trial := 0; trial < 4; trial++ {
			inj := Injection{
				Reg:     isa.Reg(1 + rng.Intn(isa.NumRegs-1)),
				Bit:     uint(rng.Intn(64)),
				AtInst:  uint64(rng.Intn(600) + 1),
				Latency: 1 + rng.Intn(wcdl),
			}
			_, equal, _, err := e.exec(ctx, r, &inj)
			if err != nil {
				t.Logf("seed %d trial %d (%+v): crash: %v", seed, trial, inj, err)
				return false
			}
			if !equal {
				t.Logf("seed %d trial %d (%+v): SDC:\n%s", seed, trial, inj, outputDiff(e, r, 8))
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(987654))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// outputDiff renders how the output of the trial r just ran differs
// from the golden image, masked as campaign classification masks it.
func outputDiff(e *engine, r *trialRunner, lines int) string {
	golden, out := e.gs.Output().Clone(), r.sim.OutputMemory()
	golden.ClearRange(isa.StackBase, isa.StackLimit)
	out.ClearRange(isa.StackBase, isa.StackLimit)
	return golden.Diff(out, lines)
}
