package fault

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// FuzzTrialPlan fuzzes the per-trial seeding scheme: for any (seed,
// trial, maxAt, wcdl), the injection plan must be pure (re-derivable) and
// in-bounds — register in [1, NumRegs), bit < 64, strike point in
// [1, maxAt], latency in [1, WCDL]. This is the property the parallel
// engine's worker-count invariance rests on.
func FuzzTrialPlan(f *testing.F) {
	f.Add(int64(1), uint16(0), uint64(100), uint8(10))
	f.Add(int64(-7), uint16(9999), uint64(1), uint8(1))
	f.Add(int64(1<<62), uint16(42), uint64(1<<40), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, trial uint16, maxAt uint64, wcdl uint8) {
		if maxAt == 0 {
			maxAt = 1
		}
		if maxAt > 1<<60 {
			maxAt = 1 << 60
		}
		w := int(wcdl)
		if w == 0 {
			w = 1
		}
		e := &engine{cfg: Config{Seed: seed, Trials: int(trial) + 1, Sim: pipeline.TurnpikeConfig(4, w)}, maxAt: maxAt}
		if err := e.resolveSampler(); err != nil {
			t.Fatal(err)
		}
		inj := e.plan(int(trial))
		if !reflect.DeepEqual(inj, e.plan(int(trial))) {
			t.Fatalf("plan not pure for seed=%d trial=%d", seed, trial)
		}
		if inj.Reg < 1 || int(inj.Reg) >= isa.NumRegs {
			t.Fatalf("register out of range: %+v", inj)
		}
		if inj.Bit > 63 {
			t.Fatalf("bit out of range: %+v", inj)
		}
		if inj.AtInst < 1 || inj.AtInst > maxAt {
			t.Fatalf("strike point outside [1, %d]: %+v", maxAt, inj)
		}
		if inj.Latency < 1 || inj.Latency > w {
			t.Fatalf("latency outside [1, %d]: %+v", w, inj)
		}
	})
}

// FuzzBurstPlan fuzzes the adversarial planner: for any (seed, trial) and
// any adversary knob settings, the burst plan must be a pure function of
// (Seed, trial) — re-deriving it twice gives identical strikes, extras,
// and false positives — and every event must stay in-bounds: burst size
// within [1, BurstMax], extras within one nominal window of the primary,
// false-positive latencies within [1, WCDL]. Worker-count invariance and
// checkpoint resume both rest on this purity.
func FuzzBurstPlan(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(3), uint8(50), uint8(20))
	f.Add(int64(-9), uint16(777), uint8(6), uint8(100), uint8(0))
	f.Add(int64(1<<61), uint16(65535), uint8(2), uint8(0), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, trial uint16, burst, missPct, fpPct uint8) {
		const wcdl = 10
		adv := &Adversary{
			MissProb:          float64(missPct%101) / 100,
			FalsePositiveRate: float64(fpPct%101) / 100,
			DeadSensors:       int(trial) % 4,
			BurstMax:          1 + int(burst)%7,
			LateFactor:        3,
		}
		cfg := pipeline.TurnpikeConfig(4, wcdl)
		cfg.DetectQueue = 16
		e := &engine{cfg: Config{Seed: seed, Trials: int(trial) + 1, Sim: cfg, Adversary: adv}, maxAt: 1000}
		if err := e.resolveSampler(); err != nil {
			t.Fatal(err)
		}
		inj := e.plan(int(trial))
		if !reflect.DeepEqual(inj, e.plan(int(trial))) {
			t.Fatalf("burst plan not pure for seed=%d trial=%d", seed, trial)
		}
		strikes, _ := inj.CountStrikes()
		if strikes < 1 || strikes > adv.BurstMax {
			t.Fatalf("burst size %d outside [1, %d]", strikes, adv.BurstMax)
		}
		if inj.Latency < 1 {
			t.Fatalf("non-positive primary latency: %+v", inj)
		}
		for _, s := range inj.Extra {
			if s.Reg < 1 || int(s.Reg) >= isa.NumRegs || s.Bit > 63 || s.Latency < 1 {
				t.Fatalf("extra strike out of range: %+v", s)
			}
			if s.AtInst < inj.AtInst || s.AtInst > inj.AtInst+wcdl {
				t.Fatalf("extra strike %d outside the primary's window [%d, %d]",
					s.AtInst, inj.AtInst, inj.AtInst+wcdl)
			}
		}
		for _, fp := range inj.FalsePositives {
			if fp.AtInst < 1 || fp.AtInst > e.maxAt || fp.Latency < 1 || fp.Latency > wcdl {
				t.Fatalf("false positive out of range: %+v", fp)
			}
		}
	})
}

// FuzzInjectNoSDC is the end-to-end resilience fuzz target: a random
// structured program, compiled under Turnpike, must survive random
// single-bit strikes without silent data corruption. The nightly CI smoke
// pass runs it with -fuzz; under plain `go test` only the seed corpus
// executes.
func FuzzInjectNoSDC(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(987654))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed ^ 0x7fbb))
		fn := workload.Fuzz(seed)
		wcdl := 5 + rng.Intn(30)
		compiled, err := core.Compile(fn, core.TurnpikeAll(4))
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		cfg := pipeline.TurnpikeConfig(4, wcdl)
		seedMem := func(m *isa.Memory) { workload.FuzzSeedMemory(m, seed) }
		ctx := context.Background()
		e, r, err := replayer(ctx, compiled.Prog, Config{Sim: cfg}, seedMem)
		if err != nil {
			t.Fatalf("seed %d: golden: %v", seed, err)
		}
		for trial := 0; trial < 2; trial++ {
			inj := Injection{
				Reg:     isa.Reg(1 + rng.Intn(isa.NumRegs-1)),
				Bit:     uint(rng.Intn(64)),
				AtInst:  uint64(rng.Intn(600) + 1),
				Latency: 1 + rng.Intn(wcdl),
			}
			_, equal, _, err := e.exec(ctx, r, &inj)
			if err != nil {
				t.Fatalf("seed %d trial %d (%+v): crash: %v", seed, trial, inj, err)
			}
			if !equal {
				t.Fatalf("seed %d trial %d (%+v): SDC:\n%s", seed, trial, inj, outputDiff(e, r, 8))
			}
		}
	})
}
