package fault

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// compiled compiles benchmark name at scale 2 for scheme.
func compiled(t *testing.T, name string, scheme core.Scheme) (*isa.Program, workload.Profile) {
	t.Helper()
	return compiledAt(t, name, scheme, 2)
}

// compiledAt compiles benchmark name at scale percent for scheme.
func compiledAt(t *testing.T, name string, scheme core.Scheme, scale int) (*isa.Program, workload.Profile) {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	f := p.Build(scale)
	opt := core.Options{Scheme: scheme, SBSize: 4}
	if scheme == core.Turnpike {
		opt = core.TurnpikeAll(4)
	}
	c, err := core.Compile(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	return c.Prog, p
}

func TestCampaignNoSDCTurnpike(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	res, err := Campaign(prog, Config{
		Trials: 120,
		Seed:   7,
		Sim:    pipeline.TurnpikeConfig(4, 10),
	}, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[SDC] != 0 || res.Outcomes[Crash] != 0 {
		t.Fatalf("outcomes: %v", res.Outcomes)
	}
	if res.Outcomes[Recovered] == 0 {
		t.Fatal("no trial exercised recovery")
	}
}

func TestCampaignNoSDCTurnstile(t *testing.T) {
	prog, p := compiled(t, "radix", core.Turnstile)
	res, err := Campaign(prog, Config{
		Trials: 80,
		Seed:   11,
		Sim:    pipeline.TurnstileConfig(4, 20),
	}, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[SDC] != 0 || res.Outcomes[Crash] != 0 {
		t.Fatalf("outcomes: %v", res.Outcomes)
	}
}

func TestCampaignAcrossTemplates(t *testing.T) {
	// One benchmark per kernel template, Turnpike with all hardware on —
	// the broadest recovery-soundness sweep in the suite.
	for _, name := range []string{"lbm", "exchange2", "mcf", "gemsfdtd", "radix"} {
		prog, p := compiled(t, name, core.Turnpike)
		res, err := Campaign(prog, Config{
			Trials: 40,
			Seed:   23,
			Sim:    pipeline.TurnpikeConfig(4, 10),
		}, p.SeedMemory)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Outcomes[SDC] != 0 {
			t.Fatalf("%s: SDC detected", name)
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	prog, p := compiled(t, "fft", core.Turnpike)
	cfg := Config{Trials: 30, Seed: 99, Sim: pipeline.TurnpikeConfig(4, 10)}
	a, err := Campaign(prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Campaign(prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Outcome{Masked, Recovered, SDC, Crash} {
		if a.Outcomes[o] != b.Outcomes[o] {
			t.Fatalf("campaign nondeterministic: %v vs %v", a.Outcomes, b.Outcomes)
		}
	}
}

func TestRecoveryCostAccounted(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	res, err := Campaign(prog, Config{Trials: 60, Seed: 3, Sim: pipeline.TurnpikeConfig(4, 10)}, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[Recovered] > 0 && res.AvgRecoveryCycles <= 0 {
		t.Fatalf("recoveries without cost: %+v", res)
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{Masked: "masked", Recovered: "recovered", SDC: "SDC", Crash: "crash"} {
		if o.String() != want {
			t.Errorf("%d.String() = %q", int(o), o.String())
		}
	}
}

func TestSlowdownPercentiles(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	res, err := Campaign(prog, Config{Trials: 60, Seed: 13, Sim: pipeline.TurnpikeConfig(4, 10)}, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcomes[Recovered] == 0 {
		t.Skip("no recoveries sampled")
	}
	p50, p99 := res.SlowdownPercentile(50), res.SlowdownPercentile(99)
	if p50 < 1.0 || p99 < p50 {
		t.Fatalf("percentiles implausible: p50=%.3f p99=%.3f", p50, p99)
	}
	// A single strike's re-execution cost must stay small relative to the
	// whole run.
	if p99 > 2.0 {
		t.Fatalf("p99 slowdown %.2f: a single recovery should not double the run", p99)
	}
	if (&Result{}).SlowdownPercentile(50) != 0 {
		t.Fatal("empty percentile not zero")
	}
}
