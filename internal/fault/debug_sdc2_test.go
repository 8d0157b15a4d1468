package fault

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestDebugSDC2 reproduces a failing fft injection with diagnostics;
// retained as a regression test for the exact scenario.
func TestDebugSDC2(t *testing.T) {
	p, _ := workload.ByName("fft")
	f := p.Build(2)
	c, err := core.Compile(f, core.TurnpikeAll(4))
	if err != nil {
		t.Fatal(err)
	}
	prog := c.Prog
	cfg := pipeline.TurnpikeConfig(4, 10)

	ctx := context.Background()
	e, r, err := replayer(ctx, prog, Config{Sim: cfg}, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	inj := Injection{Reg: 4, Bit: 48, AtInst: 632, Latency: 1}
	st, equal, _, err := e.exec(ctx, r, &inj)
	if err != nil {
		t.Fatal(err)
	}
	if equal {
		t.Skip("scenario no longer reproduces")
	}
	t.Logf("stats: recoveries=%d parity=%d", st.Recoveries, st.ParityTrips)
	t.Fatalf("SDC:\n%s", outputDiff(e, r, 12))
}
