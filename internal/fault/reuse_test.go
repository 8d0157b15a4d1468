package fault

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// TestReuseMatchesFreshPrepare hands one prepared campaign on and on by
// Reuse — to another seed; to another trial count, adversary and
// checkpoint; and back to the first Config — and requires each to run
// byte-identically to a fresh Prepare of its Config. The campaign it
// was handed on from runs, opens and hands on nothing more, and Reuse
// refuses a Config that shapes other runners, leaving the campaign
// usable.
func TestReuseMatchesFreshPrepare(t *testing.T) {
	ctx := context.Background()
	prog, p := compiledAt(t, "gcc", core.Turnpike, 5)
	first := Config{Trials: 24, Seed: 1, Workers: 2, FailureBudget: -1, Sim: pipeline.TurnpikeConfig(4, 10)}
	fresh := func(cfg Config) *Result {
		t.Helper()
		prep, err := Prepare(ctx, prog, cfg, p.SeedMemory)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	prep, err := Prepare(ctx, prog, first, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Run(ctx); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	second := first
	second.Seed = 2
	third := Config{Trials: 40, Seed: 3, Workers: 2, FailureBudget: -1, Sim: first.Sim,
		Adversary: meshAdversary, Checkpoint: filepath.Join(dir, "reused.json")}
	for i, cfg := range []Config{second, third, first} {
		next, err := prep.Reuse(ctx, cfg)
		if err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
		got, err := next.Run(ctx)
		if err != nil {
			t.Fatalf("reuse %d: %v", i, err)
		}
		ref := cfg
		if ref.Checkpoint != "" {
			ref.Checkpoint = filepath.Join(dir, "fresh.json")
		}
		if want := fresh(ref); !reflect.DeepEqual(got, want) {
			t.Errorf("reuse %d: result differs from a fresh Prepare of its Config", i)
		}
		if _, err := prep.Run(ctx); !errors.Is(err, errHandedOn) {
			t.Errorf("reuse %d: the campaign handed on still runs (%v)", i, err)
		}
		if _, err := prep.RunRange(ctx, 0, 1); !errors.Is(err, errHandedOn) {
			t.Errorf("reuse %d: the campaign handed on still runs a range (%v)", i, err)
		}
		if _, err := prep.Reuse(ctx, cfg); !errors.Is(err, errHandedOn) {
			t.Errorf("reuse %d: the campaign handed on is handed on again (%v)", i, err)
		}
		prep = next
	}

	other := first
	other.Sim = pipeline.TurnpikeConfig(4, 20)
	fewer := first
	fewer.Workers = 1
	for _, cfg := range []Config{other, fewer} {
		if _, err := prep.Reuse(ctx, cfg); !errors.Is(err, ErrInvalidConfig) {
			t.Errorf("Reuse(%+v) = %v, want ErrInvalidConfig", cfg, err)
		}
	}
	next, err := prep.Reuse(ctx, second)
	if err != nil {
		t.Fatalf("a refused Reuse left the campaign unusable: %v", err)
	}
	if got, err := next.Run(ctx); err != nil || !reflect.DeepEqual(got, fresh(second)) {
		t.Errorf("after a refused Reuse the campaign runs %v differently", err)
	}
}
