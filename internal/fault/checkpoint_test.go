package fault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/olog"
	"repro/internal/pipeline"
)

// checkpointEngine builds a minimal engine around a checkpoint path —
// enough to exercise save/restore without compiling a workload.
func checkpointEngine(t *testing.T, ckpt string, seed int64, trials int) *engine {
	t.Helper()
	e := &engine{
		cfg:   Config{Seed: seed, Trials: trials, Sim: pipeline.TurnpikeConfig(4, 10), Checkpoint: ckpt},
		maxAt: 1000,
	}
	if err := e.resolveDetector(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCheckpointCorruptTyped pins the loader's error taxonomy: bytes that
// are not a syntactically valid checkpoint — truncation, garbage, records
// contradicting the deterministic plan — wrap ErrCheckpointCorrupt, while
// a well-formed file from a different campaign wraps ErrInvalidConfig
// (its progress must not be clobbered by a fresh restart).
func TestCheckpointCorruptTyped(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.json")
	e := checkpointEngine(t, ckpt, 11, 16)
	gs := pipeline.Stats{Cycles: 123, Insts: 456}

	records := make([]*TrialRecord, 16)
	for i := 0; i < 5; i++ {
		records[i] = &TrialRecord{Trial: i, Inj: e.plan(i), Outcome: Masked}
	}
	if err := e.save(records, gs); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	tampered := strings.Replace(string(valid), `"bit":`, `"bit":1`, 1)
	if tampered == string(valid) {
		t.Fatal("tamper substitution found nothing to rewrite")
	}
	outOfRange := strings.Replace(string(valid), `"trial":4`, `"trial":40`, 1)
	corrupt := map[string][]byte{
		"truncated":      valid[:len(valid)/2],
		"empty":          {},
		"garbage":        []byte("not a checkpoint at all"),
		"half-object":    []byte(`{"version":2,"seed":11,`),
		"tampered-plan":  []byte(tampered),
		"trial-oo-range": []byte(outOfRange),
	}
	for name, b := range corrupt {
		if err := os.WriteFile(ckpt, b, 0o644); err != nil {
			t.Fatal(err)
		}
		got := e.restore(make([]*TrialRecord, 16), gs)
		if !errors.Is(got, ErrCheckpointCorrupt) {
			t.Errorf("%s: want ErrCheckpointCorrupt, got %v", name, got)
		}
	}

	// Same bytes, different campaign fingerprint: a hard mismatch, never
	// "corrupt" — restarting fresh would destroy another campaign's work.
	if err := os.WriteFile(ckpt, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	other := checkpointEngine(t, ckpt, 12, 16)
	got := other.restore(make([]*TrialRecord, 16), gs)
	if !errors.Is(got, ErrInvalidConfig) || errors.Is(got, ErrCheckpointCorrupt) {
		t.Fatalf("fingerprint mismatch: want ErrInvalidConfig only, got %v", got)
	}
}

// TestCheckpointPinsSimulatorConfig: a checkpoint resumes only under
// the simulator configuration that wrote it. Containment acts only on
// faulty runs, so the golden run's counts are the same either way; a
// checkpoint written with containment off must still be refused with
// containment on, and the reverse, and so must a version-2 file, whose
// fingerprint did not hold the configuration.
func TestCheckpointPinsSimulatorConfig(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	run := func(ckpt string, containment bool) error {
		sim := pipeline.TurnpikeConfig(4, 10)
		sim.Containment = containment
		_, err := Campaign(prog, Config{Trials: 8, Seed: 3, Workers: 1, FailureBudget: -1, Sim: sim,
			Adversary: &Adversary{MissProb: 0.3}, Checkpoint: ckpt}, p.SeedMemory)
		return err
	}
	for _, containment := range []bool{false, true} {
		ckpt := filepath.Join(t.TempDir(), "ck.json")
		if err := run(ckpt, containment); err != nil {
			t.Fatal(err)
		}
		if err := run(ckpt, !containment); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("checkpoint written with containment %v resumed with containment %v: %v", containment, !containment, err)
		}
		if err := run(ckpt, containment); err != nil {
			t.Fatalf("checkpoint refused under the configuration that wrote it: %v", err)
		}
		b, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		v2 := strings.Replace(string(b), fmt.Sprintf(`"version":%d`, checkpointVersion), `"version":2`, 1)
		if v2 == string(b) || os.WriteFile(ckpt, []byte(v2), 0o644) != nil {
			t.Fatal("cannot rewrite the checkpoint's version")
		}
		if err := run(ckpt, containment); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("a version-2 checkpoint resumed: %v", err)
		}
	}
}

// TestCorruptCheckpointRestartsFresh is the operator-facing contract: a
// campaign pointed at a mangled checkpoint file warns, restarts from
// trial 0, and finishes with a result identical to a never-checkpointed
// run — it does not die on a raw unmarshal error.
func TestCorruptCheckpointRestartsFresh(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	base := Config{Trials: 30, Seed: 9, Sim: pipeline.TurnpikeConfig(4, 10)}

	want, err := Campaign(prog, base, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "mangled.json")
	if err := os.WriteFile(ckpt, []byte(`{"version":2,"seed":9,"done":[{"tr`), 0o644); err != nil {
		t.Fatal(err)
	}
	var warns lockedBuffer
	cfg := base
	cfg.Checkpoint = ckpt
	cfg.Logger = olog.New(&warns, olog.Options{})
	got, err := Campaign(prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatalf("campaign over a corrupt checkpoint must restart fresh, got %v", err)
	}
	if got.CompletedTrials != base.Trials {
		t.Fatalf("completed %d/%d trials", got.CompletedTrials, base.Trials)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fresh restart diverged from a never-checkpointed run:\n%+v\nvs\n%+v", got, want)
	}
	if out := strings.Join(warns.Lines(), "\n"); !strings.Contains(out, "checkpoint corrupt") ||
		!strings.Contains(out, `"WARN"`) {
		t.Fatalf("no corruption warning surfaced; log=%s", out)
	}
}

// FuzzCheckpointRestore feeds arbitrary bytes to the checkpoint loader.
// The property: restore never panics and never surfaces a raw decoding
// error — every failure is typed as ErrCheckpointCorrupt (safe to discard)
// or ErrInvalidConfig (a different campaign's file).
func FuzzCheckpointRestore(f *testing.F) {
	seedDir := f.TempDir()
	seedPath := filepath.Join(seedDir, "seed.json")
	e := &engine{cfg: Config{Seed: 11, Trials: 8, Sim: pipeline.TurnpikeConfig(4, 10), Checkpoint: seedPath}, maxAt: 1000}
	if err := e.resolveDetector(); err != nil {
		f.Fatal(err)
	}
	gs := pipeline.Stats{Cycles: 123, Insts: 456}
	records := make([]*TrialRecord, 8)
	for i := 0; i < 3; i++ {
		records[i] = &TrialRecord{Trial: i, Inj: e.plan(i), Outcome: Masked}
	}
	if err := e.save(records, gs); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte("{"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, b []byte) {
		ckpt := filepath.Join(t.TempDir(), "ck.json")
		if err := os.WriteFile(ckpt, b, 0o644); err != nil {
			t.Fatal(err)
		}
		fe := &engine{cfg: Config{Seed: 11, Trials: 8, Sim: pipeline.TurnpikeConfig(4, 10), Checkpoint: ckpt}, maxAt: 1000}
		if err := fe.resolveDetector(); err != nil {
			t.Fatal(err)
		}
		err := fe.restore(make([]*TrialRecord, 8), gs)
		if err != nil && !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("raw error surfaced from mangled checkpoint: %v", err)
		}
	})
}
