package fault

import (
	"bytes"
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
// enough to exercise rewrite/restore without compiling a workload.
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

// writeCheckpoint writes a checkpoint of e holding trials [0, n) and
// returns its bytes.
func writeCheckpoint(t testing.TB, e *engine, gs pipeline.Stats, n int) []byte {
	t.Helper()
	records := make([]*TrialRecord, e.cfg.Trials)
	for i := 0; i < n; i++ {
		records[i] = &TrialRecord{Trial: i, Inj: e.plan(i), Outcome: Masked}
	}
	f, err := e.rewrite(records, gs)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	b, err := os.ReadFile(e.cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointCorruptTyped pins the loader's error taxonomy: bytes that
// are not a syntactically valid checkpoint — a header cut short, garbage,
// a complete line that is not a record, records contradicting the
// deterministic plan — wrap ErrCheckpointCorrupt, while a well-formed
// file from a different campaign wraps ErrInvalidConfig (its progress
// must not be clobbered by a fresh restart).
func TestCheckpointCorruptTyped(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.json")
	e := checkpointEngine(t, ckpt, 11, 16)
	gs := pipeline.Stats{Cycles: 123, Insts: 456}
	valid := writeCheckpoint(t, e, gs, 5)
	header := valid[:bytes.IndexByte(valid, '\n')+1]

	tampered := strings.Replace(string(valid), `"bit":`, `"bit":1`, 1)
	if tampered == string(valid) {
		t.Fatal("tamper substitution found nothing to rewrite")
	}
	outOfRange := strings.Replace(string(valid), `"trial":4`, `"trial":40`, 1)
	corrupt := map[string][]byte{
		"header-cut":      header[:len(header)/2],
		"bad-record-line": append(append([]byte{}, header...), `{"trial":3,`+"\n"...),
		"empty":           {},
		"garbage":         []byte("not a checkpoint at all"),
		"half-object":     []byte(`{"version":2,"seed":11,`),
		"tampered-plan":   []byte(tampered),
		"trial-oo-range":  []byte(outOfRange),
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

// TestCheckpointTornTail: a kill during an append can leave the last
// line unterminated. A file cut anywhere inside its last record line
// restores the complete records before it, and nothing else.
func TestCheckpointTornTail(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "ck.json")
	e := checkpointEngine(t, ckpt, 11, 16)
	gs := pipeline.Stats{Cycles: 123, Insts: 456}
	valid := writeCheckpoint(t, e, gs, 5)
	last := bytes.LastIndexByte(valid[:len(valid)-1], '\n') + 1
	for cut := last + 1; cut < len(valid); cut++ {
		if err := os.WriteFile(ckpt, valid[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		records := make([]*TrialRecord, 16)
		if err := e.restore(records, gs); err != nil {
			t.Fatalf("cut at byte %d of %d: %v", cut, len(valid), err)
		}
		for i, rec := range records {
			if (rec != nil) != (i < 4) {
				t.Fatalf("cut at byte %d of %d: trial %d restored %v, want trials 0-3", cut, len(valid), i, rec != nil)
			}
		}
	}
}

// TestCheckpointPinsSimulatorConfig: a checkpoint resumes only under
// the simulator configuration that wrote it. Containment acts only on
// faulty runs, so the golden run's counts are the same either way; a
// checkpoint written with containment off must still be refused with
// containment on, and the reverse, and so must a version-3 file, which
// held every record in one object.
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
		v3 := strings.Replace(string(b), fmt.Sprintf(`"version":%d`, checkpointVersion), `"version":3`, 1)
		if v3 == string(b) || os.WriteFile(ckpt, []byte(v3), 0o644) != nil {
			t.Fatal("cannot rewrite the checkpoint's version")
		}
		if err := run(ckpt, containment); !errors.Is(err, ErrInvalidConfig) {
			t.Fatalf("a version-3 checkpoint resumed: %v", err)
		}
	}
}

// TestCheckpointWithRemovedSimKeyResumes: pipeline.Config once carried
// a flag for a per-region event log, so every version-4 checkpoint
// written before the flag went holds it, set to false, in its header's
// sim object. testdata holds one such file, written by that code for
// checkpointEngine's campaign with six trials done. encoding/json
// ignores the unknown key and restore compares the decoded header, so
// the file resumes all its records.
func TestCheckpointWithRemovedSimKeyResumes(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "v4-with-region-log-flag.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(ckpt, b, 0o644); err != nil {
		t.Fatal(err)
	}
	e := checkpointEngine(t, ckpt, 11, 16)
	e.sim = e.cfg.Sim
	records := make([]*TrialRecord, e.cfg.Trials)
	if err := e.restore(records, pipeline.Stats{Cycles: 900, Insts: 400}); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for i, rec := range records {
		if (rec != nil) != (i < 6) {
			t.Fatalf("trial %d restored %v, want the first 6 trials", i, rec != nil)
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
	valid := writeCheckpoint(f, e, gs, 3)
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
