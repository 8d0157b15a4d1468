package fault

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// TestLeaseSizeInvariant extends the worker-count contract to batched
// dispatch: the merged result is byte-identical for every lease size,
// including leases larger than the per-worker share and the serial
// single-trial dispatch.
func TestLeaseSizeInvariant(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	base := Config{Trials: 80, Seed: 42, Sim: pipeline.TurnpikeConfig(4, 10)}

	var want *Result
	for _, tc := range []struct{ workers, lease int }{
		{1, 1}, {4, 1}, {4, 7}, {4, 64}, {8, 0},
	} {
		cfg := base
		cfg.Workers = tc.workers
		cfg.Lease = tc.lease
		res, err := Campaign(prog, cfg, p.SeedMemory)
		if err != nil {
			t.Fatalf("workers=%d lease=%d: %v", tc.workers, tc.lease, err)
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(want, res) {
			t.Errorf("workers=%d lease=%d diverged from serial reference", tc.workers, tc.lease)
		}
	}
}

// readCheckpointRecords loads the record lines of a campaign
// checkpoint, after its header line, in trial order.
func readCheckpointRecords(t *testing.T, path string) []TrialRecord {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	recs := make([]TrialRecord, len(lines)-1)
	for i, line := range lines[1:] {
		if err := json.Unmarshal([]byte(line), &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Trial < recs[j].Trial })
	return recs
}

// TestReplayFromBatchedRange is the batched-dispatch replay contract:
// a trial executed mid-lease inside a multi-worker batched campaign
// must be byte-identical — outcome AND simulator statistics — to the
// same trial under single-trial serial dispatch, and to a standalone
// fault.Replay of its recorded injection. This is what makes a failure
// record from any campaign shape debuggable in isolation.
func TestReplayFromBatchedRange(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	dir := t.TempDir()
	base := Config{Trials: 48, Seed: 3, FailureBudget: -1, Sim: pipeline.TurnpikeConfig(4, 10)}

	batched := base
	batched.Workers = 4
	batched.Lease = 8
	batched.Checkpoint = filepath.Join(dir, "batched.json")
	bres, err := Campaign(prog, batched, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}

	serial := base
	serial.Workers = 1
	serial.Lease = 1
	serial.Checkpoint = filepath.Join(dir, "serial.json")
	sres, err := Campaign(prog, serial, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(bres, sres) {
		t.Fatal("batched campaign result diverged from per-trial serial dispatch")
	}
	brecs := readCheckpointRecords(t, batched.Checkpoint)
	srecs := readCheckpointRecords(t, serial.Checkpoint)
	if !reflect.DeepEqual(brecs, srecs) {
		t.Fatal("batched per-trial records diverged from serial records")
	}
	if len(brecs) != base.Trials {
		t.Fatalf("checkpoint holds %d/%d records", len(brecs), base.Trials)
	}

	// Fork trials out of the batched ranges — lease interiors, lease
	// boundaries, and both ends of the campaign — and replay each in
	// isolation.
	for _, trial := range []int{0, 7, 8, 20, 39, 47} {
		rec := brecs[trial]
		out, st, err := Replay(prog, Config{Sim: base.Sim}, p.SeedMemory, rec.Inj)
		if out != Crash && err != nil {
			t.Fatalf("trial %d replay: %v", trial, err)
		}
		if out != rec.Outcome {
			t.Errorf("trial %d: replay outcome %v, campaign recorded %v", trial, out, rec.Outcome)
		}
		if st != rec.Stats {
			t.Errorf("trial %d: replay stats diverged from campaign record:\n%+v\nvs\n%+v",
				trial, st, rec.Stats)
		}
	}
}

// TestTrialLoopAllocationFree pins the tentpole: once a worker's
// simulator and scratch are warm, running a trial — plan derivation,
// ResetAt, injected execution, classification — performs zero heap
// allocations under a perfect mesh, under Turnpike and under Turnstile,
// which has no colours and no CLQ, on lbm at scale 5, whose trials
// reach the cache replay of the reconvergence check, on a campaign an
// earlier one handed on by Reuse, and with a registry attached, whose
// live gauges the simulator publishes into. An adversarial trial
// allocates only what its record keeps: one Extra slice per burst and one
// FalsePositives slice per spurious detection; some of its trials jump
// across the golden run between their fault events.
func TestTrialLoopAllocationFree(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bench  string
		scale  int
		scheme core.Scheme
		sim    pipeline.Config
		adv    *Adversary
		reused bool
		// metrics attaches a registry, as campaignd does for every job:
		// the simulators then publish their live gauges.
		metrics bool
	}{
		{"perfect-mesh", "gcc", 2, core.Turnpike, pipeline.TurnpikeConfig(4, 10), nil, false, false},
		{"adversarial", "gcc", 2, core.Turnpike, pipeline.TurnpikeConfig(4, 10), meshAdversary, false, false},
		{"adversarial-metrics", "gcc", 2, core.Turnpike, pipeline.TurnpikeConfig(4, 10), meshAdversary, false, true},
		{"turnstile-perfect-mesh", "gcc", 2, core.Turnstile, pipeline.TurnstileConfig(4, 10), nil, false, false},
		{"cache-replay", "lbm", 5, core.Turnpike, pipeline.TurnpikeConfig(4, 10), nil, false, false},
		{"reused", "gcc", 2, core.Turnpike, pipeline.TurnpikeConfig(4, 10), nil, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, p := compiledAt(t, tc.bench, tc.scheme, tc.scale)
			cfg := Config{Trials: 64, Seed: 1, Workers: 1, FailureBudget: -1,
				Sim: tc.sim, Adversary: tc.adv}
			if tc.metrics {
				cfg.Metrics = obs.NewRegistry()
			}
			ctx := context.Background()
			prep, err := Prepare(ctx, prog, cfg, p.SeedMemory)
			if err != nil {
				t.Fatal(err)
			}
			if tc.reused {
				if _, err := prep.Run(ctx); err != nil {
					t.Fatal(err)
				}
				cfg.Seed = 2
				if prep, err = prep.Reuse(ctx, cfg); err != nil {
					t.Fatal(err)
				}
			}
			e, r := prep.e, prep.runners[0]
			var rec TrialRecord
			kept := 0
			for i := 0; i < cfg.Trials; i++ {
				e.runTrial(ctx, r, i, &rec)
				if len(rec.Inj.Extra) > 0 {
					kept++
				}
				if len(rec.Inj.FalsePositives) > 0 {
					kept++
				}
				if rec.Outcome == DUE || rec.Err != "" {
					t.Fatalf("trial %d ends in %v %q; its error allocates", i, rec.Outcome, rec.Err)
				}
			}
			if tc.adv != nil && kept == 0 {
				t.Fatal("no adversarial trial keeps an Extra or FalsePositives slice")
			}
			if c := r.shadow.Counts; tc.name == "cache-replay" && c.Replayed+c.Mismatches == 0 {
				t.Fatalf("no trial reaches the cache replay: %+v", c)
			}
			if c := r.shadow.Counts; tc.name == "adversarial" && c.Jumps == 0 {
				t.Fatalf("no trial jumps between its fault events: %+v", c)
			}
			allocs := testing.AllocsPerRun(10, func() {
				for i := 0; i < cfg.Trials; i++ {
					e.runTrial(ctx, r, i, &rec)
				}
			})
			if allocs > float64(kept) {
				t.Fatalf("%d trials allocate %.0f objects, want at most the %d slices their records keep",
					cfg.Trials, allocs, kept)
			}
		})
	}
}
