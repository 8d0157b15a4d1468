package fault

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// shardTestConfig is the shared campaign the shard/session tests slice
// up: big enough for interesting splits, budget -1 so failures are
// recorded rather than aborting.
func shardTestConfig() Config {
	return Config{Trials: 48, Seed: 11, FailureBudget: -1,
		Sim: pipeline.TurnpikeConfig(4, 10)}
}

// TestSessionByteIdenticalToRun is the distributed-merge contract: a
// campaign executed as shards — committed out of trial order, with
// duplicate completions sprinkled in — must Finish with a Result
// byte-identical to Prepared.Run of the same Config. With a checkpoint
// configured, the two paths' checkpoints must restore the same records
// (a checkpoint is in commit order, so its bytes differ between them).
func TestSessionByteIdenticalToRun(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	dir := t.TempDir()
	for _, ckpt := range []bool{false, true} {
		cfg := shardTestConfig()
		runCfg := cfg
		if ckpt {
			runCfg.Checkpoint = filepath.Join(dir, "run.json")
			cfg.Checkpoint = filepath.Join(dir, "session.json")
		}
		ref, err := Campaign(prog, runCfg, p.SeedMemory)
		if err != nil {
			t.Fatal(err)
		}
		if res := shardedCampaign(t, prog, p.SeedMemory, cfg); !reflect.DeepEqual(ref, res) {
			t.Errorf("checkpoint=%v: sharded session result diverged from single-process Run", ckpt)
		}
		if !ckpt {
			continue
		}
		run := readCheckpointRecords(t, runCfg.Checkpoint)
		if len(run) != cfg.Trials {
			t.Errorf("single-process Run's checkpoint holds %d of %d trials", len(run), cfg.Trials)
		}
		if !reflect.DeepEqual(run, readCheckpointRecords(t, cfg.Checkpoint)) {
			t.Error("sharded session's checkpoint restores other records than single-process Run's")
		}
	}
}

// shardedCampaign runs cfg as a session of uneven shards, committed in
// reverse trial order with one duplicate, and returns its Result.
func shardedCampaign(t *testing.T, prog *isa.Program, seedMem func(*isa.Memory), cfg Config) *Result {
	t.Helper()
	ctx := context.Background()
	prep, err := Prepare(ctx, prog, cfg, seedMem)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Pending(); len(got) != 1 || got[0].Lo != 0 || got[0].Hi != cfg.Trials {
		t.Fatalf("fresh session pending = %v, want [{0 %d}]", got, cfg.Trials)
	}

	// Execute shards of uneven sizes, then commit them in reverse
	// order, re-committing one as a duplicate.
	var shards []*ShardResult
	for lo, step := 0, 7; lo < cfg.Trials; lo += step {
		hi := lo + step
		if hi > cfg.Trials {
			hi = cfg.Trials
		}
		sh, err := sess.RunRange(ctx, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, sh)
	}
	for i := len(shards) - 1; i >= 0; i-- {
		fresh, err := sess.Commit(shards[i])
		if err != nil {
			t.Fatalf("commit shard [%d,%d): %v", shards[i].Lo, shards[i].Hi, err)
		}
		if want := shards[i].Hi - shards[i].Lo; fresh != want {
			t.Fatalf("commit shard [%d,%d): fresh = %d, want %d", shards[i].Lo, shards[i].Hi, fresh, want)
		}
	}
	if fresh, err := sess.Commit(shards[0]); err != nil || fresh != 0 {
		t.Fatalf("duplicate commit: fresh=%d err=%v, want 0 <nil>", fresh, err)
	}
	if got := sess.Pending(); len(got) != 0 {
		t.Fatalf("pending after all commits = %v, want none", got)
	}

	res, err := sess.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCheckpointWriteFailure pins the failed-write branch that local and
// sharded campaigns share: the first failed append is kept, and Finish
// returns it as "fault: checkpoint: …" alongside the partial result. A
// local Run also cancels its outstanding trials at that append; a
// RunRange+Commit session keeps the shard it committed. The append fails
// because the test closes the session's file under it, once Open has
// rewritten the header-only checkpoint the test wrote first (a fresh
// Open opens no file).
func TestCheckpointWriteFailure(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	ctx := context.Background()
	// open returns a one-worker session whose checkpoint file is closed.
	open := func(t *testing.T) *Session {
		cfg := shardTestConfig()
		cfg.Workers = 1
		cfg.Checkpoint = filepath.Join(t.TempDir(), "campaign.json")
		prep, err := Prepare(ctx, prog, cfg, p.SeedMemory)
		if err != nil {
			t.Fatal(err)
		}
		l, err := prep.e.rewrite(make([]*TrialRecord, cfg.Trials), prep.goldenStats)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		sess, err := prep.Open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sess.ckpt.Close()
		return sess
	}
	check := func(t *testing.T, res *Result, err error, completed int) {
		t.Helper()
		if err == nil || !strings.HasPrefix(err.Error(), "fault: checkpoint: ") || !errors.Is(err, os.ErrClosed) {
			t.Fatalf("err = %v, want a fault: checkpoint: error for the closed file", err)
		}
		if res == nil || res.CompletedTrials != completed {
			t.Fatalf("partial result = %+v, want %d completed trials", res, completed)
		}
	}

	t.Run("Run", func(t *testing.T) {
		// Session.Run and Finish are Prepared.Run's body; the first
		// trial's append fails and cancels the rest.
		sess := open(t)
		if err := sess.Run(ctx, sess.Pending()); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Finish(ctx)
		check(t, res, err, 1)
	})
	t.Run("Session", func(t *testing.T) {
		sess := open(t)
		sh, err := sess.RunRange(ctx, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if fresh, err := sess.Commit(sh); err != nil || fresh != 8 {
			t.Fatalf("commit: fresh=%d err=%v, want 8 <nil>", fresh, err)
		}
		res, err := sess.Finish(ctx)
		check(t, res, err, 8)
	})
}

// TestShardVerifyAndCommitValidation exercises every rejection class:
// broken checksum, foreign golden fingerprint, fabricated injection
// plans, and duplicate records that contradict committed ones, whether
// they arrive by Commit or by the session's own Run — plus Revoke as the
// mismatch resolution.
func TestShardVerifyAndCommitValidation(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	cfg := shardTestConfig()
	cfg.Trials = 16

	ctx := context.Background()
	prep, err := Prepare(ctx, prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	good, err := sess.RunRange(ctx, 0, 8)
	if err != nil {
		t.Fatal(err)
	}

	tampered := *good
	tampered.Checksum++
	if _, err := sess.Commit(&tampered); !errors.Is(err, ErrShardInvalid) {
		t.Errorf("broken checksum: err = %v, want ErrShardInvalid", err)
	}

	foreign := *good
	foreign.Records = append([]TrialRecord(nil), good.Records...)
	foreign.GoldenCycles++
	foreign.Seal()
	if _, err := sess.Commit(&foreign); !errors.Is(err, ErrShardInvalid) {
		t.Errorf("foreign golden fingerprint: err = %v, want ErrShardInvalid", err)
	}

	fabricated := *good
	fabricated.Records = append([]TrialRecord(nil), good.Records...)
	fabricated.Records[3].Inj.AtInst += 1000
	fabricated.Seal()
	if _, err := sess.Commit(&fabricated); !errors.Is(err, ErrShardInvalid) {
		t.Errorf("fabricated injection plan: err = %v, want ErrShardInvalid", err)
	}

	if fresh, err := sess.Commit(good); err != nil || fresh != 8 {
		t.Fatalf("good shard after rejects: fresh=%d err=%v", fresh, err)
	}

	// A duplicate whose outcome bytes differ from the committed records
	// is a mismatch — some executor is broken.
	lying := *good
	lying.Records = append([]TrialRecord(nil), good.Records...)
	lying.Records[2].Stats.Cycles += 7
	lying.Seal()
	if _, err := sess.Commit(&lying); !errors.Is(err, ErrShardMismatch) {
		t.Errorf("contradicting duplicate: err = %v, want ErrShardMismatch", err)
	}

	// Revoke is the deterministic resolution: clear the range, re-run,
	// re-commit.
	if err := sess.Revoke(0, 8); err != nil {
		t.Fatal(err)
	}
	if p := sess.Pending(); len(p) == 0 || p[0].Lo != 0 || p[0].Hi < 8 {
		t.Fatalf("pending after Revoke = %v, want it to cover [0,8)", p)
	}
	// The session's own run checks its records against committed ones
	// the same way, and returns the mismatch.
	if _, err := sess.Commit(&lying); err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(ctx, []TrialRange{{Lo: 0, Hi: 8}}); !errors.Is(err, ErrShardMismatch) {
		t.Errorf("local run over a contradicting record: err = %v, want ErrShardMismatch", err)
	}
	if err := sess.Revoke(0, 8); err != nil {
		t.Fatal(err)
	}
	rerun, err := sess.RunRange(ctx, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if fresh, err := sess.Commit(rerun); err != nil || fresh != 8 {
		t.Fatalf("re-commit after revoke: fresh=%d err=%v", fresh, err)
	}

	rest, err := sess.RunRange(ctx, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Commit(rest); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Finish(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCheckpointResume abandons a session mid-campaign and
// reopens it: the new session must resume from the checkpoint watermark
// and finish byte-identical to an uninterrupted run.
func TestSessionCheckpointResume(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	cfg := shardTestConfig()
	cfg.Checkpoint = filepath.Join(t.TempDir(), "session.ckpt.json")

	refCfg := cfg
	refCfg.Checkpoint = ""
	ref, err := Campaign(prog, refCfg, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	prep, err := Prepare(ctx, prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Commit two shards, then walk away — the
	// coordinator-killed-mid-campaign case.
	for _, r := range []TrialRange{{0, 8}, {8, 16}} {
		sh, err := sess.RunRange(ctx, r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Commit(sh); err != nil {
			t.Fatal(err)
		}
	}

	prep2, err := Prepare(ctx, prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := prep2.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.Completed() != 16 {
		t.Fatalf("restored session completed = %d, want 16", sess2.Completed())
	}
	pending := sess2.Pending()
	if len(pending) != 1 || pending[0].Lo != 16 || pending[0].Hi != cfg.Trials {
		t.Fatalf("restored pending = %v, want [{16 %d}]", pending, cfg.Trials)
	}
	for _, r := range pending {
		sh, err := sess2.RunRange(ctx, r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess2.Commit(sh); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess2.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, res) {
		t.Error("resumed session result diverged from uninterrupted run")
	}
}

// TestCommitDurableWithoutFinish: every committed trial is in the
// checkpoint before Commit returns, so a session that commits [0,8) and
// [8,12) and is abandoned without Finish reopens with all 12 trials.
func TestCommitDurableWithoutFinish(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	ctx := context.Background()
	cfg := shardTestConfig()
	cfg.Checkpoint = filepath.Join(t.TempDir(), "session.ckpt.json")
	open := func() *Session {
		t.Helper()
		prep, err := Prepare(ctx, prog, cfg, p.SeedMemory)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := prep.Open(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	sess := open()
	for _, r := range []TrialRange{{0, 8}, {8, 12}} {
		sh, err := sess.RunRange(ctx, r.Lo, r.Hi)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Commit(sh); err != nil {
			t.Fatal(err)
		}
	}
	if got := open().Completed(); got != 12 {
		t.Errorf("reopened session holds %d trials, want 12", got)
	}
}

// TestFreshCheckpointCreatedByFirstCommit: Open with no checkpoint file
// writes nothing; the first commit creates the file, which restores its
// records and holds the bytes an atomic rewrite of them would.
func TestFreshCheckpointCreatedByFirstCommit(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	ctx := context.Background()
	cfg := shardTestConfig()
	cfg.Checkpoint = filepath.Join(t.TempDir(), "fresh.ckpt.json")
	prep, err := Prepare(ctx, prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := prep.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cfg.Checkpoint); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a fresh Open left a checkpoint file (%v)", err)
	}
	sh, err := sess.RunRange(ctx, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Commit(sh); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	records := make([]*TrialRecord, cfg.Trials)
	if err := prep.e.restore(records, prep.goldenStats); err != nil {
		t.Fatal(err)
	}
	for i, rec := range records {
		if (rec != nil) != (i < 8) {
			t.Fatalf("trial %d restored %v, want trials 0-7", i, rec != nil)
		}
	}
	e := *prep.e
	e.cfg.Checkpoint = filepath.Join(t.TempDir(), "rewritten.ckpt.json")
	l, err := e.rewrite(records, prep.goldenStats)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if want, err := os.ReadFile(e.cfg.Checkpoint); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("first commit wrote\n%s\na rewrite of its records\n%s(%v)", got, want, err)
	}
	if _, err := sess.Finish(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRunRangeCancelReturnsNoShard: a cancelled context abandons the
// shard entirely — partial shards must never merge.
func TestRunRangeCancelReturnsNoShard(t *testing.T) {
	prog, p := compiled(t, "gcc", core.Turnpike)
	cfg := shardTestConfig()
	ctx := context.Background()
	prep, err := Prepare(ctx, prog, cfg, p.SeedMemory)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if sh, err := prep.RunRange(cctx, 0, 8); err == nil || sh != nil {
		t.Fatalf("cancelled RunRange: sh=%v err=%v, want nil + error", sh, err)
	}
	if _, err := prep.RunRange(ctx, -1, 8); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("negative lo: err = %v, want ErrInvalidConfig", err)
	}
	if _, err := prep.RunRange(ctx, 0, cfg.Trials+1); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("hi beyond campaign: err = %v, want ErrInvalidConfig", err)
	}
}
