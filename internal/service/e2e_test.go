package service_test

// End-to-end proof of the kill-and-restart determinism acceptance
// criterion, with the real fault-campaign engine behind a workerless
// FleetExecutor, as cmd/campaignd ships: a daemon drained mid-campaign
// (SIGTERM path) and a daemon that dies with no drain at all (crash
// path) must both, after restart, finish every job with a Result
// byte-identical to an uninterrupted run's.

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	turnpike "repro"
	"repro/internal/fault"
	"repro/internal/service"
)

const (
	e2eBench  = "gcc"
	e2eTrials = 240
	e2eSeed   = 7
)

func e2eSpec() service.JobSpec {
	return service.JobSpec{
		Spec:    fault.Spec{Bench: e2eBench, Trials: e2eTrials, Seed: e2eSeed, ScalePct: 4, FailureBudget: -1},
		Workers: 2,
	}
}

// referenceResult runs the identical campaign once, uninterrupted,
// straight through the engine — the bytes every service path must match.
func referenceResult(t *testing.T) []byte {
	t.Helper()
	spec := e2eSpec()
	res, err := turnpike.InjectFaults(spec.Bench, turnpike.Turnpike, turnpike.FaultCampaignConfig{
		Trials: spec.Trials, Seed: spec.Seed, ScalePct: spec.ScalePct,
		Workers: spec.Workers, FailureBudget: spec.FailureBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// interruptMidCampaign starts a service over dir, submits the e2e job,
// waits for the campaign's checkpoint to hold its first record, after
// the header line (proof the interruption lands mid-flight, not before
// or after), and hands the service to interrupt. Returns the job ID.
func interruptMidCampaign(t *testing.T, dir string, interrupt func(*service.Service)) string {
	t.Helper()
	s, err := service.New(service.LocalFleet(service.Config{StateDir: dir, Logger: service.TLogger(t)}, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	j, err := s.Submit(e2eSpec())
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(dir, j.Checkpoint)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(ckpt); err == nil && bytes.Count(b, []byte("\n")) >= 2 {
			break
		}
		if got, err := s.Job(j.ID); err == nil && got.State == service.StateDone {
			// The campaign outran us; nothing was interrupted. The sibling
			// runs still prove the criterion unless they all outrun too.
			s.Shutdown(context.Background())
			t.Skipf("campaign finished before the interruption landed; raise e2eTrials")
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never checkpointed a trial")
		}
		time.Sleep(2 * time.Millisecond)
	}
	interrupt(s)
	return j.ID
}

// finishAndCompare boots a fresh service over the interrupted state dir,
// waits for the restored job to complete, and compares its Result bytes
// to the uninterrupted reference.
func finishAndCompare(t *testing.T, dir, id string, want []byte) {
	t.Helper()
	s, err := service.New(service.LocalFleet(service.Config{StateDir: dir, Logger: service.TLogger(t)}, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Shutdown(context.Background())
	deadline := time.Now().Add(120 * time.Second)
	for {
		j, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == service.StateDone {
			got, err := json.Marshal(j.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("resumed result differs from uninterrupted run\nresumed: %s\nwant:    %s", got, want)
			}
			if j.Result.CompletedTrials != e2eTrials {
				t.Fatalf("completed %d/%d trials", j.Result.CompletedTrials, e2eTrials)
			}
			return
		}
		if j.State == service.StateFailed || j.State == service.StateCanceled {
			t.Fatalf("restored job ended %s: %s", j.State, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("restored job stuck in %s", j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainResumeByteIdentical is the SIGTERM path: Shutdown with an
// already-expired drain window cancels the campaign (which flushes its
// checkpoint), requeues the job, persists; the next daemon life resumes
// from the watermark and must produce the uninterrupted bytes.
func TestDrainResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign e2e")
	}
	want := referenceResult(t)
	dir := t.TempDir()
	id := interruptMidCampaign(t, dir, func(s *service.Service) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // drain window already expired: forces the cancel-and-requeue path
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	})
	finishAndCompare(t, dir, id, want)
}

// TestCrashResumeByteIdentical is the no-drain path: the daemon dies
// with no state persistence beyond what the job-file writes and the
// checkpoint appends already put on disk. Recovery must still converge on the
// same bytes.
func TestCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign e2e")
	}
	want := referenceResult(t)
	dir := t.TempDir()
	id := interruptMidCampaign(t, dir, func(s *service.Service) {
		s.Abort()
	})
	finishAndCompare(t, dir, id, want)
}
