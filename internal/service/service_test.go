package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// execFunc adapts a plain function to Executor: the test fakes' seam.
type execFunc func(ctx context.Context, spec JobSpec, checkpoint string) (*fault.Result, error)

func (f execFunc) Execute(ctx context.Context, spec JobSpec, checkpoint string) (*fault.Result, error) {
	return f(ctx, spec, checkpoint)
}

// instantExec completes every job immediately with a tiny result.
func instantExec(_ context.Context, spec JobSpec, _ string) (*fault.Result, error) {
	return &fault.Result{CompletedTrials: spec.Trials, Outcomes: map[fault.Outcome]int{fault.Masked: spec.Trials}}, nil
}

// newTestService builds a service over a temp dir with fast timings.
func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	if cfg.Executor == nil {
		cfg.Executor = execFunc(instantExec)
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = time.Millisecond
	}
	if cfg.BackoffCap == 0 {
		cfg.BackoffCap = 4 * time.Millisecond
	}
	cfg.Logf = t.Logf
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, s *Service, id string, want State) *Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s (err=%q)", id, j.State, want, j.Error)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Config{})
	defer s.Shutdown(context.Background())
	if _, err := s.Submit(JobSpec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := s.Submit(JobSpec{Bench: "gcc", Scheme: "nope"}); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := s.Submit(JobSpec{Bench: "gcc", Trials: -1}); err == nil {
		t.Error("negative trials accepted")
	}
}

// TestBackpressure is the bounded-queue contract: once QueueDepth jobs
// wait, submissions are rejected with *QueueFullError carrying a
// Retry-After hint — over HTTP, a 429 with the header set.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	progress := &pipeline.Progress{}
	s := newTestService(t, Config{
		QueueDepth:  2,
		Concurrency: 1,
		RetryAfter:  7 * time.Second,
		Progress:    progress,
		Executor: execFunc(func(ctx context.Context, spec JobSpec, _ string) (*fault.Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return instantExec(ctx, spec, "")
		}),
	})
	s.Start()
	defer func() {
		close(release)
		s.Shutdown(context.Background())
	}()

	// One job occupies the worker; wait until it leaves the queue so the
	// backpressure arithmetic below is deterministic.
	first, err := s.Submit(JobSpec{Bench: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, StateRunning)
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(JobSpec{Bench: "gcc"}); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if got := progress.JobsQueued.Load(); got != 2 {
		t.Errorf("JobsQueued gauge = %d, want 2", got)
	}
	if !s.Saturated() {
		t.Error("Saturated() = false with a full queue")
	}

	_, err = s.Submit(JobSpec{Bench: "gcc"})
	var full *QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("over-depth submit: got %v, want QueueFullError", err)
	}
	if full.RetryAfter != 7*time.Second {
		t.Errorf("RetryAfter = %v", full.RetryAfter)
	}

	// The same rejection over HTTP: 429 + Retry-After.
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(`{"bench":"gcc"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want 7", ra)
	}
	// /readyz mirrors the saturation.
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("queue saturated")) {
		t.Fatalf("/readyz = %d %s, want 503 queue saturated", resp.StatusCode, body)
	}
}

// TestRetryBackoffThenSuccess: transient failures are retried with
// backoff until MaxAttempts; a success clears the error.
func TestRetryBackoffThenSuccess(t *testing.T) {
	var calls atomic.Int32
	progress := &pipeline.Progress{}
	reg := obs.NewRegistry()
	s := newTestService(t, Config{
		MaxAttempts: 3,
		Progress:    progress,
		Metrics:     reg,
		Executor: execFunc(func(ctx context.Context, spec JobSpec, _ string) (*fault.Result, error) {
			if calls.Add(1) < 3 {
				return nil, MarkTransient(fmt.Errorf("flaky infrastructure"))
			}
			return instantExec(ctx, spec, "")
		}),
	})
	s.Start()
	defer s.Shutdown(context.Background())

	j, err := s.Submit(JobSpec{Bench: "gcc", Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, j.ID, StateDone)
	if done.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", done.Attempts)
	}
	if done.Error != "" {
		t.Errorf("error not cleared on success: %q", done.Error)
	}
	if done.Result == nil || done.Result.CompletedTrials != 5 {
		t.Errorf("result = %+v", done.Result)
	}
	if got := progress.Retries.Load(); got != 2 {
		t.Errorf("Retries gauge = %d, want 2", got)
	}
	if got := reg.Snapshot().Counters["service.retries"]; got != 2 {
		t.Errorf("service.retries = %d, want 2", got)
	}
}

// TestRetriesExhaustedFails: a job that keeps failing transiently fails
// for good after MaxAttempts, without tripping the breaker (transient
// failures are the retry loop's business, not the breaker's).
func TestRetriesExhaustedFails(t *testing.T) {
	s := newTestService(t, Config{
		MaxAttempts: 2,
		Executor: execFunc(func(context.Context, JobSpec, string) (*fault.Result, error) {
			return nil, MarkTransient(fmt.Errorf("still flaky"))
		}),
	})
	s.Start()
	defer s.Shutdown(context.Background())
	j, err := s.Submit(JobSpec{Bench: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	failed := waitState(t, s, j.ID, StateFailed)
	if failed.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", failed.Attempts)
	}
	if _, err := s.Submit(JobSpec{Bench: "gcc"}); err != nil {
		t.Errorf("breaker tripped on transient failures: %v", err)
	}
}

// TestBreakerOpensAndCools is the acceptance scenario: a workload
// failing permanently BreakerThreshold times opens its breaker, later
// submissions fail fast (503 + Retry-After over HTTP), and after the
// cool-down one probe is admitted — success closes the breaker.
func TestBreakerOpensAndCools(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	progress := &pipeline.Progress{}
	s := newTestService(t, Config{
		MaxAttempts:      2,
		BreakerThreshold: 2,
		BreakerCooldown:  200 * time.Millisecond,
		Progress:         progress,
		Executor: execFunc(func(ctx context.Context, spec JobSpec, _ string) (*fault.Result, error) {
			if failing.Load() {
				return nil, MarkPermanent(fmt.Errorf("this workload cannot work"))
			}
			return instantExec(ctx, spec, "")
		}),
	})
	s.Start()
	defer s.Shutdown(context.Background())

	for i := 0; i < 2; i++ {
		j, err := s.Submit(JobSpec{Bench: "gcc"})
		if err != nil {
			t.Fatalf("pre-open submit %d: %v", i, err)
		}
		failed := waitState(t, s, j.ID, StateFailed)
		if failed.Attempts != 1 {
			t.Errorf("permanent failure retried: attempts = %d", failed.Attempts)
		}
	}

	_, err := s.Submit(JobSpec{Bench: "gcc"})
	var open *BreakerOpenError
	if !errors.As(err, &open) {
		t.Fatalf("post-open submit: got %v, want BreakerOpenError", err)
	}
	if open.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v", open.RetryAfter)
	}
	if got := progress.BreakersOpen.Load(); got != 1 {
		t.Errorf("BreakersOpen gauge = %d, want 1", got)
	}
	// A different workload is unaffected.
	if _, err := s.Submit(JobSpec{Bench: "lbm"}); err != nil {
		t.Errorf("breaker leaked across workloads: %v", err)
	}

	// Over HTTP the same rejection is a 503 with Retry-After.
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Post("http://"+addr.String()+"/jobs", "application/json", strings.NewReader(`{"bench":"gcc"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("breaker over HTTP: %d Retry-After=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Cool down, stop failing: the probe closes the breaker.
	failing.Store(false)
	time.Sleep(250 * time.Millisecond)
	probe, err := s.Submit(JobSpec{Bench: "gcc"})
	if err != nil {
		t.Fatalf("probe after cooldown rejected: %v", err)
	}
	waitState(t, s, probe.ID, StateDone)
	if _, err := s.Submit(JobSpec{Bench: "gcc"}); err != nil {
		t.Errorf("breaker still open after probe success: %v", err)
	}
}

// TestDrainRequeuesInFlight: a drain whose window expires cancels the
// in-flight job, which goes back to the queue (not to failed), and the
// persisted state lets the next daemon life finish it.
func TestDrainRequeuesInFlight(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{}, 1)
	s := newTestService(t, Config{
		StateDir: dir,
		Executor: execFunc(func(ctx context.Context, _ JobSpec, _ string) (*fault.Result, error) {
			started <- struct{}{}
			<-ctx.Done() // a long campaign that only the drain interrupts
			return nil, fmt.Errorf("interrupted: %w", ctx.Err())
		}),
	})
	s.Start()
	j, err := s.Submit(JobSpec{Bench: "gcc", Trials: 7})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got, _ := s.Job(j.ID); got.State != StateQueued || got.Attempts != 0 {
		t.Fatalf("after drain: state=%s attempts=%d, want queued/0", got.State, got.Attempts)
	}
	if _, err := s.Submit(JobSpec{Bench: "gcc"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v", err)
	}

	// Next life: same state dir, an executor that finishes.
	s2 := newTestService(t, Config{StateDir: dir})
	s2.Start()
	defer s2.Shutdown(context.Background())
	done := waitState(t, s2, j.ID, StateDone)
	if done.Result == nil || done.Result.CompletedTrials != 7 {
		t.Fatalf("restored job result = %+v", done.Result)
	}
}

// TestDeadlineOverrunRetries: JobDeadline cuts an attempt short; the
// overrun classifies transient and the retry runs (and here, succeeds).
func TestDeadlineOverrunRetries(t *testing.T) {
	var calls atomic.Int32
	s := newTestService(t, Config{
		JobDeadline: 30 * time.Millisecond,
		MaxAttempts: 2,
		Executor: execFunc(func(ctx context.Context, spec JobSpec, _ string) (*fault.Result, error) {
			if calls.Add(1) == 1 {
				<-ctx.Done()
				return nil, fmt.Errorf("campaign interrupted: %w", ctx.Err())
			}
			return instantExec(ctx, spec, "")
		}),
	})
	s.Start()
	defer s.Shutdown(context.Background())
	j, err := s.Submit(JobSpec{Bench: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, s, j.ID, StateDone)
	if done.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (deadline overrun + retry)", done.Attempts)
	}
}

// TestCancel covers both cancellation paths: a queued job is withdrawn
// without ever running; a running job's context is cancelled and the
// terminal state sticks.
func TestCancel(t *testing.T) {
	release := make(chan struct{})
	var ran atomic.Int32
	s := newTestService(t, Config{
		Concurrency: 1,
		Executor: execFunc(func(ctx context.Context, spec JobSpec, _ string) (*fault.Result, error) {
			ran.Add(1)
			select {
			case <-release:
				return instantExec(ctx, spec, "")
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}),
	})
	s.Start()
	defer s.Shutdown(context.Background())

	blocker, err := s.Submit(JobSpec{Bench: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateRunning)
	queued, err := s.Submit(JobSpec{Bench: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if j, _ := s.Job(queued.ID); j.State != StateCanceled {
		t.Fatalf("queued cancel: state = %s", j.State)
	}

	if err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, blocker.ID, StateCanceled)
	close(release)
	time.Sleep(10 * time.Millisecond) // the canceled worker must not resurrect the job
	if j, _ := s.Job(blocker.ID); j.State != StateCanceled {
		t.Fatalf("running cancel: state = %s", j.State)
	}
	if n := ran.Load(); n != 1 {
		t.Errorf("executor ran %d times; the withdrawn job must never run", n)
	}
	if err := s.Cancel("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("cancel unknown: %v", err)
	}
}

// TestCorruptStateFileStartsFresh mirrors the fault engine's checkpoint
// convention at the service layer: an unparseable jobs.json is moved
// aside with a warning, never fatal, never silently deleted.
func TestCorruptStateFileStartsFresh(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.json"), []byte(`{"version":1,"jobs":[{"id`), 0o644); err != nil {
		t.Fatal(err)
	}
	var warned bytes.Buffer
	s, err := New(Config{StateDir: dir, Executor: execFunc(instantExec), Logf: func(f string, a ...any) {
		fmt.Fprintf(&warned, f+"\n", a...)
	}})
	if err != nil {
		t.Fatalf("corrupt state file must not prevent boot: %v", err)
	}
	defer s.Shutdown(context.Background())
	if len(s.Jobs()) != 0 {
		t.Errorf("jobs restored from corrupt file: %+v", s.Jobs())
	}
	if !strings.Contains(warned.String(), "checkpoint corrupt") {
		t.Errorf("no corruption warning: %q", warned.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs.json.corrupt")); err != nil {
		t.Errorf("corrupt file not preserved for post-mortem: %v", err)
	}
}

// TestStatePersistedAtomically: every transition leaves a parseable
// state file (WriteFileAtomic), so any kill point yields a loadable
// store.
func TestStatePersistedAtomically(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Config{StateDir: dir})
	s.Start()
	j, err := s.Submit(JobSpec{Bench: "gcc", Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "jobs.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sf stateFile
	if err := json.Unmarshal(b, &sf); err != nil {
		t.Fatalf("state file not parseable: %v\n%s", err, b)
	}
	if len(sf.Jobs) != 1 || sf.Jobs[0].State != StateDone || sf.Jobs[0].Result == nil {
		t.Fatalf("state file contents: %+v", sf)
	}
}

// TestShutdownLeavesNoGoroutines is the goroutine-dump-diff gate: after
// Start, load, and Shutdown, the service must return the runtime to its
// baseline goroutine count — no leaked workers, timers, or publishers.
func TestShutdownLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := newTestService(t, Config{Concurrency: 4})
	s.Start()
	for i := 0; i < 8; i++ {
		if _, err := s.Submit(JobSpec{Bench: "gcc"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClassify pins the shared error taxonomy.
func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"marked transient", MarkTransient(errors.New("x")), Transient},
		{"marked permanent", MarkPermanent(errors.New("x")), Permanent},
		{"deadline", fmt.Errorf("wrap: %w", context.DeadlineExceeded), Transient},
		{"canceled", fmt.Errorf("wrap: %w", context.Canceled), Transient},
		{"checkpoint corrupt", fmt.Errorf("wrap: %w", fault.ErrCheckpointCorrupt), Transient},
		{"invalid config", fmt.Errorf("wrap: %w", fault.ErrInvalidConfig), Permanent},
		{"path error", &fs.PathError{Op: "open", Path: "x", Err: errors.New("disk full")}, Transient},
		{"unknown", errors.New("the simulator is deterministic"), Permanent},
		{"mark overrides taxonomy", MarkTransient(fmt.Errorf("wrap: %w", fault.ErrInvalidConfig)), Transient},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestHTTPJobLifecycle drives the mounted API end to end: submit, list,
// inspect, cancel, probes.
func TestHTTPJobLifecycle(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := newTestService(t, Config{
		Concurrency: 1,
		Executor: execFunc(func(ctx context.Context, spec JobSpec, _ string) (*fault.Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return instantExec(ctx, spec, "")
		}),
	})
	s.Start()
	defer s.Shutdown(context.Background())
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()

	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"bench":"gcc","trials":9,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || j.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, j)
	}

	resp, err = http.Get(base + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Job
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != j.ID {
		t.Fatalf("list: %+v", list)
	}

	resp, err = http.Get(base + "/jobs/" + j.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Job
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Spec.Trials != 9 || got.Spec.Seed != 3 {
		t.Fatalf("inspect: %+v", got)
	}
	if resp, err := http.Get(base + "/jobs/job-424242"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: %d", resp.StatusCode)
		}
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+j.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.State != StateCanceled {
		t.Fatalf("cancel: %+v", got)
	}

	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + probe)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d", probe, resp.StatusCode)
		}
	}
}

// TestReadyzWhileDraining: readiness flips during shutdown while
// liveness keeps answering.
func TestReadyzWhileDraining(t *testing.T) {
	started := make(chan struct{}, 1)
	s := newTestService(t, Config{
		Executor: execFunc(func(ctx context.Context, _ JobSpec, _ string) (*fault.Result, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}),
	})
	s.Start()
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr.String()
	if _, err := s.Submit(JobSpec{Bench: "gcc"}); err != nil {
		t.Fatal(err)
	}
	<-started

	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && bytes.Contains(body, []byte("draining")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz never reported draining: %d %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain = %d", resp.StatusCode)
	}
	<-drainDone
}

// Abort is the simulated crash used by tests and nothing else: every
// in-flight context is cancelled and NO state is persisted on the way
// out, so the disk holds exactly what an uncontrolled daemon death would
// leave — the last atomic writes. Restart recovery must still complete
// every job with byte-identical results.
func (s *Service) Abort() {
	s.mu.Lock()
	s.draining = true
	s.aborted = true
	for id, tm := range s.timers {
		tm.Stop()
		delete(s.timers, id)
	}
	for _, cancel := range s.running {
		cancel()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	// A crash still must not leak the flusher goroutine inside this
	// process; an uncontrolled daemon death would take it down anyway.
	s.cfg.Spans.Close()
}
