package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/obs/span"
)

// TestSpanLifecyclePhases proves the service stamps one job's lifecycle
// onto the tracer: queue_wait, attempt, and persist spans, all carrying
// the job's correlation chain.
func TestSpanLifecyclePhases(t *testing.T) {
	tr := span.New(span.Config{})
	s := newTestService(t, Config{Spans: tr})
	s.Start()
	ctx := olog.WithRequestID(context.Background(), "req-lifecycle")
	j, err := s.SubmitCtx(ctx, JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 3}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	recs := tr.JobSpans(j.ID)
	byName := map[string]int{}
	for _, r := range recs {
		byName[r.Name]++
		if r.RequestID != "req-lifecycle" {
			t.Errorf("span %s/%s carries request_id %q, want req-lifecycle", r.Layer, r.Name, r.RequestID)
		}
		if r.JobID != j.ID {
			t.Errorf("span %s/%s carries job_id %q, want %s", r.Layer, r.Name, r.JobID, j.ID)
		}
	}
	for _, want := range []string{"queue_wait", "attempt", "persist"} {
		if byName[want] == 0 {
			t.Errorf("no %q span recorded; got %v", want, byName)
		}
	}
	// persist happens at submit, attempt start, and outcome.
	if byName["persist"] < 3 {
		t.Errorf("persist spans = %d, want >= 3 (%v)", byName["persist"], byName)
	}
}

// TestSpanBackoffAndBreakerWait covers the two retroactive waits: the
// backoff sleep between a transient failure and its requeue, and the
// breaker-open window ended by a half-open probe admission.
func TestSpanBackoffAndBreakerWait(t *testing.T) {
	tr := span.New(span.Config{})
	var calls atomic.Int32
	s := newTestService(t, Config{
		Spans:            tr,
		BreakerThreshold: 1,
		BreakerCooldown:  20 * time.Millisecond,
		Executor: execFunc(func(ctx context.Context, spec JobSpec, ckpt string) (*fault.Result, error) {
			switch calls.Add(1) {
			case 1:
				return nil, errTransient // job 1, attempt 1: forces a backoff
			case 3:
				return nil, MarkPermanent(errors.New("hard failure")) // job 2: opens the breaker
			default:
				return instantExec(ctx, spec, ckpt)
			}
		}),
	})
	s.Start()
	defer s.Shutdown(context.Background())

	// Job 1: transient failure, backoff, then success. The requeue stamps
	// the retroactive backoff span onto the job's correlation chain.
	j1, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 2}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j1.ID, StateDone)
	var sawBackoff bool
	for _, r := range tr.JobSpans(j1.ID) {
		if r.Layer == "service" && r.Name == "backoff" {
			sawBackoff = true
		}
	}
	if !sawBackoff {
		t.Errorf("no backoff span on retried job; spans: %v", names(tr.JobSpans(j1.ID)))
	}

	// Job 2 fails permanently and opens the gcc breaker (threshold 1).
	j2, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 2}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j2.ID, StateFailed)

	// Keep submitting until the cooldown elapses and the half-open probe
	// is admitted; that admission records the breaker_wait span.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j3, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 2}})
		if err == nil {
			waitState(t, s, j3.ID, StateDone)
			break
		}
		var open *BreakerOpenError
		if !errors.As(err, &open) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never admitted a probe job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var sawBreakerWait bool
	for _, r := range tr.Spans() {
		if r.Layer == "service" && r.Name == "breaker_wait" {
			sawBreakerWait = true
			if r.Dur <= 0 {
				t.Errorf("breaker_wait span has non-positive duration %v", r.Dur)
			}
		}
	}
	if !sawBreakerWait {
		t.Errorf("no breaker_wait span after probe admission; spans: %v", names(tr.Spans()))
	}
}

// names flattens span records to layer/name strings for failure messages.
func names(recs []span.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Layer + "/" + r.Name
	}
	return out
}

// TestShutdownClosesSpanFlusher is the flusher leg of the goroutine-leak
// gate (alongside TestShutdownLeavesNoGoroutines and the SSE-subscriber
// test in internal/obs/server_test.go): Shutdown must stop the tracer's
// background flusher, and the retention ring must keep serving afterward.
func TestShutdownClosesSpanFlusher(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var buf bytes.Buffer // flusher only touches it via the mutexed sink
	tr := span.New(span.Config{Sink: obs.NewJSONLSink(&buf), FlushEvery: time.Millisecond})
	s := newTestService(t, Config{Spans: tr})
	s.Start()
	j, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 2}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateDone)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitForBaseline(t, baseline)
	if len(tr.JobSpans(j.ID)) == 0 {
		t.Fatal("retention ring empty after Shutdown; /trace would 200 with no spans")
	}
}

// TestAbortClosesSpanFlusher: the simulated crash must not leak the
// flusher goroutine inside this process either.
func TestAbortClosesSpanFlusher(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var buf bytes.Buffer
	tr := span.New(span.Config{Sink: obs.NewJSONLSink(&buf), FlushEvery: time.Millisecond})
	s := newTestService(t, Config{Spans: tr})
	s.Start()
	if _, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 2}}); err != nil {
		t.Fatal(err)
	}
	s.Abort()
	waitForBaseline(t, baseline)
}

func waitForBaseline(t *testing.T, baseline int) {
	t.Helper()
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

// TestUnknownJobHTTPErrors pins the error contract for per-job routes:
// an unknown ID answers 404 with a JSON error body, and the access log
// still carries one line for the request. /trace and /phases additionally
// 404 (same shape) when the service has no span tracer attached.
func TestUnknownJobHTTPErrors(t *testing.T) {
	cases := []struct {
		name    string
		method  string
		path    string
		spans   bool   // attach a tracer
		mkJob   bool   // submit a real job and substitute its ID
		wantErr string // substring of the JSON error
	}{
		{name: "job unknown", method: "GET", path: "/jobs/absent", wantErr: "no such job"},
		{name: "events unknown", method: "GET", path: "/jobs/absent/events", wantErr: "no such job"},
		{name: "trace unknown", method: "GET", path: "/jobs/absent/trace", spans: true, wantErr: "no such job"},
		{name: "phases unknown", method: "GET", path: "/jobs/absent/phases", spans: true, wantErr: "no such job"},
		{name: "cancel unknown", method: "DELETE", path: "/jobs/absent", wantErr: "no such job"},
		{name: "trace no tracer", method: "GET", path: "/jobs/{id}/trace", mkJob: true, wantErr: "no span tracer"},
		{name: "phases no tracer", method: "GET", path: "/jobs/{id}/phases", mkJob: true, wantErr: "no span tracer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var logBuf bytes.Buffer
			cfg := Config{Logger: olog.New(&logBuf, olog.Options{})}
			if tc.spans {
				cfg.Spans = span.New(span.Config{})
			}
			s := newTestService(t, cfg)
			defer s.Shutdown(context.Background())
			path := tc.path
			if tc.mkJob {
				j, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 1}})
				if err != nil {
					t.Fatal(err)
				}
				path = strings.Replace(tc.path, "{id}", j.ID, 1)
			}
			srv := obs.NewServer(obs.ServerConfig{})
			s.Mount(srv)

			rr := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rr, httptest.NewRequest(tc.method, path, nil))

			if rr.Code != 404 {
				t.Fatalf("status = %d, want 404; body %s", rr.Code, rr.Body.String())
			}
			if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
				t.Fatalf("body is not JSON: %v (%s)", err, rr.Body.String())
			}
			if !strings.Contains(body.Error, tc.wantErr) {
				t.Errorf("error = %q, want substring %q", body.Error, tc.wantErr)
			}
			// Exactly one access-log line for the request, carrying the 404.
			var accessLines int
			for _, ln := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
				if !strings.Contains(ln, `"http request"`) {
					continue
				}
				accessLines++
				if !strings.Contains(ln, `"status":404`) {
					t.Errorf("access log line lacks status 404: %s", ln)
				}
				if !strings.Contains(ln, `"path":"`+path+`"`) {
					t.Errorf("access log line lacks path %s: %s", path, ln)
				}
			}
			if accessLines != 1 {
				t.Errorf("access-log lines = %d, want 1\n%s", accessLines, logBuf.String())
			}
		})
	}
}

// errTransient marks a failure the retry loop should eat.
var errTransient = MarkTransient(errors.New("transient wobble"))
