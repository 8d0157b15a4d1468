package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/olog"
)

// logBuffer is a goroutine-safe sink for the structured log under test.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

// TestAccessLogCoversRejections pins the "one access line per request,
// rejections included" contract: a 429 backpressure rejection and a
// request with no X-Request-ID both produce an access-log line, and the
// generated request ID is echoed on the response.
func TestAccessLogCoversRejections(t *testing.T) {
	var sink logBuffer
	release := make(chan struct{})
	s := newTestService(t, Config{
		QueueDepth: 1,
		Logger:     olog.New(&sink, olog.Options{Level: slog.LevelDebug}),
		Executor: execFunc(func(ctx context.Context, spec JobSpec, _ string) (*fault.Result, error) {
			<-release
			return instantExec(ctx, spec, "")
		}),
	})
	s.Start()
	defer func() { close(release); s.Shutdown(context.Background()) }()

	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	h := srv.Handler()

	submit := func() *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/jobs", strings.NewReader(`{"bench":"gcc","trials":1}`))
		h.ServeHTTP(rr, req)
		return rr
	}

	// First job occupies the worker, second fills the depth-1 queue,
	// third is rejected with backpressure.
	first := submit()
	if first.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d", first.Code)
	}
	if first.Header().Get("X-Request-ID") == "" {
		t.Fatal("no generated X-Request-ID on response")
	}
	waitState(t, s, jobID(t, first), StateRunning)
	if rr := submit(); rr.Code != http.StatusAccepted {
		t.Fatalf("second submit: %d", rr.Code)
	}
	rejected := submit()
	if rejected.Code != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", rejected.Code)
	}
	if rejected.Header().Get("X-Request-ID") == "" {
		t.Fatal("rejection lost its X-Request-ID")
	}

	var accessLines, saw429 int
	for _, ln := range sink.Lines() {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, ln)
		}
		if m["msg"] != "http request" {
			continue
		}
		accessLines++
		if rid, _ := m["request_id"].(string); rid == "" {
			t.Fatalf("access line without request_id: %s", ln)
		}
		if m["status"] == float64(http.StatusTooManyRequests) {
			saw429++
		}
	}
	if accessLines != 3 {
		t.Errorf("access lines: %d, want 3", accessLines)
	}
	if saw429 != 1 {
		t.Errorf("429 access lines: %d, want 1", saw429)
	}
}

// jobID decodes the submitted job's ID out of a 202 response.
func jobID(t *testing.T, rr *httptest.ResponseRecorder) string {
	t.Helper()
	var j Job
	if err := json.Unmarshal(rr.Body.Bytes(), &j); err != nil {
		t.Fatal(err)
	}
	return j.ID
}

// TestFailedJobDumpsFlightRecorder: a permanent failure must leave
// <id>.events.jsonl in the state dir — the ring's post-mortem for that
// job — and /jobs/{id}/events must serve the same timeline.
func TestFailedJobDumpsFlightRecorder(t *testing.T) {
	var sink logBuffer
	rec := olog.NewRecorder(256)
	logger := olog.Attach(
		olog.NewHandler(&sink, olog.Options{Level: slog.LevelDebug}),
		rec.Handler(slog.LevelDebug),
	)
	dir := t.TempDir()
	s := newTestService(t, Config{
		StateDir:    dir,
		MaxAttempts: 1,
		Logger:      logger,
		Events:      rec,
		Executor: execFunc(func(_ context.Context, _ JobSpec, _ string) (*fault.Result, error) {
			return nil, MarkPermanent(errors.New("benchmark build is broken"))
		}),
	})
	s.Start()
	defer s.Shutdown(context.Background())

	j, err := s.Submit(JobSpec{Spec: fault.Spec{Bench: "gcc", Trials: 4}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, StateFailed)

	path := filepath.Join(dir, j.ID+".events.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("event dump missing: %v", err)
	}
	var dumped int
	for _, ln := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var e olog.Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("dump line is not JSON: %v\n%s", err, ln)
		}
		if e.JobID != j.ID {
			t.Fatalf("dump holds another job's event: %s", ln)
		}
		dumped++
	}
	if dumped == 0 {
		t.Fatal("event dump is empty")
	}

	// The served timeline matches the dump's contents.
	srv := obs.NewServer(obs.ServerConfig{})
	s.Mount(srv)
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/jobs/"+j.ID+"/events", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("events route: %d", rr.Code)
	}
	var evs []olog.Event
	if err := json.Unmarshal(rr.Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	// The ring keeps accruing after the dump (the dump confirmation
	// itself is job-correlated), so served ⊇ dumped.
	if len(evs) < dumped {
		t.Errorf("served %d events, dumped %d", len(evs), dumped)
	}
}
