package service_test

// End-to-end proof of the correlation acceptance criterion: one HTTP
// submission's request ID must surface, verbatim, in (1) the access-log
// line for the POST, (2) the job's flight-recorder timeline served at
// /jobs/{id}/events, and (3) the campaign engine's per-trial log lines —
// the full chain request → job → shard → trial.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/service"
)

// corrBuffer is a goroutine-safe log sink shared by the HTTP handlers,
// the service workers, and the campaign's trial workers.
type corrBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *corrBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *corrBuffer) Lines() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Split(strings.TrimSpace(b.buf.String()), "\n")
}

func TestRequestIDCorrelatesAccessLogEventsAndCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("real campaign e2e")
	}
	const reqID = "corr-e2e-0001"

	var sink corrBuffer
	rec := olog.NewRecorder(4096)
	// One logger, two legs: JSON lines to the buffer (a terminal at
	// -log-level debug), everything ≥Info into the flight recorder — the
	// production shape.
	logger := olog.Attach(
		olog.NewHandler(&sink, olog.Options{Level: slog.LevelDebug}),
		rec.Handler(slog.LevelInfo),
	)

	reg := obs.NewRegistry()
	svc, err := service.New(service.LocalFleet(service.Config{
		StateDir: t.TempDir(),
		Logger:   logger,
		Events:   rec,
		Metrics:  reg,
	}, logger, nil))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer svc.Shutdown(context.Background())

	srv := obs.NewServer(obs.ServerConfig{Snapshot: reg.Snapshot, Instrument: reg})
	svc.Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Submit with an explicit request ID; the daemon must echo it.
	body := strings.NewReader(`{"bench":"gcc","trials":24,"seed":3,"scale_pct":4,"workers":2,"failure_budget":-1}`)
	req, _ := http.NewRequest("POST", ts.URL+"/jobs", body)
	req.Header.Set("X-Request-ID", reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != reqID {
		t.Fatalf("response request ID %q, want %q", got, reqID)
	}
	var j service.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if j.RequestID != reqID {
		t.Fatalf("job recorded request ID %q, want %q", j.RequestID, reqID)
	}

	// Wait for completion over HTTP, like an operator would.
	deadline := time.Now().Add(120 * time.Second)
	for {
		r2, err := http.Get(ts.URL + "/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur service.Job
		if err := json.NewDecoder(r2.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if cur.State == service.StateDone {
			break
		}
		if cur.State == service.StateFailed || cur.State == service.StateCanceled {
			t.Fatalf("job ended %s: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// (1) Access log: exactly one line for the POST, carrying the ID.
	var accessPost, trialLines, jobDone int
	for _, ln := range sink.Lines() {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, ln)
		}
		switch m["msg"] {
		case "http request":
			if m["method"] == "POST" && m["path"] == "/jobs" {
				accessPost++
				if m["request_id"] != reqID {
					t.Fatalf("access line lost the request ID: %s", ln)
				}
				if m["status"] != float64(http.StatusAccepted) {
					t.Fatalf("access line wrong status: %s", ln)
				}
			}
		case "trial complete":
			if m[olog.KeyShard] == nil || m[olog.KeyTrial] == nil {
				t.Fatalf("trial line missing shard/trial: %s", ln)
			}
			if m["request_id"] == reqID && m["job_id"] == j.ID {
				trialLines++
			}
		case "job done":
			if m["request_id"] == reqID && m["job_id"] == j.ID {
				jobDone++
			}
		}
	}
	if accessPost != 1 {
		t.Errorf("POST /jobs access lines: %d, want 1", accessPost)
	}
	if trialLines != 24 {
		t.Errorf("correlated trial lines: %d, want 24", trialLines)
	}
	if jobDone != 1 {
		t.Errorf("correlated job-done lines: %d, want 1", jobDone)
	}

	// (2) Flight recorder timeline over HTTP: same chain, same ID.
	r3, err := http.Get(ts.URL + "/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	var evs []olog.Event
	if err := json.NewDecoder(r3.Body).Decode(&evs); err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if len(evs) == 0 {
		t.Fatal("event timeline is empty")
	}
	var evTrials, evCorr, evSubmitted int
	for _, e := range evs {
		if e.JobID != j.ID {
			t.Fatalf("timeline leaked another job's event: %+v", e)
		}
		if e.RequestID == reqID {
			evCorr++
		}
		switch e.Msg {
		case "trial complete":
			evTrials++
		case "job submitted":
			evSubmitted++
		}
	}
	if evCorr != len(evs) {
		t.Errorf("%d/%d timeline events carry the request ID", evCorr, len(evs))
	}
	if evTrials != 0 || evSubmitted != 1 {
		t.Errorf("timeline holds %d trial events and %d job-submitted events, want 0 and 1", evTrials, evSubmitted)
	}

	// (3) The RED middleware saw the submit too.
	r4, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(r4.Body)
	r4.Body.Close()
	if !strings.Contains(metrics.String(), "http_requests_post_jobs_total 1") {
		t.Errorf("RED counter for POST /jobs missing:\n%s", metrics.String())
	}
	if !strings.Contains(metrics.String(), "service_queue_wait_us_count 1") {
		t.Errorf("queue-wait histogram missing:\n%s", metrics.String())
	}
}
