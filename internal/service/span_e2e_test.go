package service_test

// End-to-end proof of the span-tracing acceptance criteria, with the
// real fault-campaign engine behind a workerless FleetExecutor — the
// same wiring cmd/campaignd uses: a job submitted over HTTP with an explicit
// X-Request-ID must serve a valid Chrome trace at /jobs/{id}/trace where
// every span carries that request ID, a phase-budget report at
// /jobs/{id}/phases attributing >= 95% of the job's wall-clock window to
// named phases, and span.* duration histograms at /metrics.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/service"
)

func TestSpanTraceEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tr := span.New(span.Config{Metrics: reg})
	s, err := service.New(service.LocalFleet(service.Config{
		StateDir: t.TempDir(),
		Logger:   service.TLogger(t),
		Metrics:  reg,
		Spans:    tr,
	}, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	srv := obs.NewServer(obs.ServerConfig{Snapshot: reg.Snapshot})
	s.Mount(srv)
	h := srv.Handler()
	do := func(method, path string, body io.Reader, hdr map[string]string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, path, body)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	// Submit a small real campaign with a caller-chosen request ID — the
	// correlation root every span must inherit.
	const reqID = "req-e2e-spans"
	spec := e2eSpec()
	spec.Trials = 60
	specBody, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rr := do("POST", "/jobs", bytes.NewReader(specBody), map[string]string{"X-Request-ID": reqID})
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", rr.Code, rr.Body.String())
	}
	var j service.Job
	if err := json.Unmarshal(rr.Body.Bytes(), &j); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(120 * time.Second)
	for {
		rr = do("GET", "/jobs/"+j.ID, nil, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("poll: status %d, body %s", rr.Code, rr.Body.String())
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &j); err != nil {
			t.Fatal(err)
		}
		if j.State == service.StateDone {
			break
		}
		if j.State == service.StateFailed || time.Now().After(deadline) {
			t.Fatalf("job stuck in %s (err=%q)", j.State, j.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// /trace: valid Chrome trace JSON; every complete-span event carries
	// the job's request ID and job ID.
	rr = do("GET", "/jobs/"+j.ID+"/trace", nil, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("trace: status %d, body %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace Content-Type = %q, want application/json", ct)
	}
	var trace struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	var spans int
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spans++
		if got, _ := ev.Args["request_id"].(string); got != reqID {
			t.Errorf("span %q carries request_id %q, want %q", ev.Name, got, reqID)
		}
		if got, _ := ev.Args["job_id"].(string); got != j.ID {
			t.Errorf("span %q carries job_id %q, want %q", ev.Name, got, j.ID)
		}
	}
	if spans == 0 {
		t.Fatal("trace has no complete-span events")
	}

	// /phases: the report must attribute >= 95% of the job's wall-clock
	// window to named phases, and its critical path must be non-empty.
	rr = do("GET", "/jobs/"+j.ID+"/phases", nil, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("phases: status %d, body %s", rr.Code, rr.Body.String())
	}
	var report span.Report
	if err := json.Unmarshal(rr.Body.Bytes(), &report); err != nil {
		t.Fatal(err)
	}
	if report.JobID != j.ID || report.Spans != spans {
		t.Errorf("report covers job %q / %d spans, want %q / %d", report.JobID, report.Spans, j.ID, spans)
	}
	if report.AttributedPct < 95 {
		t.Errorf("phase report attributes %.1f%% of the job window, want >= 95%%\nphases: %+v",
			report.AttributedPct, report.Phases)
	}
	if len(report.CriticalPath) == 0 {
		t.Error("phase report has no critical path")
	}
	phases := map[string]bool{}
	for _, p := range report.Phases {
		phases[p.Layer+"."+p.Name] = true
	}
	for _, want := range []string{"service.attempt", "fault.golden_run", "fault.shard_exec"} {
		if !phases[want] {
			t.Errorf("phase report missing %q; phases: %+v", want, report.Phases)
		}
	}

	// /metrics: the tracer's duration histograms are part of the scrape.
	rr = do("GET", "/metrics", nil, nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rr.Code)
	}
	// PromName sanitizes the dotted snapshot names to underscores.
	for _, want := range []string{"span_service_attempt_us", "span_fault_shard_exec_us"} {
		if !strings.Contains(rr.Body.String(), want) {
			t.Errorf("/metrics missing histogram %q", want)
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The retention ring outlives Shutdown: a drained daemon still
	// answers /trace for finished jobs.
	if len(tr.JobSpans(j.ID)) == 0 {
		t.Error("retention ring empty after Shutdown")
	}
}
