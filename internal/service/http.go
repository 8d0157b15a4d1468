package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/obs/span"
	"repro/internal/tenant"
)

// Mount registers the job API and the probe endpoints on an obs.Server's
// mux, next to /metrics and /live:
//
//	POST   /jobs               submit a JobSpec; 202 + Job, 429 when the
//	                           queue is full (Retry-After set), 503 when
//	                           draining or the workload's breaker is open
//	GET    /jobs               every job, submission order
//	GET    /jobs/{id}          one job
//	GET    /jobs/{id}/events   the job's flight-recorder timeline
//	GET    /jobs/{id}/trace    the job's wall-clock spans as Chrome trace
//	                           JSON (open in Perfetto / chrome://tracing)
//	GET    /jobs/{id}/phases   the job's phase-budget report (wall time
//	                           per phase, % of job, critical path)
//	DELETE /jobs/{id}          cancel one job
//	GET    /healthz            liveness: 200 while the process serves
//	GET    /readyz             readiness: 503 while draining or saturated;
//	                           reports fleet health (degraded when
//	                           registered workers are lost)
//
// With Config.Fleet set, the coordinator endpoints are registered too
// (see fleethttp.go): POST /fleet/workers, /fleet/heartbeat,
// /fleet/lease, /fleet/complete, and the GET /fleet status page.
//
// Every handler runs behind the access middleware: the request gets a
// correlation ID (the caller's X-Request-ID, or a fresh one), the ID is
// echoed on the response, and exactly one access-log line is emitted per
// request — rejections (429/503) included.
func (s *Service) Mount(srv *obs.Server) {
	srv.HandleFunc("POST /jobs", s.access(s.authed(s.handleSubmit)))
	srv.HandleFunc("GET /jobs", s.access(s.handleList))
	srv.HandleFunc("GET /jobs/{id}", s.access(s.handleJob))
	srv.HandleFunc("GET /jobs/{id}/events", s.access(s.handleEvents))
	srv.HandleFunc("GET /jobs/{id}/trace", s.access(s.handleTrace))
	srv.HandleFunc("GET /jobs/{id}/phases", s.access(s.handlePhases))
	srv.HandleFunc("DELETE /jobs/{id}", s.access(s.handleCancel))
	srv.HandleFunc("GET /healthz", s.access(s.handleHealthz))
	srv.HandleFunc("GET /readyz", s.access(s.handleReadyz))
	if s.cfg.Programs != nil {
		srv.HandleFunc("POST /programs", s.access(s.authed(s.handleProgramSubmit)))
		srv.HandleFunc("GET /programs", s.access(s.handlePrograms))
		srv.HandleFunc("GET /programs/{fp}", s.access(s.handleProgram))
		srv.HandleFunc("GET /programs/{fp}/source", s.access(s.handleProgramSource))
	}
	if s.cfg.Fleet != nil {
		s.mountFleet(srv.HandleFunc)
	}
}

// access is the correlation + access-log middleware. It reuses the RED
// middleware's response recorder when the obs.Server layer already
// installed one, so both layers agree on the status code. When the
// request's X-API-Key resolves to a tenant (always, in anonymous mode),
// the tenant ID joins the correlation chain before the request ID —
// every access-log line, job record, and trial line downstream carries
// it — and the tenant's RED counters are bumped.
func (s *Service) access(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = olog.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		ctx := olog.WithRequestID(r.Context(), reqID)
		tenantID := ""
		if t, err := s.cfg.Tenants.Authenticate(r.Header.Get("X-API-Key")); err == nil {
			tenantID = t.ID
			ctx = olog.WithTenantID(ctx, tenantID)
		}
		rec, ok := w.(*obs.ResponseRecorder)
		if !ok {
			rec = obs.NewResponseRecorder(w)
		}
		start := time.Now()
		next(rec, r.WithContext(ctx))
		if s.cfg.Metrics != nil && tenantID != "" {
			s.cfg.Metrics.Counter("service.tenant." + tenantID + ".requests").Inc()
			if rec.Status() >= 400 {
				s.cfg.Metrics.Counter("service.tenant." + tenantID + ".errors").Inc()
			}
		}
		s.log.InfoContext(ctx, "http request",
			"method", r.Method, "path", r.URL.Path,
			"status", rec.Status(), "bytes", rec.Bytes(),
			"duration_us", time.Since(start).Microseconds())
	}
}

// authed guards a mutating endpoint: the request body is capped at
// Config.MaxBodyBytes (reads beyond it fail with *http.MaxBytesError,
// rendered as 413) and an authenticated tenant is required (401
// otherwise; in anonymous mode every request authenticates).
func (s *Service) authed(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if olog.FromContext(r.Context()).TenantID == "" {
			writeError(w, http.StatusUnauthorized, tenant.ErrUnauthorized)
			return
		}
		next(w, r)
	}
}

// capBody is the body bound without the identity requirement, for the
// fleet wire protocol (workers hold no API keys; the fleet state
// machine authenticates them by worker ID and quarantine instead).
func (s *Service) capBody(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		next(w, r)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck — client gone is not actionable
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeJSON reads one JSON payload with the shared POST error
// contract: a body over the MaxBytesReader cap answers 413 with a JSON
// error; anything else that fails to parse, including a field v does
// not have, answers 400. Returns false when the response has been
// written.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError maps a request-body read failure: 413 for the
// MaxBytesReader cap, 400 for everything else.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("service: request body exceeds %d bytes", mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request payload: %w", err))
}

// writeTenantError maps the tenant layer's rejections: 401 for a
// missing identity, 429 + Retry-After for rate limits (next-token time)
// and quotas (the generic backpressure hint — the resource frees when
// jobs finish or programs are removed). Returns false if err was not a
// tenant rejection.
func (s *Service) writeTenantError(w http.ResponseWriter, err error) bool {
	var rate *tenant.RateLimitError
	var quota *tenant.QuotaError
	switch {
	case errors.As(err, &rate):
		w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(rate.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.As(err, &quota):
		w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(s.cfg.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, tenant.ErrUnauthorized):
		writeError(w, http.StatusUnauthorized, err)
	default:
		return false
	}
	return true
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if err := s.cfg.Tenants.Allow(olog.FromContext(r.Context()).TenantID); err != nil {
		s.count("service.rejected_ratelimit")
		s.writeTenantError(w, err)
		return
	}
	var spec JobSpec
	if !decodeJSON(w, r, &spec) {
		return
	}
	j, err := s.SubmitCtx(r.Context(), spec)
	if err == nil {
		writeJSON(w, http.StatusAccepted, j)
		return
	}
	var full *QueueFullError
	var open *BreakerOpenError
	switch {
	case errors.As(err, &full):
		// Backpressure, the HTTP way: try again once the workers have
		// eaten into the queue.
		w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(full.RetryAfter)))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.As(err, &open):
		w.Header().Set("Retry-After", strconv.Itoa(ceilSeconds(open.RetryAfter)))
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrUnknownProgram):
		writeError(w, http.StatusNotFound, err)
	case s.writeTenantError(w, err):
		// Concurrent-job quota exhausted (429, Retry-After set).
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

// handleEvents serves the flight recorder's timeline for one job: every
// retained log record whose correlation chain names the job, oldest
// first — the post-mortem view without grepping the terminal log.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.Job(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if s.cfg.Events == nil {
		writeError(w, http.StatusNotFound, errors.New("service: no flight recorder attached"))
		return
	}
	evs := s.cfg.Events.JobEvents(id)
	if evs == nil {
		evs = []olog.Event{}
	}
	writeJSON(w, http.StatusOK, evs)
}

// handleTrace serves one job's wall-clock spans as Chrome trace-event
// JSON, loadable directly in Perfetto. Unknown job IDs and a tracer-less
// service both 404 with a JSON error body, mirroring handleEvents.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.Job(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if !s.cfg.Spans.Enabled() {
		writeError(w, http.StatusNotFound, errors.New("service: no span tracer attached"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// An emit error after the body started is not reportable to the
	// client; the access log carries the status either way.
	span.WriteChrome(w, s.cfg.Spans.Epoch(), s.cfg.Spans.JobSpans(id)) //nolint:errcheck
}

// handlePhases serves one job's phase-budget report: wall time per named
// phase, the fraction of the job window attributed, and the critical
// path.
func (s *Service) handlePhases(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := s.Job(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if !s.cfg.Spans.Enabled() {
		writeError(w, http.StatusNotFound, errors.New("service: no span tracer attached"))
		return
	}
	writeJSON(w, http.StatusOK, span.Analyze(id, s.cfg.Spans.JobSpans(id)))
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	j, err := s.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports whether the service should receive traffic: not
// while draining (shutdown in progress) and not while the queue is
// saturated (a load balancer should prefer a sibling daemon). With a
// fleet attached it also reports fleet health: lost workers mark the
// coordinator degraded — still ready (in-process execution and the
// surviving workers keep campaigns moving; dropping the coordinator
// from the balancer would help nothing) but visibly impaired, so
// operators and probes see worker loss without scraping /fleet.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	type fleetHealth struct {
		WorkersLive        int  `json:"workers_live"`
		WorkersLost        int  `json:"workers_lost"`
		WorkersQuarantined int  `json:"workers_quarantined"`
		LeasesActive       int  `json:"leases_active"`
		Degraded           bool `json:"degraded"`
	}
	type readiness struct {
		Ready    bool         `json:"ready"`
		Reason   string       `json:"reason,omitempty"`
		Queued   int          `json:"queued"`
		Running  int          `json:"running"`
		Draining bool         `json:"draining"`
		Fleet    *fleetHealth `json:"fleet,omitempty"`
	}
	s.mu.Lock()
	st := readiness{
		Ready:    true,
		Queued:   len(s.pending),
		Running:  len(s.running),
		Draining: s.draining,
	}
	saturated := len(s.pending) >= s.cfg.QueueDepth
	s.mu.Unlock()
	if s.cfg.Fleet != nil {
		snap := s.cfg.Fleet.Snapshot()
		st.Fleet = &fleetHealth{
			WorkersLive:        snap.WorkersLive,
			WorkersLost:        snap.WorkersLost,
			WorkersQuarantined: snap.WorkersQuarantined,
			LeasesActive:       snap.LeasesActive,
			Degraded:           snap.WorkersLost > 0,
		}
	}
	switch {
	case st.Draining:
		st.Ready, st.Reason = false, "draining"
	case saturated:
		st.Ready, st.Reason = false, "queue saturated"
	case st.Fleet != nil && st.Fleet.Degraded:
		st.Reason = fmt.Sprintf("degraded: %d fleet worker(s) lost", st.Fleet.WorkersLost)
	}
	if st.Ready {
		writeJSON(w, http.StatusOK, st)
	} else {
		writeJSON(w, http.StatusServiceUnavailable, st)
	}
}

// ceilSeconds renders a Retry-After duration as whole seconds, at least 1.
func ceilSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
