package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs/olog"
)

// WorkerClient is the fleet's worker side: the loop a campaignd process
// in -worker mode runs. It registers with the coordinator, heartbeats on
// the advertised cadence (concurrently with execution — a long shard
// must not look like a dead worker), polls for trial-range leases,
// executes each on locally prepared simulators, and posts the sealed
// shard back with exponential-backoff retries. Network failures are
// transient (retried); a quarantine (HTTP 410) is final — the process
// exits rather than argue.
type WorkerClient struct {
	cfg      WorkerConfig
	client   *http.Client
	log      *slog.Logger
	id       string
	hbEvery  time.Duration
	pollWait time.Duration

	// prepared caches compiled campaigns by job ID so every lease of the
	// same job reuses the golden fork.
	prepared map[string]*fault.Prepared
}

// WorkerConfig parameterizes NewWorkerClient.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (required), e.g.
	// "http://10.0.0.1:8080".
	Coordinator string
	// Prepare compiles a leased job's campaign locally (required).
	// Called with checkpoint "" — workers never checkpoint; the
	// coordinator owns the campaign's durable state.
	Prepare PrepareFunc
	// ID is the worker's stable identity; "" asks the coordinator to
	// mint one. Reuse the minted ID across reconnects.
	ID string
	// Addr is an advertisement recorded on the coordinator's /fleet
	// page (the worker's own listen address, if it has one).
	Addr string
	// Client is the HTTP client (default http.DefaultClient). The fleet
	// tests wrap its Transport in a ChaosTransport, which their test
	// files define.
	Client *http.Client
	// Logger receives the worker's lifecycle records.
	Logger *slog.Logger
	// ReportRetries caps completion-post attempts. Default 5.
	ReportRetries int
	// RetryBase seeds the completion-post backoff. Default 200ms.
	RetryBase time.Duration
}

// NewWorkerClient validates cfg and builds the client.
func NewWorkerClient(cfg WorkerConfig) (*WorkerClient, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("service: WorkerConfig.Coordinator is required")
	}
	if cfg.Prepare == nil {
		return nil, fmt.Errorf("service: WorkerConfig.Prepare is required")
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.ReportRetries <= 0 {
		cfg.ReportRetries = 5
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 200 * time.Millisecond
	}
	w := &WorkerClient{
		cfg:      cfg,
		client:   cfg.Client,
		id:       cfg.ID,
		pollWait: 250 * time.Millisecond,
		hbEvery:  2 * time.Second,
		prepared: map[string]*fault.Prepared{},
	}
	if cfg.Logger != nil {
		w.log = cfg.Logger
	} else {
		w.log = olog.Nop()
	}
	return w, nil
}

// ID returns the worker's identity (set after the first successful
// registration when the coordinator minted it).
func (w *WorkerClient) ID() string { return w.id }

// Run is the worker loop: register, heartbeat, poll, execute — until
// ctx is cancelled (clean exit, the coordinator reclaims our leases by
// heartbeat timeout) or the coordinator quarantines us
// (ErrWorkerQuarantined).
func (w *WorkerClient) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := w.register(ctx); err != nil {
		return err
	}
	var quarantined atomic.Bool
	go w.heartbeatLoop(ctx, func() {
		quarantined.Store(true)
		cancel()
	})
	for ctx.Err() == nil {
		grant, status, err := w.pollLease(ctx)
		switch {
		case ctx.Err() != nil:
		case err != nil:
			w.log.Warn("lease poll failed; backing off", "error", err.Error())
			w.sleep(ctx, w.cfg.RetryBase)
		case status == http.StatusGone:
			quarantined.Store(true)
			cancel()
		case status == http.StatusNotFound:
			// The coordinator restarted and forgot us; re-register under
			// the same ID.
			if err := w.register(ctx); err != nil {
				return err
			}
		case grant == nil:
			w.sleep(ctx, w.pollWait)
		default:
			w.execute(ctx, grant)
		}
	}
	if quarantined.Load() {
		return fmt.Errorf("%w: coordinator rejected worker %s", ErrWorkerQuarantined, w.id)
	}
	return ctx.Err()
}

// register announces the worker, retrying transient failures with
// backoff until ctx dies. A 410 is final.
func (w *WorkerClient) register(ctx context.Context) error {
	delay := w.cfg.RetryBase
	for ctx.Err() == nil {
		var reply RegisterReply
		status, err := w.post(ctx, "/fleet/workers", RegisterRequest{ID: w.id, Addr: w.cfg.Addr}, &reply)
		switch {
		case err == nil && status == http.StatusOK:
			w.id = reply.WorkerID
			if reply.HeartbeatIntervalMS > 0 {
				w.hbEvery = time.Duration(reply.HeartbeatIntervalMS) * time.Millisecond
			}
			if reply.PollIntervalMS > 0 {
				w.pollWait = time.Duration(reply.PollIntervalMS) * time.Millisecond
			}
			w.log.Info("registered with coordinator",
				"worker", w.id, "coordinator", w.cfg.Coordinator,
				"heartbeat_ms", w.hbEvery.Milliseconds())
			return nil
		case err == nil && status == http.StatusGone:
			return fmt.Errorf("%w: coordinator rejected worker %s", ErrWorkerQuarantined, w.id)
		}
		if err != nil {
			w.log.Warn("registration failed; retrying", "error", err.Error())
		} else {
			w.log.Warn("registration rejected; retrying", "status", status)
		}
		w.sleep(ctx, delay)
		if delay *= 2; delay > 5*time.Second {
			delay = 5 * time.Second
		}
	}
	return ctx.Err()
}

// heartbeatLoop beats until ctx dies. 404 re-registers; 410 invokes
// onQuarantine (which cancels the run). Network errors are logged and
// outwaited — the coordinator's miss budget is the real timeout.
func (w *WorkerClient) heartbeatLoop(ctx context.Context, onQuarantine func()) {
	t := time.NewTicker(w.hbEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		status, err := w.post(ctx, "/fleet/heartbeat", WorkerRequest{WorkerID: w.id}, nil)
		switch {
		case err != nil:
			w.log.Warn("heartbeat failed", "error", err.Error())
		case status == http.StatusGone:
			onQuarantine()
			return
		case status == http.StatusNotFound:
			if err := w.register(ctx); err != nil && !errors.Is(err, context.Canceled) {
				w.log.Warn("re-registration after heartbeat 404 failed", "error", err.Error())
			}
		}
	}
}

// pollLease asks for work. grant nil with status 204 means none.
func (w *WorkerClient) pollLease(ctx context.Context) (*LeaseGrant, int, error) {
	var grant LeaseGrant
	status, err := w.post(ctx, "/fleet/lease", WorkerRequest{WorkerID: w.id}, &grant)
	if err != nil || status != http.StatusOK {
		return nil, status, err
	}
	return &grant, status, nil
}

// execute runs one granted lease and reports the outcome.
func (w *WorkerClient) execute(ctx context.Context, grant *LeaseGrant) {
	p, err := w.preparedFor(ctx, grant)
	if err != nil {
		w.report(ctx, grant.LeaseID, Classify(err), err)
		return
	}
	w.log.Info("executing lease",
		"lease", grant.LeaseID, "job", grant.JobID, "lo", grant.Lo, "hi", grant.Hi)
	sh, err := p.RunRange(ctx, grant.Lo, grant.Hi)
	if err != nil {
		// Almost always a cancelled ctx (shutdown); the lease deadline
		// reclaims the range if this report never lands.
		w.report(ctx, grant.LeaseID, Transient, err)
		return
	}
	w.postShard(ctx, grant, sh)
}

// preparedFor returns the cached compiled campaign for the grant's job,
// compiling (and golden-fingerprint-checking) on first use. A
// fingerprint mismatch is permanent: this process compiled a different
// campaign than the coordinator, and no shard it produces can merge.
func (w *WorkerClient) preparedFor(ctx context.Context, grant *LeaseGrant) (*fault.Prepared, error) {
	if p, ok := w.prepared[grant.JobID]; ok {
		return p, nil
	}
	p, err := w.cfg.Prepare(ctx, grant.Spec, "")
	if err != nil {
		return nil, err
	}
	golden := p.GoldenStats()
	if golden.Cycles != grant.GoldenCycles || golden.Insts != grant.GoldenInsts {
		return nil, MarkPermanent(fmt.Errorf(
			"service: worker golden run (%d cycles/%d insts) does not match the coordinator's (%d/%d) for job %s — refusing to execute",
			golden.Cycles, golden.Insts, grant.GoldenCycles, grant.GoldenInsts, grant.JobID))
	}
	// Bound the cache: evict compiled campaigns for other jobs once a
	// few accumulate (campaigns arrive mostly sequentially).
	if len(w.prepared) >= 4 {
		for id := range w.prepared {
			if id != grant.JobID {
				delete(w.prepared, id)
				break
			}
		}
	}
	w.prepared[grant.JobID] = p
	return p, nil
}

// postShard returns a finished shard, retrying transient transport
// failures with exponential backoff. Give-ups are safe: the lease
// deadline requeues the range.
func (w *WorkerClient) postShard(ctx context.Context, grant *LeaseGrant, sh *fault.ShardResult) {
	req := CompleteRequest{WorkerID: w.id, LeaseID: grant.LeaseID, Shard: sh}
	delay := w.cfg.RetryBase
	for attempt := 1; attempt <= w.cfg.ReportRetries; attempt++ {
		var reply CompleteReply
		status, err := w.post(ctx, "/fleet/complete", req, &reply)
		switch {
		case err == nil && status == http.StatusOK:
			w.log.Info("shard accepted",
				"lease", grant.LeaseID, "lo", grant.Lo, "hi", grant.Hi, "fresh", reply.Fresh)
			return
		case err == nil && (status == http.StatusNotFound || status == http.StatusUnprocessableEntity):
			// Unknown lease (job finished or reclaimed) or rejected
			// shard: nothing more to do with this result.
			w.log.Warn("shard dropped by coordinator", "lease", grant.LeaseID, "status", status)
			return
		case err == nil && status == http.StatusGone:
			return // quarantined; heartbeat loop will see it too
		case err != nil && Classify(err) == Permanent:
			w.log.Warn("shard post failed permanently", "lease", grant.LeaseID, "error", err.Error())
			return
		}
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			w.log.Warn("shard post failed; backing off",
				"lease", grant.LeaseID, "attempt", attempt, "error", err.Error())
		} else {
			w.log.Warn("shard post rejected; backing off",
				"lease", grant.LeaseID, "attempt", attempt, "status", status)
		}
		w.sleep(ctx, delay)
		if delay *= 2; delay > 5*time.Second {
			delay = 5 * time.Second
		}
	}
	w.log.Warn("shard post abandoned; the lease deadline will requeue the range",
		"lease", grant.LeaseID)
}

// report posts a failure outcome for a lease (best-effort, one shot —
// the lease deadline is the backstop).
func (w *WorkerClient) report(ctx context.Context, leaseID string, class Class, cause error) {
	req := CompleteRequest{
		WorkerID: w.id, LeaseID: leaseID,
		Class: class.String(), Error: cause.Error(),
	}
	// A cancelled run ctx must still allow the final report out.
	rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	if _, err := w.post(rctx, "/fleet/complete", req, nil); err != nil {
		w.log.Warn("failure report did not reach the coordinator",
			"lease", leaseID, "error", err.Error())
	}
}

// post sends one JSON request and decodes a 200 response into out.
func (w *WorkerClient) post(ctx context.Context, path string, body, out any) (int, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, MarkPermanent(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(buf))
	if err != nil {
		return 0, MarkPermanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err // *url.Error — Classify says Transient
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("service: bad coordinator reply for %s: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain for keep-alive
	return resp.StatusCode, nil
}

func (w *WorkerClient) sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
