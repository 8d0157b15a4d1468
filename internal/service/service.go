package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/obs/span"
	"repro/internal/pipeline"
	"repro/internal/tenant"
)

// Config parameterizes New. Zero values get production defaults.
type Config struct {
	// StateDir holds jobs.json and the per-job campaign checkpoints
	// (required). Created if missing.
	StateDir string
	// Executor runs each job attempt (required). checkpoint is the
	// absolute path of the job's resume file: the executor threads it
	// into the campaign so a cancelled or killed attempt leaves a
	// watermark the next attempt resumes from. Production wires a
	// *FleetExecutor, which leases each campaign's trial ranges to the
	// worker fleet and runs them in this process while none are live.
	Executor Executor
	// Fleet, when set, is the coordinator state machine whose lease
	// table is persisted alongside the jobs (jobs.json v2), reported by
	// /readyz, and served on /fleet. Mount registers the fleet endpoints
	// only when this is set.
	Fleet *Fleet
	// QueueDepth bounds the waiting-job queue; a full queue rejects
	// submissions with backpressure (HTTP 429 + Retry-After). Default 64.
	QueueDepth int
	// Concurrency is how many jobs run at once. Default 1 — campaigns
	// parallelize internally over their trial workers; raising this
	// multiplies CPU oversubscription, not throughput.
	Concurrency int
	// MaxAttempts caps runs of one job, the first included. Default 3.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the retry schedule: the n-th retry
	// waits BackoffBase·2^(n-1) plus up to 25% jitter, capped at
	// BackoffCap. Defaults 500ms and 30s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// JobDeadline bounds one attempt's wall time; a deadline overrun is a
	// transient failure whose retry resumes from the checkpoint
	// watermark. 0 means no deadline. Default 10m.
	JobDeadline time.Duration
	// BreakerThreshold consecutive permanent failures of one workload
	// open its circuit breaker; submissions for that workload then fail
	// fast until BreakerCooldown elapses (then one probe job is
	// admitted). Defaults 3 and 1m.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RetryAfter is the backpressure hint returned with 429s. Default 5s.
	RetryAfter time.Duration
	// Progress, when set, receives the live queue-depth, retry, and
	// open-breaker gauges (and is handed to campaigns when the daemon
	// wires it into CampaignPrepare).
	Progress *pipeline.Progress
	// Metrics, when set, receives service counters (submitted, done,
	// failed, retried, rejected, breaker trips) and the RED latency
	// histograms (queue wait, attempt latency).
	Metrics *obs.Registry
	// Logger, when set, receives the service's structured log: one
	// record per job state transition, breaker/retry events, and the
	// operational warnings, each stamped with the request/job correlation
	// chain. Supersedes Logf as the primary sink.
	Logger *slog.Logger
	// Logf is the legacy printf hook. When Logger is nil, every
	// structured record (Info and up) is rendered "msg key=value ..."
	// through it, so existing callers keep their log lines. Nil discards
	// (unless Logger is set).
	Logf func(format string, args ...any)
	// Events, when set, is the flight recorder whose ring backs the
	// GET /jobs/{id}/events timeline and the on-failure dumps. Wire the
	// same Recorder as a fanout leg of Logger (olog.Attach) so every
	// logged record lands in the ring with its correlation intact.
	Events *olog.Recorder
	// Tenants authenticates API keys and meters per-tenant rate limits
	// and quotas on the HTTP front door. Nil builds an anonymous
	// single-tenant registry (zero-config development mode): everything
	// is admitted under default quotas and logged as tenant "anonymous".
	Tenants *tenant.Registry
	// Programs, when set, is the submitted-program store; Mount then
	// registers the POST /programs front door and SubmitCtx accepts
	// "program:<fingerprint>" workloads.
	Programs *ProgramStore
	// MaxBodyBytes caps every POST request body (413 beyond it).
	// Default 1 MiB.
	MaxBodyBytes int64
	// Spans, when set, is the wall-clock span tracer. The service records
	// the job lifecycle phases (queue wait, attempt, backoff, breaker
	// wait, persist, drain requeue) onto it, threads it through each
	// job's context so the campaign engine's phases nest under the
	// attempt span, and its retention ring backs GET /jobs/{id}/trace and
	// /jobs/{id}/phases. The service owns its shutdown: Shutdown and
	// Abort close the tracer (stopping its flusher goroutine; the ring
	// keeps serving queries).
	Spans *span.Tracer
}

func (c *Config) fillDefaults() error {
	if c.StateDir == "" {
		return fmt.Errorf("service: Config.StateDir is required")
	}
	if c.Executor == nil {
		return fmt.Errorf("service: Config.Executor is required")
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 30 * time.Second
	}
	if c.JobDeadline == 0 {
		c.JobDeadline = 10 * time.Minute
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 5 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.Tenants == nil {
		// tenant.New with no records cannot fail; it builds the
		// anonymous single-tenant registry.
		c.Tenants, _ = tenant.New(nil)
	}
	return nil
}

// Submission rejections the HTTP layer maps to status codes.
var (
	// ErrDraining rejects submissions while the daemon drains for
	// shutdown.
	ErrDraining = errors.New("service: draining; not accepting new jobs")
	// ErrUnknownJob is returned for lookups of IDs the service never
	// issued.
	ErrUnknownJob = errors.New("service: no such job")
)

// QueueFullError is the backpressure rejection: the bounded queue is at
// capacity and the caller should retry after the hint.
type QueueFullError struct {
	Depth      int
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: job queue full (%d waiting); retry in %s", e.Depth, e.RetryAfter)
}

// BreakerOpenError fails a submission fast: the workload's recent
// permanent failures opened its circuit breaker.
type BreakerOpenError struct {
	Workload   string
	RetryAfter time.Duration
}

func (e *BreakerOpenError) Error() string {
	return fmt.Sprintf("service: circuit breaker open for %s; retry in %s", e.Workload, e.RetryAfter)
}

// Service is the campaign job service: a bounded queue feeding a worker
// supervisor, with every job transition persisted atomically so a killed
// daemon resumes where it stood.
type Service struct {
	cfg Config
	// log is the resolved structured logger: cfg.Logger, else cfg.Logf
	// through the olog.Logf adapter, else a nop. Never nil.
	log *slog.Logger
	// queueWait and attemptLat are the service's RED histograms (nil
	// without cfg.Metrics): how long jobs sit queued before a worker
	// picks them up, and how long one executor attempt takes.
	queueWait  *obs.Histogram
	attemptLat *obs.Histogram

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	order    []string // submission order, for listing and persistence
	pending  []string // FIFO of queued job IDs
	running  map[string]context.CancelFunc
	timers   map[string]*time.Timer // retrying jobs' backoff timers
	breakers map[string]*breaker
	nextID   int
	draining bool
	aborted  bool // simulated crash: skip all persistence on the way out
	// restoredLeases is the previous life's lease table (active grants
	// downgraded to expired), re-persisted until the fleet produces its
	// own records.
	restoredLeases []Lease

	wg  sync.WaitGroup
	now func() time.Time // test hook
}

// New builds a service over StateDir, restoring any jobs a previous
// daemon life left behind: open jobs re-enter the queue and resume from
// their campaign checkpoints.
func New(cfg Config) (*Service, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	s := &Service{
		cfg:      cfg,
		jobs:     map[string]*Job{},
		running:  map[string]context.CancelFunc{},
		timers:   map[string]*time.Timer{},
		breakers: map[string]*breaker{},
		nextID:   1,
		now:      time.Now,
	}
	switch {
	case cfg.Logger != nil:
		s.log = cfg.Logger
	case cfg.Logf != nil:
		s.log = olog.Logf(cfg.Logf)
	default:
		s.log = olog.Nop()
	}
	if cfg.Metrics != nil {
		// Microsecond buckets spanning 1µs..~17min: queue waits are
		// milliseconds under light load but reach minutes behind a
		// saturated queue or a long backoff.
		s.queueWait = cfg.Metrics.Histogram("service.queue_wait_us", obs.ExpBuckets(1, 4, 16))
		s.attemptLat = cfg.Metrics.Histogram("service.attempt_latency_us", obs.ExpBuckets(1, 4, 16))
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.loadState(); err != nil {
		return nil, err
	}
	if cfg.Fleet != nil {
		// Fleet state changes (registration, grants, completions,
		// expiries) rewrite jobs.json so the lease table survives a
		// coordinator restart. The hook fires with no fleet lock held;
		// lock order is always Service.mu → Fleet.mu.
		cfg.Fleet.SetOnChange(func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.aborted {
				return
			}
			if err := s.persistLocked(); err != nil {
				s.warn(context.Background(), err)
			}
		})
	}
	restored := 0
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State == StateQueued {
			j.queuedAt = s.now()
			s.pending = append(s.pending, id)
			restored++
			if j.TenantID != "" {
				// The restored job still holds its tenant's concurrent-job
				// slot; re-count it so the release at completion balances.
				cfg.Tenants.RestoreJob(j.TenantID)
			}
		}
	}
	if cfg.Programs != nil {
		for _, m := range cfg.Programs.List() {
			if m.TenantID != "" {
				cfg.Tenants.RestoreProgram(m.TenantID)
			}
		}
	}
	if restored > 0 {
		s.logf("restored %d unfinished job(s) from %s; campaigns resume from their checkpoints", restored, s.statePath())
	}
	s.updateGauges()
	return s, nil
}

// Start launches the worker supervisor. Call once.
func (s *Service) Start() {
	for i := 0; i < s.cfg.Concurrency; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				id, ok := s.pop()
				if !ok {
					return
				}
				s.runJob(id)
			}
		}()
	}
}

// Submit validates, admits, persists, and queues one job with no
// request correlation. Rejections: ErrDraining, *BreakerOpenError (the
// workload is failing permanently), *QueueFullError (backpressure).
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit plus correlation: the request ID and tenant ID
// carried by ctx (olog.WithRequestID / olog.WithTenantID — the HTTP
// layer stamps both) are recorded on the job, so the access log, the
// job's lifecycle records, and its campaign's trial lines all join on
// one chain. A tenant-stamped submission holds one of the tenant's
// concurrent-job quota slots until the job reaches a terminal state;
// exhausting the quota rejects with *tenant.QuotaError (429).
func (s *Service) SubmitCtx(ctx context.Context, spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Scheme == "" {
		spec.Scheme = "turnpike"
	}
	if spec.CheckpointEvery == 0 {
		// Tight enough that a drained or killed daemon repeats little
		// work, loose enough that checkpoint writes don't dominate.
		spec.CheckpointEvery = 16
	}
	if spec.IsProgram() {
		if s.cfg.Programs == nil {
			return nil, fmt.Errorf("%w: this service accepts no submitted programs", ErrUnknownProgram)
		}
		m, ok := s.cfg.Programs.Get(spec.ProgramFingerprint())
		if !ok {
			return nil, fmt.Errorf("%w: %s (submit it via POST /programs first)", ErrUnknownProgram, spec.Bench)
		}
		if spec.SBSize != 0 && spec.SBSize != m.SBSize {
			return nil, fmt.Errorf("service: program %s is compiled for sb_size %d, not %d",
				m.Fingerprint, m.SBSize, spec.SBSize)
		}
		spec.SBSize = m.SBSize
	}
	tenantID := olog.FromContext(ctx).TenantID
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	now := s.now()
	b := s.breakerFor(spec.Workload())
	wasOpen := b.isOpen
	if !b.allow(now) {
		s.count("service.rejected_breaker")
		return nil, &BreakerOpenError{Workload: spec.Workload(), RetryAfter: b.retryAfter(now)}
	}
	if wasOpen {
		// This admission is the half-open probe: the breaker held the
		// workload's submissions from openSince until now.
		s.cfg.Spans.Record(ctx, "service", "breaker_wait", b.openSince, now,
			map[string]any{"workload": spec.Workload()})
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		s.count("service.rejected_backpressure")
		return nil, &QueueFullError{Depth: len(s.pending), RetryAfter: s.cfg.RetryAfter}
	}
	if tenantID != "" {
		if err := s.cfg.Tenants.AcquireJob(tenantID); err != nil {
			s.count("service.rejected_quota")
			return nil, err
		}
	}
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.nextID++
	j := &Job{
		ID:          id,
		Spec:        spec,
		State:       StateQueued,
		RequestID:   olog.FromContext(ctx).RequestID,
		TenantID:    tenantID,
		Checkpoint:  id + ".ckpt.json",
		SubmittedAt: now,
		queuedAt:    now,
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.pending = append(s.pending, id)
	s.count("service.jobs_submitted")
	pstart := time.Now()
	if err := s.persistLocked(); err != nil {
		// Roll the admission back: a job we cannot persist is a job we
		// would silently lose on restart.
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		s.pending = s.pending[:len(s.pending)-1]
		if tenantID != "" {
			s.cfg.Tenants.ReleaseJob(tenantID)
		}
		return nil, err
	}
	if s.cfg.Spans.Enabled() {
		s.cfg.Spans.Record(olog.WithJobID(ctx, id), "service", "persist",
			pstart, time.Now(), map[string]any{"at": "submit"})
	}
	s.updateGauges()
	s.cond.Signal()
	s.log.InfoContext(olog.WithJobID(ctx, id), "job submitted",
		"workload", spec.Workload(), "trials", spec.Trials, "seed", spec.Seed,
		"queue_depth", len(s.pending))
	return j.clone(), nil
}

// Job returns a snapshot of one job.
func (s *Service) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.clone(), nil
}

// Jobs returns snapshots of every job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].clone())
	}
	return out
}

// Cancel stops a job: queued and retrying jobs are withdrawn, a running
// job's context is cancelled (its campaign flushes a final checkpoint
// and returns). Cancelling a finished job is a no-op.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	switch j.State {
	case StateQueued:
		for i, pid := range s.pending {
			if pid == id {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				break
			}
		}
	case StateRetrying:
		if tm := s.timers[id]; tm != nil {
			tm.Stop()
			delete(s.timers, id)
		}
	case StateRunning:
		if cancel := s.running[id]; cancel != nil {
			cancel()
		}
	default:
		return nil // already finished
	}
	j.State = StateCanceled
	j.FinishedAt = s.now()
	s.releaseQuotaLocked(j)
	s.count("service.jobs_canceled")
	s.updateGauges()
	return s.persistLocked()
}

// Saturated reports whether the queue is at capacity (the /readyz
// not-ready condition besides draining).
func (s *Service) Saturated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending) >= s.cfg.QueueDepth
}

// Shutdown drains the service: no new jobs are admitted or started,
// retry timers are parked (their jobs resume next life), and in-flight
// jobs run to completion until ctx expires — then their contexts are
// cancelled, which flushes each campaign's checkpoint and returns the
// job to the queue for the next daemon life. The final state is
// persisted before returning.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for id, tm := range s.timers {
		// A stopped timer leaves its job in StateRetrying; loadState
		// turns that back into StateQueued next life, which is exactly
		// the retry the backoff was deferring.
		tm.Stop()
		delete(s.timers, id)
	}
	inflight := len(s.running)
	s.cond.Broadcast()
	s.mu.Unlock()
	if inflight > 0 {
		s.logf("draining: waiting for %d in-flight job(s)", inflight)
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		n := len(s.running)
		for _, cancel := range s.running {
			cancel()
		}
		s.mu.Unlock()
		if n > 0 {
			s.logf("drain window expired; checkpointing %d in-flight job(s) for the next life", n)
		}
		<-done
	}

	s.mu.Lock()
	err := s.persistLocked()
	s.mu.Unlock()
	// The service owns the tracer's lifecycle: stop its flusher goroutine
	// now that no worker can record. The retention ring survives, so the
	// HTTP layer keeps answering /jobs/{id}/trace for a drained daemon.
	if cErr := s.cfg.Spans.Close(); err == nil {
		err = cErr
	}
	return err
}

// pop blocks until a job is available or the service drains.
func (s *Service) pop() (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.draining && len(s.pending) == 0 {
		s.cond.Wait()
	}
	if s.draining || len(s.pending) == 0 {
		return "", false
	}
	id := s.pending[0]
	s.pending = s.pending[1:]
	s.updateGauges()
	return id, true
}

// runJob executes one attempt of one job and routes the outcome: done,
// retry with backoff, permanent failure (breaker), or — during a drain —
// back to the queue for the next daemon life.
func (s *Service) runJob(id string) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.State != StateQueued {
		// Cancelled (or otherwise resolved) between queue and worker.
		s.mu.Unlock()
		return
	}
	j.State = StateRunning
	j.Attempts++
	j.StartedAt = s.now()
	if s.queueWait != nil && !j.queuedAt.IsZero() {
		s.queueWait.Observe(uint64(j.StartedAt.Sub(j.queuedAt).Microseconds()))
	}
	// jobCtx re-roots the correlation chain recorded at submission: the
	// executor's campaign inherits it, so every trial line a campaign logs
	// joins the submitting request's access-log line on request_id — and
	// the span tracer rides the same context, so the campaign's phases
	// nest under this job's attempt span.
	jobCtx := olog.WithCorr(context.Background(), olog.Corr{
		TenantID: j.TenantID, RequestID: j.RequestID, JobID: id, Shard: -1, Trial: -1,
	})
	jobCtx = span.Into(jobCtx, s.cfg.Spans)
	if !j.queuedAt.IsZero() {
		s.cfg.Spans.Record(jobCtx, "service", "queue_wait", j.queuedAt, j.StartedAt,
			map[string]any{"attempt": j.Attempts})
	}
	runCtx, cancel := context.WithCancel(jobCtx)
	if s.cfg.JobDeadline > 0 {
		runCtx, cancel = context.WithTimeout(jobCtx, s.cfg.JobDeadline)
	}
	s.running[id] = cancel
	ckpt := filepath.Join(s.cfg.StateDir, j.Checkpoint)
	spec := j.Spec
	attempt := j.Attempts
	pstart := time.Now()
	if err := s.persistLocked(); err != nil {
		s.warn(jobCtx, err)
	}
	s.cfg.Spans.Record(jobCtx, "service", "persist", pstart, time.Now(),
		map[string]any{"at": "attempt-start"})
	s.mu.Unlock()

	runCtx, attemptSpan := span.Start(runCtx, "service", "attempt")
	attemptSpan.SetArg("attempt", attempt)
	attemptSpan.SetArg("workload", spec.Workload())
	s.log.InfoContext(jobCtx, "attempt start",
		"attempt", attempt, "workload", spec.Workload(),
		"trials", spec.Trials, "seed", spec.Seed)
	started := time.Now()
	res, err := s.cfg.Executor.Execute(runCtx, spec, ckpt)
	elapsed := time.Since(started)
	attemptSpan.End()
	// settle spans the outcome's bookkeeping — checkpoint cleanup, the
	// outcome log line and persist — so a short job's window stays
	// attributed to named phases. It ends under the lock, so a reader
	// that sees the outcome also sees every span of the attempt.
	settleCtx, settle := span.Start(jobCtx, "service", "settle")
	cancel()
	if s.attemptLat != nil {
		s.attemptLat.Observe(uint64(elapsed.Microseconds()))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, id)
	now := s.now()
	persist := true
	switch {
	case j.State == StateCanceled:
		// Cancel already persisted the terminal state; just tidy up.
		os.Remove(ckpt)
		persist = false
	case err == nil:
		j.State = StateDone
		j.Result = res
		j.Error = ""
		j.FinishedAt = now
		s.releaseQuotaLocked(j)
		b := s.breakerFor(spec.Workload())
		if b.isOpen {
			s.log.InfoContext(jobCtx, "breaker closed", "workload", spec.Workload())
		}
		b.success()
		s.count("service.jobs_done")
		os.Remove(ckpt) // the result is in the state file; the watermark is spent
		s.log.InfoContext(jobCtx, "job done",
			"completed", res.CompletedTrials, "trials", spec.Trials,
			"attempt", attempt, "elapsed_ms", elapsed.Milliseconds())
	case s.draining:
		// The drain cut this attempt short; that is not a failure. The
		// checkpoint holds the watermark — re-queue for the next life.
		j.State = StateQueued
		j.Attempts--
		persist = !s.aborted
		s.cfg.Spans.Record(jobCtx, "service", "drain_requeue", now, now,
			map[string]any{"attempt": attempt})
		s.log.InfoContext(jobCtx, "attempt interrupted by drain; requeued for next life",
			"attempt", attempt)
	default:
		j.Error = err.Error()
		class := Classify(err)
		if class == Transient && j.Attempts < s.cfg.MaxAttempts {
			j.State = StateRetrying
			j.backoffAt = now
			delay := s.backoff(j.Attempts)
			if s.cfg.Progress != nil {
				s.cfg.Progress.Retries.Add(1)
			}
			s.count("service.retries")
			s.log.WarnContext(jobCtx, "attempt failed (transient); retrying",
				"attempt", attempt, "error", err.Error(),
				"retry_in_ms", delay.Round(time.Millisecond).Milliseconds())
			s.timers[id] = time.AfterFunc(delay, func() { s.requeue(id) })
		} else {
			j.State = StateFailed
			j.FinishedAt = now
			s.releaseQuotaLocked(j)
			s.count("service.jobs_failed")
			if class == Permanent {
				b := s.breakerFor(spec.Workload())
				b.failure(now)
				if b.isOpen {
					s.count("service.breaker_trips")
					s.log.ErrorContext(jobCtx, "job failed permanently; breaker open",
						"attempt", attempt, "error", err.Error(), "workload", spec.Workload())
				} else {
					s.log.ErrorContext(jobCtx, "job failed permanently",
						"attempt", attempt, "error", err.Error())
				}
			} else {
				s.log.ErrorContext(jobCtx, "job failed; attempts exhausted",
					"attempts", j.Attempts, "error", err.Error())
			}
			s.dumpEvents(jobCtx, id)
		}
	}
	if persist {
		pstart := time.Now()
		if err := s.persistLocked(); err != nil {
			s.warn(jobCtx, err)
		}
		s.cfg.Spans.Record(settleCtx, "service", "persist", pstart, time.Now(),
			map[string]any{"at": "outcome"})
	}
	s.updateGauges()
	settle.End()
}

// dumpEvents writes the flight recorder's timeline for one failed job to
// <StateDir>/<id>.events.jsonl — the post-mortem a bounded ring exists
// for. Best-effort: a dump failure is itself only worth a warning.
func (s *Service) dumpEvents(ctx context.Context, id string) {
	if s.cfg.Events == nil {
		return
	}
	path := filepath.Join(s.cfg.StateDir, id+".events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		s.warn(ctx, fmt.Errorf("service: event dump: %w", err))
		return
	}
	n, err := s.cfg.Events.DumpJob(f, id)
	if cErr := f.Close(); err == nil {
		err = cErr
	}
	if err != nil {
		s.warn(ctx, fmt.Errorf("service: event dump: %w", err))
		return
	}
	s.log.InfoContext(ctx, "flight recorder dumped", "events", n, "path", path)
}

// requeue moves a retrying job back into the queue once its backoff
// elapses.
func (s *Service) requeue(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.timers, id)
	j, ok := s.jobs[id]
	if !ok || j.State != StateRetrying || s.draining {
		return
	}
	j.State = StateQueued
	j.queuedAt = s.now()
	s.pending = append(s.pending, id)
	ctx := olog.WithCorr(context.Background(), olog.Corr{
		TenantID: j.TenantID, RequestID: j.RequestID, JobID: id, Shard: -1, Trial: -1,
	})
	if !j.backoffAt.IsZero() {
		s.cfg.Spans.Record(ctx, "service", "backoff", j.backoffAt, j.queuedAt,
			map[string]any{"attempt": j.Attempts})
		j.backoffAt = time.Time{}
	}
	s.log.InfoContext(ctx, "backoff elapsed; requeued", "attempt", j.Attempts)
	if err := s.persistLocked(); err != nil {
		s.warn(ctx, err)
	}
	s.updateGauges()
	s.cond.Signal()
}

// backoff computes the wait before retry n (n = attempts so far):
// base·2^(n-1) with up to 25% jitter, capped.
func (s *Service) backoff(n int) time.Duration {
	d := s.cfg.BackoffBase
	for i := 1; i < n && d < s.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > s.cfg.BackoffCap {
		d = s.cfg.BackoffCap
	}
	if d > 0 {
		d += time.Duration(rand.Int63n(int64(d)/4 + 1))
	}
	return d
}

// releaseQuotaLocked returns a job's concurrent-job quota slot when it
// reaches a terminal state. Caller holds s.mu; the transition into the
// terminal state and this release happen under one critical section, so
// the slot is returned exactly once.
func (s *Service) releaseQuotaLocked(j *Job) {
	if j.TenantID != "" {
		s.cfg.Tenants.ReleaseJob(j.TenantID)
	}
}

// breakerFor returns (creating if needed) the workload's breaker. Caller
// holds s.mu.
func (s *Service) breakerFor(workload string) *breaker {
	b, ok := s.breakers[workload]
	if !ok {
		b = &breaker{threshold: s.cfg.BreakerThreshold, cooldown: s.cfg.BreakerCooldown}
		s.breakers[workload] = b
	}
	return b
}

// updateGauges refreshes the Progress gauges. Caller holds s.mu.
func (s *Service) updateGauges() {
	if s.cfg.Progress == nil {
		return
	}
	s.cfg.Progress.JobsQueued.Store(int64(len(s.pending)))
	s.cfg.Progress.JobsRunning.Store(int64(len(s.running)))
	open := 0
	for _, b := range s.breakers {
		if b.isOpen {
			open++
		}
	}
	s.cfg.Progress.BreakersOpen.Store(int64(open))
}

// count bumps a service counter when a registry is attached. Caller
// holds s.mu (obs counters are goroutine-safe; the lock is incidental).
func (s *Service) count(name string) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(name).Inc()
	}
}

// logf renders a legacy printf-style line through the structured logger
// at Info. With only cfg.Logf configured the olog.Logf adapter hands the
// rendered text straight back to it, so pre-structured callers see the
// exact lines they always did.
func (s *Service) logf(format string, args ...any) {
	s.log.Info(fmt.Sprintf(format, args...))
}

// warn reports an operational error (persist failure, event-dump
// failure) that the service survives.
func (s *Service) warn(ctx context.Context, err error) {
	s.log.WarnContext(ctx, "warning", "error", err.Error())
}
