package service

import (
	"cmp"
	"fmt"
	"time"

	"repro/internal/fault"
)

// State is a job's position in its lifecycle. Queued, Running, and
// Retrying jobs are "open": a daemon restart re-queues them and their
// campaigns resume from the checkpoint watermark.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateRetrying State = "retrying" // failed transiently; waiting out its backoff
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// open reports whether the state still owes the submitter a result.
func (s State) open() bool {
	switch s {
	case StateQueued, StateRunning, StateRetrying:
		return true
	}
	return false
}

// JobSpec is the submit payload: the campaign (fault.Spec, whose JSON
// keys it shares) and how this service runs it.
type JobSpec struct {
	fault.Spec
	// Workers bounds the campaign's trial pool; the result is identical
	// for every value.
	Workers int `json:"workers,omitempty"`
	// Lease is the number of consecutive trials one dispatch hands a
	// worker (0 = automatic); the result is identical for every value.
	Lease int `json:"lease,omitempty"`
}

// Validate rejects specs no executor could run: a campaign that does
// not resolve (fault.Spec.Resolve), or a lease that does not fit it.
func (s *JobSpec) Validate() error {
	if _, _, err := s.Resolve(); err != nil {
		return err
	}
	if s.Lease < 0 {
		return fmt.Errorf("service: negative lease size %d", s.Lease)
	}
	if s.Trials > 0 && s.Lease > s.Trials {
		// Rejected rather than silently clamped: a lease wider than the
		// campaign is a spec mistake, and quietly shrinking it would
		// mask typos like swapped lease/trials fields.
		return fmt.Errorf("service: lease size %d exceeds the campaign's %d trials", s.Lease, s.Trials)
	}
	return nil
}

// Workload is the circuit-breaker key: jobs for the same benchmark and
// scheme share one breaker.
func (s *JobSpec) Workload() string {
	return s.Bench + "/" + cmp.Or(s.Scheme, "turnpike")
}

// Job is one submitted campaign and its durable lifecycle record,
// appended whole to the job log, <StateDir>/jobs.jsonl, at each of its
// transitions.
type Job struct {
	ID    string  `json:"id"`
	Spec  JobSpec `json:"spec"`
	State State   `json:"state"`
	// RequestID is the correlation ID of the HTTP request that submitted
	// the job — the key that joins the access log, the job's lifecycle
	// records, and its campaign's per-trial lines. Persisted so log
	// correlation survives a daemon restart.
	RequestID string `json:"request_id,omitempty"`
	// TenantID is the submitting tenant: the outermost correlation link
	// and the identity whose concurrent-job quota slot this job holds
	// while open. Persisted so the slot is re-counted after a restart
	// and released when the restored job finishes.
	TenantID string `json:"tenant_id,omitempty"`
	// Attempts counts started runs of this job (retries included).
	Attempts int `json:"attempts,omitempty"`
	// Error is the most recent failure, kept across retries until a
	// success clears it.
	Error string `json:"error,omitempty"`
	// Result is set once the job is done.
	Result *fault.Result `json:"result,omitempty"`
	// Checkpoint is the campaign's resume file, relative to the state
	// directory.
	Checkpoint string `json:"checkpoint,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`

	// queuedAt is when the job last entered the queue (submission,
	// requeue after backoff, or restore). It feeds the queue-wait
	// histogram and is deliberately not persisted: a wait that spans a
	// daemon restart is a restart artifact, not queue pressure.
	queuedAt time.Time
	// backoffAt is when the job entered its current backoff wait; it
	// bounds the retroactive "backoff" span recorded at requeue time.
	// Not persisted for the same reason queuedAt isn't.
	backoffAt time.Time
}

// clone returns a copy safe to serve to HTTP handlers after the service
// lock is released. Result is shared but immutable once set.
func (j *Job) clone() *Job {
	c := *j
	return &c
}
