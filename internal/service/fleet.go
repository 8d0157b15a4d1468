package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/olog"
)

// The fleet coordinator: the state machine that turns one machine's
// campaign service into the head of a worker fleet. Campaigns still
// arrive as jobs through the bounded queue; the FleetExecutor opens each
// as a fault.Session and registers it here, and the coordinator leases
// contiguous trial ranges to remote campaignd processes running in
// worker mode. Robustness is the whole point:
//
//   - the session's records are the one account of the trials still
//     owed: every grant is the first run of pending trials that no
//     active lease and no local range covers, so a reclaimed lease's
//     trials are granted again and committed ones never are;
//   - workers register and heartbeat; a worker that misses
//     HeartbeatMisses beats is lost and its active leases are reclaimed;
//   - leases carry deadlines; an expired lease is reclaimed the same
//     way;
//   - a lease outstanding longer than StealAfter may be work-stolen: a
//     second worker gets a duplicate grant, first complete wins, and the
//     loser's late shard is cross-validated record-for-record against
//     what was committed — a mismatch quarantines the submitter, revokes
//     the range, and re-runs it;
//   - while zero remote workers are live the coordinator runs pending
//     ranges through the engine's own loop (fault.Session.Run); they are
//     not leases, so a fleet of one is just the single-process campaign.
//
// Every shard a worker sends flows through fault.Session.Commit, which
// re-derives each record's injection plan; both paths append each
// committed record to the job's checkpoint — so kill -9 of any worker
// (or of the coordinator; the job re-runs from its checkpoint next
// life) still merges to bytes identical to a single-node run.
//
// Lock order: Service.mu → Fleet.mu → the session's own lock, which
// Session.Pending takes. The Fleet never calls back into the Service. Its worker and lease tables live in memory only: the
// grant and expiry history is in the structured log and the flight
// recorder, and campaign progress is in the checkpoints.

// Fleet wiring errors the HTTP layer maps to status codes.
var (
	// ErrUnknownWorker rejects requests from worker IDs never registered
	// (or forgotten); the worker should re-register and carry on.
	ErrUnknownWorker = errors.New("service: unknown fleet worker")
	// ErrWorkerQuarantined permanently rejects a worker whose shard
	// results failed validation; the process should exit, not retry.
	ErrWorkerQuarantined = errors.New("service: fleet worker quarantined")
	// ErrUnknownLease rejects completions for lease IDs the coordinator
	// no longer tracks (typically: the job finished or was cancelled).
	// Harmless — the worker drops the shard and polls for new work.
	ErrUnknownLease = errors.New("service: unknown lease")
)

// WorkerState is a registered worker's standing with the coordinator.
type WorkerState string

const (
	// WorkerLive workers heartbeat on schedule and may hold leases.
	WorkerLive WorkerState = "live"
	// WorkerLost workers missed too many heartbeats; their leases were
	// reclaimed. A late heartbeat revives them (the leases stay
	// reclaimed).
	WorkerLost WorkerState = "lost"
	// WorkerQuarantined workers submitted shards that failed validation
	// or contradicted committed records; nothing they send is trusted
	// again.
	WorkerQuarantined WorkerState = "quarantined"
)

// WorkerInfo is one registered worker's status snapshot.
type WorkerInfo struct {
	ID           string      `json:"id"`
	Addr         string      `json:"addr,omitempty"`
	State        WorkerState `json:"state"`
	RegisteredAt time.Time   `json:"registered_at"`
	LastBeat     time.Time   `json:"last_beat"`
	// Trials counts trials this worker completed in accepted shards.
	Trials int `json:"trials"`
	// TrialsPerSec is Trials over the worker's accepting window — the
	// per-worker throughput gauge.
	TrialsPerSec float64 `json:"trials_per_sec"`
}

// LeaseState is a lease's position in its lifecycle.
type LeaseState string

const (
	// LeaseActive leases are outstanding: a worker owes the range.
	LeaseActive LeaseState = "active"
	// LeaseDone leases completed: their shard was accepted (first
	// complete wins).
	LeaseDone LeaseState = "done"
	// LeaseExpired leases were reclaimed — deadline passed, worker lost,
	// worker reported failure, or the shard failed validation. Their
	// trials still pending in the session are grantable again unless
	// another active lease covers them.
	LeaseExpired LeaseState = "expired"
	// LeaseSuperseded leases lost a work-stealing race: a duplicate
	// grant's shard was accepted first. A late shard from a superseded
	// lease is still cross-validated, then discarded.
	LeaseSuperseded LeaseState = "superseded"
)

// Lease is one grant of a contiguous trial range to one worker — the
// unit listed on /fleet. Leases are not persisted: a restarted
// coordinator starts with an empty table.
type Lease struct {
	ID     string     `json:"id"`
	JobID  string     `json:"job_id"`
	Worker string     `json:"worker"`
	Lo     int        `json:"lo"`
	Hi     int        `json:"hi"`
	State  LeaseState `json:"state"`
	// Stolen marks a duplicate grant issued to outrun a straggler.
	Stolen    bool      `json:"stolen,omitempty"`
	GrantedAt time.Time `json:"granted_at"`
	Deadline  time.Time `json:"deadline"`
}

// LeaseGrant is the wire payload of one granted lease: everything a
// worker needs to execute the range and prove the shard came from the
// same campaign (the golden fingerprint).
type LeaseGrant struct {
	LeaseID      string  `json:"lease_id"`
	JobID        string  `json:"job_id"`
	Spec         JobSpec `json:"spec"`
	Lo           int     `json:"lo"`
	Hi           int     `json:"hi"`
	GoldenCycles uint64  `json:"golden_cycles"`
	GoldenInsts  uint64  `json:"golden_insts"`
	TTLMillis    int64   `json:"ttl_ms"`
}

// FleetConfig parameterizes NewFleet. Zero values get production
// defaults.
type FleetConfig struct {
	// HeartbeatInterval is the cadence workers are told to beat at.
	// Default 2s.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many missed beats mark a worker lost and
	// reclaim its leases. Default 3.
	HeartbeatMisses int
	// LeaseTTL is each grant's deadline; an unreturned lease is
	// reclaimed after it. Default 30s.
	LeaseTTL time.Duration
	// StealAfter is how long a lease may be outstanding before a second
	// worker gets a duplicate grant (first complete wins). Default
	// LeaseTTL/3.
	StealAfter time.Duration
	// PollInterval is the lease-poll cadence workers are told to use
	// while the coordinator has no work for them. Default 250ms.
	PollInterval time.Duration
	// Metrics, when set, receives the fleet counters, each at zero from
	// NewFleet on, and the live.fleet_workers, live.fleet_workers_lost
	// and live.leases_active gauges. Without it the fleet counts in a
	// registry of its own.
	Metrics *obs.Registry
	// Logger, when set, receives worker/lease lifecycle records.
	Logger *slog.Logger
	// Now is the test clock hook. Default time.Now.
	Now func() time.Time
}

func (c *FleetConfig) fillDefaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 2 * time.Second
	}
	if c.HeartbeatMisses <= 0 {
		c.HeartbeatMisses = 3
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.StealAfter <= 0 {
		c.StealAfter = c.LeaseTTL / 3
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// fleetJob is one campaign the coordinator is driving: its session,
// whose records say which trials are still owed, the lease size grants
// are cut to, the range Run is executing in this process, and the
// wakeup channel its Run loop blocks on.
type fleetJob struct {
	id    string
	spec  JobSpec
	sess  *fault.Session
	size  int              // lease size, fixed when the job joins
	local fault.TrialRange // the range Run executes in process; empty when none
	kick  chan struct{}    // buffered-1 wakeup for the Run loop
}

func (fj *fleetJob) wake() {
	select {
	case fj.kick <- struct{}{}:
	default:
	}
}

// Fleet is the coordinator's worker/lease state machine. All methods are
// safe for concurrent use.
type Fleet struct {
	cfg FleetConfig
	log *slog.Logger
	// reg is cfg.Metrics, else the fleet's own registry; the gauges count
	// live and lost workers and active leases.
	reg                                  *obs.Registry
	liveWorkers, lostWorkers, liveLeases *obs.Gauge

	mu         sync.Mutex
	workers    map[string]*fleetWorker
	leases     map[string]*Lease
	leaseOrder []string // grant order, for listing
	jobs       []*fleetJob
	nextWorker int
	nextLease  int
}

type fleetWorker struct {
	WorkerInfo
	// acceptStart anchors the trials/sec window: the first accepted
	// shard's arrival.
	acceptStart time.Time
}

// NewFleet builds an empty coordinator.
func NewFleet(cfg FleetConfig) *Fleet {
	cfg.fillDefaults()
	f := &Fleet{
		cfg:     cfg,
		workers: map[string]*fleetWorker{},
		leases:  map[string]*Lease{},
	}
	if cfg.Logger != nil {
		f.log = cfg.Logger
	} else {
		f.log = olog.Nop()
	}
	f.reg = cfg.Metrics
	if f.reg == nil {
		f.reg = obs.NewRegistry()
	}
	f.liveWorkers = f.reg.Gauge("live.fleet_workers")
	f.lostWorkers = f.reg.Gauge("live.fleet_workers_lost")
	f.liveLeases = f.reg.Gauge("live.leases_active")
	for _, name := range fleetCounters {
		f.reg.Counter(name)
	}
	return f
}

// HeartbeatInterval reports the cadence workers are told to beat at.
func (f *Fleet) HeartbeatInterval() time.Duration { return f.cfg.HeartbeatInterval }

// PollInterval reports the lease-poll cadence workers are told to use.
func (f *Fleet) PollInterval() time.Duration { return f.cfg.PollInterval }

// Register admits a worker (or refreshes a re-registration after a
// coordinator restart — worker IDs are stable across re-registers).
// Quarantined IDs stay quarantined: a broken executor does not launder
// itself by reconnecting.
func (f *Fleet) Register(id, addr string) (WorkerInfo, error) {
	f.mu.Lock()
	now := f.cfg.Now()
	if id == "" {
		f.nextWorker++
		id = fmt.Sprintf("w-%06d", f.nextWorker)
	}
	w, ok := f.workers[id]
	if ok && w.State == WorkerQuarantined {
		info := w.WorkerInfo
		f.mu.Unlock()
		return info, fmt.Errorf("%w: %s", ErrWorkerQuarantined, id)
	}
	if !ok {
		w = &fleetWorker{WorkerInfo: WorkerInfo{ID: id, RegisteredAt: now}}
		f.workers[id] = w
	}
	w.Addr = addr
	w.State = WorkerLive
	w.LastBeat = now
	f.updateGaugesLocked()
	info := w.WorkerInfo
	f.wakeAllLocked()
	f.mu.Unlock()
	f.log.Info("fleet worker registered", "worker", id, "addr", addr)
	return info, nil
}

// Heartbeat records one worker beat. A lost worker is revived (its
// reclaimed leases stay reclaimed — the heartbeat arrived after the
// reclamation, so reviving must not re-grant anything).
func (f *Fleet) Heartbeat(id string) error {
	f.mu.Lock()
	_, err := f.touchLocked(id)
	f.updateGaugesLocked()
	f.mu.Unlock()
	return err
}

// touchLocked validates the worker and refreshes its liveness; caller
// holds f.mu.
func (f *Fleet) touchLocked(id string) (*fleetWorker, error) {
	w, ok := f.workers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownWorker, id)
	}
	if w.State == WorkerQuarantined {
		return nil, fmt.Errorf("%w: %s", ErrWorkerQuarantined, id)
	}
	if w.State == WorkerLost {
		w.State = WorkerLive
		f.log.Info("fleet worker revived by late contact", "worker", id)
	}
	w.LastBeat = f.cfg.Now()
	return w, nil
}

// Lease grants the worker one trial range: the first grantable range
// in job order (nextRangeLocked), else a work-stealing duplicate of the
// oldest straggling lease. nil with nil error means no work right now —
// poll again.
func (f *Fleet) Lease(workerID string) (*LeaseGrant, error) {
	f.mu.Lock()
	w, err := f.touchLocked(workerID)
	if err != nil {
		f.mu.Unlock()
		return nil, err
	}
	now := f.cfg.Now()
	f.loseSilentLocked(now)
	var grant *LeaseGrant
	var stole *Lease
	for _, fj := range f.jobs {
		if r, ok := f.nextRangeLocked(fj); ok {
			grant = f.grantLocked(fj, w, r, false, now)
			break
		}
	}
	if grant == nil {
		if victim := f.stealCandidateLocked(workerID, now); victim != nil {
			fj := f.jobLocked(victim.JobID)
			if fj != nil {
				grant = f.grantLocked(fj, w, fault.TrialRange{Lo: victim.Lo, Hi: victim.Hi}, true, now)
				stole = victim
			}
		}
	}
	f.updateGaugesLocked()
	f.mu.Unlock()
	if grant != nil {
		if stole != nil {
			f.count("fleet.leases_stolen")
			f.log.Info("lease stolen: straggler duplicated",
				"lease", grant.LeaseID, "from_lease", stole.ID, "from_worker", stole.Worker,
				"worker", workerID, "lo", grant.Lo, "hi", grant.Hi)
		} else {
			f.log.Debug("lease granted",
				"lease", grant.LeaseID, "worker", workerID, "job", grant.JobID,
				"lo", grant.Lo, "hi", grant.Hi)
		}
		f.count("fleet.leases_granted")
	}
	return grant, nil
}

// nextRangeLocked returns the job's first run of at most fj.size
// pending trials that no active lease and not the local range covers,
// cut from the session's records. A run never spans two pending ranges,
// so every grant of a resumed campaign is fully pending. Caller holds
// f.mu.
func (f *Fleet) nextRangeLocked(fj *fleetJob) (fault.TrialRange, bool) {
	busy := []fault.TrialRange{fj.local}
	for _, id := range f.leaseOrder {
		if l := f.leases[id]; l.JobID == fj.id && l.State == LeaseActive {
			busy = append(busy, fault.TrialRange{Lo: l.Lo, Hi: l.Hi})
		}
	}
	covered := func(t int) bool {
		return slices.ContainsFunc(busy, func(r fault.TrialRange) bool { return r.Lo <= t && t < r.Hi })
	}
	for _, r := range fj.sess.Pending() {
		for lo := r.Lo; lo < r.Hi; lo++ {
			if covered(lo) {
				continue
			}
			hi := lo + 1
			for hi < min(r.Hi, lo+fj.size) && !covered(hi) {
				hi++
			}
			return fault.TrialRange{Lo: lo, Hi: hi}, true
		}
	}
	return fault.TrialRange{}, false
}

// grantLocked creates the lease record and wire grant; caller holds
// f.mu.
func (f *Fleet) grantLocked(fj *fleetJob, w *fleetWorker, r fault.TrialRange, stolen bool, now time.Time) *LeaseGrant {
	f.nextLease++
	l := &Lease{
		ID:        fmt.Sprintf("lease-%06d", f.nextLease),
		JobID:     fj.id,
		Worker:    w.ID,
		Lo:        r.Lo,
		Hi:        r.Hi,
		State:     LeaseActive,
		Stolen:    stolen,
		GrantedAt: now,
		Deadline:  now.Add(f.cfg.LeaseTTL),
	}
	f.leases[l.ID] = l
	f.leaseOrder = append(f.leaseOrder, l.ID)
	golden := fj.sess.GoldenStats()
	return &LeaseGrant{
		LeaseID:      l.ID,
		JobID:        fj.id,
		Spec:         fj.spec,
		Lo:           r.Lo,
		Hi:           r.Hi,
		GoldenCycles: golden.Cycles,
		GoldenInsts:  golden.Insts,
		TTLMillis:    f.cfg.LeaseTTL.Milliseconds(),
	}
}

// stealCandidateLocked picks the oldest active lease outstanding longer
// than StealAfter, held by a different worker, not already duplicated.
// Caller holds f.mu.
func (f *Fleet) stealCandidateLocked(workerID string, now time.Time) *Lease {
	var victim *Lease
	for _, id := range f.leaseOrder {
		l := f.leases[id]
		if l.State != LeaseActive || l.Worker == workerID {
			continue
		}
		if now.Sub(l.GrantedAt) < f.cfg.StealAfter {
			continue
		}
		if f.siblingLocked(l) != nil {
			continue
		}
		if victim == nil || l.GrantedAt.Before(victim.GrantedAt) {
			victim = l
		}
	}
	return victim
}

// siblingLocked returns another active lease that covers the same
// range of the same job as l, or nil. Caller holds f.mu.
func (f *Fleet) siblingLocked(l *Lease) *Lease {
	for _, id := range f.leaseOrder {
		o := f.leases[id]
		if o != l && o.State == LeaseActive && o.JobID == l.JobID && o.Lo == l.Lo && o.Hi == l.Hi {
			return o
		}
	}
	return nil
}

func (f *Fleet) jobLocked(id string) *fleetJob {
	for _, fj := range f.jobs {
		if fj.id == id {
			return fj
		}
	}
	return nil
}

// Complete accepts one worker's shard for one lease. First complete
// wins: a duplicate whose records match the committed ones is
// acknowledged and discarded; a duplicate that contradicts them
// quarantines the submitter and revokes the range, whose trials are then
// pending again. fresh is how many trials the shard newly committed.
func (f *Fleet) Complete(workerID, leaseID string, sh *fault.ShardResult) (fresh int, err error) {
	f.mu.Lock()
	w, err := f.touchLocked(workerID)
	if err != nil {
		f.mu.Unlock()
		return 0, err
	}
	l, ok := f.leases[leaseID]
	if !ok || l.Worker != workerID {
		f.mu.Unlock()
		return 0, fmt.Errorf("%w: %s", ErrUnknownLease, leaseID)
	}
	fj := f.jobLocked(l.JobID)
	if fj == nil {
		// The job finished or was cancelled while the shard was in
		// flight; nothing to merge into.
		l.State = LeaseExpired
		f.mu.Unlock()
		return 0, fmt.Errorf("%w: %s (job %s gone)", ErrUnknownLease, leaseID, l.JobID)
	}
	if sh == nil || sh.Lo != l.Lo || sh.Hi != l.Hi {
		f.quarantineLocked(w, l, fmt.Errorf("shard range does not match lease %s", leaseID))
		f.updateGaugesLocked()
		f.mu.Unlock()
		return 0, fmt.Errorf("%w: shard range does not match lease %s", fault.ErrShardInvalid, leaseID)
	}
	sess := fj.sess
	f.mu.Unlock()

	// Commit outside the fleet lock: plan re-derivation and checkpoint
	// writes should not stall heartbeats. Session.Commit is itself
	// serialized and deterministic under duplicate races.
	fresh, commitErr := sess.Commit(sh)

	f.mu.Lock()
	switch {
	case errors.Is(commitErr, fault.ErrShardMismatch):
		// Two executions of a deterministic campaign disagreed: trust
		// neither. Quarantine the later submitter, revoke the committed
		// half, and re-run the range.
		f.quarantineLocked(w, l, commitErr)
		f.updateGaugesLocked()
		f.mu.Unlock()
		if err := sess.Revoke(l.Lo, l.Hi); err != nil {
			f.log.Warn("revoke after shard mismatch failed", "lease", leaseID, "error", err.Error())
		}
		fj.wake()
		return 0, commitErr
	case commitErr != nil:
		// Validation failure: broken checksum, foreign golden
		// fingerprint, fabricated records. The range was not touched.
		f.quarantineLocked(w, l, commitErr)
		f.updateGaugesLocked()
		f.mu.Unlock()
		return 0, commitErr
	}
	l.State = LeaseDone
	w.Trials += fresh
	if fresh > 0 {
		if w.acceptStart.IsZero() {
			w.acceptStart = f.cfg.Now()
		}
		f.count("fleet.shards_accepted")
	} else {
		f.count("fleet.shards_duplicate")
	}
	// The range is settled: supersede any sibling grants still racing.
	for o := f.siblingLocked(l); o != nil; o = f.siblingLocked(l) {
		o.State = LeaseSuperseded
	}
	fj.wake()
	f.updateGaugesLocked()
	f.mu.Unlock()
	f.log.Debug("shard accepted", "lease", leaseID, "worker", workerID,
		"lo", l.Lo, "hi", l.Hi, "fresh", fresh)
	return fresh, nil
}

// Fail records a worker's failure report for a lease: the lease is
// reclaimed; a permanent failure quarantines the worker (the
// coordinator compiled the same campaign successfully, so a worker that
// cannot is not to be trusted with shards).
func (f *Fleet) Fail(workerID, leaseID string, class Class, msg string) error {
	f.mu.Lock()
	w, err := f.touchLocked(workerID)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	l, ok := f.leases[leaseID]
	if !ok || l.Worker != workerID {
		f.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownLease, leaseID)
	}
	if class == Permanent {
		f.quarantineLocked(w, l, fmt.Errorf("worker-reported permanent failure: %s", msg))
	} else if l.State == LeaseActive {
		f.reclaimLocked(l)
		f.log.Warn("lease failed transiently; range reclaimed",
			"lease", leaseID, "worker", workerID, "error", msg)
	}
	f.updateGaugesLocked()
	f.mu.Unlock()
	return nil
}

// quarantineLocked marks the worker untrusted and reclaims every active
// lease it holds, cause included. Caller holds f.mu.
func (f *Fleet) quarantineLocked(w *fleetWorker, cause *Lease, why error) {
	if w.State != WorkerQuarantined {
		w.State = WorkerQuarantined
		f.count("fleet.workers_quarantined")
		f.log.Error("fleet worker quarantined",
			"worker", w.ID, "lease", cause.ID, "error", why.Error())
	}
	for _, id := range f.leaseOrder {
		if l := f.leases[id]; l.Worker == w.ID && l.State == LeaseActive {
			f.reclaimLocked(l)
		}
	}
	if cause.State == LeaseActive {
		f.reclaimLocked(cause)
	}
}

// reclaimLocked expires an active lease and wakes its job: the trials
// it covered that are still pending in the session are grantable again.
// Caller holds f.mu.
func (f *Fleet) reclaimLocked(l *Lease) {
	l.State = LeaseExpired
	if fj := f.jobLocked(l.JobID); fj != nil {
		fj.wake()
	}
}

// Tick is the janitor pass: workers that missed their heartbeats are
// lost and their leases reclaimed; leases past their deadlines are
// reclaimed. Run loops drive it on a timer; tests with a fake clock call
// it directly.
func (f *Fleet) Tick() {
	f.mu.Lock()
	now := f.cfg.Now()
	f.loseSilentLocked(now)
	for _, id := range f.leaseOrder {
		l := f.leases[id]
		if l.State == LeaseActive && now.After(l.Deadline) {
			f.log.Warn("lease expired; range reclaimed",
				"lease", l.ID, "worker", l.Worker, "lo", l.Lo, "hi", l.Hi)
			f.expireLocked(l)
		}
	}
	f.wakeAllLocked()
	f.updateGaugesLocked()
	f.mu.Unlock()
}

// loseSilentLocked declares lost every live worker whose last heartbeat
// is older than the loss window (HeartbeatMisses beats) at now, and
// reclaims its leases. Every read of a worker's state (Snapshot, and so
// /fleet and /readyz; Lease) calls it first, so a worker's state follows
// the age of its last heartbeat whether or not a campaign's Run loop
// is ticking. Caller holds f.mu.
func (f *Fleet) loseSilentLocked(now time.Time) {
	lostAfter := time.Duration(f.cfg.HeartbeatMisses) * f.cfg.HeartbeatInterval
	lost := false
	for _, w := range f.workers {
		if w.State == WorkerLive && now.Sub(w.LastBeat) > lostAfter {
			w.State, lost = WorkerLost, true
			f.log.Warn("fleet worker lost: missed heartbeats; reclaiming its leases",
				"worker", w.ID, "last_beat", w.LastBeat)
			for _, id := range f.leaseOrder {
				l := f.leases[id]
				if l.Worker == w.ID && l.State == LeaseActive {
					f.expireLocked(l)
				}
			}
		}
	}
	if lost {
		f.updateGaugesLocked()
	}
}

// expireLocked reclaims one active lease whose worker or deadline is
// gone, and counts it. Caller holds f.mu.
func (f *Fleet) expireLocked(l *Lease) {
	f.count("fleet.leases_expired")
	f.reclaimLocked(l)
}

func (f *Fleet) wakeAllLocked() {
	for _, fj := range f.jobs {
		fj.wake()
	}
}

// Run drives one campaign through the fleet until the session owes no
// trial (every trial is committed or the failure budget tripped) or ctx
// is cancelled — then merges and returns the Result through the
// session's Finish, exactly as fault.Prepared.Run would have. While
// zero remote workers are live, the coordinator runs pending ranges
// through the engine's own loop (runLocal); they are not leases. A
// workerless fleet is therefore the single-process campaign, and a
// mid-campaign worker registration picks up the remaining ranges.
func (f *Fleet) Run(ctx context.Context, spec JobSpec, sess *fault.Session) (*fault.Result, error) {
	jobID := olog.FromContext(ctx).JobID
	fj := &fleetJob{id: jobID, spec: spec, sess: sess, kick: make(chan struct{}, 1)}
	f.log.InfoContext(ctx, "campaign start", "trials", sess.Trials(), "resumed", sess.Completed())
	f.addJob(fj)
	defer f.dropJob(fj)

	interval := f.cfg.HeartbeatInterval / 2
	if interval > time.Second {
		interval = time.Second
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	for ctx.Err() == nil && len(sess.Pending()) > 0 {
		if f.runLocal(ctx, fj) {
			continue
		}
		select {
		case <-ctx.Done():
		case <-fj.kick:
		case <-ticker.C:
			f.Tick()
		}
	}
	return sess.Finish(ctx)
}

// addJob registers the campaign and fixes its lease size by the
// engine's policy (fault.LeaseSize), counting the live remote workers
// as executors.
func (f *Fleet) addJob(fj *fleetJob) {
	f.mu.Lock()
	fj.size = fault.LeaseSize(fj.spec.Lease, fj.sess.Trials(), f.liveWorkersLocked())
	f.jobs = append(f.jobs, fj)
	f.updateGaugesLocked()
	f.mu.Unlock()
	f.log.Info("campaign joined the fleet", "job", fj.id, "lease_size", fj.size)
}

func (f *Fleet) liveWorkersLocked() int {
	n := 0
	for _, w := range f.workers {
		if w.State == WorkerLive {
			n++
		}
	}
	return n
}

// dropJob removes a finished campaign: its outstanding leases are
// closed (late shards get ErrUnknownLease and are dropped by the
// worker).
func (f *Fleet) dropJob(fj *fleetJob) {
	f.mu.Lock()
	for i, o := range f.jobs {
		if o == fj {
			f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
			break
		}
	}
	for _, id := range f.leaseOrder {
		l := f.leases[id]
		if l.JobID == fj.id && l.State == LeaseActive {
			l.State = LeaseExpired
		}
	}
	f.pruneLeasesLocked()
	f.updateGaugesLocked()
	f.mu.Unlock()
}

// pruneLeasesLocked bounds the lease table: settled leases of jobs no
// longer registered are dropped oldest-first beyond a history cap.
// Caller holds f.mu.
func (f *Fleet) pruneLeasesLocked() {
	const keep = 512
	if len(f.leaseOrder) <= keep {
		return
	}
	live := map[string]bool{}
	for _, fj := range f.jobs {
		live[fj.id] = true
	}
	kept := f.leaseOrder[:0]
	drop := len(f.leaseOrder) - keep
	for _, id := range f.leaseOrder {
		l := f.leases[id]
		if drop > 0 && l.State != LeaseActive && !live[l.JobID] {
			delete(f.leases, id)
			drop--
			continue
		}
		kept = append(kept, id)
	}
	f.leaseOrder = kept
}

// runLocal runs the job's next grantable range in this process through
// the engine's own loop (fault.Session.Run, a trial at a time over the
// session's runners) and reports whether it ran one. It runs nothing
// while a remote worker is live (a live fleet owns the work; the
// coordinator should not race it). The range is not a lease: it enters
// no lease table, and fj.local keeps it from being granted while it
// runs. Trials the run leaves unfinished (an exhausted failure budget, a
// cancelled ctx) stay pending in the session, so the next grant starts
// at the first of them.
func (f *Fleet) runLocal(ctx context.Context, fj *fleetJob) bool {
	f.mu.Lock()
	r, ok := fault.TrialRange{}, false
	if f.liveWorkersLocked() == 0 {
		r, ok = f.nextRangeLocked(fj)
	}
	fj.local = r
	f.mu.Unlock()
	if !ok {
		return false
	}
	err := fj.sess.Run(ctx, fault.SplitLeases([]fault.TrialRange{r}, 1))
	f.mu.Lock()
	fj.local = fault.TrialRange{}
	f.mu.Unlock()
	if err != nil {
		f.log.Warn("local range failed", "job", fj.id, "lo", r.Lo, "hi", r.Hi, "error", err.Error())
	}
	return true
}

// Status is the /fleet page payload and the /readyz fleet-health input.
type Status struct {
	WorkersLive        int          `json:"workers_live"`
	WorkersLost        int          `json:"workers_lost"`
	WorkersQuarantined int          `json:"workers_quarantined"`
	LeasesActive       int          `json:"leases_active"`
	Workers            []WorkerInfo `json:"workers"`
	Leases             []Lease      `json:"leases"`
}

// Snapshot reports the fleet's current workers and lease table.
func (f *Fleet) Snapshot() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	now := f.cfg.Now()
	f.loseSilentLocked(now)
	st := Status{Workers: []WorkerInfo{}, Leases: []Lease{}}
	for _, w := range f.workers {
		info := w.WorkerInfo
		if w.Trials > 0 && !w.acceptStart.IsZero() {
			if window := now.Sub(w.acceptStart).Seconds(); window > 0 {
				info.TrialsPerSec = float64(w.Trials) / window
			}
		}
		st.Workers = append(st.Workers, info)
		switch w.State {
		case WorkerLive:
			st.WorkersLive++
		case WorkerLost:
			st.WorkersLost++
		case WorkerQuarantined:
			st.WorkersQuarantined++
		}
	}
	slices.SortFunc(st.Workers, func(a, b WorkerInfo) int { return cmp.Compare(a.ID, b.ID) })
	for _, id := range f.leaseOrder {
		l := f.leases[id]
		st.Leases = append(st.Leases, *l)
		if l.State == LeaseActive {
			st.LeasesActive++
		}
	}
	return st
}

// updateGaugesLocked refreshes the live fleet gauges. Caller holds f.mu.
func (f *Fleet) updateGaugesLocked() {
	live, lost := 0, 0
	for _, w := range f.workers {
		switch w.State {
		case WorkerLive:
			live++
		case WorkerLost:
			lost++
		}
	}
	active := 0
	for _, id := range f.leaseOrder {
		if f.leases[id].State == LeaseActive {
			active++
		}
	}
	f.liveWorkers.Set(int64(live))
	f.lostWorkers.Set(int64(lost))
	f.liveLeases.Set(int64(active))
}

// fleetCounters are the counters NewFleet registers, so /metrics lists
// each at zero before its first event.
var fleetCounters = []string{
	"fleet.leases_granted", "fleet.leases_stolen", "fleet.leases_expired",
	"fleet.shards_accepted", "fleet.shards_duplicate", "fleet.workers_quarantined",
}

func (f *Fleet) count(name string) { f.reg.Counter(name).Inc() }
