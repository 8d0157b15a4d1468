package fault

// The distributed half of the campaign engine. A coordinator Opens a
// Prepared campaign as a Session, hands out TrialRanges as leases, and
// Commits the ShardResults that remote workers send back over any
// transport; the trials it keeps, it runs on its own runners through
// Session.Run. Because every trial's injection plan is a pure function
// of (Seed, trial) and the simulator is deterministic, a shard executed
// anywhere merges byte-identically with shards executed everywhere
// else; the Session enforces that by re-deriving each committed
// record's plan and cross-checking duplicate completions
// record-for-record.

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log/slog"
	"reflect"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/pipeline"
)

// TrialRange is the lease unit of a distributed campaign: the contiguous
// trials [Lo, Hi).
type TrialRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of trials in the range.
func (r TrialRange) Len() int { return r.Hi - r.Lo }

func (r TrialRange) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// LeaseSize is the campaign lease policy shared by Prepared.Run and the
// fleet coordinator: an explicit lease wins; otherwise trials split into
// a few leases per executor, trials/(executors·4), clamped to [1, 64] —
// enough leases that the tail stays balanced, few enough trials per
// lease that a lost lease repeats little work and budget cancellation
// stays responsive.
func LeaseSize(explicit, trials, executors int) int {
	if explicit > 0 {
		return explicit
	}
	return min(max(trials/(max(executors, 1)*4), 1), 64)
}

// SplitLeases splits pending ranges into leases of at most size trials,
// in trial order. A lease never spans two ranges, so every lease of a
// resumed campaign is fully pending.
func SplitLeases(pending []TrialRange, size int) []TrialRange {
	n := 0
	for _, r := range pending {
		n += (r.Len() + size - 1) / size
	}
	out := make([]TrialRange, 0, n)
	for _, r := range pending {
		for lo := r.Lo; lo < r.Hi; lo += size {
			out = append(out, TrialRange{Lo: lo, Hi: min(lo+size, r.Hi)})
		}
	}
	return out
}

// ShardResult is the serialized outcome of one leased trial range — the
// unit a remote worker posts back to its coordinator. GoldenCycles and
// GoldenInsts fingerprint the executing process's warm golden run: a
// worker whose golden run disagrees with the coordinator's compiled a
// different program or simulator configuration, and its records must not
// be merged. Checksum is FNV-1a over the records' canonical JSON so a
// duplicate completion can be cross-validated cheaply before the
// record-level comparison.
type ShardResult struct {
	Lo           int           `json:"lo"`
	Hi           int           `json:"hi"`
	GoldenCycles uint64        `json:"golden_cycles"`
	GoldenInsts  uint64        `json:"golden_insts"`
	Records      []TrialRecord `json:"records"`
	Checksum     uint64        `json:"checksum"`
}

// shardChecksum hashes the records' canonical JSON with FNV-1a.
func shardChecksum(records []TrialRecord) uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for i := range records {
		enc.Encode(&records[i]) //nolint:errcheck — hash writes cannot fail
	}
	return h.Sum64()
}

// Seal computes and stores the checksum. Call after Records is final.
func (s *ShardResult) Seal() { s.Checksum = shardChecksum(s.Records) }

// Verify checks the shard's internal consistency: a well-formed range,
// one record per trial in order, and a checksum matching the records.
// It says nothing about which campaign the shard belongs to — Commit
// checks that against the session's plan and golden fingerprint.
func (s *ShardResult) Verify() error {
	if s.Lo < 0 || s.Hi <= s.Lo {
		return fmt.Errorf("%w: bad range [%d,%d)", ErrShardInvalid, s.Lo, s.Hi)
	}
	if len(s.Records) != s.Hi-s.Lo {
		return fmt.Errorf("%w: range [%d,%d) carries %d records", ErrShardInvalid, s.Lo, s.Hi, len(s.Records))
	}
	for i := range s.Records {
		if s.Records[i].Trial != s.Lo+i {
			return fmt.Errorf("%w: record %d is trial %d, want %d", ErrShardInvalid, i, s.Records[i].Trial, s.Lo+i)
		}
	}
	if got := shardChecksum(s.Records); got != s.Checksum {
		return fmt.Errorf("%w: checksum %x does not match records (%x)", ErrShardInvalid, s.Checksum, got)
	}
	return nil
}

// RunRange executes trials [lo, hi) on the prepared campaign's local
// runners and returns the sealed shard — the worker side of a
// distributed campaign. The range is fanned over the prepared
// simulators a trial at a time and each record lands at its trial
// index, so the shard is byte-identical for any runner count. A cancelled ctx abandons the
// shard and returns the context error: partial shards are never
// returned — the lease is simply re-run.
func (p *Prepared) RunRange(ctx context.Context, lo, hi int) (*ShardResult, error) {
	if lo < 0 || hi > p.e.cfg.Trials || lo >= hi {
		return nil, fmt.Errorf("%w: shard range [%d,%d) outside campaign of %d trials",
			ErrInvalidConfig, lo, hi, p.e.cfg.Trials)
	}
	sh := &ShardResult{
		Lo: lo, Hi: hi,
		GoldenCycles: p.goldenStats.Cycles,
		GoldenInsts:  p.goldenStats.Insts,
		Records:      make([]TrialRecord, hi-lo),
	}
	if err := p.fanOut(ctx, SplitLeases([]TrialRange{{Lo: lo, Hi: hi}}, 1), sh.Records, lo, nil); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("fault: shard [%d,%d) interrupted: %w", lo, hi, err)
	}
	sh.Seal()
	return sh, nil
}

// Session is a Prepared campaign opened for scheduling. It owns the
// campaign's record table, its checkpoint file, failure budget, and
// merge. Run executes trials on the campaign's own runners,
// as Prepared.Run does for a whole campaign; a distributed coordinator
// also leases Pending ranges to remote workers and merges their shards
// back through Commit. Finish merges the records in trial order, so the
// Result is byte-identical to a single-process Prepared.Run of the same
// Config — regardless of which worker executed which range, how often
// leases were re-granted, or how many duplicate completions arrived.
//
// Session methods are safe for concurrent use.
type Session struct {
	p *Prepared

	mu       sync.Mutex
	records  []*TrialRecord
	failures int
	budget   int
	// ckpt is the checkpoint's log, nil without one. ckptErr is the
	// first failed write, after which nothing more is appended.
	ckpt     *obs.Log
	ckptErr  error
	finished bool
}

// Open restores the campaign's checkpoint (if configured), rewrites it
// with the restored records and keeps it open for appending, and
// returns the session ready for scheduling. Without a file to restore
// nothing is written yet: the first commit creates the file holding the
// header and its records. A corrupt checkpoint carries no usable
// progress: it is discarded with a warning, the campaign restarts from
// trial zero, and the rewrite atomically overwrites it. A checkpoint
// from a different campaign, or a rewrite that fails, is an error. A
// campaign is opened once: Run opens its own session, so Open and Run
// are mutually exclusive.
func (p *Prepared) Open(ctx context.Context) (*Session, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.runners == nil {
		return nil, errHandedOn
	}
	if p.opened {
		return nil, fmt.Errorf("fault: campaign already running")
	}
	p.opened = true
	e := p.e
	budget := e.cfg.FailureBudget
	if budget == 0 {
		budget = 1 // historical fail-fast default
	}
	records := make([]*TrialRecord, e.cfg.Trials)
	s := &Session{p: p, records: records, budget: budget}
	if e.cfg.Checkpoint != "" {
		// Restore covers reading the file, re-deriving every completed
		// trial's injection plan for validation, and the rewrite. A
		// fresh campaign only queues its header: the first commit's
		// append creates the file with it.
		restoreStart := time.Now()
		err := e.restore(records, p.goldenStats)
		if errors.Is(err, ErrCheckpointCorrupt) {
			if log := e.cfg.Logger; log != nil {
				log.Warn(fmt.Sprintf("%v — restarting the campaign from trial 0", err))
			}
			clear(records)
			err = nil
		}
		switch {
		case errors.Is(err, fs.ErrNotExist):
			s.ckpt = e.log(records, p.goldenStats)
			err = s.ckpt.Encode(e.header(p.goldenStats))
		case err == nil:
			err = s.rewriteLocked()
		}
		span.RecordCtx(ctx, "fault", "checkpoint_restore", restoreStart, time.Now(), nil)
		if err != nil {
			return nil, err
		}
	}
	for _, rec := range records {
		if rec != nil && (rec.Outcome == SDC || rec.Outcome == Crash) {
			s.failures++
		}
	}
	return s, nil
}

// Trials returns the campaign's total trial count.
func (s *Session) Trials() int { return len(s.records) }

// GoldenStats returns the warm golden run's statistics — the fingerprint
// leases carry so workers can prove they compiled the same campaign.
func (s *Session) GoldenStats() pipeline.Stats { return s.p.goldenStats }

// RunRange executes [lo, hi) on the session's own prepared runners and
// returns the sealed shard without committing it: the worker-shaped
// path that tests and perfbench measure.
func (s *Session) RunRange(ctx context.Context, lo, hi int) (*ShardResult, error) {
	return s.p.RunRange(ctx, lo, hi)
}

// Run executes leases on the session's own prepared runners and puts
// each record into the session as its trial completes: the one
// in-process execution path, behind Prepared.Run and a workerless fleet
// coordinator. A record this process executed is trusted, so it skips
// Seal, Verify and plan re-derivation (the runners are the campaign's
// own engine, so re-deriving would compare planWith with itself); add
// still compares it with any record already committed for its trial.
// The first failed checkpoint write, the exhausted failure budget or a
// mismatch cancels the outstanding trials, which stay pending, as do
// those a cancelled ctx leaves unfinished. Run returns the mismatch,
// wrapping ErrShardMismatch, and otherwise nil: Finish reports the rest.
func (s *Session) Run(ctx context.Context, leases []TrialRange) error {
	if len(leases) == 0 {
		return nil
	}
	lo, hi := leases[0].Lo, leases[0].Hi
	for _, l := range leases[1:] {
		lo, hi = min(lo, l.Lo), max(hi, l.Hi)
	}
	if lo < 0 || hi > len(s.records) {
		return fmt.Errorf("%w: leases [%d,%d) outside campaign of %d trials",
			ErrInvalidConfig, lo, hi, len(s.records))
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	// Fresh trials are filled into one slab, so the steady-state trial
	// loop performs no record allocations.
	slab := make([]TrialRecord, hi-lo)
	err := s.p.fanOut(runCtx, leases, slab, lo, func(rec []TrialRecord) {
		if _, stop, err := s.add(rec); stop || err != nil {
			cancel(err)
		}
	})
	if err != nil {
		return err
	}
	if err := context.Cause(runCtx); errors.Is(err, ErrShardMismatch) {
		return err
	}
	return nil
}

// Completed returns how many trials hold committed records.
func (s *Session) Completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, rec := range s.records {
		if rec != nil {
			n++
		}
	}
	return n
}

// Pending returns the maximal contiguous ranges of trials without
// committed records, in trial order — the work left to lease. A session
// whose failure budget is exhausted owes no further work and returns
// nil.
func (s *Session) Pending() []TrialRange {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.exhaustedLocked() {
		return nil
	}
	var out []TrialRange
	for t := 0; t < len(s.records); {
		if s.records[t] != nil {
			t++
			continue
		}
		lo := t
		for t < len(s.records) && s.records[t] == nil {
			t++
		}
		out = append(out, TrialRange{Lo: lo, Hi: t})
	}
	return out
}

func (s *Session) exhaustedLocked() bool { return s.budget > 0 && s.failures >= s.budget }

// Commit validates one shard against the campaign and merges its
// records, returning how many trials were newly committed. Zero with a
// nil error is a benign duplicate: every record in the range was already
// committed with identical bytes (first-complete-wins — the duplicate
// grant lost the race and its work is simply discarded).
//
// Validation failures wrap ErrShardInvalid (broken checksum, foreign
// golden fingerprint, out-of-range trials, records contradicting the
// deterministic plan); a duplicate whose records disagree with committed
// ones wraps ErrShardMismatch. Either way the coordinator should
// quarantine the submitter and re-run the range.
func (s *Session) Commit(sh *ShardResult) (int, error) {
	if err := sh.Verify(); err != nil {
		return 0, err
	}
	e := s.p.e
	if sh.Hi > len(s.records) {
		return 0, fmt.Errorf("%w: range [%d,%d) outside campaign of %d trials",
			ErrShardInvalid, sh.Lo, sh.Hi, len(s.records))
	}
	if sh.GoldenCycles != s.p.goldenStats.Cycles || sh.GoldenInsts != s.p.goldenStats.Insts {
		return 0, fmt.Errorf("%w: golden fingerprint %d cycles/%d insts does not match the coordinator's %d/%d — the worker compiled a different campaign",
			ErrShardInvalid, sh.GoldenCycles, sh.GoldenInsts, s.p.goldenStats.Cycles, s.p.goldenStats.Insts)
	}
	// Plan validation outside the lock: re-derive every record's
	// injection and reject fabrications before touching the table.
	det := e.det
	for i := range sh.Records {
		if got := e.planWith(sh.Records[i].Trial, &det); !reflect.DeepEqual(got, sh.Records[i].Inj) {
			return 0, fmt.Errorf("%w: trial %d recorded injection %+v does not match the plan %+v",
				ErrShardInvalid, sh.Records[i].Trial, sh.Records[i].Inj, got)
		}
	}
	fresh, _, err := s.add(sh.Records)
	return fresh, err
}

// add puts trusted records into the table — a shard Commit validated,
// or a trial Run executed on the campaign's own runners: the one merge
// step both paths share. A record whose trial is already
// committed must match it exactly — if any disagrees, nothing is
// committed and the error wraps ErrShardMismatch; otherwise it is a
// benign duplicate. The fresh records are appended to the checkpoint
// in one write before add returns; a failed write is kept for Finish to
// report, and no record is appended after it. stop reports that the
// campaign owes no further work: a checkpoint write failed or the
// failure budget is exhausted.
func (s *Session) add(recs []TrialRecord) (fresh int, stop bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		// The campaign merged while these records were in flight; their
		// work is simply discarded (the merge already happened in trial
		// order, so nothing is lost or double-counted).
		return 0, true, nil
	}
	for i := range recs {
		if prev := s.records[recs[i].Trial]; prev != nil && !reflect.DeepEqual(*prev, recs[i]) {
			return 0, false, fmt.Errorf("%w: trial %d", ErrShardMismatch, recs[i].Trial)
		}
	}
	for i := range recs {
		rec := &recs[i]
		if s.records[rec.Trial] != nil {
			continue
		}
		s.records[rec.Trial] = rec
		fresh++
		if rec.Outcome == SDC || rec.Outcome == Crash {
			s.failures++
		}
		if s.ckpt != nil && s.ckptErr == nil {
			s.ckpt.Encode(rec) //nolint:errcheck — a record holds no value JSON cannot encode
		}
	}
	if s.ckpt != nil && s.ckptErr == nil {
		s.ckptErr = s.ckpt.Flush()
	}
	return fresh, s.ckptErr != nil || s.exhaustedLocked(), nil
}

// rewriteLocked atomically rewrites the checkpoint with the committed
// records and reopens it for appending; a failure is kept for Finish.
func (s *Session) rewriteLocked() (err error) {
	if s.ckpt != nil {
		s.ckpt.Close() // the rewrite supersedes what it holds
	}
	if s.ckpt, err = s.p.e.rewrite(s.records, s.p.goldenStats); err != nil {
		s.ckptErr = cmp.Or(s.ckptErr, err)
		return fmt.Errorf("fault: checkpoint: %w", err)
	}
	return nil
}

// Revoke clears the committed records in [lo, hi) so the range can be
// re-leased — the deterministic resolution of a shard mismatch: neither
// conflicting execution is trusted, a third decides. The checkpoint is
// rewritten immediately so a coordinator crash cannot resurrect the
// revoked records.
func (s *Session) Revoke(lo, hi int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished {
		return nil
	}
	if lo < 0 || hi > len(s.records) || lo >= hi {
		return fmt.Errorf("%w: revoke range [%d,%d) outside campaign of %d trials",
			ErrInvalidConfig, lo, hi, len(s.records))
	}
	s.failures = 0
	for t := lo; t < hi; t++ {
		s.records[t] = nil
	}
	for _, rec := range s.records {
		if rec != nil && (rec.Outcome == SDC || rec.Outcome == Crash) {
			s.failures++
		}
	}
	if s.p.e.cfg.Checkpoint != "" {
		return s.rewriteLocked()
	}
	return nil
}

// Finish closes the checkpoint, which already holds every committed
// record, merges every committed record in trial order, and returns
// the campaign Result — byte-identical to a single-process run of the
// same Config over the same completed trials. A checkpoint write
// failure, a cancelled ctx, or an exhausted failure budget each return
// the merged partial result alongside the error. A coordinator cutting
// an attempt short (drain, cancellation) finishes the session too, so
// no record arrives after it.
func (s *Session) Finish(ctx context.Context) (*Result, error) {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return nil, fmt.Errorf("fault: Session.Finish called twice")
	}
	s.finished = true
	e := s.p.e
	if s.ckpt != nil {
		s.ckptErr = cmp.Or(s.ckptErr, s.ckpt.Close())
	}
	mergeStart := time.Now()
	res := e.merge(s.records, s.p.goldenStats)
	span.RecordCtx(ctx, "fault", "merge", mergeStart, time.Now(),
		map[string]any{"completed": res.CompletedTrials})
	ckptErr := s.ckptErr
	budget := s.budget
	s.mu.Unlock()
	if log := e.cfg.Logger; log != nil {
		log.LogAttrs(ctx, slog.LevelInfo, "campaign complete",
			slog.Int("completed", res.CompletedTrials),
			slog.Int("trials", e.cfg.Trials),
			slog.Int("recovered", res.Outcomes[Recovered]),
			slog.Int("masked", res.Outcomes[Masked]),
			slog.Int("due", res.Outcomes[DUE]),
			slog.Int("failures", len(res.Failures)),
		)
	}
	switch {
	case ckptErr != nil:
		return res, fmt.Errorf("fault: checkpoint: %w", ckptErr)
	case ctx.Err() != nil:
		return res, fmt.Errorf("fault: campaign interrupted after %d/%d trials: %w",
			res.CompletedTrials, e.cfg.Trials, ctx.Err())
	case budget > 0 && len(res.Failures) >= budget:
		f := res.Failures[0]
		if log := e.cfg.Logger; log != nil {
			log.LogAttrs(ctx, slog.LevelWarn, "failure budget exhausted",
				slog.Int("budget", budget),
				slog.Int("failures", len(res.Failures)),
				slog.Int("first_trial", f.Trial),
				slog.String("first_outcome", f.Outcome.String()),
			)
		}
		return res, fmt.Errorf("fault: failure budget (%d) exhausted with %d failure(s); first: trial %d %s (%+v)%s",
			budget, len(res.Failures), f.Trial, f.Outcome, f.Inj, errSuffix(f.Err))
	}
	return res, nil
}
