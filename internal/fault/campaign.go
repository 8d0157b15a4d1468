package fault

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/obs/olog"
	"repro/internal/obs/span"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/sensor"
)

// trialSeed derives the independent PRNG seed for one trial from the
// campaign seed (two SplitMix64 avalanches over (seed, trial)). Per-trial
// seeding is what makes the injection plan a pure function of the Config:
// trials can run in any order, on any number of workers, and replay
// individually, without consuming a shared stream.
func trialSeed(seed int64, trial int) int64 {
	return int64(rng.Mix(rng.Mix(uint64(seed)) ^ uint64(trial)))
}

// TrialRecord is one completed trial: the plan, the classification, and
// the simulator statistics needed to merge it into a Result. It is the
// checkpoint file's unit of progress and the payload of a distributed
// campaign's ShardResult — a record is valid wherever it was executed,
// because the injection plan is a pure function of (Seed, trial) and the
// simulator is deterministic.
type TrialRecord struct {
	Trial   int            `json:"trial"`
	Inj     Injection      `json:"injection"`
	Outcome Outcome        `json:"outcome"`
	Stats   pipeline.Stats `json:"stats"`
	Err     string         `json:"error,omitempty"`
}

// trialRunner is one worker's reusable execution state: a simulator
// forked from the golden snapshot and Reset between trials, the shadow
// its trials are compared with for the reconvergence cut-off, which
// also counts them, its copy of the campaign's detector, reseeded per
// trial, and the event-schedule scratch. Steady-state, running a trial
// allocates only its TrialRecord.
type trialRunner struct {
	sim    *pipeline.Sim
	shadow *pipeline.Shadow // nil: trials are never cut
	det    sensor.MeshDetector
	evs    []pipeline.Event
}

// CutCounters names the campaign registry's counters of the
// reconvergence cut, in the order of pipeline.CutCounts' fields, which
// flushCounts adds to them: the trials cut; the comparisons made for
// cuts and jumps, and those rejected by a pending detection (or
// recovery, degraded mesh, taint or the instruction limit), by the
// state value, by memory and by the caches; the cuts the cache replay
// decided and the replays refused at a level mismatch; the jumps
// between fault events and the instructions they skipped; and the
// instructions resumed past, stepped before the last fault event and
// simulated after it. Each is a sum over the trials run of a pure
// function of the trial, so it does not depend on the workers or the
// leases.
var CutCounters = []string{
	"fault.cut.trials",
	"fault.cut.comparisons",
	"fault.cut.rejected_pending",
	"fault.cut.rejected_state",
	"fault.cut.rejected_memory",
	"fault.cut.rejected_cache",
	"fault.cut.replay_cuts",
	"fault.cut.replay_mismatches",
	"fault.cut.jumps",
	"fault.cut.insts_jumped",
	"fault.cut.insts_resumed",
	"fault.cut.insts_before_last_event",
	"fault.cut.insts_after_last_event",
}

// flushCounts adds the runner's counts since the last flush to reg's
// CutCounters (nil reg drops them) and zeroes them.
func (r *trialRunner) flushCounts(reg *obs.Registry) {
	if r.shadow == nil {
		return
	}
	c := r.shadow.Counts
	r.shadow.Counts = pipeline.CutCounts{}
	if reg == nil {
		return
	}
	for i, v := range [...]uint64{c.Cuts, c.Comparisons, c.Pending, c.State, c.Memory, c.Cache,
		c.Replayed, c.Mismatches, c.Jumps, c.Jumped, c.Resumed, c.Before, c.After} {
		reg.Counter(CutCounters[i]).Add(v)
	}
}

// engine carries the immutable per-campaign state every worker shares.
type engine struct {
	prog    *isa.Program
	cfg     Config
	seedMem func(*isa.Memory)
	maxAt   uint64
	// gs is the golden-state snapshot trial simulators fork from; nil in
	// unit tests that only exercise plan derivation.
	gs *pipeline.GoldenState
	// sim is the resolved simulator configuration the trials run under
	// (GoldenState.Config), part of the checkpoint fingerprint.
	sim pipeline.Config
	// adv is the campaign's adversary, the zero one for a perfect mesh,
	// and det the detector it breaks; planners sample copies of det.
	adv Adversary
	det sensor.MeshDetector
	// progress is cfg.Metrics' live.* gauges, nil without a registry.
	progress *pipeline.Progress
}

// logTrial emits one trial's Debug record. The Enabled check is hoisted
// by the caller (debugOn) so a disabled logger costs nothing per trial.
func (e *engine) logTrial(ctx context.Context, rec *TrialRecord) {
	e.cfg.Logger.LogAttrs(ctx, slog.LevelDebug, "trial complete",
		slog.String("outcome", rec.Outcome.String()),
		slog.Int("reg", int(rec.Inj.Reg)),
		slog.Uint64("at_inst", rec.Inj.AtInst),
		slog.Int("latency", rec.Inj.Latency),
		slog.Uint64("cycles", rec.Stats.Cycles),
	)
}

// resolveDetector validates the campaign's adversary (a nil one is the
// zero adversary: the perfect mesh) and builds the detector it breaks.
func (e *engine) resolveDetector() error {
	if e.cfg.Adversary != nil {
		e.adv = *e.cfg.Adversary
	}
	if err := e.adv.validate(e.cfg.Sim); err != nil {
		return err
	}
	// The nominal mesh is whatever deployment achieves the pipeline's
	// WCDL on the paper's die; the adversary then breaks it. The
	// pipeline keeps believing its WCDL.
	model := sensor.Model{
		Sensors:    sensor.SensorsForWCDL(e.cfg.Sim.WCDL, 1.0, 2.5),
		DieAreaMM2: 1.0,
		ClockGHz:   2.5,
	}
	var err error
	e.det, err = sensor.NewMeshDetector(e.cfg.Sim.WCDL, sensor.Mesh{
		Model:       model,
		DeadSensors: e.adv.DeadSensors,
		MissProb:    e.adv.MissProb,
		LateFactor:  e.adv.LateFactor,
	})
	return err
}

// planWith derives trial's injection as a pure function of (cfg.Seed,
// trial): a SplitMix64 stream seeded from (Seed, trial) draws the strike
// points, and latencies come from det, a copy of the campaign's
// detector reseeded per trial (from Seed+1, keeping the two streams
// decorrelated). A perfect mesh hears every strike within the WCDL,
// preserving the recovery argument; an adversary's mesh also detects
// late, and it adds burst extras and false positives.
func (e *engine) planWith(trial int, det *sensor.MeshDetector) Injection {
	var s rng.Stream
	s.Reseed(trialSeed(e.cfg.Seed, trial))
	inj := Injection{
		Reg:    isa.Reg(1 + s.Intn(isa.NumRegs-1)),
		Bit:    uint(s.Intn(64)),
		AtInst: uint64(s.Int63n(int64(e.maxAt))) + 1,
	}
	det.Reseed(trialSeed(e.cfg.Seed+1, trial))
	d := det.Sample()
	inj.Latency, inj.Missed = d.Latency, d.Missed
	adv := &e.adv
	if adv.BurstMax > 1 {
		// Burst size uniform in [1, BurstMax]; extras land within one
		// nominal detection window of the primary, so several strikes
		// share the pending-detection queue.
		n := 1 + s.Intn(adv.BurstMax)
		if n > 1 {
			inj.Extra = make([]Strike, 0, n-1)
		}
		for ; n > 1; n-- {
			ds := det.Sample()
			inj.Extra = append(inj.Extra, Strike{
				Reg:     isa.Reg(1 + s.Intn(isa.NumRegs-1)),
				Bit:     uint(s.Intn(64)),
				AtInst:  inj.AtInst + uint64(s.Intn(e.cfg.Sim.WCDL+1)),
				Latency: ds.Latency,
				Missed:  ds.Missed,
			})
		}
	}
	if adv.FalsePositiveRate > 0 && s.Float64() < adv.FalsePositiveRate {
		inj.FalsePositives = append(inj.FalsePositives, FalsePositive{
			AtInst:  uint64(s.Int63n(int64(e.maxAt))) + 1,
			Latency: 1 + s.Intn(e.cfg.Sim.WCDL),
		})
	}
	return inj
}

// exec runs one injection on the runner's simulator through the golden
// state's trial driver (GoldenState.RunTrial: resumed from the last
// epoch before the first event, jumped between events and cut once
// reconverged; a snapshot without epochs runs the trial from the start
// to halt) and reports whether the masked output matches the golden
// image. cut reports that the driver ended the trial early,
// reconverged with the golden run, in which case the output is the
// golden output and is not compared. The classification comparison
// runs in place (isa.Memory.EqualMasked over the drained trial memory)
// — no clone, no sorted snapshot — so a steady-state trial performs no
// comparison allocations at all.
func (e *engine) exec(ctx context.Context, r *trialRunner, inj *Injection) (st pipeline.Stats, equal, cut bool, err error) {
	r.evs = inj.appendEvents(r.evs[:0])
	if e.cfg.Logger != nil {
		r.sim.AttachLogger(ctx, e.cfg.Logger)
	}
	st, cut, err = e.gs.RunTrial(r.sim, r.shadow, r.evs)
	if err != nil {
		return st, false, false, err
	}
	if e.progress != nil {
		e.progress.Runs.Add(1)
	}
	if cut {
		return st, true, true, nil
	}
	return st, e.matchesGolden(r.sim.DrainOutput()), false, nil
}

// matchesGolden reports whether a trial's output image equals the golden
// one outside the checkpoint window and the stack, which hold scheme and
// compiler state, not program output.
func (e *engine) matchesGolden(out *isa.Memory) bool {
	lo, hi := e.prog.CkptWindow()
	return out.EqualMasked(e.gs.Output(), lo, hi, isa.StackBase, isa.StackLimit)
}

// runTrial executes one planned injection on the runner and classifies
// it into rec — caller-provided so workers fill a preallocated record
// slab instead of heap-allocating per trial — and reports whether the
// trial was cut short (exec). ctx carries the worker's shard
// correlation; the trial index is added by the worker loop so the
// simulator's rare-event lines name it.
func (e *engine) runTrial(ctx context.Context, r *trialRunner, trial int, rec *TrialRecord) (cut bool) {
	*rec = TrialRecord{Trial: trial, Inj: e.planWith(trial, &r.det)}
	st, equal, cut, err := e.exec(ctx, r, &rec.Inj)
	rec.Stats = st
	rec.Outcome = classifyResult(equal, st, err)
	if err != nil {
		rec.Err = err.Error()
	}
	return cut
}

// classifyResult maps one injected run to its outcome. A DUEError is the
// containment path doing its job — detected but unrecoverable — and is
// kept distinct from Crash (the simulator wedging or faulting), which in
// turn outranks memory comparison. The nil-error fast path matters: the
// errors.As target escapes, and the overwhelmingly common error-free
// trial must not pay an allocation for it.
func classifyResult(equal bool, st pipeline.Stats, err error) Outcome {
	if err != nil {
		var due *pipeline.DUEError
		if errors.As(err, &due) {
			return DUE
		}
		return Crash
	}
	if !equal {
		return SDC
	}
	if st.Recoveries > 0 {
		return Recovered
	}
	return Masked
}

// merge folds completed trials into a Result in trial order, so outcome
// counts, aggregate statistics, histograms, slowdown samples, and the
// failure report are identical for every worker count and for resumed
// campaigns.
func (e *engine) merge(records []*TrialRecord, goldenStats pipeline.Stats) *Result {
	cfg := e.cfg
	var detLat, recLen *obs.Histogram
	if cfg.Metrics != nil {
		detLat = cfg.Metrics.Histogram("fault.detect_latency_cycles",
			obs.LinearBuckets(1, 1, 32))
		recLen = cfg.Metrics.Histogram("fault.recovery_cycles",
			obs.ExpBuckets(1, 2, 14))
	}
	res := &Result{Outcomes: map[Outcome]int{}}
	recovered := 0
	for _, rec := range records {
		if rec != nil && rec.Outcome == Recovered {
			recovered++
		}
	}
	if recovered > 0 && goldenStats.Cycles > 0 {
		res.SlowdownSamples = make([]float64, 0, recovered)
	}
	var recCycles, recRuns uint64
	for _, rec := range records {
		if rec == nil {
			continue // cancelled before this trial completed
		}
		res.CompletedTrials++
		strikes, missed := rec.Inj.CountStrikes()
		res.Strikes += strikes
		res.MissedDetections += missed
		if detLat != nil {
			detLat.Observe(uint64(rec.Inj.Latency))
		}
		res.Agg.Merge(&rec.Stats)
		res.Outcomes[rec.Outcome]++
		if cfg.Metrics != nil {
			cfg.Metrics.Counter("fault.outcome." + rec.Outcome.String()).Inc()
		}
		switch rec.Outcome {
		case Recovered:
			recCycles += rec.Stats.RecoveryCycles
			recRuns++
			if recLen != nil {
				recLen.Observe(rec.Stats.RecoveryCycles)
			}
			if goldenStats.Cycles > 0 {
				res.SlowdownSamples = append(res.SlowdownSamples,
					float64(rec.Stats.Cycles)/float64(goldenStats.Cycles))
			}
		case SDC, Crash:
			res.Failures = append(res.Failures, TrialFailure{
				Trial: rec.Trial, Outcome: rec.Outcome, Inj: rec.Inj, Err: rec.Err,
			})
		}
		res.Recoveries += rec.Stats.Recoveries
		res.Parity += rec.Stats.ParityTrips
	}
	if recRuns > 0 {
		res.AvgRecoveryCycles = float64(recCycles) / float64(recRuns)
	}
	res.Coverage = NewProportion(res.Strikes-res.MissedDetections, res.Strikes)
	res.DUERate = NewProportion(res.Outcomes[DUE], res.CompletedTrials)
	res.SDCRate = NewProportion(res.Outcomes[SDC], res.CompletedTrials)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("fault.strikes").Add(uint64(res.Strikes))
		cfg.Metrics.Counter("fault.missed_detections").Add(uint64(res.MissedDetections))
		pipeline.FillStats(cfg.Metrics, &res.Agg)
	}
	return res
}

// Campaign injects cfg.Trials faults into prog and verifies every outcome
// against the fault-free golden memory. seedMem populates program inputs
// for both runs. See CampaignContext for the engine's semantics.
func Campaign(prog *isa.Program, cfg Config, seedMem func(*isa.Memory)) (*Result, error) {
	return CampaignContext(context.Background(), prog, cfg, seedMem)
}

// CampaignContext runs a fault-injection campaign: one golden execution,
// then cfg.Trials independently-seeded injections fanned out over a
// bounded worker pool and merged deterministically in trial order — the
// result is byte-identical for every worker count. SDC and crash trials
// land in Result.Failures until cfg.FailureBudget is exhausted, at which
// point the remaining trials are cancelled and an error is returned with
// the merged partial result. With cfg.Checkpoint set, each trial is
// appended to the checkpoint file as it completes and a later campaign
// with the same config resumes from those trials; cancelling ctx also
// returns the merged partial result.
//
// CampaignContext is Prepare followed by Run; callers that want to
// measure or schedule the trial phase separately from the serial setup
// (compilation, golden run, worker priming) use the two-step API.
func CampaignContext(ctx context.Context, prog *isa.Program, cfg Config, seedMem func(*isa.Memory)) (*Result, error) {
	p, err := Prepare(ctx, prog, cfg, seedMem)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// Prepared is a campaign with its serial phases complete: the golden run
// executed and snapshotted, the injection plan fixed, and one primed
// simulator forked per worker. Run executes the trials.
type Prepared struct {
	e           *engine
	runners     []*trialRunner
	goldenStats pipeline.Stats
	// opened is set by the first Open (Run opens its own session).
	opened bool
	// mu serializes use of the runners: every fan-out (one Session.Run,
	// one RunRange shard) holds it — the primed simulators are exclusive
	// state.
	mu sync.Mutex
}

// Prepare runs a campaign's serial phases — golden execution (captured
// as a pipeline.GoldenState), plan derivation, and per-worker simulator
// forking — and returns the campaign ready to Run. Splitting the phases
// lets cmd/bench meter the trial loop alone and lets services overlap
// setup with queueing.
func Prepare(ctx context.Context, prog *isa.Program, cfg Config, seedMem func(*isa.Memory)) (*Prepared, error) {
	cfg.defaults()
	workers := cfg.Runners()

	// The golden run is often the single biggest serial phase of a
	// campaign; the span (with its nested pipeline setup) makes that
	// visible in the per-job trace. Any golden failure is permanent: the
	// simulator is deterministic, so a retry fails identically.
	gctx, goldenSpan := span.Start(ctx, "fault", "golden_run")
	gsim, err := pipeline.NewContext(gctx, prog, cfg.Sim)
	if err != nil {
		goldenSpan.End()
		return nil, fmt.Errorf("%w: golden run failed: %v", ErrInvalidConfig, err)
	}
	progress := pipeline.NewProgress(cfg.Metrics)
	gsim.AttachProgress(progress)
	if cfg.Logger != nil {
		gsim.AttachLogger(gctx, cfg.Logger)
	}
	if seedMem != nil {
		seedMem(gsim.Mem)
	}
	gs, err := pipeline.CaptureGolden(gsim)
	goldenSpan.SetArg("trials", cfg.Trials)
	goldenSpan.End()
	if err != nil {
		return nil, fmt.Errorf("%w: golden run failed: %v", ErrInvalidConfig, err)
	}
	if progress != nil {
		progress.Runs.Add(1)
	}
	goldenStats := gs.Stats()

	// Plan derivation: resolving the detector fixes the injection plan
	// as a pure function of (seed, trial).
	planStart := time.Now()
	base := &engine{
		prog: prog, seedMem: seedMem, gs: gs, sim: gs.Config(), progress: progress,
	}
	e, err := base.withConfig(cfg, goldenStats.Insts)
	if err != nil {
		return nil, err
	}
	span.RecordCtx(ctx, "fault", "plan_derive", planStart, time.Now(),
		map[string]any{"trials": cfg.Trials})

	// Prime one simulator per worker now, so the trial phase pays only
	// for trials: each worker's simulator is Reset — never rebuilt —
	// between trials. Worker 0 adopts the golden-run simulator; the
	// others fork.
	forkStart := time.Now()
	runners := make([]*trialRunner, workers)
	for i := range runners {
		sim := gsim
		if i == 0 {
			gs.Adopt(sim)
		} else {
			if sim, err = gs.Fork(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
			}
			sim.AttachProgress(progress)
		}
		// Plan one trial so the worker's event buffer exists before the
		// trial loop; with Adopt's pre-sizing this keeps even a worker's
		// first trial from allocating.
		r := &trialRunner{sim: sim, det: e.det}
		inj := e.planWith(0, &r.det)
		r.evs = inj.appendEvents(r.evs)
		runners[i] = r
	}
	span.RecordCtx(ctx, "fault", "worker_fork", forkStart, time.Now(),
		map[string]any{"workers": workers})

	// Trials start from the warmed snapshot, so the slowdown baseline
	// (and the checkpoint fingerprint's golden cycle count) must be the
	// warm-start golden run, not the cold capture run — otherwise every
	// recovered trial would report a slowdown below 1. The warm run
	// executes on runner 0's simulator (Reset re-primes it before its
	// first trial), records the epochs trials resume from, and doubles
	// as a determinism self-check on the forked state: its masked output
	// must match the cold golden image.
	warmStart := time.Now()
	warmStats, err := gs.RecordEpochs(runners[0].sim)
	if err != nil {
		return nil, fmt.Errorf("%w: warm golden run failed: %v", ErrInvalidConfig, err)
	}
	if warmStats.Insts != goldenStats.Insts ||
		!e.matchesGolden(runners[0].sim.DrainOutput()) {
		return nil, fmt.Errorf("%w: warm golden run diverged from the cold golden run", ErrInvalidConfig)
	}
	if progress != nil {
		progress.Runs.Add(1)
	}
	goldenStats.Cycles = warmStats.Cycles
	for _, r := range runners {
		if r.shadow, err = gs.NewShadow(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
	}
	span.RecordCtx(ctx, "fault", "warm_golden_run", warmStart, time.Now(),
		map[string]any{"cycles": warmStats.Cycles})

	return &Prepared{e: e, runners: runners, goldenStats: goldenStats}, nil
}

// withConfig returns a copy of e's golden part, its live gauges
// included, for a campaign of cfg: the injection window, the first 90%
// of the golden run's goldenInsts instructions, and the detector derived
// from cfg afresh.
func (e *engine) withConfig(cfg Config, goldenInsts uint64) (*engine, error) {
	n := *e
	n.cfg, n.adv = cfg, Adversary{}
	n.maxAt = max(goldenInsts*9/10, 1)
	if err := n.resolveDetector(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	return &n, nil
}

// errHandedOn refuses work on a campaign whose runners Reuse handed to
// another.
var errHandedOn = errors.New("fault: campaign handed on to another by Reuse")

// Reuse hands p's golden state and primed runners to a campaign of cfg
// and returns it ready to Open or Run, as Prepare would have, without
// its golden runs and forks. The per-campaign part is derived from cfg
// afresh: seed, trials, failure budget, lease, checkpoint, the
// injection window, the detector, and the Metrics (with its live
// gauges) and Logger attachments. cfg must shape the same golden state
// and runners as p's, which a caller ensures by keying its idle
// campaigns by workload and program, the simulator configuration
// cfg.Sim, and the runner count cfg.Runners(); Reuse refuses another
// configuration or count. A reused campaign runs no golden run, so its
// live.runs count only its trials.
//
// p must be idle. Reuse takes its runners, after any fan-out in flight
// on them, so neither p nor a session opened on it runs a trial again.
func (p *Prepared) Reuse(ctx context.Context, cfg Config) (*Prepared, error) {
	start := time.Now()
	cfg.defaults()
	if cfg.Sim != p.e.cfg.Sim {
		return nil, fmt.Errorf("%w: campaign prepared for another simulator configuration", ErrInvalidConfig)
	}
	e, err := p.e.withConfig(cfg, p.goldenStats.Insts)
	if err != nil {
		return nil, err
	}
	e.progress = pipeline.NewProgress(cfg.Metrics)
	p.mu.Lock()
	defer p.mu.Unlock()
	runners := p.runners
	if runners == nil {
		return nil, errHandedOn
	}
	if n := cfg.Runners(); n != len(runners) {
		return nil, fmt.Errorf("%w: campaign prepared with %d runners, not %d", ErrInvalidConfig, len(runners), n)
	}
	p.runners = nil
	for _, r := range runners {
		r.det = e.det
		r.sim.AttachProgress(e.progress)
		r.sim.AttachLogger(ctx, cfg.Logger)
		inj := e.planWith(0, &r.det)
		r.evs = inj.appendEvents(r.evs[:0])
	}
	span.RecordCtx(ctx, "fault", "reuse", start, time.Now(),
		map[string]any{"trials": cfg.Trials, "workers": len(runners)})
	return &Prepared{e: e, runners: runners, goldenStats: p.goldenStats}, nil
}

// GoldenStats returns the golden run's simulator statistics.
func (p *Prepared) GoldenStats() pipeline.Stats { return p.goldenStats }

// Run executes the prepared campaign's trials on its own runners and
// merges the result; see CampaignContext for the semantics. Run is a
// Session driven locally: Open restores the checkpoint, Session.Run
// executes the pending trials, and Finish closes the checkpoint and
// merges. Run may be called once, and not after Open.
func (p *Prepared) Run(ctx context.Context) (*Result, error) {
	s, err := p.Open(ctx)
	if err != nil {
		return nil, err
	}
	cfg := p.e.cfg
	lease := LeaseSize(cfg.Lease, cfg.Trials, len(p.runners))
	leases := SplitLeases(s.Pending(), lease)
	if log := cfg.Logger; log != nil {
		pending := 0
		for _, l := range leases {
			pending += l.Len()
		}
		log.LogAttrs(ctx, slog.LevelInfo, "campaign start",
			slog.Int("trials", cfg.Trials),
			slog.Int64("seed", cfg.Seed),
			slog.Int("workers", len(p.runners)),
			slog.Int("lease", lease),
			slog.Int("resumed", cfg.Trials-pending),
			slog.Bool("adversarial", cfg.Adversary != nil),
		)
	}
	runErr := s.Run(ctx, leases)
	res, err := s.Finish(ctx)
	if runErr != nil {
		return res, runErr
	}
	return res, err
}

// fanOut executes leases on the prepared runners, writing trial t's
// record to recs[t-base]: the one worker loop behind Session.Run and
// RunRange. Workers claim leases in order through an atomic cursor, so
// no dispatcher goroutine runs beside them, and worker 0 runs on the
// calling goroutine, so a one-worker fan-out starts no goroutine at all.
// done, when set, receives each record as its trial completes. Workers stop claiming trials once ctx is done. One
// fault.shard_exec span covers the fan-out; the per-trial loop runs with
// the tracer detached, so the hot path records nothing. A campaign whose
// runners Reuse handed on runs nothing and returns errHandedOn.
func (p *Prepared) fanOut(ctx context.Context, leases []TrialRange, recs []TrialRecord, base int, done func([]TrialRecord)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.runners == nil {
		return errHandedOn
	}
	workers := min(len(p.runners), len(leases))
	if workers == 0 {
		return nil
	}
	e := p.e
	log := e.cfg.Logger
	// Hoisted per-trial guard: with Debug disabled, the worker loop pays
	// one cached bool, not an Enabled call plus attr building per trial.
	debugOn := log != nil && log.Enabled(ctx, slog.LevelDebug)
	sctx, shardSpan := span.Start(ctx, "fault", "shard_exec")
	var next, executed atomic.Int64
	worker := func(w int) {
		if e.progress != nil {
			e.progress.Workers.Add(1)
			defer e.progress.Workers.Add(-1)
		}
		wctx := olog.WithShard(sctx, w)
		loopCtx := span.Detach(wctx)
		n := 0
		for ctx.Err() == nil {
			k := int(next.Add(1)) - 1
			if k >= len(leases) {
				break
			}
			for t := leases[k].Lo; t < leases[k].Hi && ctx.Err() == nil; t++ {
				tctx := loopCtx
				if log != nil {
					tctx = olog.WithTrial(loopCtx, t)
				}
				rec := recs[t-base : t-base+1]
				e.runTrial(tctx, p.runners[w], t, &rec[0])
				n++
				if debugOn {
					e.logTrial(tctx, &rec[0])
				}
				if done != nil {
					done(rec)
				}
			}
		}
		executed.Add(int64(n))
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			worker(w)
		}()
	}
	worker(0)
	wg.Wait()
	for _, r := range p.runners[:workers] {
		r.flushCounts(e.cfg.Metrics)
	}
	shardSpan.SetArg("lo", leases[0].Lo)
	shardSpan.SetArg("hi", leases[len(leases)-1].Hi)
	shardSpan.SetArg("trials", int(executed.Load()))
	shardSpan.End()
	return nil
}

func errSuffix(s string) string {
	if s == "" {
		return ""
	}
	return ": " + s
}

// Replay re-executes one recorded injection — from Result.Failures or a
// checkpoint file — outside any campaign: golden run, injected run,
// classification. It runs the injection through the trial driver
// campaign workers use (GoldenState.RunTrial), but from the start to
// halt (its golden state records no epochs), so a replayed trial is
// byte-identical to its campaign record regardless of the campaign's
// worker count, lease batching or the epoch its trial resumed from. On
// Crash the simulator's error is returned alongside the outcome; any
// golden-run failure is an error with outcome Crash.
func Replay(prog *isa.Program, cfg Config, seedMem func(*isa.Memory), inj Injection) (Outcome, pipeline.Stats, error) {
	ctx := context.Background()
	e, r, err := replayer(ctx, prog, cfg, seedMem)
	if err != nil {
		return Crash, pipeline.Stats{}, fmt.Errorf("fault: golden run failed: %w", err)
	}
	st, equal, _, err := e.exec(ctx, r, &inj)
	out := classifyResult(equal, st, err)
	if out == DUE {
		err = nil // the containment abort is the classification, not a failure
	}
	return out, st, err
}

// replayer builds the engine and the one trial runner Replay executes
// injections on: prog's golden state, captured without epochs, so every
// trial on the runner runs from the start.
func replayer(ctx context.Context, prog *isa.Program, cfg Config, seedMem func(*isa.Memory)) (*engine, *trialRunner, error) {
	gs, sim, err := fromStart(ctx, prog, cfg, seedMem)
	if err != nil {
		return nil, nil, err
	}
	e := &engine{
		prog: prog, cfg: cfg, seedMem: seedMem, gs: gs,
		progress: pipeline.NewProgress(cfg.Metrics),
	}
	sim.AttachProgress(e.progress)
	return e, &trialRunner{sim: sim}, nil
}

// fromStart captures prog's golden state and primes the golden-run
// simulator for a trial, as Replay runs one. Nothing records epochs on
// the golden state, so every trial on it runs from the start.
func fromStart(ctx context.Context, prog *isa.Program, cfg Config, seedMem func(*isa.Memory)) (*pipeline.GoldenState, *pipeline.Sim, error) {
	sim, err := pipeline.NewContext(ctx, prog, cfg.Sim)
	if err != nil {
		return nil, nil, err
	}
	if seedMem != nil {
		seedMem(sim.Mem)
	}
	gs, err := pipeline.CaptureGolden(sim)
	if err != nil {
		return nil, nil, err
	}
	gs.Adopt(sim)
	return gs, sim, nil
}
