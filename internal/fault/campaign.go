package fault

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
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

// trialForker is the required capability of a Config.Sampler: deriving an
// independent per-trial latency stream (sensor.Detector,
// sensor.PhysicalDetector, and sensor.MeshDetector all implement it). A
// sampler that cannot fork is rejected at campaign start — a shared
// stream would make the plan depend on trial execution order.
type trialForker interface {
	Fork(seed int64) sensor.Sampler
}

// reseeder is the optional fast-path capability of a forked sampler:
// resetting its stream in place to what Fork(seed) would produce. The
// planner keeps one forked sampler per worker and reseeds it per trial,
// eliminating the per-trial fork allocations; samplers without Reseed
// fall back to a fork per trial with identical draws.
type reseeder interface {
	Reseed(seed int64)
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

// planScratch is one worker's reusable plan-derivation state: the cached
// per-trial sampler forks the planner reseeds instead of reallocating.
// The zero value is ready to use.
type planScratch struct {
	sampler sensor.Sampler
	mesh    *sensor.MeshDetector
}

// trialRunner is one worker's reusable execution state: a simulator
// forked from the golden snapshot and Reset between trials, plus the
// plan and event-schedule scratch. Steady-state, running a trial
// allocates only its TrialRecord.
type trialRunner struct {
	sim     *pipeline.Sim
	scratch planScratch
	evs     []injEvent
}

// engine carries the immutable per-campaign state every worker shares.
type engine struct {
	prog    *isa.Program
	cfg     Config
	seedMem func(*isa.Memory)
	golden  *isa.Memory
	maxAt   uint64
	// gs is the golden-state snapshot trial simulators fork from; nil in
	// unit tests that only exercise plan derivation. ckptLo/ckptHi bound
	// the checkpoint storage masked out of trial classification.
	gs             *pipeline.GoldenState
	ckptLo, ckptHi uint64
	// Exactly one of fork/mesh is set: fork derives a per-trial latency
	// stream for perfect-mesh campaigns, mesh derives per-trial
	// adversarial detection streams.
	fork func(int64) sensor.Sampler
	mesh *sensor.MeshDetector
}

// warnf reports a non-fatal campaign condition (today: a corrupt
// checkpoint being discarded). The structured logger is the primary
// sink; the legacy printf hook still fires when set, so existing
// callers keep their warnings. Nothing set discards.
func (e *engine) warnf(format string, args ...any) {
	if e.cfg.Warnf != nil {
		e.cfg.Warnf(format, args...)
	}
	if e.cfg.Logger != nil {
		e.cfg.Logger.Warn(fmt.Sprintf(format, args...))
	}
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

func (e *engine) resolveSampler() error {
	if e.cfg.Adversary != nil {
		if e.cfg.Sampler != nil {
			return fmt.Errorf("fault: Adversary and Sampler are mutually exclusive")
		}
		adv := e.cfg.Adversary
		if err := adv.validate(e.cfg.Sim); err != nil {
			return err
		}
		// The nominal mesh is whatever deployment achieves the
		// pipeline's WCDL on the paper's die; the adversary then breaks
		// it. The pipeline keeps believing the nominal bound.
		model := sensor.Model{
			Sensors:    sensor.SensorsForWCDL(e.cfg.Sim.WCDL, 1.0, 2.5),
			DieAreaMM2: 1.0,
			ClockGHz:   2.5,
		}
		det, err := sensor.NewMeshDetector(sensor.Mesh{
			Model:       model,
			DeadSensors: adv.DeadSensors,
			MissProb:    adv.MissProb,
			LateFactor:  adv.LateFactor,
		}, 0)
		if err != nil {
			return err
		}
		e.mesh = det
		return nil
	}
	if e.cfg.Sampler == nil {
		e.fork = sensor.NewDetector(e.cfg.Sim.WCDL, 0).Fork
		return nil
	}
	if f, ok := e.cfg.Sampler.(trialForker); ok {
		e.fork = f.Fork
		return nil
	}
	return fmt.Errorf("fault: sampler %T cannot fork per-trial streams; implement Fork(seed int64) sensor.Sampler", e.cfg.Sampler)
}

// latency draws one per-trial detection latency from the campaign's
// sampler, reusing sc's cached fork when the sampler supports in-place
// reseeding. The draws are identical either way.
func (e *engine) latency(sc *planScratch, seed int64) int {
	if sc.sampler != nil {
		if r, ok := sc.sampler.(reseeder); ok {
			r.Reseed(seed)
			return sc.sampler.Latency()
		}
		return e.fork(seed).Latency()
	}
	s := e.fork(seed)
	sc.sampler = s
	return s.Latency()
}

// meshFor returns the per-trial adversarial detector, reusing sc's
// cached fork via in-place reseeding.
func (e *engine) meshFor(sc *planScratch, seed int64) *sensor.MeshDetector {
	if sc.mesh == nil {
		sc.mesh = e.mesh.ForkMesh(seed)
	} else {
		sc.mesh.Reseed(seed)
	}
	return sc.mesh
}

// plan derives trial's injection with fresh scratch. Hot paths (workers,
// checkpoint restore) use planWith with a reused scratch; the derived
// plan is identical.
func (e *engine) plan(trial int) Injection {
	return e.planWith(trial, &planScratch{})
}

// planWith derives trial's injection as a pure function of (cfg.Seed,
// trial): a SplitMix64 stream seeded from (Seed, trial) draws the strike
// points, and latencies come from an independently-seeded per-trial
// detector stream (fork seeds derive from Seed+1, keeping the two
// decorrelated). Perfect-mesh latencies are clamped to [1, WCDL],
// preserving the recovery argument; adversarial campaigns sample the
// degraded mesh instead — late detections included, plus burst extras
// and false positives.
func (e *engine) planWith(trial int, sc *planScratch) Injection {
	var s rng.Stream
	s.Reseed(trialSeed(e.cfg.Seed, trial))
	inj := Injection{
		Reg:    isa.Reg(1 + s.Intn(isa.NumRegs-1)),
		Bit:    uint(s.Intn(64)),
		AtInst: uint64(s.Int63n(int64(e.maxAt))) + 1,
	}
	if e.mesh == nil {
		lat := e.latency(sc, trialSeed(e.cfg.Seed+1, trial))
		if lat < 1 {
			lat = 1
		}
		if w := e.cfg.Sim.WCDL; w > 0 && lat > w {
			lat = w
		}
		inj.Latency = lat
		return inj
	}
	det := e.meshFor(sc, trialSeed(e.cfg.Seed+1, trial))
	d := det.Sample()
	inj.Latency, inj.Missed = d.Latency, d.Missed
	adv := e.cfg.Adversary
	if adv.BurstMax > 1 {
		// Burst size uniform in [1, BurstMax]; extras land within one
		// nominal detection window of the primary, so several strikes
		// share the pending-detection queue.
		for n := 1 + s.Intn(adv.BurstMax); n > 1; n-- {
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

// exec runs one injection on the runner's simulator, Reset from the
// golden snapshot, and reports whether the masked output matches the
// golden image. The classification comparison runs in place
// (isa.Memory.EqualMasked over the drained trial memory) — no clone, no
// sorted snapshot — so a steady-state trial performs no comparison
// allocations at all.
func (e *engine) exec(ctx context.Context, r *trialRunner, inj *Injection) (st pipeline.Stats, equal bool, err error) {
	s := r.sim
	e.gs.Reset(s)
	if e.cfg.Logger != nil {
		s.AttachLogger(ctx, e.cfg.Logger)
	}
	r.evs = inj.appendEvents(r.evs[:0])
	evs := r.evs
	next := 0
	for !s.Halted() {
		for next < len(evs) && s.Stats.Insts >= evs[next].atInst {
			ev := &evs[next]
			next++
			var err error
			if ev.fp {
				err = s.InjectFalseDetection(ev.fpLat)
			} else {
				err = s.InjectBitFlip(ev.strike.Reg, ev.strike.Bit, ev.strike.Latency)
			}
			if err != nil {
				return s.Stats, false, err
			}
		}
		if err := s.Step(); err != nil {
			return s.Stats, false, err
		}
	}
	if e.cfg.Progress != nil {
		e.cfg.Progress.Runs.Add(1)
	}
	out := s.DrainOutput()
	equal = out.EqualMasked(e.golden, e.ckptLo, e.ckptHi, isa.StackBase, isa.StackLimit)
	return s.Stats, equal, nil
}

// runTrial executes one planned injection on the runner and classifies
// it into rec — caller-provided so workers fill a preallocated record
// slab instead of heap-allocating per trial. ctx carries the worker's
// shard correlation; the trial index is added by the worker loop so the
// simulator's rare-event lines name it.
func (e *engine) runTrial(ctx context.Context, r *trialRunner, trial int, rec *TrialRecord) {
	*rec = TrialRecord{Trial: trial, Inj: e.planWith(trial, &r.scratch)}
	st, equal, err := e.exec(ctx, r, &rec.Inj)
	rec.Stats = st
	rec.Outcome = classifyResult(equal, st, err)
	if err != nil {
		rec.Err = err.Error()
	}
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

// classify is classifyResult over explicit memory images, for callers
// holding a full trial image (the serial reference path).
func classify(golden, mem *isa.Memory, st pipeline.Stats, err error) Outcome {
	equal := err == nil && golden.Equal(mem)
	return classifyResult(equal, st, err)
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
// the merged partial result. With cfg.Checkpoint set, completed trials are
// checkpointed to an atomically-rewritten JSON file and a later campaign
// with the same config resumes from that watermark; cancelling ctx also
// returns the merged partial result after a final checkpoint write.
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
	ran         bool
	// mu serializes use of the runners: Run holds it for the campaign's
	// duration, and each RunRange (the distributed shard-execution path)
	// holds it per shard — the primed simulators are exclusive state.
	mu sync.Mutex
}

// Prepare runs a campaign's serial phases — golden execution (captured
// as a pipeline.GoldenState), plan derivation, and per-worker simulator
// forking — and returns the campaign ready to Run. Splitting the phases
// lets cmd/bench meter the trial loop alone and lets services overlap
// setup with queueing.
func Prepare(ctx context.Context, prog *isa.Program, cfg Config, seedMem func(*isa.Memory)) (*Prepared, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 100
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Trials {
		workers = cfg.Trials
	}

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
	if cfg.Progress != nil {
		gsim.AttachProgress(cfg.Progress)
	}
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
	if cfg.Progress != nil {
		cfg.Progress.Runs.Add(1)
	}
	goldenStats := gs.Stats()
	maxAt := cfg.MaxInjectInst
	if maxAt == 0 {
		maxAt = goldenStats.Insts * 9 / 10
		if maxAt == 0 {
			maxAt = 1
		}
	}

	// Plan derivation: resolving the sampler fixes the injection plan as
	// a pure function of (seed, trial) — cheap for native samplers, a
	// pre-draw of every trial for non-forkable ones.
	planStart := time.Now()
	e := &engine{
		prog: prog, cfg: cfg, seedMem: seedMem, gs: gs,
		golden: mask(gs.Output()), maxAt: maxAt,
		ckptLo: prog.CkptBase,
		ckptHi: prog.CkptBase + isa.NumRegs*isa.NumColors*8,
	}
	if err := e.resolveSampler(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
	}
	span.RecordCtx(ctx, "fault", "plan_derive", planStart, time.Now(),
		map[string]any{"trials": cfg.Trials})

	// Fork one primed simulator per worker now, so the trial phase pays
	// only for trials: each worker's simulator is Reset — never rebuilt —
	// between trials.
	forkStart := time.Now()
	runners := make([]*trialRunner, workers)
	for i := range runners {
		sim, err := gs.Fork()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidConfig, err)
		}
		if cfg.Progress != nil {
			sim.AttachProgress(cfg.Progress)
		}
		// Plan one trial so the worker's plan scratch (its sampler fork)
		// and event buffer exist before the trial loop; with Fork's
		// pre-sizing this keeps even a worker's first trial from
		// allocating.
		r := &trialRunner{sim: sim}
		inj := e.planWith(0, &r.scratch)
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
	// first trial) and doubles as a determinism self-check on the forked
	// state: its masked output must match the cold golden image.
	warmStart := time.Now()
	warmStats, err := runners[0].sim.Run()
	if err != nil {
		return nil, fmt.Errorf("%w: warm golden run failed: %v", ErrInvalidConfig, err)
	}
	if warmStats.Insts != goldenStats.Insts ||
		!runners[0].sim.DrainOutput().EqualMasked(e.golden, e.ckptLo, e.ckptHi, isa.StackBase, isa.StackLimit) {
		return nil, fmt.Errorf("%w: warm golden run diverged from the cold golden run", ErrInvalidConfig)
	}
	if cfg.Progress != nil {
		cfg.Progress.Runs.Add(1)
	}
	goldenStats.Cycles = warmStats.Cycles
	span.RecordCtx(ctx, "fault", "warm_golden_run", warmStart, time.Now(),
		map[string]any{"cycles": warmStats.Cycles})

	return &Prepared{e: e, runners: runners, goldenStats: goldenStats}, nil
}

// GoldenStats returns the golden run's simulator statistics.
func (p *Prepared) GoldenStats() pipeline.Stats { return p.goldenStats }

// trialRange is one worker lease: the contiguous trial indices
// [lo, hi) a worker executes from a single dispatch.
type trialRange struct{ lo, hi int }

// Run executes the prepared campaign's trials and merges the result; see
// CampaignContext for the semantics. Run may be called once.
func (p *Prepared) Run(ctx context.Context) (*Result, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ran {
		return nil, fmt.Errorf("fault: Prepared.Run called twice")
	}
	p.ran = true
	e := p.e
	cfg := e.cfg
	goldenStats := p.goldenStats
	workers := len(p.runners)
	budget := cfg.FailureBudget
	if budget == 0 {
		budget = 1 // historical fail-fast default
	}
	every := cfg.CheckpointEvery
	if every <= 0 {
		every = 64
	}

	// records holds pointers (restore fills holes with checkpoint
	// records); fresh trials are filled into the slab so the steady-state
	// trial loop performs zero record allocations.
	records := make([]*TrialRecord, cfg.Trials)
	slab := make([]TrialRecord, cfg.Trials)
	if cfg.Checkpoint != "" {
		// Restore covers reading the watermark file and re-deriving every
		// completed trial's injection plan for validation.
		restoreStart := time.Now()
		err := e.restore(records, goldenStats)
		span.RecordCtx(ctx, "fault", "checkpoint_restore", restoreStart, time.Now(), nil)
		if err != nil {
			if !errors.Is(err, ErrCheckpointCorrupt) {
				return nil, err
			}
			// A corrupt file carries no usable progress and will be
			// atomically overwritten by the first save; restart fresh
			// rather than dying on bytes a torn write left behind.
			e.warnf("%v — restarting the campaign from trial 0", err)
			for i := range records {
				records[i] = nil
			}
		}
	}
	failures := 0
	for _, rec := range records {
		if rec != nil && (rec.Outcome == SDC || rec.Outcome == Crash) {
			failures++
		}
	}
	pending := make([]int, 0, cfg.Trials)
	if budget < 0 || failures < budget {
		for t := range records {
			if records[t] == nil {
				pending = append(pending, t)
			}
		}
	}

	// Lease size: how many consecutive trials one dispatch hands a
	// worker. The default splits the pending work into a few leases per
	// worker so the tail stays balanced, capped so checkpoint cadence
	// and budget cancellation stay responsive.
	lease := cfg.Lease
	if lease <= 0 {
		lease = cfg.Trials / (workers * 4)
		if lease > 64 {
			lease = 64
		}
	}
	if lease < 1 {
		lease = 1
	}

	log := cfg.Logger
	if log != nil {
		log.LogAttrs(ctx, slog.LevelInfo, "campaign start",
			slog.Int("trials", cfg.Trials),
			slog.Int64("seed", cfg.Seed),
			slog.Int("workers", workers),
			slog.Int("lease", lease),
			slog.Int("resumed", cfg.Trials-len(pending)),
			slog.Bool("adversarial", cfg.Adversary != nil),
		)
	}
	// Hoisted per-trial guard: with Debug disabled, the worker loop pays
	// one cached bool, not an Enabled call plus attr building per trial.
	debugOn := log != nil && log.Enabled(ctx, slog.LevelDebug)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Dispatch leases of contiguous pending trials. Resumed campaigns
	// leave holes in the pending list; a lease never spans one, so every
	// leased range is fully pending.
	work := make(chan trialRange, workers)
	go func() {
		defer close(work)
		for i := 0; i < len(pending); {
			j := i + 1
			for j < len(pending) && j-i < lease && pending[j] == pending[j-1]+1 {
				j++
			}
			select {
			case work <- trialRange{lo: pending[i], hi: pending[j-1] + 1}:
			case <-runCtx.Done():
				return
			}
			i = j
		}
	}()

	var (
		mu        sync.Mutex // guards records writes, failures, checkpoint cadence
		sinceCkpt int
		ckptErr   error
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int, runner *trialRunner) {
			defer wg.Done()
			if cfg.Progress != nil {
				cfg.Progress.Workers.Add(1)
				defer cfg.Progress.Workers.Add(-1)
			}
			wctx := olog.WithShard(runCtx, shard)
			// One span per worker covers its whole trial stream; the
			// per-trial loop runs with the tracer detached, so the hot
			// path records nothing and the ring holds per-worker phases,
			// not tens of thousands of per-trial slivers.
			sctx, shardSpan := span.Start(wctx, "fault", "shard_exec")
			loopCtx := span.Detach(sctx)
			executed := 0
			for tr := range work {
				for t := tr.lo; t < tr.hi && runCtx.Err() == nil; t++ {
					tctx := loopCtx
					if log != nil {
						tctx = olog.WithTrial(loopCtx, t)
					}
					rec := &slab[t]
					e.runTrial(tctx, runner, t, rec)
					executed++
					if debugOn {
						e.logTrial(tctx, rec)
					}
					mu.Lock()
					records[t] = rec
					sinceCkpt++
					if rec.Outcome == SDC || rec.Outcome == Crash {
						failures++
						if budget > 0 && failures >= budget {
							cancel()
						}
					}
					if cfg.Checkpoint != "" && sinceCkpt >= every {
						sinceCkpt = 0
						ckptStart := time.Now()
						err := e.save(records, goldenStats)
						span.RecordCtx(sctx, "fault", "checkpoint_write", ckptStart, time.Now(),
							map[string]any{"trial": t})
						if err != nil && ckptErr == nil {
							ckptErr = err
							cancel()
						}
					}
					mu.Unlock()
				}
			}
			shardSpan.SetArg("trials", executed)
			shardSpan.End()
		}(w, p.runners[w])
	}
	wg.Wait()

	if cfg.Checkpoint != "" {
		ckptStart := time.Now()
		err := e.save(records, goldenStats)
		span.RecordCtx(ctx, "fault", "checkpoint_write", ckptStart, time.Now(),
			map[string]any{"final": true})
		if err != nil && ckptErr == nil {
			ckptErr = err
		}
	}

	mergeStart := time.Now()
	res := e.merge(records, goldenStats)
	span.RecordCtx(ctx, "fault", "merge", mergeStart, time.Now(),
		map[string]any{"completed": res.CompletedTrials})
	if log != nil {
		log.LogAttrs(ctx, slog.LevelInfo, "campaign complete",
			slog.Int("completed", res.CompletedTrials),
			slog.Int("trials", cfg.Trials),
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
			res.CompletedTrials, cfg.Trials, ctx.Err())
	case budget > 0 && len(res.Failures) >= budget:
		f := res.Failures[0]
		if log != nil {
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

func errSuffix(s string) string {
	if s == "" {
		return ""
	}
	return ": " + s
}

// Replay re-executes one recorded injection — from Result.Failures or a
// checkpoint file — outside any campaign: golden run, injected run,
// classification. It runs the injection through the same GoldenState
// fork-and-Reset trial path campaign workers use, so a replayed trial is
// byte-identical to its campaign record regardless of the campaign's
// worker count or lease batching. On Crash the simulator's error is
// returned alongside the outcome; any golden-run failure is an error
// with outcome Crash.
func Replay(prog *isa.Program, cfg Config, seedMem func(*isa.Memory), inj Injection) (Outcome, pipeline.Stats, error) {
	ctx := context.Background()
	gsim, err := pipeline.NewContext(ctx, prog, cfg.Sim)
	if err != nil {
		return Crash, pipeline.Stats{}, fmt.Errorf("fault: golden run failed: %w", err)
	}
	if seedMem != nil {
		seedMem(gsim.Mem)
	}
	gs, err := pipeline.CaptureGolden(gsim)
	if err != nil {
		return Crash, pipeline.Stats{}, fmt.Errorf("fault: golden run failed: %w", err)
	}
	e := &engine{
		prog: prog, cfg: cfg, seedMem: seedMem, gs: gs,
		golden: mask(gs.Output()),
		ckptLo: prog.CkptBase,
		ckptHi: prog.CkptBase + isa.NumRegs*isa.NumColors*8,
	}
	sim, err := gs.Fork()
	if err != nil {
		return Crash, pipeline.Stats{}, fmt.Errorf("fault: golden run failed: %w", err)
	}
	if cfg.Progress != nil {
		sim.AttachProgress(cfg.Progress)
	}
	st, equal, err := e.exec(ctx, &trialRunner{sim: sim}, &inj)
	out := classifyResult(equal, st, err)
	if out == DUE {
		err = nil // the containment abort is the classification, not a failure
	}
	return out, st, err
}
