package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	turnpike "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/obs/span"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/workload"
)

// campaignSpec is one in-process fault-campaign workload. A run prepares
// and runs campaigns of trials trials each, with seeds derived from the
// workload seed, until the measured Run time reaches the run length and
// at least minCampaigns campaigns have run.
type campaignSpec struct {
	bench        string
	scalePct     int
	trials       int // per campaign of an untraced run
	minCampaigns int
	traceTrials  int // trials of the traced run's one campaign
	adversary    *fault.Adversary
	// paperSweep makes the traced run also re-drive one paper-eval
	// sweep, so that a gated workload measures the experiment layer and
	// checks the paper's geomeans (BASELINE.md says why paper-eval is
	// not gated itself).
	paperSweep bool
}

// lbmCampaign: each trial resets and compares a 327,575-word memory
// image and simulates a short program, so the memory-image layer
// dominates and the simulation kernel barely shows.
var lbmCampaign = campaignSpec{bench: "lbm", scalePct: 5, trials: 16, minCampaigns: 3, traceTrials: 16}

// gccCampaign: each trial simulates a long program over a small image,
// so Step dominates. The adversarial mesh exercises bursts, late
// detections, false positives and DUE aborts, which a perfect mesh
// never reaches. Its campaigns are short so that a run holds the 200 the
// 95th percentile of sim_cycles_per_cpu_s needs (see runCampaign).
var gccCampaign = campaignSpec{bench: "gcc", scalePct: 100, trials: 16, minCampaigns: 200, traceTrials: 320,
	adversary:  &fault.Adversary{MissProb: 0.1, FalsePositiveRate: 0.2, DeadSensors: 2, BurstMax: 3},
	paperSweep: true}

// campaignProcs is the campaign workloads' GOMAXPROCS. With one trial
// worker the engine has one busy goroutine; a second P could only add
// CPU time the measurement counts but the trials do not use, such as GC
// mark work on the idle P. (Interleaved gcc campaigns measured 1.005 CPU
// seconds per wall second with one P and with two.)
const campaignProcs = 1

// shardTrials is the lease size of the traced Session path, the
// service's checkpoint cadence.
const shardTrials = 16

// campaignSeed derives the seed of a run's i-th campaign.
func campaignSeed(seed int64, i int) int64 {
	return int64(rng.Mix(rng.Mix(uint64(seed))^uint64(i)) >> 1)
}

// config is the configuration of one campaign: Turnpike, one trial
// worker, every failure recorded, containment on (the default).
func (c campaignSpec) config(seed int64, trials int) turnpike.FaultCampaignConfig {
	return turnpike.FaultCampaignConfig{
		Trials: trials, Seed: seed, ScalePct: c.scalePct,
		Workers: 1, FailureBudget: -1, Adversary: c.adversary,
	}
}

// checkResult applies the campaign output checks and counts the trials
// as attempted operations; SDC, crash and missing trials are failures.
func (c campaignSpec) checkResult(rep *report, res *fault.Result, trials int) {
	bad := res.Outcomes[fault.SDC] + res.Outcomes[fault.Crash]
	missing := trials - res.CompletedTrials
	rep.attempted += trials
	rep.failed += bad + missing
	rep.check(bad == 0, "%s: %d SDC and %d crash trials under containment", c.bench, res.Outcomes[fault.SDC], res.Outcomes[fault.Crash])
	rep.check(missing == 0, "%s: %d of %d trials completed", c.bench, res.CompletedTrials, trials)
	sum := 0
	for _, n := range res.Outcomes {
		sum += n
	}
	rep.check(sum == res.CompletedTrials, "%s: outcome counts sum to %d, not %d", c.bench, sum, res.CompletedTrials)
}

// resultDigest hashes a campaign Result's JSON encoding.
func resultDigest(res *fault.Result) (string, []byte, error) {
	b, err := json.Marshal(res)
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), b, nil
}

// trialClock is a slog.Handler that timestamps the engine's per-trial
// "trial complete" Debug records. With one trial worker, consecutive
// stamps bound consecutive trials, so their differences are the trials'
// wall latencies.
type trialClock struct {
	mu     sync.Mutex
	stamps []time.Time
}

func (h *trialClock) Enabled(context.Context, slog.Level) bool { return true }
func (h *trialClock) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *trialClock) WithGroup(string) slog.Handler            { return h }

func (h *trialClock) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "trial complete" {
		h.mu.Lock()
		h.stamps = append(h.stamps, r.Time)
		h.mu.Unlock()
	}
	return nil
}

// latencies returns the trial latencies, in ms, of trials that
// completed after start, and forgets the stamps.
func (h *trialClock) latencies(start time.Time) []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]float64, 0, len(h.stamps))
	for _, t := range h.stamps {
		out = append(out, float64(t.Sub(start))/float64(time.Millisecond))
		start = t
	}
	h.stamps = h.stamps[:0]
	return out
}

// runCampaign is the untraced campaign workload: PrepareFaultCampaign
// then Prepared.Run, repeated until the measured Run time is spent.
//
// sim_cycles_per_cpu_s is the inverse of the 95th percentile of the
// campaigns' CPU seconds per simulated cycle, the rate 19 campaigns in 20
// reach, when the run holds enough campaigns for the percentile rule
// (highTail), and of their median otherwise. The trial loop's speed
// follows the memory hierarchy it shares with other tenants of the host:
// on a 2-vCPU VM, identical gcc campaigns ran at about 3.7e6 simulated
// cycles per CPU second most of the time and at 5.5e6-7e6 in the minutes
// the neighbours were quiet. A run's median reads whichever state the run
// fell in (spread 0.52 over twelve 20 s windows); the slow tail is in
// every run (spread 0.07).
func runCampaign(e *env, c campaignSpec) (*report, error) {
	runtime.GOMAXPROCS(campaignProcs)
	rep := newReport()
	ctx := context.Background()
	var setups, costs []float64
	var measured time.Duration
	trials := 0
	for i := 0; measured < e.seconds || len(setups) < c.minCampaigns; i++ {
		// Collect the previous campaign's images before timing the
		// next, so peak RSS and Prepare do not depend on GC timing.
		runtime.GC()
		cpu0 := selfCPU()
		p, err := turnpike.PrepareFaultCampaign(ctx, c.bench, turnpike.Turnpike, c.config(campaignSeed(e.seed, i), c.trials))
		if err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		setups = append(setups, (selfCPU() - cpu0).Seconds())
		// Prepare's garbage is collected here, not by a GC cycle that
		// would run on into the timed Run.
		runtime.GC()
		cpu1, t1 := selfCPU(), time.Now()
		res, err := p.Run(ctx)
		run, cpu := time.Since(t1), selfCPU()-cpu1
		if err != nil {
			return nil, fmt.Errorf("run: %w", err)
		}
		measured += run
		trials += res.CompletedTrials
		costs = append(costs, cpu.Seconds()/float64(res.Agg.Cycles))
		c.checkResult(rep, res, c.trials)
		digest, _, err := resultDigest(res)
		if err != nil {
			return nil, err
		}
		same, err := e.checkDigest(fmt.Sprintf("trials%d-campaign%d", c.trials, i), digest)
		if err != nil {
			return nil, err
		}
		rep.check(same, "campaign %d result differs from an earlier run of the same seed", i)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["sim_cycles_per_cpu_s"] = 1 / highTail(costs)
	rep.metrics["peak_rss_mb"] = rss
	fmt.Fprintf(os.Stderr, "%s: %d campaigns, %d trials, %.2fs measured\n", c.bench, len(setups), trials, measured.Seconds())
	return rep, nil
}

// timed runs fn inside a span on ctx's tracer.
func timed(ctx context.Context, layer, name string, fn func() error) error {
	_, s := span.Start(ctx, layer, name)
	err := fn()
	s.End()
	return err
}

// traceCampaign is the traced campaign workload. It runs one campaign
// untraced through Prepared.Run, the same campaign through the Session
// path (Open, then RunRange, Verify and Commit per lease, then Finish)
// with spans around each call, and checks that both Results are
// byte-identical. It then replays every trial through the public
// GoldenState calls (Reset, the Step loop, DrainOutput + EqualMasked),
// once with a span around each call and once without: the traced
// replay splits trial time into reset, execution and classification, the
// pair gives the tracing overhead, and every replay must reproduce the
// engine's outcome and statistics.
func traceCampaign(e *env, c campaignSpec) (*report, error) {
	runtime.GOMAXPROCS(campaignProcs)
	rep := newReport()
	cfg := c.config(campaignSeed(e.seed, 0), c.traceTrials)
	clock := &trialClock{}
	refCfg := cfg
	refCfg.Logger = slog.New(clock)
	plain := context.Background()

	p, err := turnpike.PrepareFaultCampaign(plain, c.bench, turnpike.Turnpike, refCfg)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	t0 := time.Now()
	ref, err := p.Run(plain)
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	engineLat := clock.latencies(t0)
	_, refJSON, err := resultDigest(ref)
	if err != nil {
		return nil, err
	}
	p = nil
	runtime.GC()

	tracer, ctx := newTracer()
	// The program's own spans are left out: every call below gets a
	// detached context, so the trace holds only this file's spans.
	quiet := span.Detach(ctx)
	sctx, session := span.Start(ctx, "perfbench", "session")
	if err := timed(sctx, "fault", "prepare", func() (err error) {
		p, err = turnpike.PrepareFaultCampaign(quiet, c.bench, turnpike.Turnpike, cfg)
		return err
	}); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var sess *fault.Session
	if err := timed(sctx, "fault", "open", func() (err error) {
		sess, err = p.Open(quiet)
		return err
	}); err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	var records []fault.TrialRecord
	for lo := 0; lo < c.traceTrials; lo += shardTrials {
		hi := min(lo+shardTrials, c.traceTrials)
		var sh *fault.ShardResult
		if err := timed(sctx, "fault", "shard", func() (err error) {
			sh, err = sess.RunRange(quiet, lo, hi)
			return err
		}); err != nil {
			return nil, fmt.Errorf("run range [%d,%d): %w", lo, hi, err)
		}
		if err := timed(sctx, "fault", "verify", sh.Verify); err != nil {
			return nil, fmt.Errorf("verify [%d,%d): %w", lo, hi, err)
		}
		if err := timed(sctx, "fault", "commit", func() error {
			_, err := sess.Commit(sh)
			return err
		}); err != nil {
			return nil, fmt.Errorf("commit [%d,%d): %w", lo, hi, err)
		}
		records = append(records, sh.Records...)
	}
	var res *fault.Result
	if err := timed(sctx, "fault", "finish", func() (err error) {
		res, err = sess.Finish(quiet)
		return err
	}); err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	session.End()
	c.checkResult(rep, res, c.traceTrials)
	_, resJSON, err := resultDigest(res)
	if err != nil {
		return nil, err
	}
	rep.check(string(resJSON) == string(refJSON), "Session result differs from Prepared.Run result")

	rctx, root := span.Start(ctx, "perfbench", "replay")
	r, err := newReplayer(rctx, c)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	tracedLat, cycles, tracedBad := r.replay(rctx, records)
	root.End()
	plainLat, _, plainBad := r.replay(plain, records)
	mismatches := plainBad + tracedBad
	rep.check(mismatches == 0, "%d of %d replayed trials did not reproduce the engine", mismatches, 2*len(records))

	m := rep.metrics
	if c.paperSweep {
		if _, err := traceSweep(ctx, tracer, rep); err != nil {
			return nil, err
		}
	}
	st, err := e.finishTrace(rep, tracer)
	if err != nil {
		return nil, err
	}
	if !c.paperSweep {
		// Without the sweep, these layers are measured once, on the
		// replay's golden-state rebuild.
		m["workload.seed_ms"] = meanSelf(st, "workload.seed", time.Millisecond)
		m["core.compile_ms"] = meanSelf(st, "core.compile", time.Millisecond)
		m["pipeline.new_ms"] = meanSelf(st, "pipeline.new", time.Millisecond)
	}
	m["pipeline.golden_ms"] = meanSelf(st, "pipeline.golden", time.Millisecond)
	m["pipeline.fork_ms"] = meanSelf(st, "pipeline.fork", time.Millisecond)
	m["pipeline.reset_us"] = meanSelf(st, "pipeline.reset", time.Microsecond)
	m["pipeline.exec_us"] = meanSelf(st, "pipeline.exec", time.Microsecond)
	m["pipeline.classify_us"] = meanSelf(st, "pipeline.classify", time.Microsecond)
	if trial := st["pipeline.reset"].Self + st["pipeline.exec"].Self + st["pipeline.classify"].Self; trial > 0 {
		m["pipeline.exec_share"] = float64(st["pipeline.exec"].Self) / float64(trial)
	}
	if cycles > 0 {
		m["pipeline.ns_per_sim_cycle"] = float64(st["pipeline.exec"].Self) / float64(cycles)
		m["pipeline.sim_cycles_per_trial"] = float64(cycles) / float64(len(records))
	}
	m["isa.image_words"] = float64(r.imageWords)
	m["fault.prepare_ms"] = meanSelf(st, "fault.prepare", time.Millisecond)
	m["fault.shard_ms"] = meanSelf(st, "fault.shard", time.Millisecond)
	m["fault.verify_us"] = meanSelf(st, "fault.verify", time.Microsecond)
	m["fault.commit_us"] = meanSelf(st, "fault.commit", time.Microsecond)
	m["fault.finish_ms"] = meanSelf(st, "fault.finish", time.Millisecond)
	m["fault.outcome.masked"] = float64(res.Outcomes[fault.Masked])
	m["fault.outcome.recovered"] = float64(res.Outcomes[fault.Recovered])
	m["fault.outcome.due"] = float64(res.Outcomes[fault.DUE])
	m["fault.outcome.sdc"] = float64(res.Outcomes[fault.SDC])
	m["fault.outcome.crash"] = float64(res.Outcomes[fault.Crash])
	m["fault.replayed_trials"] = float64(len(records))
	m["fault.replay_mismatches"] = float64(mismatches)
	m["error_rate"] = errorRate(rep.attempted, rep.failed)
	m["fault.trial_ms_p50"] = median(engineLat)
	m["trace.overhead_pct"] = overheadPct(median(plainLat), median(tracedLat), false)
	return rep, nil
}

// replayer re-executes recorded trials on a golden state rebuilt from the
// public workload, core and pipeline calls.
type replayer struct {
	gs             *pipeline.GoldenState
	sim            *pipeline.Sim // forked from gs, reset before every trial
	golden         *isa.Memory   // the golden output without the spill area
	ckptLo, ckptHi uint64        // checkpoint storage, masked when comparing
	imageWords     int           // words in the seeded memory image
}

// newReplayer rebuilds the campaign's golden state with a span around
// each call.
func newReplayer(ctx context.Context, c campaignSpec) (*replayer, error) {
	prof, ok := workload.ByName(c.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", c.bench)
	}
	var f *ir.Func
	timed(ctx, "workload", "build", func() error { f = prof.Build(c.scalePct); return nil })
	var compiled *core.Compiled
	if err := timed(ctx, "core", "compile", func() (err error) {
		compiled, err = core.Compile(f, core.TurnpikeAll(4))
		return err
	}); err != nil {
		return nil, err
	}
	prog := compiled.Prog
	var sim *pipeline.Sim
	if err := timed(ctx, "pipeline", "new", func() (err error) {
		sim, err = pipeline.New(prog, pipeline.TurnpikeConfig(4, 10))
		return err
	}); err != nil {
		return nil, err
	}
	timed(ctx, "workload", "seed", func() error { prof.SeedMemory(sim.Mem); return nil })
	r := &replayer{imageWords: sim.Mem.Len(), ckptLo: prog.CkptBase}
	r.ckptHi = r.ckptLo + isa.NumRegs*isa.NumColors*8
	if err := timed(ctx, "pipeline", "golden", func() (err error) {
		r.gs, err = pipeline.CaptureGolden(sim)
		return err
	}); err != nil {
		return nil, err
	}
	if err := timed(ctx, "pipeline", "fork", func() (err error) {
		r.sim, err = r.gs.Fork()
		return err
	}); err != nil {
		return nil, err
	}
	r.golden = withoutStack(r.gs.Output())
	return r, nil
}

// replay re-executes every recorded trial, with a span around each call
// when ctx carries a tracer and none otherwise; the timing is the same
// either way. It returns each trial's wall latency in ms, the simulated
// cycles, and how many trials did not reproduce their record's outcome
// and statistics.
func (r *replayer) replay(ctx context.Context, records []fault.TrialRecord) (lat []float64, cycles uint64, mismatches int) {
	ts := r.sim
	var evs []event
	for i := range records {
		rec := &records[i]
		evs = schedule(&rec.Inj, evs[:0])
		t0 := time.Now()
		tctx, trial := span.Start(ctx, "fault", "trial")
		_, s := span.Start(tctx, "pipeline", "reset")
		r.gs.Reset(ts)
		s.End()
		_, s = span.Start(tctx, "pipeline", "exec")
		err := execTrial(ts, evs)
		s.End()
		equal := false
		if err == nil {
			_, s = span.Start(tctx, "pipeline", "classify")
			equal = ts.DrainOutput().EqualMasked(r.golden, r.ckptLo, r.ckptHi, isa.StackBase, isa.StackLimit)
			s.End()
		}
		trial.End()
		lat = append(lat, float64(time.Since(t0))/float64(time.Millisecond))
		cycles += ts.Stats.Cycles
		if classify(equal, ts.Stats, err) != rec.Outcome || ts.Stats != rec.Stats {
			mismatches++
		}
	}
	return lat, cycles, mismatches
}

// event is one scheduled fault event of a replayed trial.
type event struct {
	at     uint64
	fp     bool
	fpLat  int
	strike fault.Strike
}

// schedule orders an injection's events as the campaign engine does: by
// instruction point, with the primary strike before burst extras before
// false positives on ties.
func schedule(inj *fault.Injection, evs []event) []event {
	evs = append(evs, event{at: inj.AtInst, strike: fault.Strike{
		Reg: inj.Reg, Bit: inj.Bit, AtInst: inj.AtInst, Latency: inj.Latency, Missed: inj.Missed}})
	for _, x := range inj.Extra {
		evs = append(evs, event{at: x.AtInst, strike: x})
	}
	for _, fp := range inj.FalsePositives {
		evs = append(evs, event{at: fp.AtInst, fp: true, fpLat: fp.Latency})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
	return evs
}

// execTrial steps a reset simulator to halt, firing each event once the
// retired-instruction count reaches its point.
func execTrial(s *pipeline.Sim, evs []event) error {
	next := 0
	for !s.Halted() {
		for next < len(evs) && s.Stats.Insts >= evs[next].at {
			ev := evs[next]
			next++
			var err error
			if ev.fp {
				err = s.InjectFalseDetection(ev.fpLat)
			} else {
				err = s.InjectBitFlip(ev.strike.Reg, ev.strike.Bit, ev.strike.Latency)
			}
			if err != nil {
				return err
			}
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// classify maps a replayed trial to its outcome as the campaign engine
// does: a containment abort is a DUE, any other error a crash, a
// differing output an SDC, a correct output after a recovery recovered.
func classify(equal bool, st pipeline.Stats, err error) fault.Outcome {
	var due *pipeline.DUEError
	switch {
	case errors.As(err, &due):
		return fault.DUE
	case err != nil:
		return fault.Crash
	case !equal:
		return fault.SDC
	case st.Recoveries > 0:
		return fault.Recovered
	}
	return fault.Masked
}

// withoutStack copies m without the register allocator's spill area,
// the image campaign trials are classified against.
func withoutStack(m *isa.Memory) *isa.Memory {
	out := isa.NewMemory()
	for _, w := range m.Snapshot() {
		if w.Addr < isa.StackBase || w.Addr >= isa.StackLimit {
			out.Store(w.Addr, w.Val)
		}
	}
	return out
}
