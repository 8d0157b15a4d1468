package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/ir"
	"repro/internal/obs/span"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// paperScale is cmd/experiments' default workload scale.
const paperScale = 25

// paperWCDLs is the WCDL axis of Figs. 19 and 20.
var paperWCDLs = []int{10, 20, 30, 40, 50}

// The Fig. 19/20 geomean overheads at WCDL 10 over every benchmark, at
// paperScale. They are simulated, so any change that only makes the
// simulator faster must reproduce them bit for bit.
const (
	turnpikeGmeanWCDL10  = 1.0392898342606258
	turnstileGmeanWCDL10 = 1.2658400152613976
)

// paperOptions are the three compilations the sweep simulates, in the
// form experiment.Runner keys its compile cache by.
var paperOptions = []core.Options{
	{Scheme: core.Baseline, SBSize: 4},
	core.TurnpikeAll(4),
	{Scheme: core.Turnstile, SBSize: 4},
}

// sweep is one Fig. 19 + Fig. 20 evaluation.
type sweep struct {
	setupCPU    time.Duration // process CPU time compiling every program
	run         time.Duration // wall time of Fig19 + Fig20
	cpu         time.Duration // process CPU time of Fig19 + Fig20
	simulations int64
	cycles      uint64
	turnpike    map[int]map[string]float64 // WCDL -> bench -> normalized time
	turnstile   map[int]map[string]float64
}

// gmeans returns the WCDL-10 geomeans over every benchmark, summed in
// workload.Names() order so that equal sweeps give bit-identical values.
func (s *sweep) gmeans() (tp, ts float64) {
	var a, b []float64
	for _, n := range workload.Names() {
		a = append(a, s.turnpike[10][n])
		b = append(b, s.turnstile[10][n])
	}
	return experiment.Geomean(a), experiment.Geomean(b)
}

// digest hashes every normalized time of the sweep.
func (s *sweep) digest() (string, error) {
	b, err := json.Marshal([]any{s.turnpike, s.turnstile})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// runSweep evaluates Figs. 19 and 20 on a fresh experiment.Runner: set-up
// compiles every benchmark under every scheme into the runner's cache,
// then Fig19 and Fig20 simulate.
func runSweep() (*sweep, error) {
	setup0 := selfCPU()
	r := experiment.NewRunner(paperScale)
	for _, b := range workload.Names() {
		for _, opt := range paperOptions {
			if _, err := r.Compile(b, opt); err != nil {
				return nil, err
			}
		}
	}
	cpu0, t1 := selfCPU(), time.Now()
	f19, err := experiment.Fig19(r)
	if err != nil {
		return nil, err
	}
	f20, err := experiment.Fig20(r)
	if err != nil {
		return nil, err
	}
	run, cpu := time.Since(t1), selfCPU()-cpu0
	snap := r.MetricsSnapshot()
	return &sweep{
		setupCPU: cpu0 - setup0, run: run, cpu: cpu,
		simulations: snap.Gauges["runner.simulations"],
		cycles:      snap.Counters["sim.cycles"],
		turnpike:    f19.Overhead, turnstile: f20.Overhead,
	}, nil
}

// checkSweep applies the paper-eval output checks to one sweep.
func checkSweep(rep *report, s *sweep) {
	want := int64(len(workload.Names()) * (1 + 2*len(paperWCDLs)))
	rep.attempted += int(want)
	rep.failed += int(want - s.simulations)
	rep.check(s.simulations == want, "sweep ran %d simulations, want %d", s.simulations, want)
	tp, ts := s.gmeans()
	rep.check(tp == turnpikeGmeanWCDL10, "Turnpike WCDL-10 geomean %v, want %v", tp, turnpikeGmeanWCDL10)
	rep.check(ts == turnstileGmeanWCDL10, "Turnstile WCDL-10 geomean %v, want %v", ts, turnstileGmeanWCDL10)
}

// paperProcs is the paper-eval GOMAXPROCS, so Fig19 and Fig20 simulate
// on one goroutine and the set-up compiles and the traced re-drive run
// serially like them. The sweep allocates a seeded memory image per
// simulation and collects garbage hundreds of times; on a 2-vCPU VM
// shared with other tenants its CPU time per simulated cycle spread 13%
// across identical sweeps with two simulating goroutines and 5% with one.
const paperProcs = 1

// runPaperEval is the untraced paper-eval workload: fresh-runner sweeps
// until the measured simulation time is spent. The paper's inputs are
// fixed, so the seed selects nothing; every sweep must give the same
// normalized times, within the run and across runs.
func runPaperEval(e *env) (*report, error) {
	runtime.GOMAXPROCS(paperProcs)
	rep := newReport()
	var setups, cycleRates []float64
	var measured time.Duration
	var first string
	for len(setups) < 3 || measured < e.seconds {
		runtime.GC()
		s, err := runSweep()
		if err != nil {
			return nil, err
		}
		measured += s.run
		setups = append(setups, s.setupCPU.Seconds())
		cycleRates = append(cycleRates, float64(s.cycles)/s.cpu.Seconds())
		fmt.Fprintf(os.Stderr, "sweep %d: set-up %v CPU, simulate %v wall, %v CPU\n", len(setups)-1,
			s.setupCPU.Round(time.Millisecond), s.run.Round(time.Millisecond), s.cpu.Round(time.Millisecond))
		checkSweep(rep, s)
		d, err := s.digest()
		if err != nil {
			return nil, err
		}
		if first == "" {
			first = d
			same, err := e.checkDigest("sweep", d)
			if err != nil {
				return nil, err
			}
			rep.check(same, "sweep differs from an earlier run")
		}
		rep.check(d == first, "sweep %d differs from the run's first sweep", len(setups)-1)
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["sim_cycles_per_cpu_s"] = median(cycleRates)
	rep.metrics["peak_rss_mb"] = rss
	fmt.Fprintf(os.Stderr, "paper-eval: %d sweeps, %.2fs measured\n", len(setups), measured.Seconds())
	return rep, nil
}

// tracePaperEval is the traced paper-eval workload: traceSweep on a
// fresh tracer.
func tracePaperEval(e *env) (*report, error) {
	runtime.GOMAXPROCS(paperProcs)
	rep := newReport()
	tracer, ctx := newTracer()
	overhead, err := traceSweep(ctx, tracer, rep)
	if err != nil {
		return nil, err
	}
	if _, err := e.finishTrace(rep, tracer); err != nil {
		return nil, err
	}
	rep.metrics["error_rate"] = errorRate(rep.attempted, rep.failed)
	rep.metrics["trace.overhead_pct"] = overhead
	return rep, nil
}

// traceSweep runs one untraced sweep, then re-drives the same sweep
// through Build, Compile, New, SeedMemory and Run with spans on ctx's
// tracer around each call, and checks that the re-drive reproduces every
// normalized time of the untraced sweep and both pinned geomeans. It sets
// the experiment.* metrics and the per-call layer metrics from the spans
// it recorded, and returns the tracing overhead on simulated cycles per
// CPU second; the compiles are set-up on both sides and left out of it.
func traceSweep(ctx context.Context, t *span.Tracer, rep *report) (overhead float64, err error) {
	ref, err := runSweep()
	if err != nil {
		return 0, err
	}
	checkSweep(rep, ref)
	runtime.GC()

	n0 := len(t.Spans())
	rctx, root := span.Start(ctx, "perfbench", "sweep")
	names := workload.Names()
	progs := make([][]*core.Compiled, len(names))
	for i, b := range names {
		if progs[i], err = compileBench(rctx, b); err != nil {
			return 0, err
		}
	}
	cpu0 := selfCPU()
	got := &sweep{turnpike: map[int]map[string]float64{}, turnstile: map[int]map[string]float64{}}
	for _, w := range paperWCDLs {
		got.turnpike[w] = map[string]float64{}
		got.turnstile[w] = map[string]float64{}
	}
	for i, b := range names {
		cycles, sims, tp, ts, err := simulateBench(rctx, b, progs[i])
		if err != nil {
			return 0, err
		}
		got.cycles += cycles
		got.simulations += sims
		for j, w := range paperWCDLs {
			got.turnpike[w][b] = tp[j]
			got.turnstile[w][b] = ts[j]
		}
	}
	cpu := selfCPU() - cpu0
	root.End()
	want, err := ref.digest()
	if err != nil {
		return 0, err
	}
	d, err := got.digest()
	if err != nil {
		return 0, err
	}
	rep.check(d == want, "re-driven sweep differs from experiment.Fig19/Fig20")
	rep.check(got.simulations == ref.simulations, "re-drive ran %d simulations, the runner %d", got.simulations, ref.simulations)
	rep.check(got.cycles == ref.cycles, "re-drive simulated %d cycles, the runner %d", got.cycles, ref.cycles)

	st := selfTimes(t.Spans()[n0:])
	m := rep.metrics
	m["workload.seed_ms"] = meanSelf(st, "workload.seed", time.Millisecond)
	m["core.compile_ms"] = meanSelf(st, "core.compile", time.Millisecond)
	m["pipeline.new_ms"] = meanSelf(st, "pipeline.new", time.Millisecond)
	if got.cycles > 0 {
		m["pipeline.run_ns_per_cycle"] = float64(st["pipeline.run"].Self) / float64(got.cycles)
	}
	m["experiment.simulations"] = float64(ref.simulations)
	m["experiment.sweep_ms"] = float64(ref.run) / float64(time.Millisecond)
	tp, ts := got.gmeans()
	m["experiment.turnpike_overhead_gmean"] = tp
	m["experiment.turnstile_overhead_gmean"] = ts
	overhead = overheadPct(float64(ref.cycles)/ref.cpu.Seconds(), float64(got.cycles)/cpu.Seconds(), true)
	fmt.Fprintf(os.Stderr, "paper-eval sweep: tracing overhead %.2f%% on simulated cycles per CPU second\n", overhead)
	return overhead, nil
}

// compileBench builds and compiles one benchmark under the three sweep
// compilations.
func compileBench(ctx context.Context, bench string) ([]*core.Compiled, error) {
	prof, _ := workload.ByName(bench)
	progs := make([]*core.Compiled, len(paperOptions))
	for i, opt := range paperOptions {
		var f *ir.Func
		timed(ctx, "workload", "build", func() error { f = prof.Build(paperScale); return nil })
		if err := timed(ctx, "core", "compile", func() (err error) {
			progs[i], err = core.Compile(f, opt)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return progs, nil
}

// simulateBench simulates one benchmark's baseline once and each scheme
// at every WCDL, returning the simulated cycles, the simulation count
// and the normalized times per WCDL.
func simulateBench(ctx context.Context, bench string, progs []*core.Compiled) (cycles uint64, sims int64, tp, ts []float64, err error) {
	prof, _ := workload.ByName(bench)
	simulate := func(c *core.Compiled, cfg pipeline.Config) (uint64, error) {
		var s *pipeline.Sim
		if err := timed(ctx, "pipeline", "new", func() (err error) {
			s, err = pipeline.New(c.Prog, cfg)
			return err
		}); err != nil {
			return 0, err
		}
		timed(ctx, "workload", "seed", func() error { prof.SeedMemory(s.Mem); return nil })
		var st pipeline.Stats
		if err := timed(ctx, "pipeline", "run", func() (err error) {
			st, err = s.Run()
			return err
		}); err != nil {
			return 0, err
		}
		cycles += st.Cycles
		sims++
		return st.Cycles, nil
	}
	base, err := simulate(progs[0], pipeline.BaselineConfig(4))
	if err != nil {
		return 0, 0, nil, nil, err
	}
	for _, w := range paperWCDLs {
		c, err := simulate(progs[1], pipeline.TurnpikeConfig(4, w))
		if err != nil {
			return 0, 0, nil, nil, err
		}
		tp = append(tp, float64(c)/float64(base))
		c, err = simulate(progs[2], pipeline.TurnstileConfig(4, w))
		if err != nil {
			return 0, 0, nil, nil, err
		}
		ts = append(ts, float64(c)/float64(base))
	}
	return cycles, sims, tp, ts, nil
}
