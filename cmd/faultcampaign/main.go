// Command faultcampaign runs single-bit-flip soft-error injection against
// one or more benchmarks and reports outcome classes. The invariant under
// both resilient schemes is zero SDC: every fault is either masked or
// detected by the sensor model and repaired through the compiler-generated
// recovery blocks.
//
// Trials are independently seeded and fan out over a worker pool; the
// outcome histogram and failure report are identical for every -workers
// value at a fixed seed.
//
// Usage:
//
//	faultcampaign                      # quick campaign on a sample set
//	faultcampaign -trials 500 gcc lbm
//	faultcampaign -scheme turnstile -wcdl 30 -all
//	faultcampaign -workers 1 -seed 42 gcc  # serial, same result as parallel
//	faultcampaign -budget -1 -trials 10000 gcc   # record every failure, never abort
//	faultcampaign -resume ckpt -trials 10000 gcc # checkpoint to ckpt-gcc.json; re-run resumes
//	faultcampaign -manifest run.json gcc   # write a JSON run manifest
//	faultcampaign -serve :9090 -all        # live /metrics + /live SSE mid-campaign
//	faultcampaign -spans trace.json gcc    # wall-clock spans (Perfetto) + phase budget
//
// Unless -resume is set, the report ends with what the reconvergence
// cut did per benchmark (DESIGN.md §3): trials cut, comparisons made and
// the check that rejected each, the cuts the cache replay decided and
// its refusals, the jumps between fault events and the instructions
// they skipped, and the instructions resumed past, stepped before the
// last fault event and simulated after it.
//
// Adversarial campaigns replace the perfect sensor mesh with an imperfect
// one — dead sensors, detections beyond the WCDL, multi-strike bursts, and
// false positives — and report detection coverage plus the DUE rate with
// Wilson 95% intervals. The invariant shifts: misses become DUEs (detected
// but unrecoverable, machine aborted), never SDC:
//
//	faultcampaign -missprob 0.2 -burst 3 -deadsensors 50 -fprate 0.05 gcc
//	faultcampaign -missprob 0.2 -containment=false gcc  # unsafe point: expect SDC
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"text/tabwriter"

	turnpike "repro"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/obs/span"
	"repro/internal/pipeline"
)

func main() {
	var (
		scheme  = flag.String("scheme", "turnpike", "resilience scheme: turnstile | turnpike")
		trials  = flag.Int("trials", 100, "injections per benchmark")
		wcdl    = flag.Int("wcdl", 10, "worst-case sensor detection latency (cycles)")
		sb      = flag.Int("sb", 4, "store buffer entries")
		scale   = flag.Int("scale", 8, "workload scale (percent)")
		seed    = flag.Int64("seed", 1, "campaign seed")
		all     = flag.Bool("all", false, "run every benchmark")
		workers = flag.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS); the result is identical for every value")
		lease   = flag.Int("lease", 0, "consecutive trials per worker dispatch (0 = automatic); the result is identical for every value")
		budget  = flag.Int("budget", 0, "failure budget: abort after this many SDC/crash trials (0 = first failure, -1 = record all, never abort)")
		resume  = flag.String("resume", "", "checkpoint path prefix; completed trials persist to <prefix>-<bench>.json and a re-run resumes from them")

		missprob    = flag.Float64("missprob", 0, "adversary: per-strike probability the detection lands beyond the WCDL")
		fprate      = flag.Float64("fprate", 0, "adversary: per-trial probability of a spurious sensor firing")
		deadsensors = flag.Int("deadsensors", 0, "adversary: sensors of the nominal mesh that are offline")
		burst       = flag.Int("burst", 0, "adversary: max strikes per trial (burst size drawn uniform in [1, burst])")
		latefactor  = flag.Float64("latefactor", 0, "adversary: late detections bounded at latefactor x WCDL (values below 2 mean 2)")
		containment = flag.Bool("containment", true, "abort as DUE when a detection arrives after its region verified (off = unsafe, demonstrates SDC)")
		profileDir  = flag.String("profile", "", "directory for pprof profiles (CPU + heap) and a per-trial cost report bracketing the whole campaign (empty = off)")
		spansOut    = flag.String("spans", "", "wall-clock span trace file (.jsonl = JSON lines, else Chrome trace JSON for Perfetto) plus a phase-budget table (empty = off)")
		jsonOut     = flag.String("json", "", "write the merged campaign Result per benchmark as JSON to this file — the canonical form fleet CI diffs against (empty = off)")
	)
	cli := obs.RegisterCLI(flag.CommandLine, "faultcampaign")
	flag.Parse()

	sc, err := core.ParseScheme(*scheme)
	if err != nil || sc == core.Baseline {
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *scheme)
		os.Exit(2)
	}

	benches := flag.Args()
	if *all {
		benches = turnpike.BenchmarkNames()
	} else if len(benches) == 0 {
		benches = []string{"gcc", "lbm", "mcf", "exchange2", "radix"}
	}

	var adv *turnpike.FaultAdversary
	if *missprob > 0 || *fprate > 0 || *deadsensors > 0 || *burst > 1 || *latefactor > 0 {
		adv = &turnpike.FaultAdversary{
			MissProb:          *missprob,
			FalsePositiveRate: *fprate,
			DeadSensors:       *deadsensors,
			BurstMax:          *burst,
			LateFactor:        *latefactor,
		}
	}

	man := cli.NewManifest()
	man.Config["scheme"] = *scheme
	man.Config["trials"] = *trials
	man.Config["wcdl"] = *wcdl
	man.Config["sb_size"] = *sb
	man.Config["scale_pct"] = *scale
	man.Config["workers"] = *workers
	man.Config["lease"] = *lease
	man.Config["failure_budget"] = *budget
	man.Config["containment"] = *containment
	if adv != nil {
		man.Config["adversary"] = adv
	}
	man.Seed = *seed
	man.Workloads = benches
	reg := obs.NewRegistry()
	outcomes := map[string]map[string]int{}
	failures := map[string][]fault.TrialFailure{}
	results := map[string]*fault.Result{}

	// Ctrl-C or a supervisor's SIGTERM cancels outstanding trials; with
	// -resume each benchmark's checkpoint already holds every completed
	// trial, so the next invocation picks up from them. Both signals
	// take the same path: partial results, exit 130, resume hint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -serve: the campaign registry is scraped live (its counters and
	// histograms are goroutine-safe), and /live samples the live.*
	// gauges every trial's simulator publishes into — including the
	// active worker count.
	if cli.Serving() {
		if err := cli.StartServer(reg.Snapshot, pipeline.NewSampler(pipeline.NewProgress(reg)).Stream); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cli.CloseServer()
	}

	// -spans: a wall-clock tracer rides the context into every campaign;
	// each benchmark runs under one "campaign" root span, the engine's
	// phases (golden run, shard execution, checkpoints, merge) nest under
	// it, and the file + phase-budget table are written at the end.
	var tracer *span.Tracer
	var spanFile *os.File
	if *spansOut != "" {
		var err error
		spanFile, err = os.Create(*spansOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		tracer = span.New(span.Config{Metrics: reg, Sink: obs.SinkForPath(spanFile, *spansOut)})
		ctx = span.Into(ctx, tracer)
	}

	// -profile: one CPU + heap capture brackets every campaign below; the
	// cost report divides the usage over all completed trials.
	var capture *profile.Capture
	if *profileDir != "" {
		var err error
		if capture, err = profile.Start(*profileDir, "faultcampaign", true); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "BENCHMARK\tMASKED\tRECOVERED\tSDC\tCRASH\tDUE\tAVG RECOVERY (cyc)\tP50 SLOWDOWN\tP99 SLOWDOWN")
	totalSDC := 0
	completedTrials := 0
	var coverage, cuts []string
	interrupted := false
	for _, b := range benches {
		ckpt := ""
		if *resume != "" {
			ckpt = fmt.Sprintf("%s-%s.json", *resume, b)
		}
		cutBefore := cutValues(reg)
		bctx, bspan := span.Start(ctx, "cli", "campaign")
		bspan.SetArg("bench", b)
		res, err := turnpike.InjectFaultsContext(bctx, b, sc, turnpike.FaultCampaignConfig{
			Trials: *trials, Seed: *seed, SBSize: *sb, WCDL: *wcdl, ScalePct: *scale,
			Metrics: reg,
			Workers: *workers, Lease: *lease, FailureBudget: *budget, Checkpoint: ckpt,
			Adversary: adv, Containment: containment,
		})
		bspan.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", b, err)
			if res == nil || ctx.Err() == nil {
				w.Flush()
				printFailures(failures)
				os.Exit(1)
			}
			interrupted = true
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.0f\t%.3f\t%.3f\n", b,
			res.Outcomes[fault.Masked], res.Outcomes[fault.Recovered],
			res.Outcomes[fault.SDC], res.Outcomes[fault.Crash],
			res.Outcomes[fault.DUE],
			res.AvgRecoveryCycles,
			res.SlowdownPercentile(50), res.SlowdownPercentile(99))
		totalSDC += res.Outcomes[fault.SDC]
		completedTrials += res.CompletedTrials
		if adv != nil {
			coverage = append(coverage, fmt.Sprintf(
				"%s: coverage %.1f%% [%.1f%%, %.1f%%] (%d/%d strikes), DUE rate %.1f%% [%.1f%%, %.1f%%], SDC rate %.1f%% [%.1f%%, %.1f%%]",
				b,
				100*res.Coverage.Rate, 100*res.Coverage.Lo, 100*res.Coverage.Hi,
				res.Coverage.Successes, res.Coverage.Total,
				100*res.DUERate.Rate, 100*res.DUERate.Lo, 100*res.DUERate.Hi,
				100*res.SDCRate.Rate, 100*res.SDCRate.Lo, 100*res.SDCRate.Hi))
		}
		cuts = append(cuts, cutLine(b, res.CompletedTrials, cutBefore, cutValues(reg)))
		per := map[string]int{}
		for o, n := range res.Outcomes {
			per[o.String()] = n
		}
		outcomes[b] = per
		results[b] = res
		if len(res.Failures) > 0 {
			failures[b] = res.Failures
		}
		if interrupted {
			break
		}
	}
	w.Flush()
	// -json: the merged Result per benchmark, exactly as campaignd serves
	// it in a job record. The fleet CI job regenerates this single-node
	// form and diffs it against both the committed reference and the
	// distributed run's merged result: three executors, one byte stream.
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("campaign results written to %s\n", *jsonOut)
	}
	if capture != nil {
		usage, err := capture.Stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep := usage.Report(completedTrials)
		rep.Workload = fmt.Sprint(benches)
		rep.Scheme = *scheme
		rep.CPUProfile = capture.CPUProfilePath()
		rep.HeapProfile = capture.HeapProfilePath()
		costPath := filepath.Join(*profileDir, "faultcampaign.cost.json")
		if err := rep.WriteFile(costPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\ncampaign cost: %s\nprofiles: %s %s\ncost report: %s\n",
			rep, capture.CPUProfilePath(), capture.HeapProfilePath(), costPath)
	}
	if len(coverage) > 0 {
		fmt.Println("\nadversarial mesh (Wilson 95% intervals):")
		for _, line := range coverage {
			fmt.Println("  " + line)
		}
	}
	// The cut counters count the trials this process ran. A -resume
	// campaign may restore trials it did not run, and a resumed
	// campaign's report must equal the uninterrupted one's, so it
	// prints none.
	if *resume == "" {
		fmt.Println("\nreconvergence cut:")
		for _, line := range cuts {
			fmt.Println("  " + line)
		}
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "span trace: %v\n", err)
		}
		if err := spanFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "span trace: %v\n", err)
		}
		fmt.Println()
		fmt.Print(span.Analyze("", tracer.Spans()).Table("phase budget (wall clock)").Render())
		fmt.Printf("span trace written to %s (open in https://ui.perfetto.dev)\n", *spansOut)
	}
	printFailures(failures)
	switch {
	case interrupted:
		fmt.Println("\ninterrupted: partial results above; re-run with the same -resume prefix to continue")
		os.Exit(130)
	case totalSDC > 0 && *containment:
		fmt.Println("\nFAIL: silent data corruption observed")
		os.Exit(1)
	case totalSDC > 0:
		fmt.Printf("\n%d SDC outcomes with containment disabled (the expected unsafe operating point)\n", totalSDC)
	default:
		fmt.Printf("\n%v: no silent data corruption across %d benchmarks x %d trials\n",
			sc, len(benches), *trials)
	}

	if cli.WantsOutput() {
		man.Extra["outcomes_by_benchmark"] = outcomes
		if len(failures) > 0 {
			man.Extra["failures_by_benchmark"] = failures
		}
		if err := cli.WriteOutputs(man, reg.Snapshot(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// printFailures dumps the replayable failure report: one line per SDC or
// crash trial, in trial order, with the exact injection to hand to
// turnpike.ReplayFault (or fault.Replay) for debugging.
func printFailures(failures map[string][]fault.TrialFailure) {
	for _, b := range sortedKeys(failures) {
		fmt.Printf("\n%s failure report (%d):\n", b, len(failures[b]))
		for _, f := range failures[b] {
			fmt.Printf("  trial %d: %s reg=%d bit=%d at_inst=%d latency=%d%s\n",
				f.Trial, f.Outcome, f.Inj.Reg, f.Inj.Bit, f.Inj.AtInst, f.Inj.Latency,
				errSuffix(f.Err))
		}
	}
}

// cutValues reads the registry's reconvergence-cut counters.
func cutValues(reg *obs.Registry) []uint64 {
	v := make([]uint64, len(fault.CutCounters))
	for i, name := range fault.CutCounters {
		v[i] = reg.Counter(name).Value()
	}
	return v
}

// cutLine reports what the reconvergence cut did for one benchmark's
// campaign of trials: the counters' growth from before to after, in
// fault.CutCounters order.
func cutLine(bench string, trials int, before, after []uint64) string {
	d := make([]any, len(after))
	for i := range after {
		d[i] = after[i] - before[i]
	}
	return fmt.Sprintf("%s: %d of %d trials cut; %d comparisons, rejected by a pending detection %d, "+
		"state %d, memory %d, caches %d; cache replay cut %d, refused %d at a level; "+
		"%d jumps between events over %d instructions; "+
		"instructions resumed past %d, stepped before the last event %d, simulated after it %d",
		append([]any{bench, d[0], trials}, d[1:]...)...)
}

func errSuffix(s string) string {
	if s == "" {
		return ""
	}
	return " err=" + s
}

func sortedKeys(m map[string][]fault.TrialFailure) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
