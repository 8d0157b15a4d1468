// Command trace dissects one compiled benchmark: the annotated
// disassembly with region boundaries and checkpoint stores, the recovery
// block of every region, per-region static store counts against the
// budget, and optionally a dynamic region timeline from the simulator
// (start/end/verify cycles and store-release classes for the first N
// regions), read from the cycle-domain tracer's region and verify spans.
//
// With -trace it additionally runs a full simulation with the cycle-domain
// tracer attached and writes the trace to a file: .json is Chrome
// trace-event JSON (open in https://ui.perfetto.dev or chrome://tracing),
// .jsonl is line-delimited JSON, .txt is human-readable. The traced run
// injects one soft error mid-run so recovery episodes appear in the trace;
// disable with -inject 0. With -metrics it writes the run's metric
// snapshot (counters + histograms) as JSON.
//
// Usage:
//
//	trace [-scheme turnpike] [-timeline 20] gcc
//	trace -trace out.json -metrics metrics.json gcc
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

func main() {
	var (
		scheme   = flag.String("scheme", "turnpike", "baseline | turnstile | turnpike")
		sb       = flag.Int("sb", 4, "store buffer entries")
		wcdl     = flag.Int("wcdl", 10, "worst-case detection latency")
		scale    = flag.Int("scale", 5, "workload scale percent")
		timeline = flag.Int("timeline", 0, "print a dynamic timeline of the first N regions")
		noDisasm = flag.Bool("q", false, "suppress the disassembly listing")
		traceOut = flag.String("trace", "", "write a cycle-domain trace to this file (.json=Perfetto, .jsonl, .txt)")
		inject   = flag.Int64("inject", -1, "inject one bit flip at this instruction during the traced run (-1 = auto, 0 = none)")
		burst    = flag.Int("burst", 1, "strikes injected at the injection point (a fault burst sharing one detection window)")
		latency  = flag.Int("latency", 0, "detection latency of the injected strike(s) (0 = WCDL; beyond WCDL shows a late-detection/degraded-mode episode)")
		fp       = flag.Bool("fp", false, "also inject a false-positive sensor firing at the injection point")
	)
	cli := obs.RegisterCLI(flag.CommandLine, "trace")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: trace [flags] <benchmark>")
		os.Exit(2)
	}
	p, ok := workload.ByName(flag.Arg(0))
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", flag.Arg(0))
		os.Exit(2)
	}

	sc, err := core.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *scheme)
		os.Exit(2)
	}
	opt := core.SchemeOptions(sc, *sb)

	f := p.Build(*scale)
	compiled, err := core.Compile(f, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	prog := compiled.Prog
	st := compiled.Stats
	fmt.Printf("%s under %s: %d instructions, %d regions, %d checkpoints "+
		"(%d pruned, %d+%d sunk, %d IVs merged), budget %d\n\n",
		p.Name, *scheme, st.InstrCount, st.Regions, st.Checkpoints,
		st.PrunedCkpts, st.SunkInBlock, st.SunkOutOfLoop, st.LIVMMerged, st.StoreBudget)

	if !*noDisasm {
		fmt.Println("== disassembly (body) ==")
		bodyEnd := len(prog.Insts)
		for i, ri := range prog.Regions {
			if ri.RecoveryPC >= 0 && ri.RecoveryPC < bodyEnd {
				bodyEnd = ri.RecoveryPC
			}
			_ = i
		}
		for i := 0; i < bodyEnd; i++ {
			in := &prog.Insts[i]
			marker := "  "
			switch {
			case in.Op == isa.BOUND:
				marker = "▶ "
			case in.Op == isa.CKPT:
				marker = "c "
			case in.Op.IsStore():
				marker = "s "
			}
			region := ""
			if prog.RegionOf != nil && prog.RegionOf[i] >= 0 {
				region = fmt.Sprintf("R%d", prog.RegionOf[i])
			}
			fmt.Printf("%4d %s %-28s %s\n", i, marker, in.String(), region)
		}

		if len(prog.Regions) > 0 {
			if reports, err := core.AnalyzeRegions(prog); err == nil {
				fmt.Println("\n== static region structure ==")
				fmt.Printf("%-8s %-8s %-10s %-8s %-8s %-8s %s\n",
					"region", "bound@", "max insts", "stores", "ckpts", "live-in", "recovery insts")
				for _, r := range reports {
					fmt.Printf("R%-7d @%-7d %-10d %-8d %-8d %-8d %d\n",
						r.ID, r.BoundPC, r.Insts, r.Stores, r.Ckpts, r.LiveIn, r.RecoveryInsts)
				}
			}
			fmt.Println("\n== recovery blocks ==")
			for _, ri := range prog.Regions {
				if ri.RecoveryPC < 0 {
					continue
				}
				fmt.Printf("R%d @%d:", ri.ID, ri.RecoveryPC)
				for pc := ri.RecoveryPC; pc < len(prog.Insts); pc++ {
					in := &prog.Insts[pc]
					fmt.Printf(" %s;", in.String())
					if in.Op == isa.JMP {
						break
					}
				}
				fmt.Println()
			}
		}
	}

	if *timeline > 0 {
		printTimeline(p, prog, opt, *sb, *wcdl, *timeline)
	}

	if *traceOut != "" || cli.WantsOutput() || cli.Serving() {
		inj := injectPlan{at: *inject, burst: *burst, latency: *latency, fp: *fp}
		if err := runObserved(p, prog, opt, *sb, *wcdl, *traceOut, inj, cli); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// injectPlan is the traced run's fault scenario from the CLI flags.
type injectPlan struct {
	at      int64 // -1 auto, 0 none
	burst   int
	latency int // 0 = WCDL
	fp      bool
}

// simConfig maps the compile options to a pipeline configuration.
func simConfig(opt core.Options, sb, wcdl int) pipeline.Config {
	switch opt.Scheme {
	case core.Baseline:
		return pipeline.BaselineConfig(sb)
	case core.Turnstile:
		return pipeline.TurnstileConfig(sb, wcdl)
	default:
		return pipeline.TurnpikeConfig(sb, wcdl)
	}
}

// runObserved executes the full workload with observability attached,
// writing the requested trace/metric/manifest files and, with -serve,
// streaming live progress while it runs. Under a resilient scheme it
// injects one soft error (auto-placed at one third of the dynamic
// instruction count unless -inject pins or disables it) so the trace shows
// a complete strike → detect → recover → re-execute episode; -burst,
// -latency, and -fp turn that into an adversarial one (multi-strike
// bursts, late detections with a degraded-mode window, spurious firings).
func runObserved(p workload.Profile, prog *isa.Program, opt core.Options, sb, wcdl int, traceOut string, inject injectPlan, cli *obs.CLI) error {
	cfg := simConfig(opt, sb, wcdl)
	// A burst's strikes and the false positive share one detection queue.
	cfg.DetectQueue = max(pipeline.DefaultDetectQueue, inject.burst+1)

	injectAt := uint64(0)
	if cfg.Resilient && inject.at != 0 {
		if inject.at > 0 {
			injectAt = uint64(inject.at)
		} else {
			// Auto placement: a quick unobserved run sizes the program.
			pre, err := pipeline.New(prog, cfg)
			if err != nil {
				return err
			}
			p.SeedMemory(pre.Mem)
			st, err := pre.Run()
			if err != nil {
				return err
			}
			injectAt = st.Insts / 3
			if injectAt == 0 {
				injectAt = 1
			}
		}
	}

	s, err := pipeline.New(prog, cfg)
	if err != nil {
		return err
	}
	p.SeedMemory(s.Mem)

	var tracer *obs.Tracer
	var traceFile *os.File
	if traceOut != "" {
		traceFile, err = os.Create(traceOut)
		if err != nil {
			return err
		}
		tracer = obs.NewTracer(obs.SinkForPath(traceFile, traceOut))
	}
	reg := obs.NewRegistry()
	s.AttachObs(pipeline.NewObs(tracer, reg))

	if cli.Serving() {
		progress := pipeline.NewProgress(reg)
		s.AttachProgress(progress)
		if err := cli.StartServer(reg.Snapshot, pipeline.NewSampler(progress).Stream); err != nil {
			return err
		}
		defer cli.CloseServer()
	}

	injected := false
	for !s.Halted() {
		if injectAt > 0 && !injected && s.Stats.Insts >= injectAt {
			lat := inject.latency
			if lat <= 0 {
				lat = wcdl
			}
			if lat < 1 {
				lat = 1
			}
			n := inject.burst
			if n < 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				if err := s.InjectBitFlip(isa.Reg(4+i%8), uint(17+i), lat+i); err != nil {
					return err
				}
			}
			if inject.fp {
				if err := s.InjectFalseDetection(lat); err != nil {
					return err
				}
			}
			injected = true
		}
		if err := s.Step(); err != nil {
			return err
		}
	}

	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return fmt.Errorf("trace sink: %w", err)
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Printf("\nwrote trace to %s (%d cycles, %d insts, %d regions, %d recoveries)\n",
			traceOut, s.Stats.Cycles, s.Stats.Insts, s.Stats.RegionsExecuted, s.Stats.Recoveries)
	}
	if cli.WantsOutput() {
		s.FillMetrics(reg)
		man := cli.NewManifest()
		man.Config["scheme"] = opt.Scheme
		man.Config["sb_size"] = sb
		man.Config["wcdl"] = wcdl
		man.Workloads = []string{p.Name}
		if err := cli.WriteOutputs(man, reg.Snapshot(), os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// printTimeline simulates and reports the first n dynamic regions, read
// from the region and verify spans the tracer records.
func printTimeline(p workload.Profile, prog *isa.Program, opt core.Options, sb, wcdl, n int) {
	if opt.Scheme == core.Baseline {
		fmt.Println("\n(no regions under the baseline; timeline skipped)")
		return
	}
	s, err := pipeline.New(prog, simConfig(opt, sb, wcdl))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p.SeedMemory(s.Mem)
	spans := &regionSpans{verifyAt: map[any]uint64{}}
	s.AttachObs(pipeline.NewObs(obs.NewTracer(spans), nil))
	for !s.Halted() && len(spans.regions) < n {
		if err := s.Step(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	fmt.Printf("\n== dynamic timeline (first %d regions, WCDL=%d) ==\n", n, wcdl)
	fmt.Printf("%-9s %-7s %-9s %-9s %-9s %-6s %-8s %-8s %s\n",
		"instance", "static", "start", "end", "verify", "insts", "warfree", "colored", "quarantined")
	for _, ev := range spans.regions[:min(n, len(spans.regions))] {
		a := ev.Args
		verify, fate := fmt.Sprintf("@%d", spans.verifyAt[a["instance"]]), ""
		if a["squashed"] != nil {
			verify, fate = "-", "  (squashed)"
		}
		fmt.Printf("#%-8d %-7s @%-8d @%-8d %-9s %-6d %-8d %-8d %d%s\n",
			a["instance"], ev.Name, ev.Start, ev.Start+ev.Dur, verify,
			a["insts"], a["warfree"], a["colored"], a["quarantined"], fate)
	}
	fmt.Printf("(totals so far: %d cycles, %d insts, %d warfree, %d colored, %d quarantined)\n",
		s.Cycle(), s.Stats.Insts, s.Stats.WARFreeReleased,
		s.Stats.ColoredReleased, s.Stats.Quarantined)
}

// regionSpans is the in-memory trace sink behind -timeline: it keeps
// the region spans in the order regions closed, and the end of each
// verify span by region instance, and drops every other event.
type regionSpans struct {
	regions  []obs.Event
	verifyAt map[any]uint64
}

func (r *regionSpans) Emit(ev obs.Event) error {
	switch ev.Track {
	case "regions":
		r.regions = append(r.regions, ev)
	case "verify":
		r.verifyAt[ev.Args["instance"]] = ev.Start + ev.Dur
	}
	return nil
}

func (r *regionSpans) Close() error { return nil }
