// Command experiments regenerates every table and figure of the paper's
// evaluation section (§6) as text tables: Figs. 4, 14, 15, 18, 19, 20, 21,
// 22, 23, 24, 25, 26 and Table 1.
//
// Usage:
//
//	experiments                # run everything at the default scale
//	experiments -scale 50 fig19 fig20
//	experiments -manifest run.json fig19   # also write a machine-diffable run manifest
//	experiments -serve :9090 fig19         # live /metrics, /live SSE, pprof while running
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

type runner func(r *experiment.Runner) (fmt.Stringer, error)

type tableResult struct{ t experiment.Table }

func (t tableResult) String() string {
	if markdownOut {
		return t.t.RenderMarkdown()
	}
	return t.t.Render()
}

// markdownOut selects markdown rendering (set by the -markdown flag).
var markdownOut bool

func main() {
	var (
		scale = flag.Int("scale", 25, "workload scale (percent of full trip count)")
		list  = flag.Bool("list", false, "list experiment names and exit")
		wcdl  = flag.Int("wcdl", 10, "default WCDL for the single-WCDL figures")
		md    = flag.Bool("markdown", false, "render tables as markdown")
	)
	cli := obs.RegisterCLI(flag.CommandLine, "experiments")
	flag.Parse()
	markdownOut = *md

	exps := map[string]runner{
		"fig4": func(r *experiment.Runner) (fmt.Stringer, error) {
			res, err := experiment.Fig4(r)
			if err != nil {
				return nil, err
			}
			return tableResult{res.Table}, nil
		},
		"fig14": func(r *experiment.Runner) (fmt.Stringer, error) {
			res, err := experiment.Fig14(r, *wcdl)
			if err != nil {
				return nil, err
			}
			return tableResult{res.Table}, nil
		},
		"fig15": func(r *experiment.Runner) (fmt.Stringer, error) {
			res, err := experiment.Fig15(r, *wcdl)
			if err != nil {
				return nil, err
			}
			return tableResult{res.Table}, nil
		},
		"fig18": func(r *experiment.Runner) (fmt.Stringer, error) {
			return tableResult{experiment.Fig18().Table}, nil
		},
		"fig19": func(r *experiment.Runner) (fmt.Stringer, error) {
			res, err := experiment.Fig19(r)
			if err != nil {
				return nil, err
			}
			return tableResult{res.Table}, nil
		},
		"fig20": func(r *experiment.Runner) (fmt.Stringer, error) {
			res, err := experiment.Fig20(r)
			if err != nil {
				return nil, err
			}
			return tableResult{res.Table}, nil
		},
		"fig21": func(r *experiment.Runner) (fmt.Stringer, error) {
			res, err := experiment.Fig21(r, *wcdl)
			if err != nil {
				return nil, err
			}
			return tableResult{res.Table}, nil
		},
		"fig22": func(r *experiment.Runner) (fmt.Stringer, error) {
			res, err := experiment.Fig22(r, *wcdl)
			if err != nil {
				return nil, err
			}
			return tableResult{res.Table}, nil
		},
		"fig23": func(r *experiment.Runner) (fmt.Stringer, error) {
			res, err := experiment.Fig23(r, *wcdl)
			if err != nil {
				return nil, err
			}
			return tableResult{res.Table}, nil
		},
		"fig24": func(r *experiment.Runner) (fmt.Stringer, error) {
			res, err := experiment.Fig24(r, *wcdl)
			if err != nil {
				return nil, err
			}
			return tableResult{res.Table}, nil
		},
		"fig25": func(r *experiment.Runner) (fmt.Stringer, error) {
			res, err := experiment.Fig25(r, *wcdl)
			if err != nil {
				return nil, err
			}
			return tableResult{res.Table}, nil
		},
		"fig26": func(r *experiment.Runner) (fmt.Stringer, error) {
			res, err := experiment.Fig26(r, *wcdl)
			if err != nil {
				return nil, err
			}
			return tableResult{res.Table}, nil
		},
		"table1": func(r *experiment.Runner) (fmt.Stringer, error) {
			return tableResult{experiment.Table1()}, nil
		},
		"workloads": func(r *experiment.Runner) (fmt.Stringer, error) {
			tab, err := experiment.WorkloadTable(r.Scale)
			if err != nil {
				return nil, err
			}
			return tableResult{tab}, nil
		},
		"energy": func(r *experiment.Runner) (fmt.Stringer, error) {
			tab, err := experiment.EnergyTable(r, *wcdl)
			if err != nil {
				return nil, err
			}
			return tableResult{tab}, nil
		},
	}

	names := make([]string, 0, len(exps))
	for n := range exps {
		names = append(names, n)
	}
	sort.Strings(names)

	if *list {
		fmt.Println(strings.Join(names, "\n"))
		return
	}

	want := flag.Args()
	if len(want) == 0 {
		want = names
	}
	man := cli.NewManifest()
	man.Config["scale_pct"] = *scale
	man.Config["wcdl"] = *wcdl
	man.Workloads = want
	wallSecs := map[string]float64{}

	r := experiment.NewRunner(*scale)

	// -serve: live registry (runner aggregate + the live.* gauges the
	// sweep's simulations publish into), sampled by /live while figures
	// run.
	if cli.Serving() {
		liveReg := obs.NewRegistry()
		r.Progress = pipeline.NewProgress(liveReg)
		err := cli.StartServer(func() obs.Snapshot {
			return r.MetricsSnapshot().Merge(liveReg.Snapshot())
		}, pipeline.NewSampler(r.Progress).Stream)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cli.CloseServer()
	}

	for _, n := range want {
		run, ok := exps[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", n)
			os.Exit(2)
		}
		start := time.Now()
		out, err := run(r)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", n, err)
			os.Exit(1)
		}
		wallSecs[n] = time.Since(start).Seconds()
		fmt.Println(out.String())
		fmt.Printf("[%s in %.1fs]\n\n", n, wallSecs[n])
	}

	if cli.WantsOutput() {
		man.Extra["experiment_wall_seconds"] = wallSecs
		if err := cli.WriteOutputs(man, r.MetricsSnapshot(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
