// Command turnpike compiles one benchmark kernel under a chosen resilience
// scheme, simulates it on the in-order core model, and prints the run-time
// overhead plus the mechanism counters.
//
// Usage:
//
//	turnpike [flags] <benchmark>
//	turnpike -list
//
// Examples:
//
//	turnpike gcc
//	turnpike -scheme turnstile -wcdl 30 lbm
//	turnpike -scheme turnpike -sb 8 -scale 50 -v mcf
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	turnpike "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	var (
		scheme = flag.String("scheme", "turnpike", "resilience scheme: baseline | turnstile | turnpike")
		sb     = flag.Int("sb", 4, "store buffer entries")
		wcdl   = flag.Int("wcdl", 10, "worst-case sensor detection latency (cycles)")
		scale  = flag.Int("scale", 25, "workload scale (percent of full trip count)")
		ideal  = flag.Bool("ideal-clq", false, "use the infinite address-matching CLQ")
		list   = flag.Bool("list", false, "list benchmarks and exit")
		verb   = flag.Bool("v", false, "print detailed mechanism counters")
		save   = flag.String("save", "", "serialize the compiled program to this file")
	)
	flag.Parse()

	if *list {
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "NAME\tSUITE\tTEMPLATE")
		for _, p := range workload.Benchmarks() {
			fmt.Fprintf(w, "%s\t%s\t%s\n", p.Name, p.Suite, p.Tmpl)
		}
		w.Flush()
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: turnpike [flags] <benchmark>   (or -list)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	bench := flag.Arg(0)

	sc, err := core.ParseScheme(*scheme)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown scheme %q\n", *scheme)
		os.Exit(2)
	}

	res, err := turnpike.Evaluate(bench, sc, turnpike.EvalConfig{
		SBSize: *sb, WCDL: *wcdl, ScalePct: *scale, CLQIdeal: *ideal,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *save != "" {
		p, _ := workload.ByName(bench)
		compiled, err := turnpike.Compile(p.Build(*scale), core.SchemeOptions(sc, *sb))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fobj, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		n, err := compiled.Prog.WriteTo(fobj)
		if cerr := fobj.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d bytes (%d instructions, %d regions) to %s\n",
			n, len(compiled.Prog.Insts), len(compiled.Prog.Regions), *save)
	}

	fmt.Printf("%s under %v (SB=%d, WCDL=%d):\n", bench, sc, *sb, *wcdl)
	fmt.Printf("  cycles           %d (baseline %d)\n", res.Cycles, res.BaselineCycles)
	fmt.Printf("  normalized time  %.3f (%.1f%% overhead)\n", res.Overhead, 100*(res.Overhead-1))
	fmt.Printf("  IPC              %.2f\n", res.Stats.IPC())
	if !*verb {
		return
	}
	st, cs := res.Stats, res.Compile
	fmt.Printf("compile: regions=%d checkpoints=%d pruned=%d sunk=%d/%d livm=%d spills=%d budget=%d\n",
		cs.Regions, cs.Checkpoints, cs.PrunedCkpts, cs.SunkInBlock, cs.SunkOutOfLoop,
		cs.LIVMMerged, cs.SpillStores, cs.StoreBudget)
	fmt.Printf("dynamic: insts=%d progStores=%d spills=%d ckpts=%d\n",
		st.Insts, st.ProgStores, st.SpillStores, st.CkptStores)
	fmt.Printf("release: warfree=%d colored=%d quarantined=%d wawBlocked=%d\n",
		st.WARFreeReleased, st.ColoredReleased, st.Quarantined, st.WAWBlocked)
	fmt.Printf("stalls:  sbFull=%d data=%d branch=%d fetch=%d rbb=%d color=%d\n",
		st.SBFullStalls, st.DataStalls, st.BranchBubbles, st.FetchStalls,
		st.RBBFullStalls, st.ColorStalls)
	fmt.Printf("regions: executed=%d clqOverflow=%d clqOcc(avg/max)=%.2f/%d\n",
		st.RegionsExecuted, st.CLQOverflows, st.AvgCLQOccupancy(), st.CLQOccMax)
}
