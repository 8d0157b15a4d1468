// Command bench runs the workload x scheme performance matrix and tracks
// its trajectory across commits. Every run writes a numbered manifest
// (BENCH_1.json, BENCH_2.json, ...) into -dir and, when a prior manifest
// exists, diffs the new results against the most recent one with
// per-metric relative thresholds: cycle-count or overhead growth and IPC
// loss beyond tolerance are regressions and make the command exit nonzero.
// The simulator is deterministic (integer cycle counts, no wall-clock
// dependence), so the tolerances can be tight and the gate runs anywhere.
//
// Usage:
//
//	bench                              # default matrix, diff vs latest BENCH_*.json
//	bench -scale 10 gcc lbm            # subset at a larger scale
//	bench -schemes turnpike -dir runs  # keep the trajectory elsewhere
//	bench -tol-cycles 0.5              # tighten the cycle tolerance (percent)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	turnpike "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/obs/span"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchResult is one cell of the matrix, stored under
// Extra["results"]["<bench>/<scheme>"] in the manifest. The campaign
// cost metrics (trials/sec, ns/trial, allocs/trial) are measured only
// for the resilient schemes — they run a small fault campaign — and are
// zero in cells (and old manifests) that never measured them, which the
// diff treats as "no prior data", not a regression.
type benchResult struct {
	Cycles   uint64  `json:"cycles"`
	Insts    uint64  `json:"insts"`
	IPC      float64 `json:"ipc"`
	Overhead float64 `json:"overhead"` // cycles / baseline cycles

	TrialsPerSec   float64 `json:"trials_per_sec,omitempty"`
	NsPerTrial     float64 `json:"ns_per_trial,omitempty"`
	AllocsPerTrial float64 `json:"allocs_per_trial,omitempty"`
}

// benchPattern matches trajectory manifests and captures their sequence
// number.
var benchPattern = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// run is the testable entry point; it returns the process exit code
// (0 = ok, 1 = regression or run failure, 2 = usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale       = fs.Int("scale", 5, "workload scale (percent of full trip count)")
		sb          = fs.Int("sb", 4, "store buffer entries")
		wcdl        = fs.Int("wcdl", 10, "worst-case sensor detection latency (cycles)")
		dir         = fs.String("dir", ".", "directory holding the BENCH_<n>.json trajectory")
		schemes     = fs.String("schemes", "baseline,turnstile,turnpike", "comma-separated schemes to run")
		tolCycles   = fs.Float64("tol-cycles", 1.0, "max cycle-count growth before regression (percent)")
		tolIPC      = fs.Float64("tol-ipc", 1.0, "max IPC loss before regression (percent)")
		tolOverhead = fs.Float64("tol-overhead", 1.0, "max overhead growth before regression (percent)")
		trials      = fs.Int("trials", 32, "fault-campaign trials per resilient cell for the cost metrics (0 skips them)")
		tolAllocs   = fs.Float64("tol-allocs", 25.0, "max allocs/trial growth before regression (percent)")
		tolTrialSec = fs.Float64("tol-trialsec", 0, "max trials/sec loss before regression (percent); 0 disables the gate (wall-clock is machine-dependent)")
		profileDir  = fs.String("profile", "", "directory for pprof profiles + cost report bracketing the campaign cells (empty = off)")
		spansOut    = fs.String("spans", "", "wall-clock span trace file for the campaign cells (.jsonl = JSON lines, else Chrome trace JSON) plus a phase-budget table (empty = off)")
		trendOut    = fs.String("trend", "", "CSV file to append one campaign-cost row per resilient cell (seq,cell,trials_per_sec,ns_per_trial,allocs_per_trial); the header is written when the file is new (empty = off)")
		summaryOut  = fs.String("summary", "", "file to append the trajectory delta table as markdown, e.g. $GITHUB_STEP_SUMMARY (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	benches := fs.Args()
	if len(benches) == 0 {
		benches = []string{"gcc", "lbm", "mcf", "exchange2", "radix"}
	}
	var schemeNames []string
	for _, s := range strings.Split(*schemes, ",") {
		s = strings.TrimSpace(s)
		if _, err := core.ParseScheme(s); err != nil {
			fmt.Fprintf(stderr, "bench: unknown scheme %q\n", s)
			return 2
		}
		schemeNames = append(schemeNames, s)
	}

	// Run the matrix.
	man := obs.NewManifest("bench")
	man.Config["scale_pct"] = *scale
	man.Config["sb_size"] = *sb
	man.Config["wcdl"] = *wcdl
	man.Config["schemes"] = schemeNames
	man.Config["trials"] = *trials
	man.Workloads = benches
	results := map[string]benchResult{}
	for _, b := range benches {
		for _, sn := range schemeNames {
			sc, _ := core.ParseScheme(sn) // validated with the flags
			res, err := turnpike.Evaluate(b, sc, turnpike.EvalConfig{
				SBSize: *sb, WCDL: *wcdl, ScalePct: *scale,
			})
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s/%s: %v\n", b, sn, err)
				return 1
			}
			ipc := float64(res.Stats.Insts) / float64(res.Cycles)
			results[b+"/"+sn] = benchResult{
				Cycles:   res.Cycles,
				Insts:    res.Stats.Insts,
				IPC:      ipc,
				Overhead: res.Overhead,
			}
		}
	}
	if *trials > 0 {
		// -spans: the campaign cells run under a wall-clock tracer; the
		// trace file and a phase-budget table land after the matrix. Note
		// the recorded spans add a handful of allocations per *campaign*
		// (not per trial), so the allocs/trial gate is unaffected at
		// default tolerances.
		ctx := context.Background()
		var tracer *span.Tracer
		var spanFile *os.File
		if *spansOut != "" {
			var err error
			spanFile, err = os.Create(*spansOut)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			tracer = span.New(span.Config{Sink: obs.SinkForPath(spanFile, *spansOut)})
			ctx = span.Into(ctx, tracer)
		}
		if err := measureCampaignCost(ctx, benches, schemeNames, *trials, *scale, *sb, *wcdl,
			*profileDir, results, stdout); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if tracer != nil {
			if err := tracer.Close(); err != nil {
				fmt.Fprintf(stderr, "bench: span trace: %v\n", err)
			}
			if err := spanFile.Close(); err != nil {
				fmt.Fprintf(stderr, "bench: span trace: %v\n", err)
			}
			fmt.Fprint(stdout, span.Analyze("", tracer.Spans()).Table("phase budget (wall clock)").Render())
			fmt.Fprintf(stdout, "span trace written to %s\n", *spansOut)
		}
	}
	man.Extra["results"] = results

	// Locate the most recent prior manifest before claiming the next
	// sequence number.
	priorPath, nextSeq, err := latestManifest(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	man.Finish(obs.Snapshot{})
	man.Metrics = nil // the matrix is the payload; no registry ran
	outPath := filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", nextSeq))
	if err := man.WriteFile(outPath); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s (%d configurations)\n", outPath, len(results))

	if *trendOut != "" && *trials > 0 {
		if err := appendTrend(*trendOut, nextSeq, results); err != nil {
			fmt.Fprintf(stderr, "bench: trend: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "appended campaign cost rows to %s\n", *trendOut)
	}

	if priorPath == "" {
		fmt.Fprintln(stdout, "no prior BENCH_*.json manifest; baseline recorded, nothing to diff")
		return 0
	}

	prior, priorResults, err := readResults(priorPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !comparableConfigs(prior.Config, man.Config) {
		fmt.Fprintf(stdout, "prior %s ran with different knobs (%v); trajectory restarted, no diff\n",
			filepath.Base(priorPath), prior.Config)
		return 0
	}

	tols := tolerances{cycles: *tolCycles, ipc: *tolIPC, overhead: *tolOverhead,
		allocs: *tolAllocs, trialsec: *tolTrialSec}
	table, regressions := diffResults(filepath.Base(priorPath), priorResults, results, tols)
	fmt.Fprint(stdout, table.Render())
	if *summaryOut != "" {
		if err := appendSummary(*summaryOut, table, regressions); err != nil {
			fmt.Fprintf(stderr, "bench: summary: %v\n", err)
			return 1
		}
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "\nFAIL: %d metric(s) regressed beyond tolerance "+
			"(cycles +%.2f%%, ipc -%.2f%%, overhead +%.2f%%)\n",
			regressions, tols.cycles, tols.ipc, tols.overhead)
		return 1
	}
	fmt.Fprintf(stdout, "\nOK: no regression vs %s\n", filepath.Base(priorPath))
	return 0
}

// cellTime is how long each trials/sec measurement of a cell runs its
// trial loop, and cellRepeats how many measurements a cell takes the
// median of. A cell's 32-trial campaign lasts about a millisecond, too
// short to time on a shared machine.
const (
	cellTime    = 200 * time.Millisecond
	cellRepeats = 3
)

// measureCampaignCost fills in the per-trial cost metrics for the
// resilient schemes by running deterministic fault campaigns per cell
// and bracketing each with an alloc/wall measurement. Workers is pinned
// to 1 and the seed to 1. allocs/trial comes from one campaign of
// trials trials, so it is stable run to run. trials/sec and ns/trial
// come from the median of cellRepeats campaigns of as many times trials
// trials as make the trial loop last about cellTime: one longer
// campaign rather than that many short ones, each of which would pay
// its own compilation and golden run outside the bracket. GOMAXPROCS is
// pinned to 1 inside each bracket, as testing.AllocsPerRun does: the
// allocation count is process-wide, and when the world restarts after
// one of the bracket's stop-the-world phases, an idle P lets the runtime
// start an OS thread whose M and stacks would add about six objects to
// it now and then. trials/sec remains machine-dependent, which is why
// its gate defaults off. With profileDir set, one CPU+heap profile pair
// brackets all the campaign cells, and a cost report totalling each
// cell's campaign of trials trials is written next to it.
func measureCampaignCost(ctx context.Context, benches, schemeNames []string, trials, scale, sb, wcdl int,
	profileDir string, results map[string]benchResult, stdout io.Writer) error {
	var cap *profile.Capture
	if profileDir != "" {
		var err error
		if cap, err = profile.Start(profileDir, "bench", true); err != nil {
			return err
		}
	}
	var total profile.Usage
	totalTrials := 0
	for _, b := range benches {
		for _, sn := range schemeNames {
			if sn == "baseline" {
				continue // no detection, no campaign to cost
			}
			cctx, csp := span.Start(ctx, "cli", "campaign")
			csp.SetArg("cell", b+"/"+sn)
			sc, _ := core.ParseScheme(sn) // validated with the flags
			// measure runs one campaign of n trials. Prepare (compile,
			// golden run, worker priming) stays outside the bracket: the
			// reported cost is the trial loop alone, which is what the
			// allocs/trial and trials/sec gates are meant to pin.
			measure := func(n int) (profile.Usage, error) {
				prep, err := turnpike.PrepareFaultCampaign(cctx, b, sc, turnpike.FaultCampaignConfig{
					Trials: n, Seed: 1, Workers: 1, FailureBudget: -1,
					ScalePct: scale, SBSize: sb, WCDL: wcdl,
				})
				if err != nil {
					return profile.Usage{}, err
				}
				procs := runtime.GOMAXPROCS(1)
				u, err := profile.Measure(func() error {
					_, err := prep.Run(cctx)
					return err
				})
				runtime.GOMAXPROCS(procs)
				return u, err
			}
			u, err := measure(trials)
			allocs := u.Report(trials)
			reps := make([]profile.CostReport, cellRepeats)
			n := trials * (1 + int(cellTime.Seconds()*allocs.TrialsPerSec)/trials)
			for i := 0; i < len(reps) && err == nil; i++ {
				var ur profile.Usage
				ur, err = measure(n)
				reps[i] = ur.Report(n)
			}
			csp.End()
			if err != nil {
				return fmt.Errorf("%s/%s campaign: %w", b, sn, err)
			}
			sort.Slice(reps, func(i, j int) bool { return reps[i].TrialsPerSec < reps[j].TrialsPerSec })
			cell := results[b+"/"+sn]
			cell.TrialsPerSec = reps[len(reps)/2].TrialsPerSec
			cell.NsPerTrial = reps[len(reps)/2].NsPerTrial
			cell.AllocsPerTrial = allocs.AllocsPerTrial
			results[b+"/"+sn] = cell
			total.Wall += u.Wall
			total.Allocs += u.Allocs
			total.AllocBytes += u.AllocBytes
			totalTrials += trials
		}
	}
	if cap != nil {
		if _, err := cap.Stop(); err != nil {
			return err
		}
		rep := total.Report(totalTrials)
		rep.Workload = "matrix"
		rep.Scheme = strings.Join(schemeNames, ",")
		rep.CPUProfile = cap.CPUProfilePath()
		rep.HeapProfile = cap.HeapProfilePath()
		costPath := filepath.Join(profileDir, "bench.cost.json")
		if err := rep.WriteFile(costPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "campaign cost: %s\nprofiles: %s %s\ncost report: %s\n",
			rep, cap.CPUProfilePath(), cap.HeapProfilePath(), costPath)
	}
	return nil
}

// appendTrend appends one campaign-cost row per resilient cell to the
// CSV at path, creating it (with a header) on first use. The file is the
// CI artifact that accumulates the per-commit throughput trajectory —
// BENCH_<n>.json keeps only the latest pairwise delta, the CSV keeps
// every point.
func appendTrend(path string, seq int, results map[string]benchResult) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		if _, err := fmt.Fprintln(f, "seq,cell,trials_per_sec,ns_per_trial,allocs_per_trial"); err != nil {
			return err
		}
	}
	keys := make([]string, 0, len(results))
	for k := range results {
		if results[k].TrialsPerSec > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		c := results[k]
		if _, err := fmt.Fprintf(f, "%d,%s,%.2f,%.0f,%.1f\n",
			seq, k, c.TrialsPerSec, c.NsPerTrial, c.AllocsPerTrial); err != nil {
			return err
		}
	}
	return f.Close()
}

// appendSummary appends the trajectory delta table as markdown — the
// $GITHUB_STEP_SUMMARY rendering of the same table the log shows.
func appendSummary(path string, table *obs.Table, regressions int) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	verdict := "no regression"
	if regressions > 0 {
		verdict = fmt.Sprintf("**%d metric(s) regressed beyond tolerance**", regressions)
	}
	if _, err := fmt.Fprintf(f, "\n%s\n%s\n", table.RenderMarkdown(), verdict); err != nil {
		return err
	}
	return f.Close()
}

// tolerances are per-metric relative thresholds in percent.
type tolerances struct {
	cycles, ipc, overhead float64
	// allocs gates allocs/trial growth; trialsec gates trials/sec loss
	// and is 0 (off) by default because wall-clock differs by machine.
	allocs, trialsec float64
}

// latestManifest scans dir for BENCH_<n>.json files and returns the path
// of the highest-numbered one ("" when none exist) plus the next free
// sequence number.
func latestManifest(dir string) (string, int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	best := 0
	bestPath := ""
	for _, e := range ents {
		m := benchPattern.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil || n <= best {
			continue
		}
		best = n
		bestPath = filepath.Join(dir, e.Name())
	}
	return bestPath, best + 1, nil
}

// readResults loads a prior manifest and decodes its results matrix.
func readResults(path string) (*obs.Manifest, map[string]benchResult, error) {
	m, err := obs.ReadManifest(path)
	if err != nil {
		return nil, nil, err
	}
	raw, ok := m.Extra["results"]
	if !ok {
		return nil, nil, fmt.Errorf("%s: manifest has no results matrix", path)
	}
	// Extra round-trips through map[string]any; re-marshal to get typed
	// results back.
	b, err := json.Marshal(raw)
	if err != nil {
		return nil, nil, err
	}
	var out map[string]benchResult
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, nil, fmt.Errorf("%s: bad results matrix: %w", path, err)
	}
	return m, out, nil
}

// comparableConfigs reports whether two runs used the same simulation
// knobs, i.e. whether diffing their cycle counts is meaningful.
func comparableConfigs(prior, cur map[string]any) bool {
	for _, k := range []string{"scale_pct", "sb_size", "wcdl", "trials"} {
		if fmt.Sprint(prior[k]) != fmt.Sprint(cur[k]) {
			return false
		}
	}
	return true
}

// diffResults compares the current matrix against the prior one and
// renders a regression table. A configuration regresses when cycles or
// overhead grow, or IPC shrinks, beyond its tolerance; improvements and
// in-tolerance drift pass. Configurations present on only one side are
// noted but never regressions.
func diffResults(priorName string, prior, cur map[string]benchResult, tol tolerances) (*obs.Table, int) {
	keys := make([]string, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	t := &obs.Table{
		Title:  "benchmark trajectory vs " + priorName,
		Header: []string{"CONFIG", "CYCLES", "ΔCYCLES", "ΔIPC", "ΔOVERHEAD", "ΔALLOCS/TRIAL", "ΔTRIALS/S", "STATUS"},
	}
	regressions := 0
	pct := func(old, new float64) float64 {
		if old == 0 {
			return 0
		}
		return (new - old) / old * 100
	}
	// fmtDelta renders a cost-metric delta, or "-" when either side
	// lacks the measurement (old manifest, baseline scheme, -trials 0):
	// absent data is not a regression.
	fmtDelta := func(old, new float64) string {
		if old == 0 || new == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.2f%%", pct(old, new))
	}
	for _, k := range keys {
		c := cur[k]
		p, ok := prior[k]
		if !ok {
			t.Rows = append(t.Rows, []string{k, fmt.Sprint(c.Cycles), "-", "-", "-", "-", "-", "new"})
			continue
		}
		dc := pct(float64(p.Cycles), float64(c.Cycles))
		di := pct(p.IPC, c.IPC)
		do := pct(p.Overhead, c.Overhead)
		var da, dt float64
		if p.AllocsPerTrial > 0 && c.AllocsPerTrial > 0 {
			da = pct(p.AllocsPerTrial, c.AllocsPerTrial)
		}
		if p.TrialsPerSec > 0 && c.TrialsPerSec > 0 {
			dt = pct(p.TrialsPerSec, c.TrialsPerSec)
		}
		status := "ok"
		switch {
		case dc > tol.cycles || do > tol.overhead || di < -tol.ipc ||
			da > tol.allocs || (tol.trialsec > 0 && dt < -tol.trialsec):
			status = "REGRESSED"
			regressions++
		case dc < -tol.cycles || di > tol.ipc || do < -tol.overhead:
			status = "improved"
		}
		t.Rows = append(t.Rows, []string{
			k,
			fmt.Sprintf("%d → %d", p.Cycles, c.Cycles),
			fmt.Sprintf("%+.2f%%", dc),
			fmt.Sprintf("%+.2f%%", di),
			fmt.Sprintf("%+.2f%%", do),
			fmtDelta(p.AllocsPerTrial, c.AllocsPerTrial),
			fmtDelta(p.TrialsPerSec, c.TrialsPerSec),
			status,
		})
	}
	var dropped []string
	for k := range prior {
		if _, ok := cur[k]; !ok {
			dropped = append(dropped, k)
		}
	}
	sort.Strings(dropped)
	for _, k := range dropped {
		t.Rows = append(t.Rows, []string{k, "-", "-", "-", "-", "-", "-", "dropped"})
	}
	trialsecNote := "trials/sec gate off"
	if tol.trialsec > 0 {
		trialsecNote = fmt.Sprintf("trials/sec -%.2f%%", tol.trialsec)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("tolerances: cycles +%.2f%%, ipc -%.2f%%, overhead +%.2f%%, allocs/trial +%.2f%%, %s; cycle counts are deterministic",
			tol.cycles, tol.ipc, tol.overhead, tol.allocs, trialsecNote))
	return t, regressions
}
