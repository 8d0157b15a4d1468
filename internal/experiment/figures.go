package experiment

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/hwcost"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/sensor"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 4: checkpoint ratio vs store buffer size (40 vs 4 entries).
// ---------------------------------------------------------------------------

// Fig4Result holds the dynamic checkpoint fraction per benchmark and SB.
type Fig4Result struct {
	// Ratio[sb][bench] = dynamic CKPT instructions / total instructions.
	Ratio map[int]map[string]float64
	Table Table
}

// Fig4 reproduces Figure 4: eager checkpointing under Turnstile-style
// partitioning, with 40-entry versus 4-entry store buffers.
func Fig4(r *Runner) (*Fig4Result, error) {
	res := &Fig4Result{Ratio: map[int]map[string]float64{4: {}, 40: {}}}
	for _, sb := range []int{40, 4} {
		for _, b := range sortedBenchNames() {
			total, stores, err := r.dynamicCounts(b, core.Options{Scheme: core.Turnstile, SBSize: sb})
			if err != nil {
				return nil, err
			}
			res.Ratio[sb][b] = float64(stores[isa.StoreCheckpoint]) / float64(total)
		}
	}
	t := Table{
		Title:  "Figure 4: ratio of checkpoints to dynamic instructions (Turnstile partitioning)",
		Header: []string{"group", "40-entry SB", "4-entry SB"},
	}
	for _, g := range bySuite(res.Ratio[40]) {
		g4 := 0.0
		for _, x := range bySuite(res.Ratio[4]) {
			if x.Suite == g.Suite {
				g4 = x.Geo
			}
		}
		t.Rows = append(t.Rows, []string{g.Suite, fmtPct(100 * g.Geo), fmtPct(100 * g4)})
	}
	t.Notes = append(t.Notes, "paper: ~4.1% at SB=40 rising to ~15% at SB=4 (arith. mean of SPEC)")
	res.Table = t
	return res, nil
}

// ---------------------------------------------------------------------------
// Figures 14/15: ideal vs compact CLQ (hardware fast release only).
// ---------------------------------------------------------------------------

// Fig14Result compares run-time overhead under the two CLQ designs with
// only the hardware optimizations enabled (no compiler passes), per the
// paper's Fig. 14 protocol.
type Fig14Result struct {
	Ideal, Compact map[string]float64 // normalized exec time per benchmark
	Table          Table
}

func fastReleaseOnlyOpts(sb int) core.Options {
	// "only enable WAR-free checking and hardware coloring to exclude the
	// impacts of Turnpike compiler optimizations" (Fig. 14's caption):
	// the binary is the Turnstile compilation — SB-sized regions, eager
	// checkpointing, no compiler passes — and only the hardware differs.
	return core.Options{Scheme: core.Turnstile, SBSize: sb}
}

// Fig14 reproduces Figure 14.
func Fig14(r *Runner, wcdl int) (*Fig14Result, error) {
	res := &Fig14Result{Ideal: map[string]float64{}, Compact: map[string]float64{}}
	opts := fastReleaseOnlyOpts(4)
	var mu sync.Mutex
	if err := parallelBenches(func(b string) error {
		cfgC := pipeline.TurnpikeConfig(4, wcdl)
		cfgI := cfgC
		cfgI.CLQ = pipeline.CLQIdeal
		oc, err := r.Overhead(b, opts, cfgC)
		if err != nil {
			return err
		}
		oi, err := r.Overhead(b, opts, cfgI)
		if err != nil {
			return err
		}
		mu.Lock()
		res.Compact[b], res.Ideal[b] = oc, oi
		mu.Unlock()
		return nil
	}); err != nil {
		return nil, err
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 14: normalized exec time, ideal vs compact CLQ (WCDL=%d, HW fast release only)", wcdl),
		Header: []string{"benchmark", "ideal CLQ", "compact CLQ"},
	}
	for _, b := range sortedBenchNames() {
		t.Rows = append(t.Rows, []string{b, fmtRatio(res.Ideal[b]), fmtRatio(res.Compact[b])})
	}
	for _, g := range bySuite(res.Ideal) {
		gc := 0.0
		for _, x := range bySuite(res.Compact) {
			if x.Suite == g.Suite {
				gc = x.Geo
			}
		}
		t.Rows = append(t.Rows, []string{"geomean(" + g.Suite + ")", fmtRatio(g.Geo), fmtRatio(gc)})
	}
	t.Notes = append(t.Notes, "paper: compact CLQ within ~3% of the infinite ideal CLQ")
	res.Table = t
	return res, nil
}

// Fig15Result compares the detected WAR-free store fraction.
type Fig15Result struct {
	Ideal, Compact map[string]float64 // WAR-free released / all stores
	Table          Table
}

// Fig15 reproduces Figure 15.
func Fig15(r *Runner, wcdl int) (*Fig15Result, error) {
	res := &Fig15Result{Ideal: map[string]float64{}, Compact: map[string]float64{}}
	opts := fastReleaseOnlyOpts(4)
	var mu sync.Mutex
	if err := parallelBenches(func(b string) error {
		cfgC := pipeline.TurnpikeConfig(4, wcdl)
		cfgI := cfgC
		cfgI.CLQ = pipeline.CLQIdeal
		for _, v := range []struct {
			cfg pipeline.Config
			dst map[string]float64
		}{{cfgC, res.Compact}, {cfgI, res.Ideal}} {
			st, err := r.Run(b, opts, v.cfg)
			if err != nil {
				return err
			}
			ratio := 0.0
			if all := st.ProgStores + st.SpillStores + st.CkptStores; all > 0 {
				ratio = float64(st.WARFreeReleased) / float64(all)
			}
			mu.Lock()
			v.dst[b] = ratio
			mu.Unlock()
		}
		return nil
	}); err != nil {
		return nil, err
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 15: WAR-free stores detected / all stores (WCDL=%d)", wcdl),
		Header: []string{"benchmark", "ideal CLQ", "compact CLQ"},
	}
	for _, b := range sortedBenchNames() {
		t.Rows = append(t.Rows, []string{b, fmtPct(100 * res.Ideal[b]), fmtPct(100 * res.Compact[b])})
	}
	t.Notes = append(t.Notes, "paper: ideal detects ~10.6pp more WAR-free stores than compact")
	res.Table = t
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 18: sensor count vs detection latency.
// ---------------------------------------------------------------------------

// Fig18Result holds detection latency curves per clock frequency.
type Fig18Result struct {
	// Latency[ghzTimes10][sensors] in cycles.
	Latency map[int]map[int]int
	Table   Table
}

// Fig18 reproduces Figure 18 for 2.0/2.5/3.0 GHz on a 1mm² die.
func Fig18() *Fig18Result {
	sensorsAxis := []int{10, 20, 30, 50, 100, 200, 300, 500}
	clocks := []float64{2.0, 2.5, 3.0}
	res := &Fig18Result{Latency: map[int]map[int]int{}}
	t := Table{
		Title:  "Figure 18: worst-case detection latency vs deployed sensors (1mm² die)",
		Header: []string{"sensors", "2.0GHz", "2.5GHz", "3.0GHz"},
	}
	for _, n := range sensorsAxis {
		row := []string{fmt.Sprintf("%d", n)}
		for _, g := range clocks {
			m := sensor.Model{Sensors: n, DieAreaMM2: 1.0, ClockGHz: g}
			w := m.WCDL()
			k := int(g * 10)
			if res.Latency[k] == nil {
				res.Latency[k] = map[int]int{}
			}
			res.Latency[k][n] = w
			row = append(row, fmt.Sprintf("%d", w))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper operating points: 300 sensors ≈ 10 cycles, 30 sensors ≈ 30 cycles at 2.5GHz")
	res.Table = t
	return res
}

// ---------------------------------------------------------------------------
// Figures 19/20: overhead across WCDL for Turnpike and Turnstile.
// ---------------------------------------------------------------------------

// WCDLSweepResult holds the per-benchmark normalized execution times for a
// scheme across WCDL values.
type WCDLSweepResult struct {
	Scheme   core.Scheme
	WCDLs    []int
	Overhead map[int]map[string]float64 // wcdl -> bench -> normalized time
	Table    Table
}

// wcdlSweep runs one scheme over the WCDL axis.
func wcdlSweep(r *Runner, scheme core.Scheme, wcdls []int) (*WCDLSweepResult, error) {
	res := &WCDLSweepResult{Scheme: scheme, WCDLs: wcdls, Overhead: map[int]map[string]float64{}}
	opt := core.SchemeOptions(scheme, 4)
	var mu sync.Mutex
	for _, w := range wcdls {
		w := w
		res.Overhead[w] = map[string]float64{}
		cfg := pipeline.TurnstileConfig(4, w)
		if scheme == core.Turnpike {
			cfg = pipeline.TurnpikeConfig(4, w)
		}
		if err := parallelBenches(func(b string) error {
			o, err := r.Overhead(b, opt, cfg)
			if err != nil {
				return err
			}
			mu.Lock()
			res.Overhead[w][b] = o
			mu.Unlock()
			return nil
		}); err != nil {
			return nil, err
		}
	}
	fig := "Figure 19: Turnpike"
	if scheme == core.Turnstile {
		fig = "Figure 20: Turnstile"
	}
	t := Table{
		Title:  fmt.Sprintf("%s normalized exec time, WCDL 10..50 (SB=4)", fig),
		Header: append([]string{"benchmark"}, dlHeaders(wcdls)...),
	}
	for _, b := range sortedBenchNames() {
		row := []string{b}
		for _, w := range wcdls {
			row = append(row, fmtRatio(res.Overhead[w][b]))
		}
		t.Rows = append(t.Rows, row)
	}
	// Per-suite and overall geomeans.
	for _, suite := range append(append([]string{}, suiteOrder...), "all") {
		row := []string{"geomean(" + suite + ")"}
		for _, w := range wcdls {
			for _, g := range bySuite(res.Overhead[w]) {
				if g.Suite == suite {
					row = append(row, fmtRatio(g.Geo))
				}
			}
		}
		t.Rows = append(t.Rows, row)
	}
	res.Table = t
	return res, nil
}

// Fig19 reproduces Figure 19 (Turnpike with all optimizations).
func Fig19(r *Runner) (*WCDLSweepResult, error) {
	res, err := wcdlSweep(r, core.Turnpike, []int{10, 20, 30, 40, 50})
	if err == nil {
		res.Table.Notes = append(res.Table.Notes, "paper: 0–14% average overhead across WCDL 10–50")
	}
	return res, err
}

// Fig20 reproduces Figure 20 (Turnstile).
func Fig20(r *Runner) (*WCDLSweepResult, error) {
	res, err := wcdlSweep(r, core.Turnstile, []int{10, 20, 30, 40, 50})
	if err == nil {
		res.Table.Notes = append(res.Table.Notes, "paper: 29–84% average overhead across WCDL 10–50")
	}
	return res, err
}

func dlHeaders(wcdls []int) []string {
	out := make([]string, len(wcdls))
	for i, w := range wcdls {
		out[i] = fmt.Sprintf("DL%d", w)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 21: cumulative optimization breakdown at WCDL=10.
// ---------------------------------------------------------------------------

// Fig21Config names one ablation point in the paper's order.
type Fig21Config struct {
	Name string
	Opt  core.Options
	Cfg  pipeline.Config
}

// Fig21Configs returns the 8 evaluated configurations. The first three use
// the Turnstile compilation (the hardware-only steps exclude compiler
// optimizations, as in Figs. 14/21); from "Fast Release + Pruning" onward
// the Turnpike compilation applies, with colored checkpoints excluded from
// the region store budget since the coloring hardware is present.
func Fig21Configs(sb, wcdl int) []Fig21Config {
	ts := pipeline.TurnstileConfig(sb, wcdl)
	war := ts
	war.WARFreeRelease = true
	war.CLQ = pipeline.CLQCompact
	war.CLQSize = 2
	fast := war
	fast.HWColoring = true
	tsOpts := core.Options{Scheme: core.Turnstile, SBSize: sb}
	withPrune := core.Options{Scheme: core.Turnpike, SBSize: sb, ColoredCkpts: true, Prune: true}
	withLICM := withPrune
	withLICM.Sink = true
	withSched := withLICM
	withSched.Sched = true
	withRA := withSched
	withRA.StoreAwareRA = true
	all := core.TurnpikeAll(sb)
	return []Fig21Config{
		{"Turnstile", tsOpts, ts},
		{"WAR-free Checking", tsOpts, war},
		{"Fast Release (WAR-free + HW coloring)", tsOpts, fast},
		{"Fast Release + Pruning", withPrune, fast},
		{"Fast Release + Pruning + LICM", withLICM, fast},
		{"Fast Release + Pruning + LICM + Inst Sched", withSched, fast},
		{"Fast Release + Pruning + LICM + Inst Sched + RA Trick", withRA, fast},
		{"Turnpike (all, + LIVM)", all, fast},
	}
}

// Fig21Result holds the ablation overheads.
type Fig21Result struct {
	Configs  []string
	Overhead map[string]map[string]float64 // config -> bench -> overhead
	Table    Table
}

// Fig21 reproduces Figure 21.
func Fig21(r *Runner, wcdl int) (*Fig21Result, error) {
	cfgs := Fig21Configs(4, wcdl)
	res := &Fig21Result{Overhead: map[string]map[string]float64{}}
	var mu sync.Mutex
	for _, c := range cfgs {
		c := c
		res.Configs = append(res.Configs, c.Name)
		res.Overhead[c.Name] = map[string]float64{}
		if err := parallelBenches(func(b string) error {
			o, err := r.Overhead(b, c.Opt, c.Cfg)
			if err != nil {
				return err
			}
			mu.Lock()
			res.Overhead[c.Name][b] = o
			mu.Unlock()
			return nil
		}); err != nil {
			return nil, err
		}
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 21: optimization breakdown, normalized exec time (WCDL=%d, SB=4)", wcdl),
		Header: []string{"configuration", "geo(2006)", "geo(2017)", "geo(splash3)", "geo(all)"},
	}
	for _, c := range cfgs {
		row := []string{c.Name}
		for _, g := range bySuite(res.Overhead[c.Name]) {
			row = append(row, fmtRatio(g.Geo))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper sequence (geomean overhead): 29% → 25% → 22% → 12% → 10% → 7% → 2% → 0%")
	res.Table = t
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 22: store-buffer size sensitivity.
// ---------------------------------------------------------------------------

// Fig22Result holds overheads for both schemes over SB sizes.
type Fig22Result struct {
	Turnstile map[int]map[string]float64 // sb -> bench -> overhead
	Turnpike  map[int]map[string]float64
	Table     Table
}

// Fig22 reproduces Figure 22 at the given WCDL: Turnstile at SB
// 8/10/20/30/40 and Turnpike at SB 4/8/10.
func Fig22(r *Runner, wcdl int) (*Fig22Result, error) {
	res := &Fig22Result{Turnstile: map[int]map[string]float64{}, Turnpike: map[int]map[string]float64{}}
	var mu sync.Mutex
	for _, sb := range []int{4, 8, 10, 20, 30, 40} {
		sb := sb
		res.Turnstile[sb] = map[string]float64{}
		if err := parallelBenches(func(b string) error {
			o, err := r.Overhead(b, core.Options{Scheme: core.Turnstile, SBSize: sb}, pipeline.TurnstileConfig(sb, wcdl))
			if err != nil {
				return err
			}
			mu.Lock()
			res.Turnstile[sb][b] = o
			mu.Unlock()
			return nil
		}); err != nil {
			return nil, err
		}
	}
	for _, sb := range []int{4, 8, 10} {
		sb := sb
		res.Turnpike[sb] = map[string]float64{}
		if err := parallelBenches(func(b string) error {
			o, err := r.Overhead(b, core.TurnpikeAll(sb), pipeline.TurnpikeConfig(sb, wcdl))
			if err != nil {
				return err
			}
			mu.Lock()
			res.Turnpike[sb][b] = o
			mu.Unlock()
			return nil
		}); err != nil {
			return nil, err
		}
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 22: normalized exec time vs store buffer size (WCDL=%d)", wcdl),
		Header: []string{"scheme/SB", "geo(2006)", "geo(2017)", "geo(splash3)", "geo(all)"},
	}
	for _, sb := range []int{4, 8, 10} {
		row := []string{fmt.Sprintf("Turnpike (SB-%d)", sb)}
		for _, g := range bySuite(res.Turnpike[sb]) {
			row = append(row, fmtRatio(g.Geo))
		}
		t.Rows = append(t.Rows, row)
	}
	for _, sb := range []int{4, 8, 10, 20, 30, 40} {
		row := []string{fmt.Sprintf("Turnstile (SB-%d)", sb)}
		for _, g := range bySuite(res.Turnstile[sb]) {
			row = append(row, fmtRatio(g.Geo))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper: Turnstile 20%/18%/13%/11%/9% at SB 8/10/20/30/40; even SB-40 Turnstile loses to SB-4 Turnpike")
	res.Table = t
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 23: store breakdown.
// ---------------------------------------------------------------------------

// Fig23Categories in the paper's legend order.
var Fig23Categories = []string{
	"Pruned", "LICM-eliminated", "Colored", "WAR-free store",
	"RA-eliminated", "IndVarMerging-eliminated", "Others",
}

// Fig23Result maps bench -> category -> fraction of all stores.
type Fig23Result struct {
	Breakdown map[string]map[string]float64
	Table     Table
}

// Fig23 reproduces Figure 23 by differencing dynamic store counts across
// compiler ablations (for the eliminated categories) and reading simulator
// counters (for the released categories). The denominator is the store
// count of the unoptimized Turnpike compilation, matching the paper's
// "ratio of stores".
func Fig23(r *Runner, wcdl int) (*Fig23Result, error) {
	res := &Fig23Result{Breakdown: map[string]map[string]float64{}}
	for _, b := range sortedBenchNames() {
		// The chain holds the partitioning strategy fixed (colored
		// checkpoints excluded from the store budget, as on the Turnpike
		// core) and turns the store-removing optimizations on one at a
		// time, so each difference isolates one category.
		base := core.Options{Scheme: core.Turnpike, SBSize: 4, ColoredCkpts: true}
		withPrune := base
		withPrune.Prune = true
		withSink := withPrune
		withSink.Sink = true
		withRA := withSink
		withRA.StoreAwareRA = true
		all := core.TurnpikeAll(4)

		count := func(o core.Options) (uint64, error) {
			_, stores, err := r.dynamicCounts(b, o)
			if err != nil {
				return 0, err
			}
			return stores[isa.StoreProgram] + stores[isa.StoreSpill] + stores[isa.StoreCheckpoint], nil
		}
		s0, err := count(base)
		if err != nil {
			return nil, err
		}
		s1, err := count(withPrune)
		if err != nil {
			return nil, err
		}
		s2, err := count(withSink)
		if err != nil {
			return nil, err
		}
		s3, err := count(withRA)
		if err != nil {
			return nil, err
		}
		s4, err := count(all)
		if err != nil {
			return nil, err
		}
		st, err := r.Run(b, all, pipeline.TurnpikeConfig(4, wcdl))
		if err != nil {
			return nil, err
		}
		den := float64(s0)
		diff := func(hi, lo uint64) float64 {
			if hi <= lo {
				return 0
			}
			return float64(hi-lo) / den
		}
		bd := map[string]float64{
			"Pruned":                   diff(s0, s1),
			"LICM-eliminated":          diff(s1, s2),
			"RA-eliminated":            diff(s2, s3),
			"IndVarMerging-eliminated": diff(s3, s4),
			"Colored":                  float64(st.ColoredReleased) / den,
			"WAR-free store":           float64(st.WARFreeReleased) / den,
		}
		oth := 1.0
		for _, v := range bd {
			oth -= v
		}
		if oth < 0 {
			oth = 0
		}
		bd["Others"] = oth
		res.Breakdown[b] = bd
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 23: store breakdown (WCDL=%d, 2-entry CLQ)", wcdl),
		Header: append([]string{"benchmark"}, Fig23Categories...),
	}
	for _, b := range sortedBenchNames() {
		row := []string{b}
		for _, c := range Fig23Categories {
			row = append(row, fmtPct(100*res.Breakdown[b][c]))
		}
		t.Rows = append(t.Rows, row)
	}
	// Arithmetic means (the paper uses arith means in Fig. 23).
	mean := []string{"arithmean(all)"}
	for _, c := range Fig23Categories {
		var xs []float64
		for _, b := range sortedBenchNames() {
			xs = append(xs, res.Breakdown[b][c])
		}
		mean = append(mean, fmtPct(100*Mean(xs)))
	}
	t.Rows = append(t.Rows, mean)
	t.Notes = append(t.Notes,
		"paper: pruning removes ~21% of stores, LICM ~1.4%, RA ~1.7%, LIVM ~5%; ~39% released without quarantine")
	res.Table = t
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 24/25: CLQ occupancy and size sensitivity.
// ---------------------------------------------------------------------------

// Fig24Result holds CLQ occupancy per benchmark.
type Fig24Result struct {
	Avg, Max map[string]float64
	Table    Table
}

// Fig24 reproduces Figure 24 (populated CLQ entries; simulated with a
// 4-entry CLQ so the observable maximum is not clipped by the default 2).
func Fig24(r *Runner, wcdl int) (*Fig24Result, error) {
	res := &Fig24Result{Avg: map[string]float64{}, Max: map[string]float64{}}
	opt := core.TurnpikeAll(4)
	cfg := pipeline.TurnpikeConfig(4, wcdl)
	cfg.CLQSize = 4
	for _, b := range sortedBenchNames() {
		st, err := r.Run(b, opt, cfg)
		if err != nil {
			return nil, err
		}
		res.Avg[b] = st.AvgCLQOccupancy()
		res.Max[b] = float64(st.CLQOccMax)
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 24: dynamic CLQ entries populated (WCDL=%d)", wcdl),
		Header: []string{"benchmark", "average", "maximum"},
	}
	for _, b := range sortedBenchNames() {
		t.Rows = append(t.Rows, []string{b, fmt.Sprintf("%.2f", res.Avg[b]), fmt.Sprintf("%.0f", res.Max[b])})
	}
	var avgs []float64
	for _, b := range sortedBenchNames() {
		avgs = append(avgs, res.Avg[b])
	}
	t.Rows = append(t.Rows, []string{"mean(all)", fmt.Sprintf("%.2f", Mean(avgs)), ""})
	t.Notes = append(t.Notes, "paper: average ≈1 populated entry; maxima of 3–4 on a few benchmarks")
	res.Table = t
	return res, nil
}

// Fig25Result compares CLQ-2 against CLQ-4.
type Fig25Result struct {
	CLQ2, CLQ4 map[string]float64
	Table      Table
}

// Fig25 reproduces Figure 25.
func Fig25(r *Runner, wcdl int) (*Fig25Result, error) {
	res := &Fig25Result{CLQ2: map[string]float64{}, CLQ4: map[string]float64{}}
	opt := core.TurnpikeAll(4)
	for _, b := range sortedBenchNames() {
		c2 := pipeline.TurnpikeConfig(4, wcdl)
		c4 := c2
		c4.CLQSize = 4
		o2, err := r.Overhead(b, opt, c2)
		if err != nil {
			return nil, err
		}
		o4, err := r.Overhead(b, opt, c4)
		if err != nil {
			return nil, err
		}
		res.CLQ2[b], res.CLQ4[b] = o2, o4
	}
	t := Table{
		Title:  fmt.Sprintf("Figure 25: 2-entry vs 4-entry CLQ, normalized exec time (WCDL=%d)", wcdl),
		Header: []string{"benchmark", "CLQ-2", "CLQ-4"},
	}
	for _, b := range sortedBenchNames() {
		t.Rows = append(t.Rows, []string{b, fmtRatio(res.CLQ2[b]), fmtRatio(res.CLQ4[b])})
	}
	for _, g := range bySuite(res.CLQ2) {
		g4 := 0.0
		for _, x := range bySuite(res.CLQ4) {
			if x.Suite == g.Suite {
				g4 = x.Geo
			}
		}
		t.Rows = append(t.Rows, []string{"geomean(" + g.Suite + ")", fmtRatio(g.Geo), fmtRatio(g4)})
	}
	t.Notes = append(t.Notes, "paper: CLQ-2 performs essentially the same as CLQ-4")
	res.Table = t
	return res, nil
}

// ---------------------------------------------------------------------------
// Figure 26: region size and code growth.
// ---------------------------------------------------------------------------

// Fig26Result holds region/code-size statistics per benchmark.
type Fig26Result struct {
	RegionSize map[string]float64 // dynamic instructions per region
	CodeGrowth map[string]float64 // static body growth vs baseline, percent
	Table      Table
}

// Fig26 reproduces Figure 26. Code growth counts the resilient program
// body (boundaries + checkpoints) against the baseline body; the paper's
// binary-size metric likewise excludes cold recovery code, which lives out
// of line (EXPERIMENTS.md discusses the accounting).
func Fig26(r *Runner, wcdl int) (*Fig26Result, error) {
	res := &Fig26Result{RegionSize: map[string]float64{}, CodeGrowth: map[string]float64{}}
	for _, b := range sortedBenchNames() {
		st, err := r.Run(b, core.TurnpikeAll(4), pipeline.TurnpikeConfig(4, wcdl))
		if err != nil {
			return nil, err
		}
		if st.RegionsExecuted > 0 {
			res.RegionSize[b] = float64(st.Insts) / float64(st.RegionsExecuted)
		}
		tp, err := r.Compile(b, core.TurnpikeAll(4))
		if err != nil {
			return nil, err
		}
		base, err := r.Compile(b, core.Options{Scheme: core.Baseline, SBSize: 4})
		if err != nil {
			return nil, err
		}
		// BOUNDs are metadata, not instructions; exclude them from the
		// binary-growth metric (the paper's boundaries add no code).
		body := tp.Stats.InstrCount - tp.Stats.Regions
		res.CodeGrowth[b] = 100 * (float64(body)/float64(base.Stats.InstrCount) - 1)
	}
	t := Table{
		Title:  "Figure 26: average region size (dynamic insts) and code growth",
		Header: []string{"benchmark", "insts/region", "code growth"},
	}
	for _, b := range sortedBenchNames() {
		t.Rows = append(t.Rows, []string{b,
			fmt.Sprintf("%.1f", res.RegionSize[b]), fmtPct(res.CodeGrowth[b])})
	}
	var sizes []float64
	for _, b := range sortedBenchNames() {
		sizes = append(sizes, res.RegionSize[b])
	}
	t.Rows = append(t.Rows, []string{"mean(all)", fmt.Sprintf("%.1f", Mean(sizes)), ""})
	t.Notes = append(t.Notes, "paper: ~11.2 instructions per region; ~0.4% geomean code growth")
	res.Table = t
	return res, nil
}

// ---------------------------------------------------------------------------
// Workload characterization (the benchmark-suite table).
// ---------------------------------------------------------------------------

// WorkloadTable characterizes the 36 kernels at the runner's scale — the
// "benchmark characteristics" table evaluations publish beside their
// workload list, and the ground truth for the substitution argument in
// DESIGN.md (store density, WAR fraction, branchiness, footprint).
func WorkloadTable(scalePct int) (Table, error) {
	cs, err := workload.CharacterizeAll(scalePct)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		Title: "Workload characterization (synthetic stand-ins for SPEC/SPLASH)",
		Header: []string{"benchmark", "suite", "template", "dyn insts",
			"loads", "stores", "branches", "WAR stores", "footprint"},
	}
	for _, c := range cs {
		t.Rows = append(t.Rows, []string{
			c.Name, c.Suite, c.Tmpl.String(),
			fmt.Sprintf("%d", c.DynamicInsts),
			fmtPct(c.LoadPct), fmtPct(c.StorePct), fmtPct(c.BranchPct),
			fmtPct(c.WARPct),
			fmt.Sprintf("%dKiB", c.FootprintBytes/1024),
		})
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Per-run dynamic energy (extension of Table 1).
// ---------------------------------------------------------------------------

// EnergyTable estimates each scheme's co-design dynamic energy overhead on
// a benchmark subset, combining the Table 1 analytical model with the
// simulator's event counts (hwcost.RunEnergy).
func EnergyTable(r *Runner, wcdl int) (Table, error) {
	m := hwcost.Default22nm()
	t := Table{
		Title:  fmt.Sprintf("Dynamic energy of co-design structures (WCDL=%d; extension of Table 1)", wcdl),
		Header: []string{"benchmark", "baseline pJ", "turnstile pJ (+%)", "turnpike pJ (+%)"},
	}
	for _, bench := range []string{"gcc", "lbm", "mcf", "exchange2", "radix", "fft"} {
		base, err := r.Run(bench, core.Options{Scheme: core.Baseline, SBSize: 4}, pipeline.BaselineConfig(4))
		if err != nil {
			return Table{}, err
		}
		ts, err := r.Run(bench, core.Options{Scheme: core.Turnstile, SBSize: 4}, pipeline.TurnstileConfig(4, wcdl))
		if err != nil {
			return Table{}, err
		}
		tp, err := r.Run(bench, core.TurnpikeAll(4), pipeline.TurnpikeConfig(4, wcdl))
		if err != nil {
			return Table{}, err
		}
		eb := hwcost.EstimateRunEnergy(m, 4, 2, base)
		et := hwcost.EstimateRunEnergy(m, 4, 2, ts)
		ep := hwcost.EstimateRunEnergy(m, 4, 2, tp)
		t.Rows = append(t.Rows, []string{
			bench,
			fmt.Sprintf("%.1f", eb.TotalPJ()),
			fmt.Sprintf("%.1f (%+.0f%%)", et.TotalPJ(), 100*hwcost.OverheadVsBaseline(m, 4, 2, ts, base)),
			fmt.Sprintf("%.1f (%+.0f%%)", ep.TotalPJ(), 100*hwcost.OverheadVsBaseline(m, 4, 2, tp, base)),
		})
	}
	t.Notes = append(t.Notes,
		"co-design RAM structures are minor; the overhead is dominated by checkpoint stores' SB traffic")
	return t, nil
}

// ---------------------------------------------------------------------------
// Table 1: hardware cost.
// ---------------------------------------------------------------------------

// Table1 reproduces the paper's Table 1 from the analytical CACTI-like
// model.
func Table1() Table {
	m := hwcost.Default22nm()
	t := Table{
		Title:  "Table 1: area and per-access energy (22nm analytical model)",
		Header: []string{"structure", "area (µm²)", "dynamic access (pJ)"},
	}
	for _, row := range hwcost.Table1(m) {
		t.Rows = append(t.Rows, []string{row.Name,
			fmt.Sprintf("%.2f", row.AreaUM2), fmt.Sprintf("%.5f", row.EnergyPJ)})
	}
	a, e, a40, e40 := hwcost.Ratios(m)
	t.Rows = append(t.Rows,
		[]string{"Turnpike in total / 4-entry SB", fmtPct(a), fmtPct(e)},
		[]string{"40-entry SB / 4-entry SB", fmtPct(a40), fmtPct(e40)})
	t.Notes = append(t.Notes, "paper: 9.8%/9.7% and 504%/497%")
	return t
}
