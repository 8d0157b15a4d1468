// Package experiment regenerates every table and figure of the paper's
// evaluation (§6): run-time overheads across WCDLs and store-buffer sizes,
// the optimization-breakdown ablation, CLQ accuracy and occupancy, the
// store breakdown, sensor latency curves, region/code-size statistics, and
// the hardware cost table. Each FigNN function returns both typed series
// and a render-ready text table; cmd/experiments prints them all.
package experiment

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// Runner compiles and simulates benchmarks with memoization, since many
// figures share configurations.
type Runner struct {
	// Scale is the workload iteration multiplier in percent (100 = the
	// profile's full trip count). Tests use small scales; cmd/experiments
	// and the benchmarks use larger ones.
	Scale int

	// Progress, when non-nil, is attached to every simulation the runner
	// starts, so a Sampler can publish live figures while a sweep is in
	// flight (cmd/experiments -serve). Cache hits do not re-publish.
	Progress *pipeline.Progress

	mu       sync.Mutex
	compiled map[string]*core.Compiled
	simmed   map[string]pipeline.Stats
}

// NewRunner returns a Runner at the given workload scale.
func NewRunner(scalePct int) *Runner {
	if scalePct <= 0 {
		scalePct = 25
	}
	return &Runner{
		Scale:    scalePct,
		compiled: map[string]*core.Compiled{},
		simmed:   map[string]pipeline.Stats{},
	}
}

func optKey(o core.Options) string {
	return fmt.Sprintf("%d|%d|%t%t%t%t%t%t", o.Scheme, o.SBSize,
		o.StoreAwareRA, o.LIVM, o.Prune, o.Sink, o.Sched, o.ColoredCkpts)
}

func cfgKey(c pipeline.Config) string {
	return fmt.Sprintf("%d|%d|%t|%t|%v%d|%t|%d|%d", c.SBSize, c.WCDL, c.Resilient,
		c.WARFreeRelease, c.CLQ, c.CLQSize, c.HWColoring, c.IssueWidth, c.RBBSize)
}

// Compile returns the (cached) compilation of bench under opt.
func (r *Runner) Compile(bench string, opt core.Options) (*core.Compiled, error) {
	key := bench + "\x00" + optKey(opt)
	r.mu.Lock()
	c, ok := r.compiled[key]
	r.mu.Unlock()
	if ok {
		return c, nil
	}
	p, found := workload.ByName(bench)
	if !found {
		return nil, fmt.Errorf("experiment: unknown benchmark %q", bench)
	}
	f := p.Build(r.Scale)
	c, err := core.Compile(f, opt)
	if err != nil {
		return nil, fmt.Errorf("experiment: compile %s: %w", bench, err)
	}
	r.mu.Lock()
	r.compiled[key] = c
	r.mu.Unlock()
	return c, nil
}

// Run returns the (cached) simulation statistics of bench compiled under
// opt and simulated under cfg.
func (r *Runner) Run(bench string, opt core.Options, cfg pipeline.Config) (pipeline.Stats, error) {
	key := bench + "\x00" + optKey(opt) + "\x00" + cfgKey(cfg)
	r.mu.Lock()
	st, ok := r.simmed[key]
	r.mu.Unlock()
	if ok {
		return st, nil
	}
	c, err := r.Compile(bench, opt)
	if err != nil {
		return pipeline.Stats{}, err
	}
	p, _ := workload.ByName(bench)
	s, err := pipeline.New(c.Prog, cfg)
	if err != nil {
		return pipeline.Stats{}, err
	}
	if r.Progress != nil {
		s.AttachProgress(r.Progress)
	}
	p.SeedMemory(s.Mem)
	st, err = s.Run()
	if err != nil {
		return pipeline.Stats{}, fmt.Errorf("experiment: simulate %s: %w", bench, err)
	}
	if r.Progress != nil {
		r.Progress.Runs.Add(1)
	}
	r.mu.Lock()
	r.simmed[key] = st
	r.mu.Unlock()
	return st, nil
}

// MetricsSnapshot merges every cached simulation's statistics (via
// Stats.Merge) into one registry snapshot — the metrics payload of the
// run manifest cmd/experiments emits.
func (r *Runner) MetricsSnapshot() obs.Snapshot {
	var agg pipeline.Stats
	n := 0
	r.mu.Lock()
	for _, st := range r.simmed {
		st := st
		agg.Merge(&st)
		n++
	}
	r.mu.Unlock()
	reg := obs.NewRegistry()
	pipeline.FillStats(reg, &agg)
	reg.Gauge("runner.simulations").Set(int64(n))
	reg.Gauge("runner.scale_pct").Set(int64(r.Scale))
	return reg.Snapshot()
}

// BaselineCycles returns the cycle count of the no-resilience compilation
// on the no-resilience core with the given SB size.
func (r *Runner) BaselineCycles(bench string, sb int) (uint64, error) {
	st, err := r.Run(bench, core.Options{Scheme: core.Baseline, SBSize: sb}, pipeline.BaselineConfig(sb))
	if err != nil {
		return 0, err
	}
	return st.Cycles, nil
}

// Overhead returns normalized execution time (≥ ~1.0): scheme cycles over
// baseline cycles, both at SB size sb.
func (r *Runner) Overhead(bench string, opt core.Options, cfg pipeline.Config) (float64, error) {
	base, err := r.BaselineCycles(bench, cfg.SBSize)
	if err != nil {
		return 0, err
	}
	st, err := r.Run(bench, opt, cfg)
	if err != nil {
		return 0, err
	}
	return float64(st.Cycles) / float64(base), nil
}

// Geomean of a slice.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Mean of a slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Table is a render-ready result table — an alias of the shared obs
// renderer so cmd/experiments, cmd/diag, and metric snapshots all print
// through one implementation.
type Table = obs.Table

// suiteOrder renders per-suite geomeans in the paper's order.
var suiteOrder = []string{"cpu2006", "cpu2017", "splash3"}

// bySuite groups benchmark values and returns per-suite plus overall
// geomeans, in a stable order.
func bySuite(vals map[string]float64) []struct {
	Suite string
	Geo   float64
} {
	group := map[string][]float64{}
	var all []float64
	for _, p := range workload.Benchmarks() {
		v, ok := vals[p.Name]
		if !ok {
			continue
		}
		group[p.Suite] = append(group[p.Suite], v)
		all = append(all, v)
	}
	out := make([]struct {
		Suite string
		Geo   float64
	}, 0, 4)
	for _, s := range suiteOrder {
		if len(group[s]) > 0 {
			out = append(out, struct {
				Suite string
				Geo   float64
			}{s, Geomean(group[s])})
		}
	}
	out = append(out, struct {
		Suite string
		Geo   float64
	}{"all", Geomean(all)})
	return out
}

// dynamicCounts executes bench's program (under opt) on the reference
// machine and returns dynamic instruction and per-kind store counts — used
// by the compile-side figures (Fig. 4, Fig. 23, Fig. 26).
func (r *Runner) dynamicCounts(bench string, opt core.Options) (total uint64, stores map[isa.StoreKind]uint64, err error) {
	c, err := r.Compile(bench, opt)
	if err != nil {
		return 0, nil, err
	}
	p, _ := workload.ByName(bench)
	m := isa.NewMachine(c.Prog)
	m.StepLimit = 200_000_000
	p.SeedMemory(m.Mem)
	stores = map[isa.StoreKind]uint64{}
	for {
		in := &c.Prog.Insts[m.PC]
		if in.Op.IsStore() {
			stores[in.Kind]++
		}
		ok, err := m.Step()
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			break
		}
	}
	return m.Executed, stores, nil
}

// sortedBenchNames returns the evaluation-ordered names (paper order).
func sortedBenchNames() []string { return workload.Names() }

// parallelBenches runs fn over every benchmark concurrently (bounded by
// GOMAXPROCS workers) and returns the first error. Figure builders use it
// for their per-benchmark fan-out; results land in maps keyed by name, so
// aggregation order stays deterministic regardless of completion order.
func parallelBenches(fn func(bench string) error) error {
	names := sortedBenchNames()
	workers := runtime.GOMAXPROCS(0)
	if workers > len(names) {
		workers = len(names)
	}
	work := make(chan string)
	errs := make(chan error, len(names))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work {
				if err := fn(b); err != nil {
					errs <- err
				}
			}
		}()
	}
	for _, b := range names {
		work <- b
	}
	close(work)
	wg.Wait()
	close(errs)
	return <-errs
}

// fmtRatio renders a normalized execution time like the figures ("1.23").
func fmtRatio(v float64) string { return fmt.Sprintf("%.3f", v) }

// fmtPct renders a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
