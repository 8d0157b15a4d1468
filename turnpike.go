// Package turnpike reproduces "Turnpike: Lightweight Soft Error Resilience
// for In-Order Cores" (Zeng, Kim, Lee, Jung — MICRO '21): a compiler/
// architecture co-design that makes acoustic-sensor-based soft error
// verification practical on small in-order cores.
//
// The package is a façade over the internal substrates:
//
//   - the compiler (region partitioning, eager checkpointing, checkpoint
//     pruning, LICM sinking, induction-variable merging, store-aware
//     register allocation, checkpoint-aware scheduling),
//   - a cycle-level 2-issue in-order pipeline simulator with the gated
//     store buffer, region boundary buffer, committed load queue, and
//     hardware coloring,
//   - the 36 synthetic benchmark kernels standing in for SPEC CPU2006/
//     2017 and SPLASH-3,
//   - fault-injection campaigns with recovery verification, and
//   - the experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	res, err := turnpike.Evaluate("gcc", turnpike.Turnpike, turnpike.EvalConfig{})
//	fmt.Printf("overhead: %.1f%%\n", 100*(res.Overhead-1))
//
// See examples/ for runnable scenarios and cmd/experiments for the full
// evaluation.
package turnpike

import (
	"context"
	"fmt"
	"io"
	"log/slog"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sensor"
	"repro/internal/workload"
)

// Scheme selects the resilience strategy.
type Scheme = core.Scheme

// Schemes.
const (
	// Baseline has no resilience support; its cycle count is the
	// denominator of every overhead number.
	Baseline = core.Baseline
	// Turnstile is the prior state of the art (MICRO'16): full store
	// quarantine, eager checkpointing, no fast release.
	Turnstile = core.Turnstile
	// Turnpike is the paper's co-design with all optimizations.
	Turnpike = core.Turnpike
)

// CompileOptions re-exports the compiler configuration.
type CompileOptions = core.Options

// SimConfig re-exports the simulator configuration.
type SimConfig = pipeline.Config

// SimStats re-exports the simulator statistics.
type SimStats = pipeline.Stats

// Program re-exports the executable program image.
type Program = isa.Program

// Func re-exports the compiler IR function type.
type Func = ir.Func

// Profile re-exports a benchmark description.
type Profile = workload.Profile

// Benchmarks lists the 36 evaluated workloads in the paper's order.
func Benchmarks() []Profile { return workload.Benchmarks() }

// BenchmarkNames lists workload names in the paper's order.
func BenchmarkNames() []string { return workload.Names() }

// Compile lowers an IR function under the given options.
func Compile(f *Func, opt CompileOptions) (*core.Compiled, error) {
	return core.Compile(f, opt)
}

// Simulate runs a compiled program on the in-order core model with the
// given memory seeder (may be nil).
func Simulate(p *Program, cfg SimConfig, seed func(*isa.Memory)) (SimStats, error) {
	s, err := pipeline.New(p, cfg)
	if err != nil {
		return SimStats{}, err
	}
	if seed != nil {
		seed(s.Mem)
	}
	return s.Run()
}

// EvalConfig parameterizes Evaluate.
type EvalConfig struct {
	// SBSize is the store buffer capacity (default 4, the Cortex-A53).
	SBSize int
	// WCDL is the sensor worst-case detection latency in cycles
	// (default 10, i.e. ~300 sensors at 2.5GHz per Fig. 18).
	WCDL int
	// ScalePct scales the benchmark trip counts (default 25).
	ScalePct int
	// CLQIdeal selects the infinite address-matching CLQ instead of the
	// paper's compact 2-entry design.
	CLQIdeal bool
}

func (c *EvalConfig) defaults() {
	if c.SBSize == 0 {
		c.SBSize = 4
	}
	if c.WCDL == 0 {
		c.WCDL = 10
	}
	if c.ScalePct == 0 {
		c.ScalePct = 25
	}
}

// EvalResult reports one benchmark/scheme evaluation.
type EvalResult struct {
	Benchmark      string
	Scheme         Scheme
	Cycles         uint64
	BaselineCycles uint64
	// Overhead is normalized execution time (cycles / baseline cycles).
	Overhead float64
	Stats    SimStats
	Compile  core.Stats
}

// Evaluate compiles and simulates one benchmark under a scheme and returns
// its overhead against the no-resilience baseline.
func Evaluate(bench string, scheme Scheme, cfg EvalConfig) (*EvalResult, error) {
	cfg.defaults()
	p, ok := workload.ByName(bench)
	if !ok {
		return nil, fmt.Errorf("turnpike: unknown benchmark %q (see BenchmarkNames)", bench)
	}
	f := p.Build(cfg.ScalePct)

	var sim pipeline.Config
	switch scheme {
	case Baseline:
		sim = pipeline.BaselineConfig(cfg.SBSize)
	case Turnstile:
		sim = pipeline.TurnstileConfig(cfg.SBSize, cfg.WCDL)
	case Turnpike:
		sim = pipeline.TurnpikeConfig(cfg.SBSize, cfg.WCDL)
	default:
		return nil, fmt.Errorf("turnpike: unknown scheme %v", scheme)
	}
	if cfg.CLQIdeal {
		sim.CLQ = pipeline.CLQIdeal
	}

	compiled, err := core.Compile(f, core.SchemeOptions(scheme, cfg.SBSize))
	if err != nil {
		return nil, err
	}
	st, err := Simulate(compiled.Prog, sim, p.SeedMemory)
	if err != nil {
		return nil, err
	}

	baseOpt := core.Options{Scheme: core.Baseline, SBSize: cfg.SBSize}
	baseProg, err := core.Compile(f, baseOpt)
	if err != nil {
		return nil, err
	}
	baseStats, err := Simulate(baseProg.Prog, pipeline.BaselineConfig(cfg.SBSize), p.SeedMemory)
	if err != nil {
		return nil, err
	}

	return &EvalResult{
		Benchmark:      bench,
		Scheme:         scheme,
		Cycles:         st.Cycles,
		BaselineCycles: baseStats.Cycles,
		Overhead:       float64(st.Cycles) / float64(baseStats.Cycles),
		Stats:          st,
		Compile:        compiled.Stats,
	}, nil
}

// FaultCampaignConfig parameterizes InjectFaults: the campaign, which
// maps onto a fault.Spec, and how this process runs it (Metrics,
// Workers, Lease, Checkpoint, Logger).
type FaultCampaignConfig struct {
	Trials   int // default 100
	Seed     int64
	SBSize   int // default 4
	WCDL     int // default 10
	ScalePct int // default 10
	// Metrics, when non-nil, receives the campaign's observability:
	// outcome counters, detection-latency and recovery-cycle histograms,
	// the merged per-trial simulator statistics, and the live.* gauges
	// every trial's simulator publishes into while the campaign runs
	// (cmd/faultcampaign -serve streams them).
	Metrics *obs.Registry
	// Workers bounds the campaign's trial worker pool; <=0 uses
	// GOMAXPROCS. The merged result is identical for every worker count.
	Workers int
	// Lease is the number of consecutive trials one dispatch hands a
	// worker; <=0 picks an automatic batch from Trials and Workers. Any
	// lease size produces byte-identical results. See fault.Config.Lease.
	Lease int
	// FailureBudget caps recorded SDC/crash trials before the campaign
	// aborts: 0 fails fast on the first failure, a negative budget
	// records every failure without aborting. See fault.Config.
	FailureBudget int
	// Checkpoint, when non-empty, appends each completed trial to this
	// file so an interrupted campaign resumes from its completed trials.
	Checkpoint string
	// Logger, when non-nil, receives the campaign's structured log —
	// lifecycle events, per-trial Debug records, and the simulator's
	// rare events — stamped with the caller context's correlation chain.
	// See fault.Config.Logger.
	Logger *slog.Logger
	// Adversary, when non-nil, switches the campaign to the
	// imperfect-mesh fault model: dead sensors, detections beyond the
	// WCDL, fault bursts, and false positives. See fault.Adversary.
	Adversary *FaultAdversary
	// Containment, when non-nil, overrides the simulator's containment
	// policy (on by default for resilient configs): a detection arriving
	// after its region verified aborts as a DUE instead of running on
	// corrupted state. Turning it off is the unsafe operating point used
	// to demonstrate SDC under an imperfect mesh.
	Containment *bool
}

// FaultResult re-exports the campaign outcome.
type FaultResult = fault.Result

// FaultInjection re-exports one trial's injection plan — the replay unit
// recorded in FaultResult.Failures and campaign checkpoint files.
type FaultInjection = fault.Injection

// FaultAdversary re-exports the imperfect-mesh fault model knobs.
type FaultAdversary = fault.Adversary

// spec maps cfg onto the campaign spec of bench under scheme.
func (cfg *FaultCampaignConfig) spec(bench string, scheme Scheme) fault.Spec {
	return fault.Spec{
		Bench: bench, Scheme: scheme.String(), Trials: cfg.Trials, Seed: cfg.Seed,
		WCDL: cfg.WCDL, SBSize: cfg.SBSize, ScalePct: cfg.ScalePct, FailureBudget: cfg.FailureBudget,
		Adversary: cfg.Adversary, Containment: cfg.Containment,
	}
}

// InjectFaults runs a single-bit-flip campaign against a benchmark under
// the given scheme (Turnstile or Turnpike) and verifies that every outcome
// is SDC-free — the paper's core guarantee.
func InjectFaults(bench string, scheme Scheme, cfg FaultCampaignConfig) (*FaultResult, error) {
	return InjectFaultsContext(context.Background(), bench, scheme, cfg)
}

// InjectFaultsContext is InjectFaults with cancellation: a cancelled ctx
// stops the campaign's outstanding trials and returns the merged partial
// result alongside the error; a configured checkpoint holds every trial
// that completed.
func InjectFaultsContext(ctx context.Context, bench string, scheme Scheme, cfg FaultCampaignConfig) (*FaultResult, error) {
	p, err := PrepareFaultCampaign(ctx, bench, scheme, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// PreparedFaultCampaign re-exports the two-phase campaign handle: the
// golden run is executed and snapshotted, per-worker simulators are
// forked, and Run executes only the trial phase. cmd/bench uses the
// split to meter trial throughput without the serial setup.
type PreparedFaultCampaign = fault.Prepared

// PrepareFaultCampaign runs a campaign's serial phases (compile, golden
// run, golden-state snapshot, worker priming) and returns the campaign
// ready to Run. InjectFaultsContext is Prepare followed by Run.
func PrepareFaultCampaign(ctx context.Context, bench string, scheme Scheme, cfg FaultCampaignConfig) (*PreparedFaultCampaign, error) {
	prog, seedMem, ecfg, err := cfg.spec(bench, scheme).Compile()
	if err != nil {
		return nil, err
	}
	ecfg.Workers, ecfg.Lease, ecfg.Checkpoint = cfg.Workers, cfg.Lease, cfg.Checkpoint
	ecfg.Metrics, ecfg.Logger = cfg.Metrics, cfg.Logger
	return fault.Prepare(ctx, prog, ecfg, seedMem)
}

// ReplayFault re-executes one recorded injection from a campaign's
// failure report against a freshly compiled benchmark and returns its
// classification — the debugging half of the campaign engine's replayable
// failure reports.
func ReplayFault(bench string, scheme Scheme, cfg FaultCampaignConfig, inj FaultInjection) (fault.Outcome, SimStats, error) {
	prog, seedMem, ecfg, err := cfg.spec(bench, scheme).Compile()
	if err != nil {
		return fault.Crash, SimStats{}, err
	}
	return fault.Replay(prog, ecfg, seedMem, inj)
}

// WCDLForSensors returns the worst-case detection latency of a sensor mesh
// (Fig. 18's model).
func WCDLForSensors(sensors int, dieAreaMM2, clockGHz float64) (int, error) {
	m := sensor.Model{Sensors: sensors, DieAreaMM2: dieAreaMM2, ClockGHz: clockGHz}
	if err := m.Validate(); err != nil {
		return 0, err
	}
	return m.WCDL(), nil
}

// NewExperimentRunner returns the harness used to regenerate the paper's
// tables and figures; see the internal/experiment package's FigNN
// functions via cmd/experiments for the full set.
func NewExperimentRunner(scalePct int) *experiment.Runner {
	return experiment.NewRunner(scalePct)
}

// SaveProgram serializes a compiled program to w in the versioned binary
// artifact format (see isa.ReadProgram / Program.WriteTo).
func SaveProgram(p *Program, w io.Writer) error {
	_, err := p.WriteTo(w)
	return err
}

// LoadProgram deserializes a compiled program and validates it.
func LoadProgram(r io.Reader) (*Program, error) { return isa.ReadProgram(r) }

// VerifyArtifact audits a compiled resilient binary with the independent
// static checker: recovery-block coverage and self-containment, region
// numbering, and the store budget (counting checkpoints unless the target
// core has hardware coloring). Use it before trusting recovery metadata
// from a cached or third-party artifact.
func VerifyArtifact(p *Program, storeBudget int, coloredCkpts bool) error {
	return core.VerifyResilience(p, storeBudget, !coloredCkpts)
}
