// Package fault runs soft-error injection campaigns against the pipeline
// simulator: single-bit flips in architectural registers at random points,
// sensor detection within WCDL, recovery through the compiler-generated
// recovery blocks, and a golden-run comparison that classifies every
// outcome. The paper's core claim — acoustic-sensor verification plus
// region-level recovery eliminates silent data corruption — becomes the
// campaign invariant: zero SDC outcomes.
package fault

import (
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sort"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Outcome classifies one injection run.
type Outcome int

const (
	// Masked: the flip changed nothing observable and no recovery was
	// needed (e.g. a dead register) — output still correct.
	Masked Outcome = iota
	// Recovered: detection fired, recovery ran, output correct.
	Recovered
	// SDC: output differs from the golden run — must never happen.
	SDC
	// Crash: the simulator reported an error.
	Crash
	// DUE: a detected-unrecoverable error — the detection arrived after
	// its region had verified and released stores, and containment
	// aborted the machine rather than let the corruption go silent. A
	// DUE is the *successful* outcome of containment under an imperfect
	// mesh: data is lost, but never silently wrong.
	DUE
)

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case Recovered:
		return "recovered"
	case SDC:
		return "SDC"
	case Crash:
		return "crash"
	case DUE:
		return "DUE"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Config parameterizes a campaign.
type Config struct {
	// Trials is the number of injections.
	Trials int
	// Seed makes the campaign reproducible.
	Seed int64
	// Sim is the pipeline configuration (must be resilient).
	Sim pipeline.Config
	// Metrics, when set, receives per-campaign observability: outcome
	// counters, a detection-latency histogram, a recovery-cycles
	// histogram, and the merged simulator statistics of every trial.
	// While the campaign is in flight every simulator also publishes
	// into its live.* gauges (pipeline.Progress: cycles, instructions,
	// regions, recoveries, occupancies), and the engine counts active
	// workers and completed runs there: Prepare's two golden runs, which
	// a campaign handed on by Prepared.Reuse does not repeat, and every
	// trial that ends without a simulator error.
	Metrics *obs.Registry
	// Workers bounds the trial worker pool; <=0 uses GOMAXPROCS. The
	// result is identical for every worker count: each trial's injection
	// plan is a pure function of (Seed, trial) and per-trial results are
	// merged in trial order.
	Workers int
	// Lease is the number of consecutive trials a worker takes per
	// claim, amortizing dispatch over batches of trials; <=0 picks an
	// automatic batch from Trials and Workers (LeaseSize). Any lease size
	// produces byte-identical results — the plan stays a pure function
	// of (Seed, trial) and the merge stays trial-index-ordered.
	Lease int
	// FailureBudget caps recorded SDC/crash trials before the campaign
	// cancels its remaining work. 0 keeps the historical fail-fast
	// behaviour (budget of one); a negative budget never aborts, so a
	// full campaign records every failure into Result.Failures for
	// replay. Whenever the budget is exhausted Campaign returns an error
	// alongside the merged partial result.
	FailureBudget int
	// Checkpoint, when non-empty, is the path of a JSON-lines log to
	// which every trial is appended as it commits. A campaign started
	// with an existing checkpoint at the same (seed, trials, workload)
	// resumes from its completed trials instead of re-running them;
	// anything else in the file's fingerprint mismatching is an error.
	Checkpoint string
	// Adversary, when set, switches the campaign to the imperfect-mesh
	// fault model: dead sensors, late detections, fault bursts, and
	// false positives, all drawn from the per-trial SplitMix64 streams
	// so results stay worker-count-deterministic. Nil is the zero
	// Adversary: the perfect mesh, which detects every strike uniformly
	// in [1, WCDL] cycles.
	Adversary *Adversary
	// Logger, when set, receives the campaign's structured log:
	// lifecycle events at Info (start, resume, completion, budget
	// exhaustion), non-fatal warnings (a corrupt checkpoint discarded
	// for a fresh run), per-trial outcomes at Debug, and the simulator's
	// rare events (recoveries, containment aborts, degrade
	// transitions). Every record is stamped with the correlation chain
	// of the campaign's context — job ID from the service, plus the
	// shard (worker) and trial indices the engine adds — so one job's
	// story can be filtered out of a shared stream. Nil disables at zero
	// hot-loop cost.
	Logger *slog.Logger
}

// defaults fills the trial count a zero Config leaves to the engine.
func (c *Config) defaults() {
	if c.Trials <= 0 {
		c.Trials = 100
	}
}

// Runners returns how many trial runners a campaign of c primes: one
// per worker (GOMAXPROCS when Workers <= 0), at most one per trial.
func (c Config) Runners() int {
	c.defaults()
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, c.Trials)
}

// Adversary parameterizes the imperfect-mesh fault model. The nominal
// mesh is derived from the pipeline's WCDL (the sensor count that
// achieves it on the paper's 1 mm², 2.5 GHz die), and its nominal bound
// is that WCDL; the knobs then break it: DeadSensors enlarge the
// surviving cells (stretching real detection latency past the WCDL the
// pipeline was provisioned for), MissProb sends strikes to a farther
// sensor outright, BurstMax packs several strikes into one detection
// window, and FalsePositiveRate fires sensors with no strike at all.
// The zero Adversary breaks nothing: it is the perfect mesh.
type Adversary struct {
	// MissProb is the per-strike probability the detection lands beyond
	// the nominal WCDL, in (WCDL, LateFactor×WCDL].
	MissProb float64 `json:"miss_prob"`
	// FalsePositiveRate is the per-trial probability of one spurious
	// detection at a uniform instruction point.
	FalsePositiveRate float64 `json:"false_positive_rate"`
	// DeadSensors is how many sensors of the nominal mesh are offline.
	DeadSensors int `json:"dead_sensors"`
	// BurstMax caps the strikes per trial: each trial draws a burst
	// size uniform in [1, BurstMax]. 0 or 1 keeps single strikes.
	BurstMax int `json:"burst_max"`
	// LateFactor bounds late detections at LateFactor × WCDL (values
	// below 2, including 0, are raised to 2).
	LateFactor float64 `json:"late_factor"`
}

// validate checks the adversary against the pipeline configuration it
// will drive.
func (a *Adversary) validate(sim pipeline.Config) error {
	if a.MissProb < 0 || a.MissProb > 1 {
		return fmt.Errorf("fault: adversary miss probability %v outside [0,1]", a.MissProb)
	}
	if a.FalsePositiveRate < 0 || a.FalsePositiveRate > 1 {
		return fmt.Errorf("fault: adversary false-positive rate %v outside [0,1]", a.FalsePositiveRate)
	}
	if a.DeadSensors < 0 {
		return fmt.Errorf("fault: adversary dead sensors %d", a.DeadSensors)
	}
	if a.BurstMax < 0 {
		return fmt.Errorf("fault: adversary burst max %d", a.BurstMax)
	}
	dq := sim.DetectQueue
	if dq == 0 {
		dq = pipeline.DefaultDetectQueue
	}
	if a.BurstMax+1 > dq {
		return fmt.Errorf("fault: adversary burst max %d needs a detect queue of %d (have %d)",
			a.BurstMax, a.BurstMax+1, dq)
	}
	if a.LateFactor < 0 {
		return fmt.Errorf("fault: adversary late factor %v", a.LateFactor)
	}
	return nil
}

// Result aggregates a campaign.
type Result struct {
	Outcomes   map[Outcome]int
	Recoveries uint64
	Parity     uint64
	// AvgRecoveryCycles is the mean recovery penalty over runs that
	// recovered at least once.
	AvgRecoveryCycles float64
	// SlowdownSamples holds, per recovered trial, the run's cycle count
	// relative to the golden run — the end-to-end cost of one strike.
	SlowdownSamples []float64
	// Agg is the Stats.Merge aggregation of every injected trial's
	// simulator statistics (the golden run is excluded).
	Agg pipeline.Stats
	// CompletedTrials counts the trials that actually ran (or were
	// restored from a checkpoint); it is less than Config.Trials when the
	// campaign was cancelled or exhausted its failure budget.
	CompletedTrials int
	// Failures is the replayable failure report: every SDC or crash
	// trial, in trial order. Feed an entry's Inj to Replay to re-execute
	// it in isolation. DUEs are not failures — they are containment
	// working as designed.
	Failures []TrialFailure

	// Strikes is the total number of injected strikes across every
	// completed trial (each strike of a burst counts).
	Strikes int
	// MissedDetections counts strikes whose planned detection exceeded
	// the nominal WCDL (the imperfect mesh's misses).
	MissedDetections int
	// Coverage is the fraction of strikes detected within the WCDL,
	// with a Wilson 95% interval.
	Coverage Proportion
	// DUERate and SDCRate are per-trial outcome rates with Wilson 95%
	// intervals. The containment invariant in one line: with containment
	// on, SDCRate.Hi must sit at the binomial zero bound while DUERate
	// absorbs every miss.
	DUERate Proportion
	SDCRate Proportion
}

// Proportion is a binomial rate estimate with its Wilson 95% score
// interval — the interval of choice for campaign rates because it stays
// honest at the extremes (zero successes out of n still yields a nonzero
// upper bound of roughly 3.84/(n+3.84)).
type Proportion struct {
	Successes int     `json:"successes"`
	Total     int     `json:"total"`
	Rate      float64 `json:"rate"`
	// Lo and Hi bound the true rate at 95% confidence.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// NewProportion computes the Wilson 95% score interval for k successes
// out of n.
func NewProportion(k, n int) Proportion {
	p := Proportion{Successes: k, Total: n}
	if n <= 0 {
		return p
	}
	const z = 1.959963984540054 // 97.5th normal percentile
	ph := float64(k) / float64(n)
	p.Rate = ph
	nf := float64(n)
	denom := 1 + z*z/nf
	center := ph + z*z/(2*nf)
	half := z * math.Sqrt(ph*(1-ph)/nf+z*z/(4*nf*nf))
	p.Lo = (center - half) / denom
	p.Hi = (center + half) / denom
	if p.Lo < 0 {
		p.Lo = 0
	}
	if p.Hi > 1 {
		p.Hi = 1
	}
	return p
}

// SlowdownPercentile returns the p-th percentile (0..100) of the recovered
// trials' relative slowdowns using the nearest-rank definition
// (ceil(p/100*n)), or 0 when none recovered. Truncating the rank instead
// would bias P95/P99 low on small sample counts.
func (r *Result) SlowdownPercentile(p float64) float64 {
	if len(r.SlowdownSamples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), r.SlowdownSamples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Injection describes one trial's fault events: the primary strike (which
// register bit flips, after how many retired instructions, the sensor's
// detection latency), plus — for adversarial campaigns — the rest of the
// burst and any spurious detections. It is the replay unit: a campaign's
// failure report and checkpoint file both record Injections, and Replay
// re-executes one, adversarial or not.
type Injection struct {
	Reg     isa.Reg `json:"reg"`
	Bit     uint    `json:"bit"`
	AtInst  uint64  `json:"at_inst"`
	Latency int     `json:"latency"`
	// Missed flags a primary detection planned beyond the nominal WCDL.
	Missed bool `json:"missed,omitempty"`
	// Extra holds the burst's additional strikes, in injection order.
	Extra []Strike `json:"extra,omitempty"`
	// FalsePositives lists spurious sensor firings (no strike).
	FalsePositives []FalsePositive `json:"false_positives,omitempty"`
}

// Strike is one additional burst strike.
type Strike struct {
	Reg     isa.Reg `json:"reg"`
	Bit     uint    `json:"bit"`
	AtInst  uint64  `json:"at_inst"`
	Latency int     `json:"latency"`
	Missed  bool    `json:"missed,omitempty"`
}

// FalsePositive is one spurious detection event.
type FalsePositive struct {
	AtInst  uint64 `json:"at_inst"`
	Latency int    `json:"latency"`
}

// appendEvents appends the injection's schedule of fault events to evs
// — normally a worker's scratch resliced to [:0], so steady-state
// planning allocates nothing. Ordering is deterministic: by instruction
// point, primaries before extras before false positives on ties. A
// schedule holds at most BurstMax+2 events, so an in-place stable
// insertion sort orders it without sort.SliceStable's allocations.
func (inj *Injection) appendEvents(evs []pipeline.Event) []pipeline.Event {
	evs = append(evs, pipeline.Event{At: inj.AtInst, Reg: inj.Reg, Bit: inj.Bit, Latency: inj.Latency})
	for _, x := range inj.Extra {
		evs = append(evs, pipeline.Event{At: x.AtInst, Reg: x.Reg, Bit: x.Bit, Latency: x.Latency})
	}
	for _, fp := range inj.FalsePositives {
		evs = append(evs, pipeline.Event{At: fp.AtInst, Latency: fp.Latency, Spurious: true})
	}
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].At < evs[j-1].At; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	return evs
}

// CountStrikes returns the number of strikes (1 + burst extras) and how
// many of them were planned to be missed (detected beyond the WCDL).
func (inj *Injection) CountStrikes() (strikes, missed int) {
	strikes = 1 + len(inj.Extra)
	if inj.Missed {
		missed++
	}
	for i := range inj.Extra {
		if inj.Extra[i].Missed {
			missed++
		}
	}
	return strikes, missed
}

// TrialFailure records one SDC or crash trial in a campaign's failure
// report.
type TrialFailure struct {
	Trial   int       `json:"trial"`
	Outcome Outcome   `json:"outcome"`
	Inj     Injection `json:"injection"`
	// Err is the simulator error for crashes.
	Err string `json:"error,omitempty"`
}
