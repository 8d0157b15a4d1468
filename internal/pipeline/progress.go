package pipeline

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Live progress publication. A Progress is a goroutine-safe view of
// in-flight simulation work: the simulator publishes atomic deltas once
// every progressBatch simulated cycles and wherever a run ends (halt, a
// step error, a reconvergence cut; nil-guarded, like the tracer/metrics
// attachment), and a Sampler goroutine periodically turns the
// accumulators into live.* gauges and ProgressSamples for the -serve SSE
// stream. One Progress may be shared by many sequential or concurrent
// simulations (fault-campaign trials, experiment sweeps); counters
// accumulate across all of them, and once every run has ended they
// equal the sums of the runs' Stats exactly.

// progressBatch is how many simulated cycles a run accumulates before it
// publishes: the publication's atomic adds, contended when campaign
// workers share one Progress, then cost nothing per step.
const progressBatch = 4096

// Progress holds goroutine-safe accumulators for in-flight simulation
// work. All counter fields only grow; SBOcc/CLQOcc are last-value gauges.
type Progress struct {
	Cycles          atomic.Uint64 // simulated cycles retired
	Insts           atomic.Uint64 // instructions retired
	Regions         atomic.Uint64 // regions opened
	RegionsVerified atomic.Uint64 // regions retired through verification
	Recoveries      atomic.Uint64 // recovery episodes
	Runs            atomic.Uint64 // completed simulations (campaign trials, sweep points)
	Workers         atomic.Int64  // campaign workers currently running trials
	Retries         atomic.Uint64 // campaign-service job attempts re-queued after transient failures

	SBOcc        atomic.Int64 // store-buffer entries at last publication
	CLQOcc       atomic.Int64 // CLQ occupancy at last publication (-1: no CLQ)
	JobsQueued   atomic.Int64 // campaign-service jobs waiting in the bounded queue
	JobsRunning  atomic.Int64 // campaign-service jobs currently executing
	BreakersOpen atomic.Int64 // campaign-service circuit breakers currently open

	// Fleet gauges: the distributed-campaign coordinator's view of its
	// worker fleet and lease table. FleetWorkers/FleetWorkersLost and
	// LeasesActive are last-value gauges; LeasesExpired/LeasesStolen only
	// grow.
	FleetWorkers     atomic.Int64  // registered workers currently live
	FleetWorkersLost atomic.Int64  // registered workers that stopped heartbeating
	LeasesActive     atomic.Int64  // trial-range leases currently outstanding
	LeasesExpired    atomic.Uint64 // leases reclaimed on deadline or worker loss
	LeasesStolen     atomic.Uint64 // duplicate grants issued to outrun stragglers
}

// AttachProgress makes the simulator publish into p as it steps; nil
// detaches. Attach before stepping. The same Progress may be attached to
// many simulators (even concurrently) — deltas accumulate.
func (s *Sim) AttachProgress(p *Progress) {
	s.progress = p
	if p != nil && s.clq == nil {
		p.CLQOcc.Store(-1)
	}
}

// publishDue publishes when a batch of cycles has accumulated since the
// last publication, or when the step just taken ended the run: it halted
// or failed with err. Called only when s.progress != nil.
func (s *Sim) publishDue(err error) {
	if err != nil || s.halted || s.Stats.Cycles >= s.published.Cycles+progressBatch {
		s.publishProgress()
	}
}

// FlushProgress publishes whatever the attached Progress has not yet
// received. Step publishes in batches and when a run ends; a caller that
// stops stepping a run for any other reason flushes it.
func (s *Sim) FlushProgress() {
	if s.progress != nil {
		s.publishProgress()
	}
}

// publishProgress pushes the counter deltas since the last publication and
// refreshes the occupancy gauges. Called only when s.progress != nil.
func (s *Sim) publishProgress() {
	p := s.progress
	st := &s.Stats
	p.Cycles.Add(st.Cycles - s.published.Cycles)
	p.Insts.Add(st.Insts - s.published.Insts)
	p.Regions.Add(st.RegionsExecuted - s.published.RegionsExecuted)
	p.RegionsVerified.Add(st.RegionsVerified - s.published.RegionsVerified)
	p.Recoveries.Add(st.Recoveries - s.published.Recoveries)
	s.published.Cycles = st.Cycles
	s.published.Insts = st.Insts
	s.published.RegionsExecuted = st.RegionsExecuted
	s.published.RegionsVerified = st.RegionsVerified
	s.published.Recoveries = st.Recoveries
	p.SBOcc.Store(int64(s.sb.len()))
	if s.clq != nil {
		p.CLQOcc.Store(int64(s.clq.occupancy()))
	}
}

// ProgressSample is one sampler observation — the payload of a /live SSE
// frame and the source of the live.* gauges.
type ProgressSample struct {
	WallSeconds     float64 `json:"wall_seconds"`
	Cycles          uint64  `json:"cycles"`
	Insts           uint64  `json:"insts"`
	IPC             float64 `json:"ipc"` // cumulative insts/cycles
	CyclesPerSecond float64 `json:"cycles_per_second"`
	Regions         uint64  `json:"regions"`
	RegionsVerified uint64  `json:"regions_verified"`
	Recoveries      uint64  `json:"recoveries"`
	Runs            uint64  `json:"runs"`
	Workers         int64   `json:"workers"`
	Retries         uint64  `json:"retries"`
	SBOcc           int64   `json:"sb_occupancy"`
	CLQOcc          int64   `json:"clq_occupancy"`
	JobsQueued      int64   `json:"jobs_queued"`
	JobsRunning     int64   `json:"jobs_running"`
	BreakersOpen    int64   `json:"breakers_open"`

	FleetWorkers     int64  `json:"fleet_workers"`
	FleetWorkersLost int64  `json:"fleet_workers_lost"`
	LeasesActive     int64  `json:"leases_active"`
	LeasesExpired    uint64 `json:"leases_expired"`
	LeasesStolen     uint64 `json:"leases_stolen"`
}

// Sampler periodically reads a Progress and publishes each observation as
// live.* gauges in a registry (scraped by /metrics) and to an optional
// callback (fanned to /live subscribers by the tools). Start it before the
// run, Stop it after; Stop takes one final sample so short runs still
// produce at least one observation.
type Sampler struct {
	progress *Progress
	reg      *obs.Registry
	interval time.Duration
	onSample func(ProgressSample)

	start      time.Time
	lastCycles uint64
	lastAt     time.Time
	stop       chan struct{}
	done       chan struct{}
}

// NewSampler builds a sampler over p. reg and onSample may each be nil;
// interval defaults to 250ms.
func NewSampler(p *Progress, reg *obs.Registry, interval time.Duration, onSample func(ProgressSample)) *Sampler {
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	return &Sampler{
		progress: p,
		reg:      reg,
		interval: interval,
		onSample: onSample,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the sampling goroutine.
func (sp *Sampler) Start() {
	sp.start = time.Now()
	sp.lastAt = sp.start
	go func() {
		defer close(sp.done)
		t := time.NewTicker(sp.interval)
		defer t.Stop()
		for {
			select {
			case <-sp.stop:
				sp.sample()
				return
			case <-t.C:
				sp.sample()
			}
		}
	}()
}

// Stop halts the goroutine after one final sample and waits for it.
func (sp *Sampler) Stop() {
	select {
	case <-sp.stop:
	default:
		close(sp.stop)
	}
	<-sp.done
}

// Sample takes one observation immediately (also used by the goroutine).
func (sp *Sampler) sample() ProgressSample {
	now := time.Now()
	p := sp.progress
	s := ProgressSample{
		WallSeconds:     now.Sub(sp.start).Seconds(),
		Cycles:          p.Cycles.Load(),
		Insts:           p.Insts.Load(),
		Regions:         p.Regions.Load(),
		RegionsVerified: p.RegionsVerified.Load(),
		Recoveries:      p.Recoveries.Load(),
		Runs:            p.Runs.Load(),
		Workers:         p.Workers.Load(),
		Retries:         p.Retries.Load(),
		SBOcc:           p.SBOcc.Load(),
		CLQOcc:          p.CLQOcc.Load(),
		JobsQueued:      p.JobsQueued.Load(),
		JobsRunning:     p.JobsRunning.Load(),
		BreakersOpen:    p.BreakersOpen.Load(),

		FleetWorkers:     p.FleetWorkers.Load(),
		FleetWorkersLost: p.FleetWorkersLost.Load(),
		LeasesActive:     p.LeasesActive.Load(),
		LeasesExpired:    p.LeasesExpired.Load(),
		LeasesStolen:     p.LeasesStolen.Load(),
	}
	if s.Cycles > 0 {
		s.IPC = float64(s.Insts) / float64(s.Cycles)
	}
	if dt := now.Sub(sp.lastAt).Seconds(); dt > 0 {
		s.CyclesPerSecond = float64(s.Cycles-sp.lastCycles) / dt
	}
	sp.lastCycles = s.Cycles
	sp.lastAt = now
	if sp.reg != nil {
		sp.reg.Gauge("live.cycles").Set(int64(s.Cycles))
		sp.reg.Gauge("live.insts").Set(int64(s.Insts))
		sp.reg.Gauge("live.ipc_milli").Set(int64(s.IPC * 1000))
		sp.reg.Gauge("live.regions").Set(int64(s.Regions))
		sp.reg.Gauge("live.regions_verified").Set(int64(s.RegionsVerified))
		sp.reg.Gauge("live.recoveries").Set(int64(s.Recoveries))
		sp.reg.Gauge("live.runs").Set(int64(s.Runs))
		sp.reg.Gauge("live.workers").Set(s.Workers)
		sp.reg.Gauge("live.retries").Set(int64(s.Retries))
		sp.reg.Gauge("live.sb_occupancy").Set(s.SBOcc)
		sp.reg.Gauge("live.clq_occupancy").Set(s.CLQOcc)
		sp.reg.Gauge("live.jobs_queued").Set(s.JobsQueued)
		sp.reg.Gauge("live.jobs_running").Set(s.JobsRunning)
		sp.reg.Gauge("live.breakers_open").Set(s.BreakersOpen)
		sp.reg.Gauge("live.fleet_workers").Set(s.FleetWorkers)
		sp.reg.Gauge("live.fleet_workers_lost").Set(s.FleetWorkersLost)
		sp.reg.Gauge("live.leases_active").Set(s.LeasesActive)
		sp.reg.Gauge("live.leases_expired").Set(int64(s.LeasesExpired))
		sp.reg.Gauge("live.leases_stolen").Set(int64(s.LeasesStolen))
	}
	if sp.onSample != nil {
		sp.onSample(s)
	}
	return s
}
