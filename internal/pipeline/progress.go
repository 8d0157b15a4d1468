package pipeline

import (
	"time"

	"repro/internal/obs"
)

// Live progress publication. A Progress is a registry's live.* gauges,
// resolved once: the simulator adds its counts to them once every
// progressBatch simulated cycles and wherever a run ends (halt, a step
// error, a reconvergence cut; nil-guarded, like the tracer/metrics
// attachment), so /metrics reads them as published and a /live stream
// samples them (Sampler). One Progress may be shared by many sequential
// or concurrent simulations (fault-campaign trials, experiment sweeps);
// counters accumulate across all of them, and once every run has ended
// they equal the sums of the runs' Stats exactly.

// progressBatch is how many simulated cycles a run accumulates before it
// publishes: the publication's atomic adds, contended when campaign
// workers share one Progress, then cost nothing per step.
const progressBatch = 4096

// Progress holds the live.* gauges of one registry. The counts only
// grow; Workers counts campaign workers running trials, and SBOcc and
// CLQOcc hold the occupancies at the last publication.
type Progress struct {
	Cycles          *obs.Gauge // live.cycles: simulated cycles retired
	Insts           *obs.Gauge // live.insts: instructions retired
	Regions         *obs.Gauge // live.regions: regions opened
	RegionsVerified *obs.Gauge // live.regions_verified: regions retired through verification
	Recoveries      *obs.Gauge // live.recoveries: recovery episodes
	Runs            *obs.Gauge // live.runs: completed simulations (campaign trials, sweep points)
	Workers         *obs.Gauge // live.workers: campaign workers currently running trials
	SBOcc           *obs.Gauge // live.sb_occupancy: store-buffer entries
	CLQOcc          *obs.Gauge // live.clq_occupancy: CLQ occupancy (-1: no CLQ)
}

// NewProgress resolves reg's live.* gauges. A nil registry returns a nil
// Progress, which publishes nothing.
func NewProgress(reg *obs.Registry) *Progress {
	if reg == nil {
		return nil
	}
	return &Progress{
		Cycles:          reg.Gauge("live.cycles"),
		Insts:           reg.Gauge("live.insts"),
		Regions:         reg.Gauge("live.regions"),
		RegionsVerified: reg.Gauge("live.regions_verified"),
		Recoveries:      reg.Gauge("live.recoveries"),
		Runs:            reg.Gauge("live.runs"),
		Workers:         reg.Gauge("live.workers"),
		SBOcc:           reg.Gauge("live.sb_occupancy"),
		CLQOcc:          reg.Gauge("live.clq_occupancy"),
	}
}

// AttachProgress makes the simulator publish into p as it steps; nil
// detaches. Attach before stepping. The same Progress may be attached to
// many simulators (even concurrently) — deltas accumulate.
func (s *Sim) AttachProgress(p *Progress) {
	s.progress = p
	if p != nil && s.clq == nil {
		p.CLQOcc.Set(-1)
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
	p.Cycles.Add(int64(st.Cycles - s.published.Cycles))
	p.Insts.Add(int64(st.Insts - s.published.Insts))
	p.Regions.Add(int64(st.RegionsExecuted - s.published.RegionsExecuted))
	p.RegionsVerified.Add(int64(st.RegionsVerified - s.published.RegionsVerified))
	p.Recoveries.Add(int64(st.Recoveries - s.published.Recoveries))
	s.published.Cycles = st.Cycles
	s.published.Insts = st.Insts
	s.published.RegionsExecuted = st.RegionsExecuted
	s.published.RegionsVerified = st.RegionsVerified
	s.published.Recoveries = st.Recoveries
	p.SBOcc.Set(int64(s.sb.len()))
	if s.clq != nil {
		p.CLQOcc.Set(int64(s.clq.occupancy()))
	}
}

// ProgressSample is one /live frame: the Progress gauges, with the IPC
// they give and the rate of simulated cycles since the stream's last
// frame.
type ProgressSample struct {
	WallSeconds     float64 `json:"wall_seconds"` // since NewSampler
	Cycles          uint64  `json:"cycles"`
	Insts           uint64  `json:"insts"`
	IPC             float64 `json:"ipc"` // cumulative insts/cycles
	CyclesPerSecond float64 `json:"cycles_per_second"`
	Regions         uint64  `json:"regions"`
	RegionsVerified uint64  `json:"regions_verified"`
	Recoveries      uint64  `json:"recoveries"`
	Runs            uint64  `json:"runs"`
	Workers         int64   `json:"workers"`
	SBOcc           int64   `json:"sb_occupancy"`
	CLQOcc          int64   `json:"clq_occupancy"`
}

// Sampler turns a Progress into /live frames; its clock starts at
// NewSampler.
type Sampler struct {
	p     *Progress
	start time.Time
}

// NewSampler returns a sampler over p, which must not be nil.
func NewSampler(p *Progress) *Sampler {
	return &Sampler{p: p, start: time.Now()}
}

// Stream returns one /live stream's frame function, the form
// obs.ServerConfig.Live takes: each call samples the gauges, and its
// cycle rate covers the time since the stream's previous frame (since
// NewSampler for the first).
func (sp *Sampler) Stream() func() any {
	var last ProgressSample
	return func() any {
		last = sp.sample(last)
		return last
	}
}

// sample reads the gauges into a frame whose cycle rate covers the time
// since prev.
func (sp *Sampler) sample(prev ProgressSample) ProgressSample {
	p := sp.p
	s := ProgressSample{
		WallSeconds:     time.Since(sp.start).Seconds(),
		Cycles:          uint64(p.Cycles.Value()),
		Insts:           uint64(p.Insts.Value()),
		Regions:         uint64(p.Regions.Value()),
		RegionsVerified: uint64(p.RegionsVerified.Value()),
		Recoveries:      uint64(p.Recoveries.Value()),
		Runs:            uint64(p.Runs.Value()),
		Workers:         p.Workers.Value(),
		SBOcc:           p.SBOcc.Value(),
		CLQOcc:          p.CLQOcc.Value(),
	}
	if s.Cycles > 0 {
		s.IPC = float64(s.Insts) / float64(s.Cycles)
	}
	if dt := s.WallSeconds - prev.WallSeconds; dt > 0 {
		s.CyclesPerSecond = float64(s.Cycles-prev.Cycles) / dt
	}
	return s
}
