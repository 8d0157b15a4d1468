package pipeline

import (
	"fmt"
	"reflect"
	"strings"
	"unicode"

	"repro/internal/obs"
)

// Observability integration. The simulator carries one optional *Obs
// pointer; every instrumentation site is guarded by a single `s.obs != nil`
// branch so the disabled path costs one predictable compare per site
// (BenchmarkSimObsDisabled holds it to the uninstrumented simulator's
// throughput). When attached, the simulator emits cycle-domain spans —
// region open→close→verify, recovery episodes, store-buffer residency,
// sensor detection windows — plus fetch/issue/commit and cache-miss
// instants, and feeds occupancy/latency histograms in the registry.

// Trace track names (one Perfetto lane each).
const (
	trackRegions  = "regions"
	trackVerify   = "verify"
	trackRecovery = "recovery"
	trackSB       = "store-buffer"
	trackMem      = "memory"
	trackSensor   = "sensor"
	trackExec     = "exec"
)

// Obs bundles a tracer and pre-resolved metric handles for the simulator.
// Either field of NewObs may be nil: tracer-only and metrics-only
// attachments are both valid.
type Obs struct {
	Tracer *obs.Tracer
	Reg    *obs.Registry

	regionLife  *obs.Histogram // cycles from region open to close
	verifyLat   *obs.Histogram // cycles from region close to verification
	sbOcc       *obs.Histogram // store-buffer entries after each push
	clqOcc      *obs.Histogram // CLQ occupancy sampled at region boundaries
	recoveryLen *obs.Histogram // cycles per recovery episode
	detectQueue *obs.Histogram // pending-detection queue depth after each enqueue
}

// NewObs builds the handle bundle; histograms are registered eagerly so
// the hot path never performs a map lookup.
func NewObs(tr *obs.Tracer, reg *obs.Registry) *Obs {
	o := &Obs{Tracer: tr, Reg: reg}
	if reg != nil {
		o.regionLife = reg.Histogram("sim.region_lifetime_cycles", obs.ExpBuckets(1, 2, 16))
		o.verifyLat = reg.Histogram("sim.verify_latency_cycles", obs.LinearBuckets(0, 5, 16))
		o.sbOcc = reg.Histogram("sim.sb_occupancy", obs.LinearBuckets(0, 1, 41))
		o.clqOcc = reg.Histogram("sim.clq_occupancy", obs.LinearBuckets(0, 1, 17))
		o.recoveryLen = reg.Histogram("sim.recovery_cycles", obs.ExpBuckets(1, 2, 12))
		o.detectQueue = reg.Histogram("sim.detect_queue_depth", obs.LinearBuckets(0, 1, 17))
	}
	return o
}

// AttachObs enables observability on the simulator. Call before Run/Step;
// passing nil detaches.
func (s *Sim) AttachObs(o *Obs) {
	s.obs = o
}

// The obs* helpers below hold the emission bodies out-of-line so the
// simulator's hot functions carry only a nil check and a call at each
// instrumentation site — keeping Step() small enough that the disabled
// path stays within the BenchmarkSimObsDisabled budget.

func (s *Sim) obsFetchMiss(lat int) {
	s.obs.Tracer.Instant(trackMem, "fetch", "imiss", s.cycle,
		map[string]any{"pc": s.PC, "lat": lat})
}

func (s *Sim) obsDataStall(until uint64) {
	s.obs.Tracer.Span(trackExec, "issue", "data-stall", s.cycle, until,
		map[string]any{"pc": s.PC})
}

func (s *Sim) obsLoadAccess(addr uint64, lat int) {
	if lat > s.hier.L1D.HitLatency() {
		s.obs.Tracer.Instant(trackMem, "load", "dmiss", s.cycle,
			map[string]any{"addr": addr, "lat": lat})
	}
}

func (s *Sim) obsMispredict() {
	s.obs.Tracer.Instant(trackExec, "issue", "branch-mispredict", s.cycle,
		map[string]any{"pc": s.PC})
}

func (s *Sim) obsCommitStore(addr uint64, quarantine, isCkpt bool) {
	fate := "fast"
	switch {
	case quarantine:
		fate = "quarantined"
	case s.Cfg.Resilient:
		fate = "warfree"
	}
	name := "store"
	if isCkpt {
		name = "ckpt"
	}
	s.obs.Tracer.Instant(trackExec, "commit", name, s.cycle,
		map[string]any{"addr": addr, "fate": fate})
}

func (s *Sim) obsCommitCkptColored(addr uint64, color int) {
	s.obs.Tracer.Instant(trackExec, "commit", "ckpt", s.cycle,
		map[string]any{"addr": addr, "fate": "colored", "color": color})
}

// obsDrained emits the store-buffer residency span for a drained entry.
func (o *Obs) obsDrained(e *sbEntry, drainAt uint64) {
	cat := "sb-fast"
	if e.quarantined {
		cat = "sb-quarantined"
	}
	name := "store"
	if e.isCkpt {
		name = "ckpt"
	}
	o.Tracer.Span(trackSB, cat, name, e.commitAt, drainAt,
		map[string]any{"addr": e.addr})
}

// regionClosed fires when a region's fate is decided (verified or squashed
// by recovery): it emits the region's spans and histograms. The region
// span's args carry its instance, instruction count and store fates, and
// a verified region's verify span runs from its end to its verification;
// they are the run's one per-region record (cmd/trace -timeline reads
// them).
func (s *Sim) regionClosed(r *regionInst, squashed bool) {
	o := s.obs
	end := r.end
	if end == 0 || end < r.start {
		end = s.cycle // squashed while still open
	}
	if o.regionLife != nil {
		o.regionLife.Observe(end - r.start)
		if !squashed && r.verifyAt >= r.end {
			o.verifyLat.Observe(r.verifyAt - r.end)
		}
	}
	if o.Tracer.Enabled() {
		name := fmt.Sprintf("R%d", r.staticID)
		args := map[string]any{
			"instance": r.id, "insts": r.insts,
			"warfree": r.warFree, "colored": r.colored, "quarantined": r.quarantined,
		}
		if squashed {
			args["squashed"] = true
		}
		o.Tracer.Span(trackRegions, "region", name, r.start, end, args)
		if !squashed {
			o.Tracer.Span(trackVerify, "verify", name+" verify", r.end, r.verifyAt,
				map[string]any{"instance": r.id})
		}
	}
}

// FillMetrics exports the run's counters into reg: every Stats field as a
// sim.* metric plus the cache hierarchy's per-level hit/miss counters. Use
// a fresh registry per run (values add on repeat calls).
func (s *Sim) FillMetrics(reg *obs.Registry) {
	FillStats(reg, &s.Stats)
	s.hier.FillRegistry(reg)
}

// FillStats exports every Stats counter into reg under "sim.<snake_case>".
// CLQOccMax and DetectQueuePeak are exported as gauges (maxima, not
// counts).
func FillStats(reg *obs.Registry, st *Stats) {
	v := reflect.ValueOf(*st)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			continue
		}
		name := "sim." + snakeCase(f.Name)
		if f.Name == "CLQOccMax" || f.Name == "DetectQueuePeak" {
			reg.Gauge(name).SetMax(int64(v.Field(i).Uint()))
			continue
		}
		reg.Counter(name).Add(v.Field(i).Uint())
	}
}

// snakeCase converts CamelCase (with acronym runs) to snake_case:
// "SBFullStalls" -> "sb_full_stalls", "CLQOccMax" -> "clq_occ_max".
func snakeCase(s string) string {
	var b strings.Builder
	rs := []rune(s)
	for i, r := range rs {
		if unicode.IsUpper(r) {
			prevLower := i > 0 && unicode.IsLower(rs[i-1])
			nextLower := i+1 < len(rs) && unicode.IsLower(rs[i+1])
			if i > 0 && (prevLower || (nextLower && unicode.IsUpper(rs[i-1]))) {
				b.WriteByte('_')
			}
			b.WriteRune(unicode.ToLower(r))
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}
