package pipeline

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
)

// flushPenalty is the pipeline-flush cost charged when recovery redirects
// fetch to a recovery block (drain + refill of the 5-stage pipe).
const flushPenalty = 5

// detectEvent is one in-flight sensor event. The pipeline learns nothing
// about a strike until the acoustic wave reaches a sensor; what it can
// know at firing time is whether the damage is still containable — which
// is exactly what the anchor captures.
type detectEvent struct {
	// at is the cycle the sensors fire.
	at uint64
	// anchor is the id of the region open when the strike (or spurious
	// firing) happened — the region whose quarantine holds the
	// corruption. noRegion when none was open (recovery block,
	// pre-first-boundary).
	anchor int
	// epoch is Stats.RegionsVerified at strike time, the containment
	// fallback for nil anchors: if any region verified since, stores
	// the strike may have influenced could have escaped.
	epoch uint64
	// late marks a detection beyond the provisioned WCDL (a degraded
	// mesh heard the wave on a farther sensor).
	late bool
	// spurious marks a false positive: a detection with no strike.
	spurious bool
}

// DUEError is a detected-unrecoverable error: a sensor event arrived
// after the region holding its effects had verified and released its
// stores, and the containment policy aborted the machine (machine-check)
// rather than let the corruption become silent. Fault campaigns classify
// it as the DUE outcome with errors.As.
type DUEError struct {
	// Cycle is when the machine check fired.
	Cycle uint64
	// Late distinguishes a real late detection from a spurious one.
	Late bool
}

func (e *DUEError) Error() string {
	kind := "spurious detection"
	if e.Late {
		kind = "late detection"
	}
	return fmt.Sprintf("pipeline: DUE at cycle %d: %s outside every unverified region (containment abort)", e.Cycle, kind)
}

// nextDetectAt returns the earliest pending sensor firing, or infCycle.
// The queue is kept sorted by firing cycle.
func (s *Sim) nextDetectAt() uint64 {
	if len(s.pendingDetects) == 0 {
		return infCycle
	}
	return s.pendingDetects[0].at
}

// degraded reports whether the degradation controller has fast release
// suspended.
func (s *Sim) degraded() bool { return s.degradedUntil != 0 }

// enterDegraded suspends fast release (CLQ store release and checkpoint
// coloring both fall back to quarantine) for at least DegradeWindow
// cycles; a region boundary past that deadline recalibrates. Repeated
// late detections extend the window.
func (s *Sim) enterDegraded() {
	if s.degradedUntil == 0 {
		s.Stats.DegradeEntries++
		if s.obs != nil {
			s.obs.Tracer.Instant(trackSensor, "mesh", "degrade-enter", s.cycle,
				map[string]any{"window": s.Cfg.DegradeWindow})
		}
		s.logDegradeEnter()
	}
	s.degradedUntil = s.cycle + s.Cfg.DegradeWindow
}

// enqueueDetect inserts a sensor event in firing order, enforcing the
// bounded event FIFO.
func (s *Sim) enqueueDetect(e detectEvent) error {
	if len(s.pendingDetects) >= s.Cfg.DetectQueue {
		return fmt.Errorf("pipeline: detection queue full (%d pending, capacity %d)",
			len(s.pendingDetects), s.Cfg.DetectQueue)
	}
	i := len(s.pendingDetects)
	for i > 0 && s.pendingDetects[i-1].at > e.at {
		i--
	}
	s.pendingDetects = append(s.pendingDetects, detectEvent{})
	copy(s.pendingDetects[i+1:], s.pendingDetects[i:])
	s.pendingDetects[i] = e
	if n := uint64(len(s.pendingDetects)); n > s.Stats.DetectQueuePeak {
		s.Stats.DetectQueuePeak = n
	}
	if s.obs != nil && s.obs.detectQueue != nil {
		s.obs.detectQueue.Observe(uint64(len(s.pendingDetects)))
	}
	return nil
}

// newStrikeEvent captures the containment anchor for a strike happening
// "now" with the given detection latency.
func (s *Sim) newStrikeEvent(latency int, spurious bool) detectEvent {
	return detectEvent{
		at:       s.cycle + uint64(latency),
		anchor:   regionID(s.cur()),
		epoch:    s.Stats.RegionsVerified,
		late:     latency > s.Cfg.WCDL,
		spurious: spurious,
	}
}

// InjectBitFlip flips one bit of an architectural register "now" and
// schedules the acoustic-sensor detection event after latency cycles.
// Latencies beyond the configured WCDL model a degraded mesh (the nearest
// live sensor missed the wave); whether such a late detection is survivable
// depends on the containment configuration, not on injection. Multiple
// strikes may be in flight at once (fault bursts) up to Config.DetectQueue.
// The register is tainted for the parity model of §5.
func (s *Sim) InjectBitFlip(r isa.Reg, bit uint, latency int) error {
	if !s.Cfg.Resilient {
		return fmt.Errorf("pipeline: fault injection requires a resilient configuration")
	}
	if latency < 1 {
		return fmt.Errorf("pipeline: detection latency %d < 1", latency)
	}
	ev := s.newStrikeEvent(latency, false)
	if err := s.enqueueDetect(ev); err != nil {
		return err
	}
	s.Regs[r] ^= 1 << (bit & 63)
	s.Taint[r] = true
	if ev.late {
		s.Stats.LateDetections++
	}
	if s.obs != nil {
		s.obs.Tracer.Instant(trackSensor, "fault", "strike", s.cycle,
			map[string]any{"reg": int(r), "bit": bit, "late": ev.late})
		s.obs.Tracer.Span(trackSensor, "sensor", "detection-window", s.cycle, ev.at,
			map[string]any{"latency": latency})
	}
	return nil
}

// InjectFalseDetection schedules a spurious sensor firing after latency
// cycles with no accompanying strike: electrical noise, a miscalibrated
// sensor. The machine cannot distinguish it from a real detection, so it
// pays a full (wasted) recovery — the modeled cost of false positives.
func (s *Sim) InjectFalseDetection(latency int) error {
	if !s.Cfg.Resilient {
		return fmt.Errorf("pipeline: fault injection requires a resilient configuration")
	}
	if latency < 1 {
		return fmt.Errorf("pipeline: detection latency %d < 1", latency)
	}
	ev := s.newStrikeEvent(latency, true)
	if err := s.enqueueDetect(ev); err != nil {
		return err
	}
	s.Stats.FalseDetections++
	if s.obs != nil {
		s.obs.Tracer.Instant(trackSensor, "fault", "false-positive", s.cycle,
			map[string]any{"latency": latency})
	}
	return nil
}

// contained reports whether the event's damage is still absorbable by
// recovery: its anchor region has not verified, so every store the strike
// may have influenced is still quarantined (or squashable). For events
// with no anchor (no region open at strike time) the verification epoch
// stands in: if nothing verified since the strike, nothing escaped.
func (s *Sim) contained(e detectEvent) bool {
	if e.anchor != noRegion {
		return e.anchor >= s.unverifiedFrom()
	}
	return e.epoch == s.Stats.RegionsVerified
}

// fireDetections adjudicates the sensor event(s) due at the current cycle.
// Because one recovery clears the whole queue (re-execution from the
// earliest unverified region supersedes every in-flight event), every
// pending event must pass the containment check first:
//
//   - any uncontained event (its region verified and released stores
//     before the wave arrived) is unrecoverable — with Containment on the
//     machine aborts with a DUE; with it off the event is dropped and the
//     corruption runs free (the SDC path);
//   - contained events trigger the normal recovery sequence;
//   - a late detection, contained or not, flips the degradation
//     controller into conservative quarantine mode.
func (s *Sim) fireDetections() error {
	uncontained := 0
	hasLate := false
	containedReal := false
	containedSpurious := false
	for _, e := range s.pendingDetects {
		if s.contained(e) {
			if e.spurious {
				containedSpurious = true
			} else {
				containedReal = true
			}
		} else {
			uncontained++
		}
		if e.late {
			hasLate = true
		}
	}
	if hasLate {
		s.enterDegraded()
	}
	if uncontained > 0 {
		if s.Cfg.Containment {
			s.Stats.DUEs++
			if s.obs != nil {
				s.obs.Tracer.Instant(trackSensor, "sensor", "due", s.cycle,
					map[string]any{"uncontained": uncontained})
			}
			s.logDUE(uncontained, hasLate)
			return &DUEError{Cycle: s.cycle, Late: hasLate}
		}
		s.Stats.DroppedDetections += uint64(uncontained)
		if s.obs != nil {
			s.obs.Tracer.Instant(trackSensor, "sensor", "detection-dropped", s.cycle,
				map[string]any{"dropped": uncontained})
		}
		if !containedReal && !containedSpurious {
			// Nothing left to recover for; execution continues on
			// whatever state the strikes left behind.
			s.pendingDetects = s.pendingDetects[:0]
			return nil
		}
		// Fall through: recover for the contained events; the dropped
		// ones' effects already escaped and recovery cannot undo them.
	}
	if !containedReal && len(s.rbb) == 0 {
		// Only spurious firings, and no unverified region in flight:
		// the recovery handler finds nothing to roll back and resumes.
		s.pendingDetects = s.pendingDetects[:0]
		return nil
	}
	// A contained real event with no in-flight region (a strike before
	// the first boundary) has no recovery block to run; recover()
	// reports that as an error, matching the paper's machine.
	return s.recover()
}

// recover implements the paper's recovery sequence (§2.2, §4.3.2): discard
// all unverified store-buffer entries, squash the unverified regions'
// colors, redirect fetch to the recovery block of the earliest unverified
// region (whose entry is the most recently verified boundary), and resume.
// Fast-released stores of squashed regions already reached the cache; the
// WAR-free and coloring arguments guarantee re-execution overwrites or
// never reads them. All pending sensor events are retired: re-execution
// from the restart point supersedes every strike the queue still held
// (each was containment-checked by fireDetections before arriving here).
func (s *Sim) recover() error {
	if !s.Cfg.Resilient {
		return fmt.Errorf("pipeline: recovery without resilience support")
	}
	s.processVerifications()
	restartID := -1
	switch {
	case len(s.rbb) > 0:
		restartID = s.rbb[0].staticID
	case s.lastRestart >= 0:
		// A detection fired with no region in flight — the machine is
		// inside (or just past) a recovery block, before the restarted
		// region re-opens. fireDetections only routes contained events
		// here, so nothing has verified since the strike; re-running
		// the same recovery block is idempotent (it recomputes from
		// verified state only).
		restartID = s.lastRestart
	}
	if restartID < 0 {
		return fmt.Errorf("pipeline: recovery with no in-flight region")
	}

	for i := range s.rbb {
		r := &s.rbb[i]
		for regs := r.colors.regs; regs != 0; regs &= regs - 1 {
			reg := isa.Reg(bits.TrailingZeros64(regs))
			s.colors.squash(reg, r.colors.of(reg))
		}
		s.regionClosed(r, true)
		s.netInsts -= r.insts
	}
	squashed := len(s.rbb)
	discarded := s.sb.discardUnverified(s.unverifiedFrom())
	if s.clq != nil {
		s.clq.clearAll()
		s.clqEnabled = true
	}
	s.rbb = s.rbb[:0]

	rpc := s.Prog.Regions[restartID].RecoveryPC
	if rpc < 0 {
		return fmt.Errorf("pipeline: region %d has no recovery block", restartID)
	}
	s.PC = rpc
	s.inRecovery = true
	s.lastRestart = restartID
	s.pendingDetects = s.pendingDetects[:0]
	for i := range s.Taint {
		s.Taint[i] = false
	}
	startCycle := s.cycle
	s.advanceTo(s.cycle+flushPenalty, nil)
	for i := range s.regReady {
		s.regReady[i] = s.cycle
	}
	s.Stats.Recoveries++
	s.Stats.RecoveryCycles += s.cycle - startCycle
	if s.obs != nil {
		if s.obs.recoveryLen != nil {
			s.obs.recoveryLen.Observe(s.cycle - startCycle)
		}
		s.obs.Tracer.Instant(trackSensor, "sensor", "detect", startCycle, nil)
		s.obs.Tracer.Span(trackRecovery, "recovery", fmt.Sprintf("recovery R%d", restartID),
			startCycle, s.cycle, map[string]any{
				"squashed_regions": squashed, "discarded_stores": discarded, "recovery_pc": rpc,
			})
	}
	s.logRecovery(startCycle, restartID, squashed, discarded)
	return nil
}
