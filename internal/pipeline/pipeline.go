// Package pipeline is the cycle-level timing and functional simulator of
// the 2-issue in-order core the paper evaluates on (an ARM Cortex-A53-class
// machine in gem5), extended with the co-design structures:
//
//   - a gated store buffer (GSB) that quarantines stores until their region
//     is verified error-free (WCDL cycles after the region ends),
//   - a region boundary buffer (RBB) tracking in-flight regions and their
//     recovery PCs,
//   - a committed load queue (CLQ) — ideal address-matching or compact
//     range-based — enabling fast release of WAR-free regular stores
//     (§4.3.1), with the selective-control FSM of Fig. 13, and
//   - hardware coloring (AC/UC/VC maps) enabling fast release of
//     checkpoint stores (§4.3.2).
//
// The model is an issue/ready-cycle scoreboard: dual issue, full
// forwarding, taken-branch bubbles under a bimodal predictor, load latency
// from a real cache hierarchy, and precise store-buffer occupancy. It is
// also a complete functional simulator — fault-free runs must produce
// exactly the reference machine's memory image (integration tests enforce
// this), and the fault package drives injection/recovery through it.
package pipeline

import (
	"fmt"

	"repro/internal/cache"
)

// CLQKind selects the committed-load-queue design (§4.3.1).
type CLQKind int

const (
	// CLQCompact is the paper's 2-entry range-based design.
	CLQCompact CLQKind = iota
	// CLQIdeal is the infinite, exact address-matching design used as the
	// accuracy upper bound in Figs. 14/15.
	CLQIdeal
)

func (k CLQKind) String() string {
	if k == CLQIdeal {
		return "ideal"
	}
	return "compact"
}

// DefaultDetectQueue is the pending-detection queue bound New gives a
// Config whose DetectQueue is 0.
const DefaultDetectQueue = 8

// Config parameterizes a simulation.
type Config struct {
	// SBSize is the store-buffer capacity (4 on Cortex-A53).
	SBSize int
	// WCDL is the sensors' worst-case detection latency in cycles.
	WCDL int
	// Resilient enables region tracking and store quarantine. False
	// models the baseline core: stores drain freely.
	Resilient bool
	// WARFreeRelease enables CLQ-based fast release of regular stores.
	WARFreeRelease bool
	// CLQ selects the CLQ design; CLQSize its entry count (compact only).
	CLQ     CLQKind
	CLQSize int
	// HWColoring enables checkpoint fast release through the color maps.
	HWColoring bool
	// IssueWidth is instructions per cycle (2 for the modeled core).
	IssueWidth int
	// RBBSize bounds in-flight (unverified) regions.
	RBBSize int
	// BranchPenalty is the misprediction bubble in cycles.
	BranchPenalty int
	// Hier configures the cache hierarchy; zero value uses the default.
	Hier cache.HierarchyConfig
	// MaxInsts aborts runaway simulations (0 = 500M).
	MaxInsts uint64
	// RecordRegions enables the per-region event log (RegionLog).
	RecordRegions bool

	// DetectQueue bounds the pending-detection queue — how many strike
	// detections can be in flight at once (fault bursts). 0 means
	// DefaultDetectQueue. A burst exceeding the bound is an injection
	// error: real sensor controllers have finite event FIFOs.
	DetectQueue int
	// Containment turns detections that arrive after their region has
	// verified and released its stores into DUE machine-check aborts
	// (DUEError) instead of silently dropping them. Without it a late
	// detection is dropped and the corruption is free to become SDC.
	Containment bool
	// DegradeWindow is how many cycles the core stays in conservative
	// (quarantine-everything) mode after observing a late detection,
	// before a region boundary may recalibrate back to fast release.
	// 0 means the default of 8×WCDL.
	DegradeWindow uint64
}

// Default returns the paper's §6.1 configuration for the given scheme
// knobs. Callers flip Resilient/WARFreeRelease/HWColoring per experiment.
func Default() Config {
	return Config{
		SBSize:        4,
		WCDL:          10,
		CLQ:           CLQCompact,
		CLQSize:       2,
		IssueWidth:    2,
		RBBSize:       16,
		BranchPenalty: 3,
		Hier:          cache.DefaultHierarchyConfig(),
	}
}

// TurnstileConfig: quarantine everything, no fast release. Containment
// is on by default — a detection the quarantine can no longer absorb
// aborts the machine rather than corrupting memory. Campaigns exploring
// the unsafe operating point flip it off explicitly.
func TurnstileConfig(sb, wcdl int) Config {
	c := Default()
	c.SBSize, c.WCDL, c.Resilient, c.Containment = sb, wcdl, true, true
	return c
}

// TurnpikeConfig: quarantine with both fast-release mechanisms enabled.
func TurnpikeConfig(sb, wcdl int) Config {
	c := TurnstileConfig(sb, wcdl)
	c.WARFreeRelease, c.HWColoring = true, true
	return c
}

// BaselineConfig: no resilience support at all.
func BaselineConfig(sb int) Config {
	c := Default()
	c.SBSize = sb
	return c
}

func (c *Config) validate() error {
	if c.SBSize < 1 {
		return fmt.Errorf("pipeline: SB size %d", c.SBSize)
	}
	if c.Resilient && c.WCDL < 1 {
		return fmt.Errorf("pipeline: WCDL %d", c.WCDL)
	}
	if c.IssueWidth < 1 {
		return fmt.Errorf("pipeline: issue width %d", c.IssueWidth)
	}
	if c.WARFreeRelease && c.CLQ == CLQCompact && c.CLQSize < 1 {
		return fmt.Errorf("pipeline: CLQ size %d", c.CLQSize)
	}
	if c.Resilient && c.RBBSize < 2 {
		return fmt.Errorf("pipeline: RBB size %d", c.RBBSize)
	}
	if c.DetectQueue < 0 {
		return fmt.Errorf("pipeline: detect queue %d", c.DetectQueue)
	}
	return nil
}

// Stats aggregates a run's timing and mechanism counters.
type Stats struct {
	Cycles uint64
	Insts  uint64

	// Store classification (dynamic).
	ProgStores  uint64
	SpillStores uint64
	CkptStores  uint64

	// Fast-release outcomes (dynamic stores).
	WARFreeReleased uint64 // regular stores released via CLQ check
	ColoredReleased uint64 // checkpoints released via coloring
	Quarantined     uint64 // stores held for verification
	WAWBlocked      uint64 // fast release denied by same-address older entry

	// Stall accounting.
	SBFullStalls  uint64 // cycles stalled on a full store buffer
	DataStalls    uint64 // cycles stalled on operand readiness
	BranchBubbles uint64
	RBBFullStalls uint64
	ColorStalls   uint64 // cycles stalled waiting for a free color
	FetchStalls   uint64

	// Region/CLQ behaviour.
	RegionsExecuted uint64
	RegionsVerified uint64 // regions retired through verification (not squashed)
	CLQOverflows    uint64
	CLQOccSamples   uint64
	CLQOccSum       uint64
	CLQOccMax       uint64

	// Recovery behaviour (fault campaigns).
	Recoveries     uint64
	ParityTrips    uint64
	RecoveryCycles uint64

	// Adversarial detection behaviour. LateDetections counts injected
	// strikes whose detection lands beyond the provisioned WCDL;
	// FalseDetections counts spurious sensor firings with no strike;
	// DroppedDetections counts detections discarded because their
	// region had already verified (containment off); DUEs counts
	// machine-check aborts raised for the same situation with
	// containment on. DetectQueuePeak is the high-water mark of the
	// pending-detection queue (max on Merge, like CLQOccMax).
	LateDetections    uint64
	FalseDetections   uint64
	DroppedDetections uint64
	DUEs              uint64
	DegradeEntries    uint64
	DegradeExits      uint64
	DetectQueuePeak   uint64

	// Region-attribution remainders (resilient configs only): work done
	// while no region is open — recovery blocks and code before the first
	// boundary. With these, the per-region event log sums exactly to the
	// aggregates: sum(RegionEvent.Insts) + OutsideRegionInsts == Insts and
	// sum(RegionEvent.Quarantined) + OutsideRegionStores == Quarantined.
	OutsideRegionInsts  uint64
	OutsideRegionStores uint64
}

// Merge accumulates o into s: counters add, CLQOccMax takes the maximum.
// Fault campaigns use it to aggregate per-trial statistics; the experiment
// runner uses it to snapshot a whole session. A reflection-driven unit
// test keeps this list in sync with the struct.
func (s *Stats) Merge(o *Stats) {
	s.Cycles += o.Cycles
	s.Insts += o.Insts
	s.ProgStores += o.ProgStores
	s.SpillStores += o.SpillStores
	s.CkptStores += o.CkptStores
	s.WARFreeReleased += o.WARFreeReleased
	s.ColoredReleased += o.ColoredReleased
	s.Quarantined += o.Quarantined
	s.WAWBlocked += o.WAWBlocked
	s.SBFullStalls += o.SBFullStalls
	s.DataStalls += o.DataStalls
	s.BranchBubbles += o.BranchBubbles
	s.RBBFullStalls += o.RBBFullStalls
	s.ColorStalls += o.ColorStalls
	s.FetchStalls += o.FetchStalls
	s.RegionsExecuted += o.RegionsExecuted
	s.RegionsVerified += o.RegionsVerified
	s.CLQOverflows += o.CLQOverflows
	s.CLQOccSamples += o.CLQOccSamples
	s.CLQOccSum += o.CLQOccSum
	if o.CLQOccMax > s.CLQOccMax {
		s.CLQOccMax = o.CLQOccMax
	}
	s.Recoveries += o.Recoveries
	s.ParityTrips += o.ParityTrips
	s.RecoveryCycles += o.RecoveryCycles
	s.LateDetections += o.LateDetections
	s.FalseDetections += o.FalseDetections
	s.DroppedDetections += o.DroppedDetections
	s.DUEs += o.DUEs
	s.DegradeEntries += o.DegradeEntries
	s.DegradeExits += o.DegradeExits
	if o.DetectQueuePeak > s.DetectQueuePeak {
		s.DetectQueuePeak = o.DetectQueuePeak
	}
	s.OutsideRegionInsts += o.OutsideRegionInsts
	s.OutsideRegionStores += o.OutsideRegionStores
}

// AvgCLQOccupancy returns the mean populated CLQ entries sampled at region
// boundaries (Fig. 24).
func (s *Stats) AvgCLQOccupancy() float64 {
	if s.CLQOccSamples == 0 {
		return 0
	}
	return float64(s.CLQOccSum) / float64(s.CLQOccSamples)
}

// IPC returns instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}
