package fault

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// TestParityTripAdjudicatesPendingDetections replays injections on gcc
// at scale 100 that once ended as SDC under containment. In each, a
// late strike's region verifies before its detection is due; another
// strike then taints a load's or store's address register, whose parity
// trip ran a recovery that retired the late strike's uncontained event
// unjudged, so the corruption escaped. Adjudicated like any other sensor
// firing, the pending event makes the trip a DUE.
func TestParityTripAdjudicatesPendingDetections(t *testing.T) {
	prog, p := compiledAt(t, "gcc", core.Turnpike, 100)
	cfg := Config{Sim: pipeline.TurnpikeConfig(4, 10)}
	// The minimal pair: r7's late detection, then r1's taint trips parity.
	pair := Injection{Reg: 7, Bit: 27, AtInst: 22395, Latency: 15, Missed: true,
		Extra: []Strike{{Reg: 1, Bit: 37, AtInst: 22405, Latency: 11, Missed: true}}}
	// A burst from perfbench's campaign-gcc workload (seed 7601, campaign
	// 4220, trial 1), which failed its zero-SDC check.
	burst := Injection{Reg: 4, Bit: 30, AtInst: 12494, Latency: 18, Missed: true,
		Extra: []Strike{{Reg: 1, Bit: 25, AtInst: 12504, Latency: 10},
			{Reg: 13, Bit: 37, AtInst: 12499, Latency: 10}},
		FalsePositives: []FalsePositive{{AtInst: 2854, Latency: 4}}}
	for _, inj := range []Injection{pair, burst} {
		out, st, err := Replay(prog, cfg, p.SeedMemory, inj)
		if err != nil {
			t.Fatal(err)
		}
		if out != DUE || st.ParityTrips != 1 {
			t.Fatalf("%+v ends %v with %d parity trips, want a DUE at the one parity trip", inj, out, st.ParityTrips)
		}
	}
	// Each strike of the pair alone is survivable, so the pair's DUE
	// comes from adjudicating the first strike's pending event at the
	// trip.
	for _, alone := range []Injection{
		{Reg: 7, Bit: 27, AtInst: 22395, Latency: 15, Missed: true},
		{Reg: 1, Bit: 37, AtInst: 22405, Latency: 11, Missed: true},
	} {
		out, _, err := Replay(prog, cfg, p.SeedMemory, alone)
		if err != nil {
			t.Fatal(err)
		}
		if out == SDC {
			t.Fatalf("strike %+v alone ends as SDC", alone)
		}
	}
}
