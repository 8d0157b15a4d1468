package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// regionTrace is an in-memory trace sink that keeps the region and
// verify spans, the run's per-region record, and drops every other
// event.
type regionTrace struct{ regions, verify []obs.Event }

func (r *regionTrace) Emit(ev obs.Event) error {
	switch ev.Track {
	case trackRegions:
		r.regions = append(r.regions, ev)
	case trackVerify:
		r.verify = append(r.verify, ev)
	}
	return nil
}

func (*regionTrace) Close() error { return nil }

// traceRegions attaches a tracer recording into a fresh regionTrace.
func traceRegions(s *Sim) *regionTrace {
	r := &regionTrace{}
	s.AttachObs(NewObs(obs.NewTracer(r), nil))
	return r
}

// squashed counts the region spans of regions recovery squashed.
func (r *regionTrace) squashed() int {
	n := 0
	for _, ev := range r.regions {
		if ev.Args["squashed"] == true {
			n++
		}
	}
	return n
}

// TestRegionSpansConsistency cross-checks the region spans against the
// aggregate counters and the region timing invariants.
func TestRegionSpansConsistency(t *testing.T) {
	f := buildBench(80)
	prog := compileFor(t, f, core.Turnpike, 4)
	cfg := TurnpikeConfig(4, 10)
	s, err := New(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, 80)
	tr := traceRegions(s)
	st, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.regions) == 0 {
		t.Fatal("no region spans recorded")
	}
	if len(tr.verify) != len(tr.regions) {
		t.Fatalf("%d verify spans for %d regions", len(tr.verify), len(tr.regions))
	}
	var war, col, quar int
	var insts uint64
	lastInstance := -1
	for i, ev := range tr.regions {
		instance := ev.Args["instance"].(int)
		if instance <= lastInstance {
			t.Fatalf("spans out of instance order: %d after %d", instance, lastInstance)
		}
		lastInstance = instance
		if ev.Args["squashed"] != nil {
			t.Fatalf("fault-free run squashed region %d", instance)
		}
		v := tr.verify[i]
		if v.Args["instance"] != instance || v.Start != ev.Start+ev.Dur {
			t.Fatalf("region %d ends at %d, but its verify span is instance %v from %d",
				instance, ev.Start+ev.Dur, v.Args["instance"], v.Start)
		}
		if v.Dur != uint64(cfg.WCDL) && v.Dur != 0 {
			// The final region's window is collapsed at halt.
			t.Fatalf("region %d verifies %d cycles after its end, want WCDL %d", instance, v.Dur, cfg.WCDL)
		}
		war += ev.Args["warfree"].(int)
		col += ev.Args["colored"].(int)
		quar += ev.Args["quarantined"].(int)
		insts += ev.Args["insts"].(uint64)
	}
	if uint64(war) != st.WARFreeReleased || uint64(col) != st.ColoredReleased || uint64(quar) != st.Quarantined {
		t.Fatalf("per-region sums (%d/%d/%d) != aggregates (%d/%d/%d)",
			war, col, quar, st.WARFreeReleased, st.ColoredReleased, st.Quarantined)
	}
	if insts != st.Insts {
		t.Fatalf("per-region insts %d != total %d", insts, st.Insts)
	}
	if uint64(len(tr.regions)) != st.RegionsExecuted {
		t.Fatalf("%d region spans for %d regions", len(tr.regions), st.RegionsExecuted)
	}
}

// TestRegionSpansSquashOnRecovery: squashed regions' spans carry the
// squashed flag when a fault triggers recovery, and they have no verify
// span.
func TestRegionSpansSquashOnRecovery(t *testing.T) {
	f := buildBench(40)
	prog := compileFor(t, f, core.Turnpike, 4)
	s, err := New(prog, TurnpikeConfig(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, 40)
	tr := traceRegions(s)
	injected := false
	for !s.Halted() {
		if !injected && s.Stats.Insts >= 300 {
			if err := s.InjectBitFlip(4, 9, 5); err != nil {
				t.Fatal(err)
			}
			injected = true
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats.Recoveries == 0 {
		t.Skip("fault masked before a region closed")
	}
	squashed := tr.squashed()
	if squashed == 0 {
		t.Fatal("recovery happened but no region span is marked squashed")
	}
	if len(tr.verify) != len(tr.regions)-squashed {
		t.Fatalf("%d verify spans for %d regions, %d squashed", len(tr.verify), len(tr.regions), squashed)
	}
}
