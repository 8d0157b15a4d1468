package pipeline

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// checkRegionAttribution asserts the region-attribution invariant: every
// committed instruction and every store fate either belongs to exactly one
// region span or to the OutsideRegion* remainders.
func checkRegionAttribution(t *testing.T, tr *regionTrace, st Stats) {
	t.Helper()
	if len(tr.regions) == 0 {
		t.Fatal("no region spans recorded")
	}
	var war, col, quar int
	var insts uint64
	for _, ev := range tr.regions {
		war += ev.Args["warfree"].(int)
		col += ev.Args["colored"].(int)
		quar += ev.Args["quarantined"].(int)
		insts += ev.Args["insts"].(uint64)
	}
	if insts+st.OutsideRegionInsts != st.Insts {
		t.Fatalf("inst attribution: region %d + outside %d != total %d",
			insts, st.OutsideRegionInsts, st.Insts)
	}
	if uint64(quar)+st.OutsideRegionStores != st.Quarantined {
		t.Fatalf("quarantine attribution: region %d + outside %d != total %d",
			quar, st.OutsideRegionStores, st.Quarantined)
	}
	if uint64(war) != st.WARFreeReleased {
		t.Fatalf("WAR-free attribution: region %d != total %d", war, st.WARFreeReleased)
	}
	if uint64(col) != st.ColoredReleased {
		t.Fatalf("colored attribution: region %d != total %d", col, st.ColoredReleased)
	}
}

// TestRegionAttributionCrossCheck runs every resilient scheme fault-free
// and cross-checks the region spans' sums against the aggregate
// counters.
func TestRegionAttributionCrossCheck(t *testing.T) {
	f := buildBench(100)
	cases := []struct {
		name   string
		scheme core.Scheme
		cfg    Config
	}{
		{"turnstile", core.Turnstile, TurnstileConfig(4, 10)},
		{"turnpike", core.Turnpike, TurnpikeConfig(4, 10)},
		{"turnpike-wcdl30", core.Turnpike, TurnpikeConfig(4, 30)},
		{"turnpike-sb2", core.Turnpike, TurnpikeConfig(2, 10)},
	}
	ideal := TurnpikeConfig(4, 10)
	ideal.CLQ = CLQIdeal
	cases = append(cases, struct {
		name   string
		scheme core.Scheme
		cfg    Config
	}{"turnpike-clq-ideal", core.Turnpike, ideal})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := compileFor(t, f, tc.scheme, tc.cfg.SBSize)
			s, err := New(prog, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			seed(s.Mem, 100)
			tr := traceRegions(s)
			st, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			checkRegionAttribution(t, tr, st)
			if n := tr.squashed(); n != 0 {
				t.Fatalf("fault-free run squashed %d regions", n)
			}
		})
	}
}

// TestRegionAttributionUnderFaults injects repeated bit flips (forcing
// squashes and recovery-block execution) and checks that the attribution
// invariant still holds exactly — squashed regions report the work they
// did before being discarded, and recovery-block work lands in the
// OutsideRegion* remainders.
func TestRegionAttributionUnderFaults(t *testing.T) {
	f := buildBench(100)
	prog := compileFor(t, f, core.Turnpike, 4)
	s, err := New(prog, TurnpikeConfig(4, 10))
	if err != nil {
		t.Fatal(err)
	}
	seed(s.Mem, 100)
	tr := traceRegions(s)
	rng := rand.New(rand.NewSource(7))
	nextInject := uint64(20)
	for !s.Halted() {
		if s.Stats.Insts >= nextInject && !s.inRecovery {
			if err := s.InjectBitFlip(4, uint(rng.Intn(30)), 1+rng.Intn(10)); err != nil {
				t.Fatal(err)
			}
			nextInject = s.Stats.Insts + 150
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats
	if st.Recoveries == 0 {
		t.Fatal("no recoveries triggered; test is vacuous")
	}
	if tr.squashed() == 0 {
		t.Fatal("no squashed regions recorded; test is vacuous")
	}
	if st.OutsideRegionInsts == 0 {
		t.Fatal("recovery blocks executed but OutsideRegionInsts is zero")
	}
	checkRegionAttribution(t, tr, st)
}
