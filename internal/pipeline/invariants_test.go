package pipeline

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/workload"
)

// TestInvariantsHoldDuringRuns steps real workloads and audits the
// simulator's internal state — with and without injected faults, across
// both schemes. A strike detected within the WCDL is audited
// periodically; the same strike detected at 3×WCDL, which leaves its
// detection anchored on a region that may verify first, is audited at
// every step and may end the run in a DUE; some such step must hold a
// detection whose anchor has verified.
func TestInvariantsHoldDuringRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	anchoredVerified, dues := 0, 0
	for _, name := range []string{"gcc", "lbm", "radix", "mcf"} {
		p, _ := workload.ByName(name)
		f := p.Build(3)
		for _, scheme := range []core.Scheme{core.Turnstile, core.Turnpike} {
			opt := core.Options{Scheme: core.Turnstile, SBSize: 4}
			cfg := TurnstileConfig(4, 10)
			if scheme == core.Turnpike {
				opt = core.TurnpikeAll(4)
				cfg = TurnpikeConfig(4, 10)
			}
			c, err := core.Compile(f, opt)
			if err != nil {
				t.Fatal(err)
			}
			injectAt := uint64(rng.Intn(2000) + 100)
			// The first row draws its strike when it reaches injectAt; the
			// late row runs the same steps until then and reuses it.
			var reg isa.Reg
			var bit uint
			for _, row := range []struct {
				late  bool
				every int
			}{{false, 97}, {true, 1}} {
				s, err := New(c.Prog, cfg)
				if err != nil {
					t.Fatal(err)
				}
				p.SeedMemory(s.Mem)
				injected := false
				steps := 0
				for !s.Halted() {
					if !injected && s.Stats.Insts >= injectAt {
						lat := 3 * cfg.WCDL
						if !row.late {
							reg, bit, lat = isa.Reg(1+rng.Intn(28)), uint(rng.Intn(64)), 1+rng.Intn(10)
						}
						if err := s.InjectBitFlip(reg, bit, lat); err != nil {
							t.Fatal(err)
						}
						injected = true
					}
					err := s.Step()
					var due *DUEError
					if errors.As(err, &due) && row.late {
						dues++
						break
					}
					if err != nil {
						t.Fatalf("%s/%v late %v: %v", name, scheme, row.late, err)
					}
					steps++
					for _, d := range s.pendingDetects {
						if d.anchor != noRegion && d.anchor < s.unverifiedFrom() {
							anchoredVerified++
						}
					}
					if steps%row.every == 0 {
						if err := s.CheckInvariants(); err != nil {
							t.Fatalf("%s/%v late %v after %d steps: %v", name, scheme, row.late, steps, err)
						}
					}
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("%s/%v late %v at halt: %v", name, scheme, row.late, err)
				}
			}
		}
	}
	t.Logf("%d steps with a detection anchored on a verified region, %d DUEs", anchoredVerified, dues)
	if anchoredVerified == 0 {
		t.Error("no step holds a detection anchored on a verified region")
	}
}

// TestInvariantsOnFuzz extends the audit to random programs.
func TestInvariantsOnFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(607))
	for trial := 0; trial < 15; trial++ {
		seed := rng.Int63()
		f := workload.Fuzz(seed)
		c, err := core.Compile(f, core.TurnpikeAll(4))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s, err := New(c.Prog, TurnpikeConfig(4, 10))
		if err != nil {
			t.Fatal(err)
		}
		workload.FuzzSeedMemory(s.Mem, seed)
		steps := 0
		for !s.Halted() {
			if err := s.Step(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			steps++
			if steps%53 == 0 {
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("seed %d after %d steps: %v", seed, steps, err)
				}
			}
		}
	}
}
