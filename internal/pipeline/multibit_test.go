package pipeline

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
)

// injectMultiBitFlip models a multi-bit upset: one particle strike
// corrupting several bits of r and, with spillover, bits[0] of the next
// register too (the scenario that defeats parity/ECC-per-word schemes but
// not acoustic detection — the sensors hear the strike itself). It is one
// InjectBitFlip, so detection and recovery proceed exactly as for a single
// flip, plus the remaining flips and the spill-over register's taint.
func injectMultiBitFlip(s *Sim, r isa.Reg, bits []uint, spillover bool, latency int) error {
	if err := s.InjectBitFlip(r, bits[0], latency); err != nil {
		return err
	}
	for _, b := range bits[1:] {
		s.Regs[r] ^= 1 << (b & 63)
	}
	if spillover {
		r2 := (r + 1) % isa.NumRegs
		s.Regs[r2] ^= 1 << (bits[0] & 63)
		s.Taint[r2] = true
	}
	return nil
}

// TestMultiBitFaultRecoveryNoSDC extends the resilience guarantee to
// multi-bit upsets, including strikes spilling over into a neighbouring
// register — the case that defeats per-word parity/ECC but not acoustic
// detection, since the sensors hear the strike itself.
func TestMultiBitFaultRecoveryNoSDC(t *testing.T) {
	f := buildBench(40)
	prog := compileFor(t, f, core.Turnpike, 4)
	want := goldenRun(t, prog, 40)
	cfg := TurnpikeConfig(4, 10)
	rng := rand.New(rand.NewSource(2024))

	for trial := 0; trial < 40; trial++ {
		s, err := New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seed(s.Mem, 40)
		injectAt := uint64(rng.Intn(2500))
		reg := isa.Reg(1 + rng.Intn(28))
		nbits := 2 + rng.Intn(4)
		bits := make([]uint, nbits)
		for i := range bits {
			bits[i] = uint(rng.Intn(64))
		}
		spill := rng.Intn(2) == 0
		lat := 1 + rng.Intn(cfg.WCDL)
		injected := false
		for !s.Halted() {
			if !injected && s.Stats.Insts >= injectAt {
				if err := injectMultiBitFlip(s, reg, bits, spill, lat); err != nil {
					t.Fatal(err)
				}
				injected = true
			}
			if err := s.Step(); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		got := maskPrivate(s.OutputMemory())
		if !want.Equal(got) {
			t.Fatalf("trial %d (reg=%v bits=%v spill=%v at=%d lat=%d): SDC!\n%s",
				trial, reg, bits, spill, injectAt, lat, want.Diff(got, 8))
		}
	}
}
