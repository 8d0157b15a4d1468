package workload

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/isa"
)

func TestBenchmarkCountAndSuites(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 36 {
		t.Fatalf("benchmark count = %d, want 36 (paper's 36 workloads)", len(bs))
	}
	suites := map[string]int{}
	names := map[string]bool{}
	for _, b := range bs {
		suites[b.Suite]++
		if names[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		names[b.Name] = true
	}
	if suites["cpu2006"] != 16 || suites["cpu2017"] != 13 || suites["splash3"] != 7 {
		t.Fatalf("suite split = %v, want 16/13/7", suites)
	}
}

func TestByName(t *testing.T) {
	p, ok := ByName("mcf")
	if !ok || p.Tmpl != Chase {
		t.Fatalf("mcf lookup = %+v, %v", p, ok)
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("found nonexistent benchmark")
	}
}

func TestAllKernelsBuildAndVerify(t *testing.T) {
	for _, p := range Benchmarks() {
		f := p.Build(5)
		if err := f.Verify(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if f.InstrCount() < 10 {
			t.Errorf("%s: suspiciously small (%d instrs)", p.Name, f.InstrCount())
		}
	}
}

func TestAllKernelsTerminate(t *testing.T) {
	for _, p := range Benchmarks() {
		f := p.Build(2)
		it := &ir.Interp{Regs: make([]uint64, f.NumVRegs), Mem: isa.NewMemory(), StepLimit: 5_000_000}
		p.SeedMemory(it.Mem)
		if err := it.Run(f); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if it.Executed == 0 {
			t.Errorf("%s: executed nothing", p.Name)
		}
	}
}

func TestKernelsAreDeterministic(t *testing.T) {
	for _, name := range []string{"mcf", "lbm", "gcc", "radix"} {
		p, _ := ByName(name)
		run := func() []struct{ Addr, Val uint64 } {
			f := p.Build(3)
			it := &ir.Interp{Regs: make([]uint64, f.NumVRegs), Mem: isa.NewMemory(), StepLimit: 5_000_000}
			p.SeedMemory(it.Mem)
			if err := it.Run(f); err != nil {
				t.Fatal(err)
			}
			return it.Mem.Snapshot()
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic size", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic at %#x", name, a[i].Addr)
			}
		}
	}
}

func TestKernelsCompileUnderAllSchemes(t *testing.T) {
	for _, p := range Benchmarks() {
		f := p.Build(2)
		for _, opt := range []core.Options{
			{Scheme: core.Baseline},
			{Scheme: core.Turnstile, SBSize: 4},
			core.TurnpikeAll(4),
		} {
			c, err := core.Compile(f, opt)
			if err != nil {
				t.Errorf("%s under %v: %v", p.Name, opt.Scheme, err)
				continue
			}
			if err := c.Prog.Validate(); err != nil {
				t.Errorf("%s under %v: %v", p.Name, opt.Scheme, err)
			}
		}
	}
}

func TestChaseRingCoversWorkingSet(t *testing.T) {
	p, _ := ByName("mcf")
	mem := isa.NewMemory()
	p.SeedMemory(mem)
	// Follow the ring; it must return to the start only after visiting
	// every node (a single cycle).
	base := p.arrayBase(0)
	cur := base
	seen := map[uint64]bool{}
	for i := 0; i < p.ArrayWords; i++ {
		if seen[cur] {
			t.Fatalf("ring revisits %#x after %d hops", cur, i)
		}
		seen[cur] = true
		cur = mem.Load(cur)
		if cur == 0 {
			t.Fatalf("ring broken at hop %d", i)
		}
	}
	if cur != mem.Load(base-8+8) && len(seen) != p.ArrayWords {
		t.Fatalf("ring visited %d of %d nodes", len(seen), p.ArrayWords)
	}
}

func TestTemplateDiversity(t *testing.T) {
	tmpls := map[Template]bool{}
	for _, p := range Benchmarks() {
		tmpls[p.Tmpl] = true
	}
	for _, want := range []Template{Stream, Reduce, Chase, Stencil, InPlace, Nested} {
		if !tmpls[want] {
			t.Errorf("no benchmark uses template %v", want)
		}
	}
}

func TestCharacterizeTemplatesDiffer(t *testing.T) {
	get := func(name string) Characteristics {
		p, _ := ByName(name)
		c, err := Characterize(p, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return c
	}
	radix := get("radix") // in-place read-modify-write
	lbm := get("lbm")     // disjoint output streams
	if radix.WARPct < 50 {
		t.Errorf("radix WAR fraction %.0f%%, expected dominant (in-place template)", radix.WARPct)
	}
	if lbm.WARPct > 20 {
		t.Errorf("lbm WAR fraction %.0f%%, expected minor (streaming template)", lbm.WARPct)
	}
	gcc := get("gcc")
	if gcc.BranchPct <= lbm.BranchPct {
		t.Errorf("gcc branch density %.1f%% not above lbm's %.1f%%", gcc.BranchPct, lbm.BranchPct)
	}
	mcf := get("mcf")
	if mcf.FootprintBytes <= gcc.FootprintBytes {
		t.Errorf("mcf footprint %d not above gcc's %d", mcf.FootprintBytes, gcc.FootprintBytes)
	}
	for _, c := range []Characteristics{radix, lbm, gcc, mcf} {
		if c.DynamicInsts == 0 || c.LoadPct <= 0 || c.StorePct <= 0 {
			t.Errorf("%s: degenerate characteristics %+v", c.Name, c)
		}
	}
}

func TestCharacterizeAll(t *testing.T) {
	cs, err := CharacterizeAll(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 36 {
		t.Fatalf("%d characterizations", len(cs))
	}
	for _, c := range cs {
		if c.LoadPct+c.StorePct+c.BranchPct > 100 {
			t.Errorf("%s: fractions exceed 100%%", c.Name)
		}
	}
}

// seededAddrs returns the addresses of p's seeded input image, sorted.
func seededAddrs(p Profile) []uint64 {
	m := isa.NewMemory()
	p.SeedMemory(m)
	var out []uint64
	for _, e := range m.Snapshot() {
		out = append(out, e.Addr)
	}
	return out
}

// TestDenseWindowCoversBenchmarks pins isa.DenseLimit to the built-in
// benchmarks: every seeded word and the checkpoint storage lie inside
// the paged window, and its last page holds a seeded word, so the
// window (and what one memory can pin) is no larger than they need.
func TestDenseWindowCoversBenchmarks(t *testing.T) {
	if hi := isa.DefaultCkptBase + isa.NumRegs*isa.NumColors*8; hi > isa.DenseLimit {
		t.Fatalf("checkpoint storage ends at %#x, past the dense window %#x", hi, isa.DenseLimit)
	}
	var top uint64
	for _, p := range Benchmarks() {
		addrs := seededAddrs(p)
		if a := addrs[len(addrs)-1]; a >= isa.DenseLimit {
			t.Errorf("%s seeds %#x, past the dense window %#x", p.Name, a, isa.DenseLimit)
		} else if a > top {
			top = a
		}
	}
	if top < isa.DenseLimit-4096 {
		t.Errorf("highest seeded word %#x leaves the window's last page %#x unused", top, isa.DenseLimit-4096)
	}
}

// TestCheckpointWindowOverlap pins which benchmarks seed input words
// inside the checkpoint storage [DefaultCkptBase, +NumRegs*NumColors*8):
// campaign classification masks that window, so an SDC landing there is
// invisible on exactly these benchmarks (DESIGN.md, stated scope limits).
// The set must not grow silently.
func TestCheckpointWindowOverlap(t *testing.T) {
	lo := isa.DefaultCkptBase
	hi := lo + isa.NumRegs*isa.NumColors*8
	var got []string
	for _, p := range Benchmarks() {
		for _, a := range seededAddrs(p) {
			if a >= lo && a < hi {
				got = append(got, p.Name)
				break
			}
		}
	}
	want := []string{"mcf", "cactubssn", "fotonik3d", "lbm", "mcf17", "ocean-ng"}
	if !slices.Equal(got, want) {
		t.Fatalf("benchmarks seeding the checkpoint window: %v, want %v", got, want)
	}
}
