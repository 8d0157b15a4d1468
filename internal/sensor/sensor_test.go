package sensor

import (
	"testing"

	"repro/internal/rng"
)

func TestPublishedOperatingPoints(t *testing.T) {
	// The paper's §6.1: 300 sensors -> ~10 cycles WCDL at 2.5GHz, 1mm²;
	// 30 sensors -> ~30 cycles.
	w300 := Model{Sensors: 300, DieAreaMM2: 1.0, ClockGHz: 2.5}.WCDL()
	if w300 < 8 || w300 > 12 {
		t.Fatalf("300 sensors at 2.5GHz: WCDL=%d, want ~10", w300)
	}
	w30 := Model{Sensors: 30, DieAreaMM2: 1.0, ClockGHz: 2.5}.WCDL()
	if w30 < 25 || w30 > 36 {
		t.Fatalf("30 sensors at 2.5GHz: WCDL=%d, want ~30", w30)
	}
}

func TestWCDLMonotonicity(t *testing.T) {
	// More sensors -> lower latency; higher clock -> more cycles.
	prev := 1 << 30
	for _, n := range []int{10, 30, 100, 300, 1000} {
		w := Model{Sensors: n, DieAreaMM2: 1.0, ClockGHz: 2.5}.WCDL()
		if w > prev {
			t.Fatalf("WCDL grew with sensors: %d sensors -> %d (prev %d)", n, w, prev)
		}
		prev = w
	}
	w20 := Model{Sensors: 100, DieAreaMM2: 1.0, ClockGHz: 2.0}.WCDL()
	w30 := Model{Sensors: 100, DieAreaMM2: 1.0, ClockGHz: 3.0}.WCDL()
	if w30 < w20 {
		t.Fatalf("higher clock gave lower cycle WCDL: %d vs %d", w30, w20)
	}
}

func TestSensorsForWCDLInverts(t *testing.T) {
	for _, target := range []int{10, 20, 30, 50} {
		n := SensorsForWCDL(target, 1.0, 2.5)
		got := Model{Sensors: n, DieAreaMM2: 1.0, ClockGHz: 2.5}.WCDL()
		if got > target {
			t.Fatalf("SensorsForWCDL(%d)=%d gives WCDL %d", target, n, got)
		}
		if n > 1 {
			worse := Model{Sensors: n - 1, DieAreaMM2: 1.0, ClockGHz: 2.5}.WCDL()
			if worse <= target {
				t.Fatalf("SensorsForWCDL(%d)=%d not minimal (%d sensors suffice)", target, n, n-1)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	if err := (Model{Sensors: 0, DieAreaMM2: 1, ClockGHz: 1}).Validate(); err == nil {
		t.Fatal("accepted zero sensors")
	}
	if err := (Model{Sensors: 10, DieAreaMM2: 0, ClockGHz: 1}).Validate(); err == nil {
		t.Fatal("accepted zero area")
	}
	if err := (Model{Sensors: 10, DieAreaMM2: 1, ClockGHz: 2.5}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// paperMesh is the healthy nominal mesh for a pipeline's WCDL: the
// deployment that achieves it on the paper's die, as fault campaigns
// build it.
func paperMesh(wcdl int) Mesh {
	return Mesh{Model: Model{Sensors: SensorsForWCDL(wcdl, 1.0, 2.5), DieAreaMM2: 1.0, ClockGHz: 2.5}}
}

// TestDetectorBounds: the perfect mesh (the zero adversary) hears every
// strike within the pipeline's WCDL and reaches that bound, including
// at WCDL 50, where the paper-die model rounds its own bound to 49.
func TestDetectorBounds(t *testing.T) {
	for _, w := range []int{10, 50} {
		d, err := NewMeshDetector(w, paperMesh(w))
		if err != nil {
			t.Fatal(err)
		}
		d.Reseed(1)
		hi := 0
		for i := 0; i < 1000; i++ {
			det := d.Sample()
			if det.Latency < 1 || det.Latency > w || det.Missed {
				t.Fatalf("WCDL %d: detection %+v outside [1,%d] or missed", w, det, w)
			}
			hi = max(hi, det.Latency)
		}
		if hi != w {
			t.Fatalf("WCDL %d: latest detection %d, want the bound reached", w, hi)
		}
	}
}

func TestDetectorDeterminism(t *testing.T) {
	a, err := NewMeshDetector(30, paperMesh(30))
	if err != nil {
		t.Fatal(err)
	}
	b := a
	a.Reseed(7)
	b.Reseed(7)
	for i := 0; i < 100; i++ {
		if a.Sample() != b.Sample() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestForkStreamsAreIndependentAndPure(t *testing.T) {
	// A fork is a copy of the detector reseeded in place: its stream is a
	// pure function of its seed — same seed, same stream — and it does
	// not perturb (or depend on) the parent's stream. On the perfect mesh
	// each strike is one uniform draw on rng.New(seed), the stream a
	// campaign's plans pin.
	det, err := NewMeshDetector(10, paperMesh(10))
	if err != nil {
		t.Fatal(err)
	}
	det.Reseed(1)
	drawn := det.Sample() // advance the parent
	a1, a2 := det, det
	a1.Reseed(7)
	a2.Reseed(7)
	ref := rng.New(7)
	for i := 0; i < 64; i++ {
		la, lb := a1.Sample(), a2.Sample()
		if la != lb {
			t.Fatalf("fork stream not pure at draw %d: %+v vs %+v", i, la, lb)
		}
		if want := 1 + ref.Intn(10); la.Latency != want {
			t.Fatalf("forked latency %d at draw %d, want the uniform draw %d", la.Latency, i, want)
		}
	}
	det2, err := NewMeshDetector(10, paperMesh(10))
	if err != nil {
		t.Fatal(err)
	}
	det2.Reseed(1)
	if det2.Sample() != drawn || det.Sample() != det2.Sample() {
		t.Fatal("forking perturbed the parent stream")
	}
}
