package sensor

import "testing"

func TestMeshValidate(t *testing.T) {
	base := Model{Sensors: 300, DieAreaMM2: 1.0, ClockGHz: 2.5}
	cases := []struct {
		name string
		mesh Mesh
		ok   bool
	}{
		{"healthy", Mesh{Model: base}, true},
		{"some dead", Mesh{Model: base, DeadSensors: 100, MissProb: 0.5, LateFactor: 4}, true},
		{"all dead", Mesh{Model: base, DeadSensors: 300}, false},
		{"negative dead", Mesh{Model: base, DeadSensors: -1}, false},
		{"miss prob over 1", Mesh{Model: base, MissProb: 1.5}, false},
		{"negative miss prob", Mesh{Model: base, MissProb: -0.1}, false},
		{"negative late factor", Mesh{Model: base, LateFactor: -1}, false},
		{"bad model", Mesh{Model: Model{Sensors: 0, DieAreaMM2: 1, ClockGHz: 2.5}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.mesh.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}

func TestMeshEffectiveWCDLWorsens(t *testing.T) {
	base := Model{Sensors: 300, DieAreaMM2: 1.0, ClockGHz: 2.5}
	healthy := Mesh{Model: base}
	if got, want := healthy.EffectiveWCDL(), base.WCDL(); got != want {
		t.Fatalf("healthy mesh effective WCDL %d != nominal %d", got, want)
	}
	degraded := Mesh{Model: base, DeadSensors: 225} // 75 alive: 4x the cell area
	if degraded.EffectiveWCDL() <= base.WCDL() {
		t.Fatalf("dead sensors did not worsen WCDL: eff %d, nominal %d",
			degraded.EffectiveWCDL(), base.WCDL())
	}
	if got, want := degraded.Alive(), 75; got != want {
		t.Fatalf("Alive() = %d, want %d", got, want)
	}
}

func TestMeshDetectorSampleBounds(t *testing.T) {
	m := Mesh{
		Model:       Model{Sensors: 300, DieAreaMM2: 1.0, ClockGHz: 2.5},
		DeadSensors: 200,
		MissProb:    0.3,
		LateFactor:  4,
	}
	nominal := m.Model.WCDL()
	d, err := NewMeshDetector(nominal, m)
	if err != nil {
		t.Fatal(err)
	}
	d.Reseed(99)
	lateHi := int(m.LateFactor) * nominal
	missed, timely := 0, 0
	for i := 0; i < 20_000; i++ {
		det := d.Sample()
		if det.Latency < 1 || det.Latency > lateHi {
			t.Fatalf("latency %d outside [1, %d]", det.Latency, lateHi)
		}
		if det.Missed != (det.Latency > nominal) {
			t.Fatalf("Missed=%v inconsistent with latency %d vs nominal %d",
				det.Missed, det.Latency, nominal)
		}
		if det.Missed {
			missed++
		} else {
			timely++
		}
	}
	if missed == 0 {
		t.Fatal("degraded mesh with MissProb 0.3 produced no missed detections")
	}
	if timely == 0 {
		t.Fatal("mesh produced no timely detections")
	}
}

func TestMeshDetectorDeadSensorsAloneCauseMisses(t *testing.T) {
	// MissProb = 0, but 8/9 of the mesh is dead: the effective window
	// stretches well past nominal, so Missed detections must appear.
	m := Mesh{
		Model:       Model{Sensors: 900, DieAreaMM2: 1.0, ClockGHz: 2.5},
		DeadSensors: 800,
	}
	d, err := NewMeshDetector(m.Model.WCDL(), m)
	if err != nil {
		t.Fatal(err)
	}
	d.Reseed(5)
	missed := 0
	for i := 0; i < 10_000; i++ {
		if d.Sample().Missed {
			missed++
		}
	}
	if missed == 0 {
		t.Fatalf("no misses despite effective WCDL %d > nominal %d",
			m.EffectiveWCDL(), m.Model.WCDL())
	}
}

func TestMeshDetectorForkPure(t *testing.T) {
	m := Mesh{
		Model:       Model{Sensors: 300, DieAreaMM2: 1.0, ClockGHz: 2.5},
		DeadSensors: 50,
		MissProb:    0.2,
		LateFactor:  3,
	}
	d, err := NewMeshDetector(m.Model.WCDL(), m)
	if err != nil {
		t.Fatal(err)
	}
	d.Reseed(1)
	a, b := d, d
	a.Reseed(77)
	b.Reseed(77)
	for i := 0; i < 500; i++ {
		da, db := a.Sample(), b.Sample()
		if da != db {
			t.Fatalf("same-seed forks diverged at draw %d: %+v vs %+v", i, da, db)
		}
	}
	// Forking must not perturb the parent either.
	p1 := d
	p1.Reseed(1)
	fork := p1
	fork.Reseed(123)
	fork.Sample()
	for i := 0; i < 100; i++ {
		if p1.Sample() != d.Sample() {
			t.Fatalf("fork perturbed parent stream at draw %d", i)
		}
	}
}

// Satellite: table-driven edge cases for Model.WCDL and Validate.
func TestWCDLEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		model Model
		check func(t *testing.T, w int)
	}{
		{
			"one sensor small die",
			Model{Sensors: 1, DieAreaMM2: 1.0, ClockGHz: 2.5},
			func(t *testing.T, w int) {
				if w < 1 {
					t.Fatalf("WCDL %d < 1", w)
				}
			},
		},
		{
			"tiny die clamps to 1 cycle",
			Model{Sensors: 1000, DieAreaMM2: 1e-9, ClockGHz: 2.5},
			func(t *testing.T, w int) {
				if w != 1 {
					t.Fatalf("WCDL %d, want clamp to 1", w)
				}
			},
		},
		{
			"huge die stays finite and large",
			Model{Sensors: 1, DieAreaMM2: 1e6, ClockGHz: 2.5},
			func(t *testing.T, w int) {
				if w <= 1000 {
					t.Fatalf("WCDL %d suspiciously small for a 1e6 mm² die", w)
				}
			},
		},
		{
			"slow clock clamps to 1 cycle",
			Model{Sensors: 300, DieAreaMM2: 1.0, ClockGHz: 1e-6},
			func(t *testing.T, w int) {
				if w != 1 {
					t.Fatalf("WCDL %d, want clamp to 1", w)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.model.Validate(); err != nil {
				t.Fatalf("Validate() = %v for a model WCDL must handle", err)
			}
			tc.check(t, tc.model.WCDL())
		})
	}
}

func TestValidateEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		model Model
		ok    bool
	}{
		{"zero sensors", Model{Sensors: 0, DieAreaMM2: 1, ClockGHz: 2.5}, false},
		{"negative sensors", Model{Sensors: -5, DieAreaMM2: 1, ClockGHz: 2.5}, false},
		{"zero area", Model{Sensors: 1, DieAreaMM2: 0, ClockGHz: 2.5}, false},
		{"negative area", Model{Sensors: 1, DieAreaMM2: -1, ClockGHz: 2.5}, false},
		{"zero clock", Model{Sensors: 1, DieAreaMM2: 1, ClockGHz: 0}, false},
		{"minimal valid", Model{Sensors: 1, DieAreaMM2: 1e-12, ClockGHz: 1e-12}, true},
		{"paper operating point", Model{Sensors: 300, DieAreaMM2: 1, ClockGHz: 2.5}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.model.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}
