package sensor

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Mesh models an imperfect deployment of a sensor Model: some sensors
// are dead (enlarging the surviving sensors' cells and therefore the
// real detection bound), and environmental noise makes a fraction of
// strikes audible only to a farther sensor, pushing their detection
// latency past the WCDL the pipeline was provisioned for (the nominal
// WCDL, which NewMeshDetector takes beside the mesh). The pipeline
// keeps believing the nominal WCDL — that gap between advertised and
// actual bound is exactly what the containment machinery has to absorb.
type Mesh struct {
	// Model is the nominal, fully-healthy deployment.
	Model Model
	// DeadSensors is how many of Model.Sensors are offline.
	DeadSensors int
	// MissProb is the per-strike probability that the nearest live
	// sensor misses the wave and a farther one detects it late —
	// beyond the *nominal* WCDL.
	MissProb float64
	// LateFactor bounds late detections at LateFactor × nominal WCDL
	// (the farthest sensor that can still hear the attenuated wave).
	// Values below 2 are raised to 2 so a late detection is always
	// distinguishable from a timely one.
	LateFactor float64
}

// Validate checks the mesh configuration.
func (m Mesh) Validate() error {
	if err := m.Model.Validate(); err != nil {
		return err
	}
	if m.DeadSensors < 0 || m.DeadSensors >= m.Model.Sensors {
		return fmt.Errorf("sensor: %d dead of %d sensors", m.DeadSensors, m.Model.Sensors)
	}
	if m.MissProb < 0 || m.MissProb > 1 {
		return fmt.Errorf("sensor: miss probability %v outside [0,1]", m.MissProb)
	}
	if m.LateFactor < 0 {
		return fmt.Errorf("sensor: negative late factor %v", m.LateFactor)
	}
	return nil
}

// Alive returns the number of live sensors.
func (m Mesh) Alive() int { return m.Model.Sensors - m.DeadSensors }

// Effective returns the Model describing the surviving sensors: same
// die, same clock, fewer sensors — so bigger cells and a worse WCDL.
func (m Mesh) Effective() Model {
	eff := m.Model
	eff.Sensors = m.Alive()
	return eff
}

// EffectiveWCDL is the real detection bound of the degraded mesh.
// With no dead sensors it equals the model's WCDL.
func (m Mesh) EffectiveWCDL() int { return m.Effective().WCDL() }

// Detection is one sampled strike-detection event.
type Detection struct {
	// Latency is the cycles from strike to detection.
	Latency int
	// Missed reports that the detection landed beyond the nominal
	// WCDL — the window the pipeline sizes its region buffer for.
	Missed bool
}

// MeshDetector samples strike detections for a pipeline provisioned for
// a nominal WCDL, on a SplitMix64 stream, so a campaign's detections are
// a pure function of (seed, trial) regardless of worker count. Its zero
// adversary — no dead sensors, MissProb 0 — is the perfect mesh: every
// strike is heard uniformly in [1, WCDL] cycles, one draw per strike.
// A detector is a value; a copy is an independent detector whose stream
// Reseed sets, which is how a campaign forks one per worker.
type MeshDetector struct {
	wcdl     int // nominal bound: what the pipeline believes
	eff      int // timely detections are uniform in [1, eff]
	lateHi   int // misses are uniform in (wcdl, lateHi]
	missProb float64
	rng      rng.Stream
}

// NewMeshDetector builds a detector for a pipeline provisioned for wcdl
// cycles (values below 1 are raised to 1) whose sensors are m. Dead
// sensors widen the timely window to m's effective WCDL. With none it
// stays at wcdl, so a healthy mesh is the perfect mesh even where m's
// model rounds below wcdl.
func NewMeshDetector(wcdl int, m Mesh) (MeshDetector, error) {
	if err := m.Validate(); err != nil {
		return MeshDetector{}, err
	}
	wcdl = max(wcdl, 1)
	d := MeshDetector{wcdl: wcdl, eff: wcdl, missProb: m.MissProb}
	if m.DeadSensors > 0 {
		d.eff = m.EffectiveWCDL()
	}
	d.lateHi = max(int(math.Ceil(max(m.LateFactor, 2)*float64(wcdl))), wcdl+1)
	return d, nil
}

// Sample draws one detection. Timely detections are uniform in
// [1, effective WCDL]: dead sensors stretch the window past the nominal
// bound on their own, so a sufficiently degraded mesh produces Missed
// detections even with MissProb = 0. An explicit miss (probability
// MissProb) lands uniformly in (WCDL, LateFactor × WCDL]. Missed holds
// exactly when the latency exceeds the nominal WCDL, the test the
// pipeline applies to a strike's detection.
func (d *MeshDetector) Sample() Detection {
	var lat int
	if d.missProb > 0 && d.rng.Float64() < d.missProb {
		lat = d.wcdl + 1 + d.rng.Intn(d.lateHi-d.wcdl)
	} else {
		lat = 1 + d.rng.Intn(d.eff)
	}
	return Detection{Latency: lat, Missed: lat > d.wcdl}
}

// Reseed resets the detection stream in place to rng.New(seed)'s,
// without allocating. Campaign planners reseed their copy per trial.
func (d *MeshDetector) Reseed(seed int64) { d.rng.Reseed(seed) }
