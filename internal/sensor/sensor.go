// Package sensor models the acoustic-wave soft-error detector mesh the
// paper builds on (Upasani et al.). Particle strikes emit a sound wave in
// the silicon; a mesh of N sensors on the die detects the wave within a
// worst-case detection latency (WCDL) bounded by the propagation time from
// the farthest point of a sensor's cell to the sensor, scaled by the clock
// frequency. More sensors mean smaller cells and lower WCDL (the paper's
// Fig. 18: 300 sensors ≈ 10 cycles at 2.5GHz on a 1mm² die).
package sensor

import (
	"fmt"
	"math"
)

// SoundSpeed is the acoustic propagation speed in silicon, m/s.
const SoundSpeed = 8433.0

// GeomFactor converts a sensor cell's area to the effective worst-case
// propagation distance: distance = GeomFactor * sqrt(cellArea). A lone
// center sensor in a square cell would give the half-diagonal (≈0.707);
// overlapping coverage from neighboring sensors shortens the effective
// worst case. The value is calibrated so the published operating points
// hold: ≈10 cycles for 300 sensors and ≈30 for 30 sensors at 2.5GHz, 1mm².
const GeomFactor = 0.585

// Model describes a deployed sensor mesh.
type Model struct {
	// Sensors is the number of deployed detectors.
	Sensors int
	// DieAreaMM2 is the protected die area in square millimetres.
	DieAreaMM2 float64
	// ClockGHz is the core clock frequency.
	ClockGHz float64
}

// Validate checks the configuration.
func (m Model) Validate() error {
	if m.Sensors <= 0 {
		return fmt.Errorf("sensor: %d sensors", m.Sensors)
	}
	if m.DieAreaMM2 <= 0 || m.ClockGHz <= 0 {
		return fmt.Errorf("sensor: area %.2f / clock %.2f", m.DieAreaMM2, m.ClockGHz)
	}
	return nil
}

// WCDL returns the worst-case detection latency in cycles. With N sensors
// tiling area A, each sensor covers a cell of A/N; the worst-case distance
// is the cell's half-diagonal, so latency = distance / v_sound converted
// to cycles at the configured clock, rounded up. The constants are chosen
// so the published operating points hold: ≈10 cycles for 300 sensors and
// ≈30 cycles for 30 sensors at 2.5GHz on 1mm².
func (m Model) WCDL() int {
	cellArea := m.DieAreaMM2 / float64(m.Sensors) // mm²
	// Effective worst-case distance within a cell, in millimetres.
	dist := GeomFactor * math.Sqrt(cellArea)
	meters := dist / 1000.0
	seconds := meters / SoundSpeed
	cycles := seconds * m.ClockGHz * 1e9
	w := int(math.Ceil(cycles))
	if w < 1 {
		w = 1
	}
	return w
}

// SensorsForWCDL returns the minimum sensor count achieving the target
// WCDL (the inverse of WCDL, used to regenerate Fig. 18's axes).
func SensorsForWCDL(target int, dieAreaMM2, clockGHz float64) int {
	if target < 1 {
		target = 1
	}
	// Invert: cycles = (sqrt(2*A/N)/2)/1000/v * f*1e9  =>  N = A*f²*1e18/(2e6*v²*cycles²)... solve numerically
	// for robustness against the ceil.
	for n := 1; n <= 1_000_000; n *= 2 {
		if (Model{Sensors: n, DieAreaMM2: dieAreaMM2, ClockGHz: clockGHz}).WCDL() <= target {
			// binary search between n/2 and n
			lo, hi := n/2+1, n
			if n == 1 {
				return 1
			}
			for lo < hi {
				mid := (lo + hi) / 2
				if (Model{Sensors: mid, DieAreaMM2: dieAreaMM2, ClockGHz: clockGHz}).WCDL() <= target {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			return lo
		}
	}
	return 1_000_000
}
