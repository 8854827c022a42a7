package hw

// Live calibration. The static profiles in this package anchor the cost
// model to the paper's published testbed measurements; a serving planner
// running on real hardware wants the same estimators fed with service times
// measured on the live machine instead. A Calibration carries those
// measurements: per-DNN execution times from timing the actual compiled
// forwards, and a scale factor mapping the modeled CPU decode/preprocess
// costs onto the live machine's observed speed (the same quantity
// scripts/bench.sh tracks in the BENCH_*.json files).

// Calibration overrides parts of the static hardware model with
// measurements taken on the live machine. The zero value changes nothing.
type Calibration struct {
	// ExecUS maps a DNN choice name to its measured per-image execution
	// time in microseconds (already at the choice's input resolution, so no
	// further input scaling applies). Names absent from the map fall back
	// to the static profile.
	ExecUS map[string]float64
	// Kernel records the GEMM kernel tier ("avx512", "avx2", "portable") that
	// was active when ExecUS was measured. Informational: calibration is
	// per-runtime, so a runtime constructed with a different SIMD setting
	// re-measures under its own tier rather than trusting stale numbers.
	Kernel string
	// PreprocScale multiplies the modeled CPU-side decode and
	// preprocessing costs (measured live cost / modeled cost); zero or
	// negative means uncalibrated (factor 1).
	PreprocScale float64
	// VideoScale multiplies the modeled video decode cost specifically
	// (measured live vid decode / modeled cost). The video codec's live
	// speed tracks the still-image kernels only loosely — inflate, motion
	// compensation and the deblocking loop have different constants — so
	// the video planner times a real vid decode the same way the still
	// planner times forwards. Zero or negative falls back to PreprocScale.
	VideoScale float64
}

// ExecUSFor returns the measured per-image execution time for a DNN name,
// if calibrated.
func (c *Calibration) ExecUSFor(name string) (float64, bool) {
	if c == nil || c.ExecUS == nil {
		return 0, false
	}
	us, ok := c.ExecUS[name]
	return us, ok && us > 0
}

// CPUScale returns the multiplier for modeled CPU-side costs (1 when
// uncalibrated).
func (c *Calibration) CPUScale() float64 {
	if c == nil || c.PreprocScale <= 0 {
		return 1
	}
	return c.PreprocScale
}

// VideoCPUScale returns the multiplier for modeled video decode costs,
// falling back to the generic CPU scale when video was not calibrated.
func (c *Calibration) VideoCPUScale() float64 {
	if c == nil || c.VideoScale <= 0 {
		return c.CPUScale()
	}
	return c.VideoScale
}
