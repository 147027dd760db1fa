// Package dse is the design-space-exploration layer of EffiCSense: it
// enumerates the Table III search grid, fans evaluations out over a worker
// pool, extracts Pareto fronts (paper Fig 7), and answers the constrained
// queries behind Figs 9 and 10 (area-capped searches, minimum-accuracy
// optima).
package dse

import (
	"fmt"
	"math"
	"sort"

	"efficsense/internal/adc"
	"efficsense/internal/core"
)

// Space is a rectangular design-space grid. CS-only axes (M, CHold) are
// ignored for baseline architectures.
type Space struct {
	Architectures []core.Architecture
	Bits          []int
	LNANoise      []float64
	M             []int
	CHold         []float64
}

// PaperSpace returns the Table III search space: both architectures,
// N ∈ {6,7,8}, the 1–20 µVrms LNA-noise range on a geometric grid of
// noiseSteps points (0 → 8), M ∈ {75, 150, 192} with N_Φ = 384, and the
// default hold capacitor.
func PaperSpace(noiseSteps int) Space {
	if noiseSteps <= 0 {
		noiseSteps = 8
	}
	return Space{
		Architectures: []core.Architecture{core.ArchBaseline, core.ArchCS},
		Bits:          []int{6, 7, 8},
		LNANoise:      GeomRange(1e-6, 20e-6, noiseSteps),
		M:             []int{75, 150, 192},
		CHold:         []float64{80e-15},
	}
}

// GeomRange returns n geometrically spaced values from lo to hi inclusive.
func GeomRange(lo, hi float64, n int) []float64 {
	if n <= 1 || lo <= 0 || hi <= lo {
		return []float64{lo}
	}
	out := make([]float64, n)
	ratio := hi / lo
	for i := range out {
		out[i] = lo * math.Pow(ratio, float64(i)/float64(n-1))
	}
	return out
}

// LinRange returns n linearly spaced values from lo to hi inclusive.
func LinRange(lo, hi float64, n int) []float64 {
	if n <= 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + step*float64(i)
	}
	return out
}

// Points enumerates every design point in the grid, baseline first.
func (s Space) Points() []core.DesignPoint {
	var pts []core.DesignPoint
	for _, arch := range s.Architectures {
		for _, bits := range s.Bits {
			for _, vn := range s.LNANoise {
				if arch == core.ArchBaseline {
					pts = append(pts, core.DesignPoint{Arch: arch, Bits: bits, LNANoise: vn})
					continue
				}
				ms := s.M
				if len(ms) == 0 {
					ms = []int{150}
				}
				chs := s.CHold
				if len(chs) == 0 {
					chs = []float64{0}
				}
				for _, m := range ms {
					for _, ch := range chs {
						pts = append(pts, core.DesignPoint{
							Arch: arch, Bits: bits, LNANoise: vn, M: m, CHold: ch,
						})
					}
				}
			}
		}
	}
	return pts
}

// Size returns the number of points the grid enumerates, computed
// arithmetically — enumerating nothing — so sizing a progress bar or an
// ETA for a huge space stays O(1).
func (s Space) Size() int {
	base := len(s.Bits) * len(s.LNANoise)
	csPer := base * max(len(s.M), 1) * max(len(s.CHold), 1)
	n := 0
	for _, arch := range s.Architectures {
		if arch == core.ArchBaseline {
			n += base
		} else {
			n += csPer
		}
	}
	return n
}

// Validate rejects grids a sweep cannot evaluate: missing axes,
// non-positive resolutions or noise floors, NaN axis values. Points and
// Size tolerate such spaces (they enumerate what they can), so call
// Validate at API boundaries for a descriptive error instead of a
// silently empty or broken sweep.
func (s Space) Validate() error {
	if len(s.Architectures) == 0 {
		return fmt.Errorf("dse: space has no architectures")
	}
	if len(s.Bits) == 0 {
		return fmt.Errorf("dse: space has no ADC resolutions (Bits)")
	}
	if len(s.LNANoise) == 0 {
		return fmt.Errorf("dse: space has no LNA noise values")
	}
	for i, b := range s.Bits {
		if b <= 0 || b > adc.MaxBits {
			return fmt.Errorf("dse: Bits[%d] = %d is not a valid ADC resolution (the SAR converts at 1 to %d bits)",
				i, b, adc.MaxBits)
		}
	}
	for i, v := range s.LNANoise {
		if math.IsNaN(v) || v <= 0 {
			return fmt.Errorf("dse: LNANoise[%d] = %g is not a valid noise floor", i, v)
		}
	}
	for i, m := range s.M {
		if m <= 0 {
			return fmt.Errorf("dse: M[%d] = %d is not a valid measurement count", i, m)
		}
	}
	for i, ch := range s.CHold {
		if math.IsNaN(ch) || ch < 0 {
			return fmt.Errorf("dse: CHold[%d] = %g is not a valid hold capacitance", i, ch)
		}
	}
	return nil
}

// Quality extracts the goal-function value from a result (paper Step 5:
// the choice of metric changes the optimum, the central point of Fig 7).
type Quality func(core.Result) float64

// QualitySNR is the Fig 7a goal function.
func QualitySNR(r core.Result) float64 { return r.MeanSNRdB }

// QualityAccuracy is the Fig 7b goal function.
func QualityAccuracy(r core.Result) float64 { return r.Accuracy }

// ParetoFront returns the non-dominated subset of results under
// (minimise power, maximise quality), sorted by ascending power. A point
// is dominated if another point has no higher power and no lower quality,
// with at least one strict inequality. Error-carrying results (failed
// evaluations) are excluded.
func ParetoFront(results []core.Result, q Quality) []core.Result {
	sorted := make([]core.Result, 0, len(results))
	for _, r := range results {
		if r.Err == nil {
			sorted = append(sorted, r)
		}
	}
	if len(sorted) == 0 {
		return nil
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].TotalPower != sorted[j].TotalPower {
			return sorted[i].TotalPower < sorted[j].TotalPower
		}
		return q(sorted[i]) > q(sorted[j])
	})
	var front []core.Result
	best := math.Inf(-1)
	for _, r := range sorted {
		if v := q(r); v > best {
			front = append(front, r)
			best = v
		}
	}
	return front
}

// FilterArea keeps results whose capacitor count is within maxAreaCaps
// (the Fig 10 constraint). maxAreaCaps <= 0 keeps everything.
func FilterArea(results []core.Result, maxAreaCaps float64) []core.Result {
	if maxAreaCaps <= 0 {
		return results
	}
	var out []core.Result
	for _, r := range results {
		if r.AreaCaps <= maxAreaCaps {
			out = append(out, r)
		}
	}
	return out
}

// FilterArch keeps results of one architecture.
func FilterArch(results []core.Result, arch core.Architecture) []core.Result {
	var out []core.Result
	for _, r := range results {
		if r.Point.Arch == arch {
			out = append(out, r)
		}
	}
	return out
}

// Optimum returns the minimum-power result meeting the quality floor (the
// paper's "power as optimisation goal, accuracy >= 98 %" selection). ok is
// false when no point qualifies. Error-carrying results are excluded.
func Optimum(results []core.Result, q Quality, minQuality float64) (core.Result, bool) {
	var best core.Result
	found := false
	for _, r := range results {
		if r.Err != nil || q(r) < minQuality {
			continue
		}
		if !found || r.TotalPower < best.TotalPower {
			best = r
			found = true
		}
	}
	return best, found
}

// BisectNoiseFloor refines the continuous LNA-noise axis around a design
// point: power falls monotonically as the noise floor rises, so the
// cheapest acceptable design is the largest vn still meeting the quality
// floor. A bisection over [lo, hi] finds it to within the given number of
// evaluations — the "local refinement after the grid sweep" step a
// pathfinding flow runs once the architecture is chosen. ok is false if
// even vn = lo misses the constraint. Pass a *Sweep as ev to serve the
// bisection from the sweep's memoisation cache.
//
// Degenerate intervals (lo <= 0, hi < lo, or a NaN endpoint) cannot
// bracket a geometric bisection; they collapse to a single evaluation at
// lo so callers still get the floor's verdict instead of NaN midpoints.
// A failed evaluation (error row) never satisfies the quality floor.
func BisectNoiseFloor(ev PointEvaluator, p core.DesignPoint, q Quality, minQuality, lo, hi float64, iters int) (core.Result, bool) {
	if iters <= 0 {
		iters = 6
	}
	eval := func(vn float64) core.Result {
		pt := p
		pt.LNANoise = vn
		return ev.Evaluate(pt)
	}
	meets := func(r core.Result) bool { return r.Err == nil && q(r) >= minQuality }
	best := eval(lo)
	if !meets(best) {
		return best, false
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || lo <= 0 || hi < lo {
		return best, true
	}
	for i := 0; i < iters; i++ {
		mid := math.Sqrt(lo * hi) // geometric midpoint: vn spans decades
		r := eval(mid)
		if meets(r) {
			best = r
			lo = mid
		} else {
			hi = mid
		}
	}
	return best, true
}

// Describe summarises a result in one line for logs and CLI output.
func Describe(r core.Result) string {
	return fmt.Sprintf("%s: SNR %.1f dB, accuracy %.3f, power %.3g W, area %.0f Cu",
		r.Point, r.MeanSNRdB, r.Accuracy, r.TotalPower, r.AreaCaps)
}
