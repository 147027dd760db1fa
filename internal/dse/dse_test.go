package dse

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"efficsense/internal/cache"
	"efficsense/internal/classify"
	"efficsense/internal/core"
	"efficsense/internal/eeg"
	"efficsense/internal/tech"
)

func TestGeomRange(t *testing.T) {
	v := GeomRange(1e-6, 20e-6, 5)
	if len(v) != 5 {
		t.Fatalf("length %d", len(v))
	}
	if math.Abs(v[0]-1e-6) > 1e-15 || math.Abs(v[4]-20e-6) > 1e-12 {
		t.Fatalf("endpoints %g, %g", v[0], v[4])
	}
	// Geometric: constant ratio.
	r := v[1] / v[0]
	for i := 2; i < 5; i++ {
		if math.Abs(v[i]/v[i-1]-r) > 1e-9 {
			t.Fatalf("not geometric at %d", i)
		}
	}
	if got := GeomRange(5, 1, 3); len(got) != 1 || got[0] != 5 {
		t.Fatalf("degenerate range %v", got)
	}
}

func TestLinRange(t *testing.T) {
	v := LinRange(0, 10, 6)
	for i, want := range []float64{0, 2, 4, 6, 8, 10} {
		if math.Abs(v[i]-want) > 1e-12 {
			t.Fatalf("LinRange[%d] = %g", i, v[i])
		}
	}
	if got := LinRange(3, 9, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("single-point range %v", got)
	}
}

func TestPaperSpaceGeometry(t *testing.T) {
	s := PaperSpace(8)
	pts := s.Points()
	// baseline: 3 bits × 8 noise; CS: ×3 M × 1 CHold.
	want := 3*8 + 3*8*3
	if len(pts) != want {
		t.Fatalf("paper space size %d, want %d", len(pts), want)
	}
	if s.Size() != want {
		t.Fatalf("Size() disagrees")
	}
	nBase := 0
	for _, p := range pts {
		if p.Arch == core.ArchBaseline {
			nBase++
			if p.M != 0 {
				t.Fatal("baseline point carries M")
			}
		} else if p.M != 75 && p.M != 150 && p.M != 192 {
			t.Fatalf("unexpected M %d", p.M)
		}
	}
	if nBase != 24 {
		t.Fatalf("baseline point count %d", nBase)
	}
}

func TestSpaceDefaultsForEmptyCSAxes(t *testing.T) {
	s := Space{
		Architectures: []core.Architecture{core.ArchCS},
		Bits:          []int{8},
		LNANoise:      []float64{5e-6},
	}
	pts := s.Points()
	if len(pts) != 1 || pts[0].M != 150 || pts[0].CHold != 0 {
		t.Fatalf("defaulted CS point %+v", pts)
	}
}

// fakeResults builds a synthetic result set for Pareto/filter tests.
func fakeResults() []core.Result {
	mk := func(pwr, snr, acc, area float64, arch core.Architecture) core.Result {
		return core.Result{
			Point:      core.DesignPoint{Arch: arch, Bits: 8, LNANoise: 1e-6},
			MeanSNRdB:  snr,
			Accuracy:   acc,
			TotalPower: pwr,
			AreaCaps:   area,
		}
	}
	return []core.Result{
		mk(1e-6, 10, 0.90, 300, core.ArchBaseline),
		mk(2e-6, 20, 0.95, 400, core.ArchBaseline),
		mk(3e-6, 15, 0.93, 500, core.ArchBaseline), // dominated by the 2µW point
		mk(4e-6, 30, 0.99, 9000, core.ArchCS),
		mk(5e-6, 25, 0.97, 12000, core.ArchCS), // dominated
		mk(6e-6, 40, 0.995, 15000, core.ArchCS),
	}
}

func TestParetoFront(t *testing.T) {
	front := ParetoFront(fakeResults(), QualitySNR)
	if len(front) != 4 {
		t.Fatalf("front size %d, want 4", len(front))
	}
	// Sorted by power, strictly improving quality.
	for i := 1; i < len(front); i++ {
		if front[i].TotalPower < front[i-1].TotalPower {
			t.Fatal("front not sorted by power")
		}
		if QualitySNR(front[i]) <= QualitySNR(front[i-1]) {
			t.Fatal("front quality not strictly improving")
		}
	}
	if ParetoFront(nil, QualitySNR) != nil {
		t.Fatal("empty input should give nil front")
	}
}

func TestParetoFrontProperty(t *testing.T) {
	// No front member may be dominated by any input point.
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		var rs []core.Result
		for i := 0; i < 30; i++ {
			rs = append(rs, core.Result{
				TotalPower: rng(),
				MeanSNRdB:  rng() * 40,
			})
		}
		front := ParetoFront(rs, QualitySNR)
		for _, fm := range front {
			for _, r := range rs {
				if r.TotalPower <= fm.TotalPower && r.MeanSNRdB >= fm.MeanSNRdB &&
					(r.TotalPower < fm.TotalPower || r.MeanSNRdB > fm.MeanSNRdB) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func newTestRand(seed int64) func() float64 {
	s := uint64(seed)*2654435761 + 1
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s%1e6) / 1e6
	}
}

func TestFilterArea(t *testing.T) {
	rs := fakeResults()
	kept := FilterArea(rs, 1000)
	if len(kept) != 3 {
		t.Fatalf("kept %d, want 3 baseline-sized designs", len(kept))
	}
	if got := FilterArea(rs, 0); len(got) != len(rs) {
		t.Fatal("zero cap should keep everything")
	}
}

func TestFilterArch(t *testing.T) {
	rs := fakeResults()
	if got := FilterArch(rs, core.ArchCS); len(got) != 3 {
		t.Fatalf("CS filter kept %d", len(got))
	}
}

func TestOptimum(t *testing.T) {
	rs := fakeResults()
	best, ok := Optimum(rs, QualityAccuracy, 0.98)
	if !ok {
		t.Fatal("no optimum found")
	}
	if best.TotalPower != 4e-6 {
		t.Fatalf("optimum power %g, want the cheapest >= 0.98 point", best.TotalPower)
	}
	if _, ok := Optimum(rs, QualityAccuracy, 0.999); ok {
		t.Fatal("impossible constraint should report no optimum")
	}
}

func TestSweepRunsAllPointsInParallel(t *testing.T) {
	ds := eeg.Synthesize(eeg.DefaultConfig(11, 8))
	train, test := ds.Split(0.25)
	det := classify.TrainDetector(train, classify.DetectorConfig{
		Seed: 11, Train: classify.TrainOptions{Epochs: 40},
	})
	ev, err := core.NewEvaluator(core.Config{
		Tech: tech.GPDK045(), Sys: tech.DefaultSystem(),
		Dataset: test, Detector: det, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := []core.DesignPoint{
		{Arch: core.ArchBaseline, Bits: 6, LNANoise: 2e-6},
		{Arch: core.ArchBaseline, Bits: 8, LNANoise: 2e-6},
		{Arch: core.ArchBaseline, Bits: 8, LNANoise: 10e-6},
		{Arch: core.ArchCS, Bits: 8, LNANoise: 5e-6, M: 96},
	}
	var calls []int
	sweep, err := NewSweep(ev, WithWorkers(3), WithProgress(func(done, total int) {
		// The engine invokes Progress serially, so no locking is needed.
		calls = append(calls, done)
		if total != len(pts) {
			t.Errorf("total = %d", total)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sweep.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(pts) {
		t.Fatalf("result count %d", len(rs))
	}
	for i, r := range rs {
		if r.Point != pts[i] {
			t.Fatalf("result %d out of order: %+v", i, r.Point)
		}
		if r.TotalPower <= 0 || r.Err != nil {
			t.Fatalf("point %d unevaluated: %v", i, r.Err)
		}
	}
	if len(calls) != len(pts) {
		t.Fatalf("progress callbacks %d", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress counts not monotonic: %v", calls)
		}
	}
	// Sequential and parallel runs agree bit-for-bit; the serial engine
	// also shares cached evaluations with an equivalent evaluator rebuilt
	// from the same config (fingerprint-keyed cache).
	store := cache.New(0)
	serial, err := NewSweep(ev, WithWorkers(1), WithCache(store))
	if err != nil {
		t.Fatal(err)
	}
	again, err := serial.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if rs[i].MeanSNRdB != again[i].MeanSNRdB || rs[i].TotalPower != again[i].TotalPower {
			t.Fatalf("parallel and serial sweeps disagree at %d", i)
		}
	}
	ev2, err := core.NewEvaluator(core.Config{
		Tech: tech.GPDK045(), Sys: tech.DefaultSystem(),
		Dataset: test, Detector: det, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Fingerprint() != ev.Fingerprint() {
		t.Fatal("equal configs should produce equal fingerprints")
	}
	rebuilt, err := NewSweep(ev2, WithCache(store))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := rebuilt.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rebuilt.Metrics().CacheHits; got != int64(len(pts)) {
		t.Fatalf("rebuilt evaluator hit the cache %d times, want %d", got, len(pts))
	}
	for i := range cached {
		if cached[i].TotalPower != rs[i].TotalPower {
			t.Fatalf("cached result %d diverged", i)
		}
	}
}

func TestDescribe(t *testing.T) {
	s := Describe(fakeResults()[0])
	if s == "" {
		t.Fatal("empty description")
	}
}

func TestBisectNoiseFloor(t *testing.T) {
	ds := eeg.Synthesize(eeg.DefaultConfig(12, 8))
	train, test := ds.Split(0.25)
	det := classify.TrainDetector(train, classify.DetectorConfig{
		Seed: 12, Train: classify.TrainOptions{Epochs: 40},
	})
	ev, err := core.NewEvaluator(core.Config{
		Tech: tech.GPDK045(), Sys: tech.DefaultSystem(),
		Dataset: test, Detector: det, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := core.DesignPoint{Arch: core.ArchBaseline, Bits: 8}
	best, ok := BisectNoiseFloor(ev, p, QualityAccuracy, 0.9, 1e-6, 20e-6, 4)
	if !ok {
		t.Fatal("bisection found no acceptable design")
	}
	if best.Accuracy < 0.9 {
		t.Fatalf("refined design misses the constraint: %g", best.Accuracy)
	}
	// The refined point must be no more expensive than the quietest one.
	quiet := ev.Evaluate(core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: 1e-6})
	if best.TotalPower > quiet.TotalPower {
		t.Fatalf("refinement made things worse: %g vs %g", best.TotalPower, quiet.TotalPower)
	}
	// An impossible constraint reports ok=false.
	if _, ok := BisectNoiseFloor(ev, p, QualityAccuracy, 1.1, 1e-6, 20e-6, 3); ok {
		t.Fatal("impossible constraint accepted")
	}
}

// thresholdEval is an analytic refinement target: quality 1 below the
// vn threshold and 0 above it, power 1/vn, every call recorded.
type thresholdEval struct {
	threshold float64
	errAt     func(vn float64) bool
	calls     []float64
}

func (e *thresholdEval) Evaluate(p core.DesignPoint) core.Result {
	e.calls = append(e.calls, p.LNANoise)
	if e.errAt != nil && e.errAt(p.LNANoise) {
		return core.Result{Point: p, Err: errors.New("injected")}
	}
	r := core.Result{Point: p, TotalPower: 1 / p.LNANoise}
	if p.LNANoise <= e.threshold {
		r.Accuracy = 1
	}
	return r
}

// TestBisectNoiseFloorEdgeCases pins the refinement contract on the
// boundaries: degenerate intervals collapse to one evaluation at lo,
// iters <= 0 selects the default depth, an unreachable floor reports
// ok=false after a single probe, and error rows never satisfy the floor.
func TestBisectNoiseFloorEdgeCases(t *testing.T) {
	p := core.DesignPoint{Arch: core.ArchBaseline, Bits: 8}
	cases := []struct {
		name      string
		threshold float64
		errAt     func(float64) bool
		minQ      float64
		lo, hi    float64
		iters     int
		wantOK    bool
		wantCalls int
		wantVnMin float64 // accepted vn must be in [wantVnMin, threshold]
	}{
		{name: "default iters", threshold: 5e-6, minQ: 0.5,
			lo: 1e-6, hi: 20e-6, iters: 0, wantOK: true, wantCalls: 7, wantVnMin: 4e-6},
		{name: "explicit iters", threshold: 5e-6, minQ: 0.5,
			lo: 1e-6, hi: 20e-6, iters: 10, wantOK: true, wantCalls: 11, wantVnMin: 4.9e-6},
		{name: "non-bracketing interval", threshold: 5e-6, minQ: 0.5,
			lo: 20e-6, hi: 1e-6, iters: 4, wantOK: false, wantCalls: 1},
		{name: "inverted but feasible at lo", threshold: 5e-6, minQ: 0.5,
			lo: 2e-6, hi: 1e-6, iters: 4, wantOK: true, wantCalls: 1, wantVnMin: 2e-6},
		{name: "nonpositive lo", threshold: 5e-6, minQ: 0.5,
			lo: 0, hi: 20e-6, iters: 4, wantOK: true, wantCalls: 1, wantVnMin: 0},
		{name: "nan bound", threshold: 5e-6, minQ: 0.5,
			lo: 1e-6, hi: math.NaN(), iters: 4, wantOK: true, wantCalls: 1, wantVnMin: 1e-6},
		{name: "floor unreachable", threshold: 5e-7, minQ: 0.5,
			lo: 1e-6, hi: 20e-6, iters: 4, wantOK: false, wantCalls: 1},
		{name: "floor met everywhere", threshold: 1, minQ: 0.5,
			lo: 1e-6, hi: 20e-6, iters: 8, wantOK: true, wantCalls: 9, wantVnMin: 19e-6},
		{name: "point interval", threshold: 5e-6, minQ: 0.5,
			lo: 2e-6, hi: 2e-6, iters: 4, wantOK: true, wantCalls: 5, wantVnMin: 2e-6},
		{name: "error row at lo", threshold: 5e-6, minQ: 0,
			errAt: func(vn float64) bool { return vn == 1e-6 },
			lo:    1e-6, hi: 20e-6, iters: 4, wantOK: false, wantCalls: 1},
		{name: "error rows shrink from above", threshold: 5e-6, minQ: 0.5,
			errAt: func(vn float64) bool { return vn > 5e-6 },
			lo:    1e-6, hi: 20e-6, iters: 6, wantOK: true, wantCalls: 7, wantVnMin: 3e-6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ev := &thresholdEval{threshold: c.threshold, errAt: c.errAt}
			best, ok := BisectNoiseFloor(ev, p, QualityAccuracy, c.minQ, c.lo, c.hi, c.iters)
			if ok != c.wantOK {
				t.Fatalf("ok = %v, want %v (best %+v)", ok, c.wantOK, best)
			}
			if len(ev.calls) != c.wantCalls {
				t.Fatalf("evaluations %d (%v), want %d", len(ev.calls), ev.calls, c.wantCalls)
			}
			for _, vn := range ev.calls {
				if vn > max(c.lo, c.hi) || math.IsNaN(vn) && !math.IsNaN(c.lo) && !math.IsNaN(c.hi) {
					t.Fatalf("evaluated vn=%g outside the given interval (%v)", vn, ev.calls)
				}
			}
			if !ok {
				return
			}
			if best.Err != nil {
				t.Fatalf("accepted an error row: %v", best.Err)
			}
			if best.Accuracy < c.minQ {
				t.Fatalf("accepted design misses the floor: %+v", best)
			}
			if vn := best.Point.LNANoise; vn < c.wantVnMin || vn > c.threshold && c.threshold >= c.lo {
				t.Fatalf("accepted vn=%g, want within [%g, %g]", vn, c.wantVnMin, c.threshold)
			}
		})
	}
}
