package dse

import (
	"context"
	"testing"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/fault"
)

// chaosPoints builds n distinct design points.
func chaosPoints(n int) []core.DesignPoint {
	pts := make([]core.DesignPoint, n)
	for i := range pts {
		pts[i] = core.DesignPoint{Arch: core.ArchBaseline, Bits: 4 + i, LNANoise: 1e-6}
	}
	return pts
}

// TestInjectedPanicsDegradeThroughFlight drives panic injection through
// the bounded cache's singleflight: the engine's no-panic contract must
// hold across the cache layer, the panics must be visible in both the
// engine metrics and the cache stats, and the bound must hold.
func TestInjectedPanicsDegradeThroughFlight(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable(fault.PointFlight, fault.Config{
		Kind: fault.KindPanic, Probability: 1, MaxInjections: 4,
	}); err != nil {
		t.Fatal(err)
	}
	store := cache.New(4)
	s, err := NewSweep(okEval{}, WithWorkers(4), WithCache(store), WithEvaluatorID("chaos"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.Run(context.Background(), chaosPoints(12))
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, r := range rs {
		if r.Err != nil {
			degraded++
		}
	}
	if degraded != 4 {
		t.Fatalf("%d degraded points, scheduled 4 panics", degraded)
	}
	snap := s.Metrics()
	if snap.Panics != 4 {
		t.Fatalf("engine Panics = %d, want 4", snap.Panics)
	}
	if st := store.Stats(); st.FlightPanics != 4 {
		t.Fatalf("cache FlightPanics = %d, want 4", st.FlightPanics)
	}
	if store.Len() > store.Cap() {
		t.Fatalf("cache bound violated: %d > %d", store.Len(), store.Cap())
	}
}

// TestChaosScheduleIsSeedDeterministic replays one probabilistic fault
// schedule twice from the same seed and demands identical degradation —
// the property that makes a chaos failure reproducible. Each point
// fires the failpoint exactly once, so 4 racing workers must still land
// on the same fault count.
func TestChaosScheduleIsSeedDeterministic(t *testing.T) {
	t.Cleanup(fault.Reset)
	run := func(seed int64) int {
		fault.Reset()
		if err := fault.Enable(fault.PointEvaluate, fault.Config{
			Kind: fault.KindError, Probability: 0.4, Seed: seed,
		}); err != nil {
			t.Fatal(err)
		}
		s, err := NewSweep(okEval{}, WithWorkers(4))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := s.Run(context.Background(), chaosPoints(30))
		if err != nil {
			t.Fatal(err)
		}
		degraded := 0
		for _, r := range rs {
			if r.Err != nil {
				degraded++
			}
		}
		if int64(degraded) != fault.Injected(fault.PointEvaluate) {
			t.Fatalf("degraded %d points but schedule injected %d", degraded, fault.Injected(fault.PointEvaluate))
		}
		return degraded
	}
	d1 := run(11)
	d2 := run(11)
	if d1 != d2 {
		t.Fatalf("same seed diverged: degraded %d then %d", d1, d2)
	}
	if d1 == 0 || d1 == 30 {
		t.Fatalf("probability 0.4 over 30 points degraded %d — degenerate seed", d1)
	}
}

// okEval always succeeds instantly; faults come from the failpoints.
type okEval struct{}

func (okEval) Evaluate(p core.DesignPoint) core.Result {
	return core.Result{Point: p, MeanSNRdB: float64(p.Bits), Accuracy: 0.99, TotalPower: 1}
}
