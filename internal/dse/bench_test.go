package dse

import (
	"context"
	"testing"

	"efficsense/internal/cache"
	"efficsense/internal/core"
)

// BenchmarkEvaluateWarm measures the engine's warm fast path — cache
// lookup, metrics, histogram observation — the cost every memoised
// point pays on a repeat sweep or a warm /v1/evaluate.
func BenchmarkEvaluateWarm(b *testing.B) {
	s, err := NewSweep(&fakeEvaluator{}, WithCache(cache.New(0)), WithEvaluatorID("bench"))
	if err != nil {
		b.Fatal(err)
	}
	p := core.DesignPoint{Arch: core.ArchCS, Bits: 8, LNANoise: 2e-6, M: 100}
	s.Evaluate(p) // prime the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Evaluate(p)
	}
}

// BenchmarkRunColdFake measures per-point engine overhead (dispatch,
// completion lock, metrics, events) over a trivial evaluator, i.e. the
// serving stack's fixed cost per design point.
func BenchmarkRunColdFake(b *testing.B) {
	pts := fakePoints(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSweep(&fakeEvaluator{}, WithWorkers(4))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
	}
}
