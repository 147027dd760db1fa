package efficsense_test

import (
	"context"
	"testing"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/eeg"
	"efficsense/internal/tech"
)

// BenchmarkSweepColdCS is the cold-cache sweep benchmark: a CS-family
// noise×resolution grid (one frame geometry, the Fig 7a SNR workload)
// swept through the engine with an empty memoisation cache on every
// iteration, so every point is a genuine evaluation, reported as
// points/s.
func BenchmarkSweepColdCS(b *testing.B) {
	test := eeg.Synthesize(eeg.DefaultConfig(21, 2))
	ev, err := core.NewEvaluator(core.Config{
		Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Dataset: test, Seed: 21,
	})
	if err != nil {
		b.Fatal(err)
	}
	space := dse.Space{
		Architectures: []core.Architecture{core.ArchCS},
		Bits:          []int{6, 7, 8},
		LNANoise:      dse.GeomRange(2e-6, 16e-6, 4),
		M:             []int{150},
		CHold:         []float64{80e-15},
	}
	if err := space.Validate(); err != nil {
		b.Fatal(err)
	}
	pts := space.Points()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := dse.NewSweep(ev, dse.WithCache(cache.New(0)))
		if err != nil {
			b.Fatal(err)
		}
		rs, err := sw.Run(context.Background(), pts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rs {
			if r.Err != nil || r.TotalPower <= 0 {
				b.Fatal("bad sweep result")
			}
		}
	}
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}
