package cs

import (
	"math"
	"testing"
	"testing/quick"

	"efficsense/internal/xrand"
)

// randomDict builds an m×k random dictionary as column vectors.
func randomDict(rng *xrand.Source, m, k int) [][]float64 {
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, m)
		rng.FillNormal(cols[j], 0, 1)
	}
	return cols
}

func TestBatchOMPMatchesDirectOMP(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		const m, k = 24, 60
		cols := randomDict(rng, m, k)
		// Sparse ground truth + noise.
		y := make([]float64, m)
		for _, j := range rng.Choose(k, 3) {
			c := rng.Normal(0, 1) + 1
			for i := range y {
				y[i] += c * cols[j][i]
			}
		}
		for i := range y {
			y[i] += rng.Normal(0, 0.01)
		}
		a := OMP(cols, y, 8, 1e-8)
		b := NewBatchOMP(cols).Solve(y, 8, 1e-8)
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1e-6*(1+math.Abs(a[j])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchOMPRecoversSparse(t *testing.T) {
	rng := xrand.New(5)
	const m, k = 40, 100
	cols := randomDict(rng, m, k)
	truth := make([]float64, k)
	for _, j := range []int{4, 33, 71} {
		truth[j] = rng.Normal(0, 1) + 2
	}
	y := make([]float64, m)
	for j, c := range truth {
		if c == 0 {
			continue
		}
		for i := range y {
			y[i] += c * cols[j][i]
		}
	}
	got := NewBatchOMP(cols).Solve(y, 10, 1e-12)
	for j := range truth {
		if math.Abs(got[j]-truth[j]) > 1e-6 {
			t.Fatalf("coefficient %d = %g, want %g", j, got[j], truth[j])
		}
	}
}

func TestBatchOMPEdgeCases(t *testing.T) {
	b := NewBatchOMP(nil)
	if got := b.Solve([]float64{1}, 4, 0); len(got) != 0 {
		t.Fatal("empty dictionary")
	}
	cols := [][]float64{{1, 0}, {0, 1}}
	b = NewBatchOMP(cols)
	if got := b.Solve([]float64{0, 0}, 4, 0); got[0] != 0 || got[1] != 0 {
		t.Fatal("zero measurement")
	}
	if got := b.Solve([]float64{1, 2}, 0, 0); got[0] != 0 {
		t.Fatal("zero atom budget")
	}
	// Duplicate (dependent) columns must not break the factorisation.
	dup := [][]float64{{1, 0}, {1, 0}, {0, 1}}
	got := NewBatchOMP(dup).Solve([]float64{3, 4}, 3, 1e-12)
	nz := 0
	for _, v := range got {
		if v != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("dependent dictionary produced empty solution")
	}
}

func TestBatchOMPSupportCappedByMeasurements(t *testing.T) {
	rng := xrand.New(6)
	cols := randomDict(rng, 4, 20) // only 4 measurements
	y := []float64{1, -2, 3, 0.5}
	got := NewBatchOMP(cols).Solve(y, 15, 0)
	nz := 0
	for _, v := range got {
		if v != 0 {
			nz++
		}
	}
	if nz > 4 {
		t.Fatalf("support size %d exceeds measurement count", nz)
	}
}

func BenchmarkDirectOMP(b *testing.B) {
	rng := xrand.New(7)
	cols := randomDict(rng, 150, 384)
	y := make([]float64, 150)
	rng.FillNormal(y, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OMP(cols, y, 24, 1e-6)
	}
}

func BenchmarkBatchOMPSolve(b *testing.B) {
	rng := xrand.New(7)
	cols := randomDict(rng, 150, 384)
	solver := NewBatchOMP(cols)
	y := make([]float64, 150)
	rng.FillNormal(y, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.Solve(y, 24, 1e-6)
	}
}

// BenchmarkBOMPSolve times one block-OMP frame at the ECG scenario's
// largest geometry (M 192, N_Φ 384, 48 atoms in blocks of 4) on the
// session path's scratch.
func BenchmarkBOMPSolve(b *testing.B) {
	const m, n = 192, 384
	enc := idealEncoder(m, n, 2, 7)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), n, ReconOptions{
		Method: MethodBOMP, MaxAtoms: 48, BlockLen: 4, Tol: 1e-4,
	})
	y := bompFrames(enc, 7, 1)[0]
	theta := make([]float64, n)
	var sc bompScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.bomp(theta, y, &sc)
	}
}

func TestBatchOMPSupportBudgetProperty(t *testing.T) {
	// The solution support never exceeds the atom budget, whatever the
	// measurement.
	rng := xrand.New(31)
	cols := randomDict(rng, 20, 50)
	solver := NewBatchOMP(cols)
	f := func(seed int64, budgetRaw uint8) bool {
		budget := int(budgetRaw%12) + 1
		y := make([]float64, 20)
		xrand.New(seed).FillNormal(y, 0, 1)
		theta := solver.Solve(y, budget, 0)
		nz := 0
		for _, v := range theta {
			if v != 0 {
				nz++
			}
		}
		return nz <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
