package cs

import (
	"fmt"
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

// BenchmarkBatchOMPSolve times one OMP frame at the EEG scenario's
// largest geometry (M 192, N_Φ 384, 48 atoms) on the session path's
// reused Scratch; it must report 0 allocs/op.
func BenchmarkBatchOMPSolve(b *testing.B) {
	const m, n = 192, 384
	enc := idealEncoder(m, n, 2, 7)
	r := NewMatrixReconstructor(enc.EffectiveMatrix(true), n, m/4, 1e-4)
	y := bompFrames(enc, 7, 1)[0]
	theta := make([]float64, n)
	var sc Scratch
	r.solver.SolveInto(theta, y, m/4, 1e-4, &sc) // grow the Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.solver.SolveInto(theta, y, m/4, 1e-4, &sc)
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
	var sc bompScratch
	done := func(int, []float64) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.bompRecord(y, &sc, done)
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

// ompExit names the check that stopped an OMP pursuit.
type ompExit int

const (
	exitNone      ompExit = iota // no pursuit: empty dictionary, y or atom budget
	exitZero                     // ||y||² = 0
	exitSelect                   // no atom correlates (best < 0 or bestVal < 1e-15)
	exitDependent                // the chosen atom's new diagonal <= 1e-300
	exitTol                      // residual energy <= Tol·||y||²
	exitReturns                  // the last atom removed < 0.5 % of the residual energy
	exitCap                      // the support reached min(maxAtoms, M)
)

// referenceSolve is BatchOMP's pursuit before it ran on the dsp kernels:
// the correlation rebuilt from p one support atom at a time, a scalar
// scan that skips support atoms and zero-norm columns, the Cholesky
// factor grown one row at a time by the row-by-row forward substitution,
// and the scalar back-substitution and energy sums. It is the oracle the
// solver must match bit for bit.
func referenceSolve(b *BatchOMP, y []float64, maxAtoms int, tol float64) []float64 {
	theta, _ := referenceSolveExit(b, y, maxAtoms, tol)
	return theta
}

// referenceSolveExit is referenceSolve that also reports which check
// stopped the pursuit.
func referenceSolveExit(b *BatchOMP, y []float64, maxAtoms int, tol float64) ([]float64, ompExit) {
	k := b.k
	theta := make([]float64, k)
	if k == 0 || len(y) == 0 || maxAtoms <= 0 {
		return theta, exitNone
	}
	var yEnergy float64
	for _, v := range y {
		yEnergy += v * v
	}
	if yEnergy == 0 {
		return theta, exitZero
	}
	p := make([]float64, k)
	for j := range p {
		col := b.flat[j*b.m : (j+1)*b.m]
		for i, v := range y {
			p[j] += col[i] * v
		}
	}
	inSupport := make([]bool, k)
	var support []int
	var coef, pS []float64
	corr := make([]float64, k)
	selectAtom := func() (int, float64) {
		copy(corr, p)
		for i, si := range support {
			g := b.gram[si*k : (si+1)*k]
			for j := range corr {
				corr[j] -= coef[i] * g[j]
			}
		}
		best, bestVal := -1, 0.0
		for j, v := range corr {
			if inSupport[j] || b.norms[j] == 0 {
				continue
			}
			if a := math.Abs(v) / b.norms[j]; a > bestVal {
				best, bestVal = j, a
			}
		}
		return best, bestVal
	}
	lf := make([]float64, maxAtoms*maxAtoms) // row i at i*maxAtoms
	z := make([]float64, maxAtoms)
	limit := min(maxAtoms, b.m)
	prevEnergy := yEnergy
	exit := exitCap
	best, bestVal := selectAtom()
	for len(support) < limit {
		if best < 0 || bestVal < 1e-15 {
			exit = exitSelect
			break
		}
		s := len(support)
		w := make([]float64, s)
		for i, si := range support {
			w[i] = b.gram[best*k+si]
		}
		for i := 0; i < s; i++ {
			sum := w[i]
			for t := 0; t < i; t++ {
				sum -= lf[i*maxAtoms+t] * w[t]
			}
			w[i] = sum / lf[i*maxAtoms+i]
		}
		var zz float64
		for _, v := range w {
			zz += v * v
		}
		diag := b.gram[best*k+best] - zz
		if diag <= 1e-300 {
			exit = exitDependent
			break
		}
		copy(lf[s*maxAtoms:], w)
		d := math.Sqrt(diag)
		lf[s*maxAtoms+s] = d
		support = append(support, best)
		inSupport[best] = true
		pS = append(pS, p[best])
		sum := pS[s]
		for t := 0; t < s; t++ {
			sum -= lf[s*maxAtoms+t] * z[t]
		}
		z[s] = sum / d
		n := len(support)
		coef = make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			sum := z[i]
			for t := i + 1; t < n; t++ {
				sum -= lf[t*maxAtoms+i] * coef[t]
			}
			coef[i] = sum / lf[i*maxAtoms+i]
		}
		rEnergy := yEnergy
		for i, c := range coef {
			rEnergy -= c * pS[i]
		}
		if rEnergy < 0 {
			rEnergy = 0
		}
		if rEnergy <= tol*yEnergy {
			exit = exitTol
			break
		}
		if prevEnergy > 0 && (prevEnergy-rEnergy) < 0.005*prevEnergy {
			exit = exitReturns
			break
		}
		prevEnergy = rEnergy
		if len(support) >= limit {
			break
		}
		best, bestVal = selectAtom()
	}
	for i, j := range support {
		theta[j] = coef[i]
	}
	return theta, exit
}

// TestBatchOMPMatchesReference pins the OMP solver to referenceSolve bit
// for bit at the EEG geometries (N_Φ 384, M 75/150/192, MaxAtoms M/4,
// Tol 1e-4) over white-noise, sparse and all-zero frames: the SolveInto
// coefficients on a reused Scratch, and the frames ReconstructInto and
// Reconstruct produce from them.
func TestBatchOMPMatchesReference(t *testing.T) {
	for ci, m := range []int{75, 150, 192} {
		t.Run(fmt.Sprintf("m%d", m), func(t *testing.T) {
			const n, noise, tol = 384, 6, 1e-4
			maxAtoms := m / 4
			atoms := []int{3, 17, 60, 200}
			enc := idealEncoder(m, n, 2, int64(80+ci))
			r := NewMatrixReconstructor(enc.EffectiveMatrix(true), n, maxAtoms, tol)
			var sc ReconScratch
			theta := make([]float64, n)
			var stream, want []float64
			capped := 0
			for fi, y := range bompFrames(enc, int64(90+ci), noise, atoms...) {
				ref := referenceSolve(r.solver, y, maxAtoms, tol)
				got := r.solver.SolveInto(theta, y, maxAtoms, tol, &sc.omp)
				if i := bitDiff(got, ref); i >= 0 {
					t.Fatalf("frame %d: coefficient %d = %v, reference %v", fi, i, got[i], ref[i])
				}
				nz := 0
				for _, v := range ref {
					if v != 0 {
						nz++
					}
				}
				if nz == maxAtoms {
					capped++
				}
				if fi == noise && ref[atoms[0]] == 0 {
					t.Fatalf("sparse frame: atom %d was never selected", atoms[0])
				}
				stream = append(stream, y...)
				want = append(want, r.dct.Inverse(ref)...)
			}
			if capped == 0 {
				t.Fatal("no frame ran to the atom cap")
			}
			if i := bitDiff(r.ReconstructInto(nil, stream, &sc), want); i >= 0 {
				t.Fatalf("ReconstructInto differs from the reference at sample %d", i)
			}
			if i := bitDiff(r.Reconstruct(stream), want); i >= 0 {
				t.Fatalf("Reconstruct differs from the reference at sample %d", i)
			}
		})
	}
}

// TestBatchOMPSolveIntoAllocs pins the steady state of the OMP session
// path: once the Scratch has grown, a solve allocates nothing.
func TestBatchOMPSolveIntoAllocs(t *testing.T) {
	const m, n = 192, 384
	enc := idealEncoder(m, n, 2, 7)
	r := NewMatrixReconstructor(enc.EffectiveMatrix(true), n, m/4, 1e-4)
	y := bompFrames(enc, 7, 1)[0]
	theta := make([]float64, n)
	var sc Scratch
	r.solver.SolveInto(theta, y, m/4, 1e-4, &sc)
	if allocs := testing.AllocsPerRun(20, func() {
		r.solver.SolveInto(theta, y, m/4, 1e-4, &sc)
	}); allocs != 0 {
		t.Fatalf("SolveInto: %v allocs per run, want 0", allocs)
	}
}
