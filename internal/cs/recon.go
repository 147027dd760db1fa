package cs

import (
	"efficsense/internal/dsp"
)

// Reconstructor recovers frames of N_Φ input samples from M charge-sharing
// measurements. It solves y ≈ A·Ψ·θ with OMP, where A is the *nominal*
// effective matrix of the encoder (the designer knows the intended
// capacitor ratio, not the silicon's mismatch realisation) and Ψ the
// orthonormal DCT dictionary in which EEG frames are approximately sparse.
type Reconstructor struct {
	n, m int
	dct  *dsp.DCT
	// solver holds the only copy of the dictionary D = A·Ψ (with its Gram
	// matrix and column norms).
	solver   *BatchOMP
	maxAtoms int
	tol      float64
}

// NewReconstructor precomputes the D = A·Ψ dictionary for the encoder.
// maxAtoms = 0 picks the default budget M/3 (sub-Nyquist recovery needs
// the support well below M); tol <= 0 selects 1e-6 relative residual.
func NewReconstructor(enc *Encoder, maxAtoms int, tol float64) *Reconstructor {
	n, m := enc.FrameLen(), enc.Measurements()
	if maxAtoms <= 0 {
		maxAtoms = m / 3
		if maxAtoms < 4 {
			maxAtoms = 4
		}
	}
	if tol <= 0 {
		tol = 1e-6
	}
	return newReconstructorFromMatrix(enc.EffectiveMatrix(true), n, maxAtoms, tol)
}

// newReconstructorFromMatrix builds the D = A·Ψ dictionary for any
// effective measurement matrix A (M×nPhi) and hands it to the Batch-OMP
// solver, which keeps its own flat copy; the columns built here are
// garbage once the solver exists.
func newReconstructorFromMatrix(a [][]float64, nPhi, maxAtoms int, tol float64) *Reconstructor {
	m := len(a)
	if m == 0 || len(a[0]) != nPhi {
		panic("cs: effective matrix shape mismatch")
	}
	if maxAtoms <= 0 {
		maxAtoms = m / 3
		if maxAtoms < 4 {
			maxAtoms = 4
		}
	}
	if tol <= 0 {
		tol = 1e-6
	}
	d := dsp.NewDCT(nPhi)
	dict := make([][]float64, nPhi)
	for k := 0; k < nPhi; k++ {
		psi := d.Column(k)
		col := make([]float64, m)
		for i := 0; i < m; i++ {
			col[i] = dsp.Dot(a[i], psi)
		}
		dict[k] = col
	}
	return &Reconstructor{
		n: nPhi, m: m, dct: d,
		solver: NewBatchOMP(dict), maxAtoms: maxAtoms, tol: tol,
	}
}

// FrameLen returns N_Φ.
func (r *Reconstructor) FrameLen() int { return r.n }

// Measurements returns M.
func (r *Reconstructor) Measurements() int { return r.m }

// ReconstructFrame recovers one frame from its M measurements.
func (r *Reconstructor) ReconstructFrame(y []float64) []float64 {
	if len(y) != r.m {
		panic("cs: measurement vector length mismatch")
	}
	theta := r.solver.Solve(y, r.maxAtoms, r.tol)
	return r.dct.Inverse(theta)
}

// Reconstruct recovers a concatenated measurement stream (frames·M values)
// into the corresponding frames·N_Φ sample stream.
func (r *Reconstructor) Reconstruct(y []float64) []float64 {
	frames := len(y) / r.m
	out := make([]float64, 0, frames*r.n)
	for f := 0; f < frames; f++ {
		out = append(out, r.ReconstructFrame(y[f*r.m:(f+1)*r.m])...)
	}
	return out
}

// ReconScratch holds the per-goroutine working set of the allocation-free
// reconstruction path: the coefficient vector plus the Batch-OMP and
// block-OMP solver scratch. The zero value is ready to use; it grows to
// the largest geometry seen.
type ReconScratch struct {
	theta []float64
	omp   Scratch
	bomp  bompScratch
}

// ReconstructInto is Reconstruct against caller-owned storage. dst is
// grown (reallocating only when capacity is exceeded) to frames·N_Φ and
// fully overwritten; the returned slice aliases it. Every frame is solved
// through the same Batch-OMP arithmetic as ReconstructFrame, so results
// are bit-identical to Reconstruct. A single Reconstructor may serve many
// goroutines concurrently as long as each brings its own ReconScratch.
func (r *Reconstructor) ReconstructInto(dst, y []float64, sc *ReconScratch) []float64 {
	frames := len(y) / r.m
	need := frames * r.n
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dst = dst[:need]
	if cap(sc.theta) < r.n {
		sc.theta = make([]float64, r.n)
	}
	theta := sc.theta[:r.n]
	for f := 0; f < frames; f++ {
		r.solver.SolveInto(theta, y[f*r.m:(f+1)*r.m], r.maxAtoms, r.tol, &sc.omp)
		r.dct.InverseInto(dst[f*r.n:(f+1)*r.n], theta)
	}
	return dst
}
