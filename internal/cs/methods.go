package cs

import (
	"fmt"
	"math"

	"efficsense/internal/dsp"
)

// Method selects the reconstruction algorithm. The paper notes that the
// many degrees of freedom of compressive sensing (matrix, architecture,
// *reconstruction*) are exactly what a pathfinding framework must let the
// designer sweep; three standard recoveries are provided.
type Method int

const (
	// MethodOMP is orthogonal matching pursuit in the DCT dictionary (the
	// default, via the Batch-OMP solver).
	MethodOMP Method = iota
	// MethodIHT is iterative hard thresholding in the DCT dictionary —
	// cheaper per iteration, fixed sparsity budget.
	MethodIHT
	// MethodRidge is Tikhonov-regularised least squares directly in the
	// sample domain (no sparsity model) — the classical minimum-energy
	// recovery, a useful non-sparse baseline.
	MethodRidge
	// MethodBOMP is block orthogonal matching pursuit: support grows in
	// contiguous blocks of DCT atoms instead of singletons, exploiting
	// the block-sparse structure of physiological signals whose spectral
	// energy clusters (the BSBL insight of Liu et al., arXiv:1309.7843,
	// applied to a greedy solver). Right for telemonitoring waveforms —
	// ECG in particular — that are not strictly sparse atom by atom.
	MethodBOMP
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodOMP:
		return "omp"
	case MethodIHT:
		return "iht"
	case MethodRidge:
		return "ridge"
	case MethodBOMP:
		return "bomp"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ReconOptions parameterises a reconstructor.
type ReconOptions struct {
	// Method selects the algorithm (default OMP).
	Method Method
	// MaxAtoms bounds the sparse support (OMP/IHT). 0 → M/3.
	MaxAtoms int
	// Tol is the relative residual-energy stop (OMP). <= 0 → 1e-6.
	Tol float64
	// IHTIters is the iteration count for IHT (0 → 40).
	IHTIters int
	// RidgeLambda is the Tikhonov weight relative to the mean diagonal of
	// A·Aᵀ (0 → 0.05).
	RidgeLambda float64
	// BlockLen is the contiguous-atom block size for BOMP (0 → 4).
	BlockLen int
}

// MethodReconstructor recovers frames of N_Φ input samples from M
// measurements with a selectable algorithm. The sparse methods solve
// y ≈ A·Ψ·θ, where A is the *nominal* effective matrix of the encoder (the
// designer knows the intended capacitor ratio, not the silicon's mismatch
// realisation) and Ψ the orthonormal DCT dictionary in which EEG frames
// are approximately sparse.
type MethodReconstructor struct {
	opts ReconOptions
	n, m int
	dct  *dsp.DCT
	// Sparse-domain dictionary (OMP/IHT/BOMP): column views into the
	// Batch-OMP state's flat copy, which also holds the Gram matrix and
	// column norms.
	dict   [][]float64
	solver *BatchOMP
	// zeroRow (length M) pads short BOMP residual-update groups.
	zeroRow []float64
	// IHT step size 1/L with L ≈ the dictionary's largest squared
	// singular value.
	ihtStep float64
	// Ridge: a (M×nPhi) and the Cholesky factor of A·Aᵀ + λI; nil for the
	// other methods, which need only the dictionary.
	a     [][]float64
	ridge []float64
}

// NewReconstructor builds the default OMP reconstructor for an encoder,
// over its nominal effective matrix. maxAtoms = 0 picks the default
// budget M/3 (sub-Nyquist recovery needs the support well below M);
// tol <= 0 selects 1e-6 relative residual.
func NewReconstructor(enc *Encoder, maxAtoms int, tol float64) *MethodReconstructor {
	return NewMatrixReconstructor(enc.EffectiveMatrix(true), enc.FrameLen(), maxAtoms, tol)
}

// NewMatrixReconstructor builds the OMP reconstructor for an arbitrary
// effective matrix A (M×nPhi), with NewReconstructor's defaults.
func NewMatrixReconstructor(a [][]float64, nPhi, maxAtoms int, tol float64) *MethodReconstructor {
	return NewMethodReconstructor(a, nPhi, ReconOptions{Method: MethodOMP, MaxAtoms: maxAtoms, Tol: tol})
}

// NewMethodReconstructor precomputes whatever the chosen method needs for
// the given effective measurement matrix.
func NewMethodReconstructor(a [][]float64, nPhi int, opts ReconOptions) *MethodReconstructor {
	m := len(a)
	if m == 0 || len(a[0]) != nPhi {
		panic("cs: effective matrix shape mismatch")
	}
	if opts.MaxAtoms <= 0 {
		opts.MaxAtoms = m / 3
		if opts.MaxAtoms < 4 {
			opts.MaxAtoms = 4
		}
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	if opts.IHTIters <= 0 {
		opts.IHTIters = 40
	}
	if opts.RidgeLambda <= 0 {
		opts.RidgeLambda = 0.05
	}
	if opts.BlockLen <= 0 {
		opts.BlockLen = 4
	}
	r := &MethodReconstructor{opts: opts, n: nPhi, m: m, dct: dsp.NewDCT(nPhi)}
	switch opts.Method {
	case MethodOMP, MethodIHT, MethodBOMP:
		dict := make([][]float64, nPhi)
		for k := 0; k < nPhi; k++ {
			psi := r.dct.Column(k)
			col := make([]float64, m)
			for i := 0; i < m; i++ {
				col[i] = dsp.Dot(a[i], psi)
			}
			dict[k] = col
		}
		r.useDict(dict)
		if opts.Method == MethodIHT {
			r.ihtStep = 1 / spectralNormSq(r.solver)
		}
	case MethodRidge:
		// G = A·Aᵀ + λ·mean(diag)·I, factored once.
		g := make([]float64, m*m)
		var trace float64
		for i := 0; i < m; i++ {
			for j := i; j < m; j++ {
				dot := dsp.Dot(a[i], a[j])
				g[i*m+j] = dot
				g[j*m+i] = dot
			}
			trace += g[i*m+i]
		}
		lambda := opts.RidgeLambda * trace / float64(m)
		if lambda <= 0 {
			lambda = 1e-12
		}
		for i := 0; i < m; i++ {
			g[i*m+i] += lambda
		}
		l, ok := cholesky(g, m)
		if !ok {
			panic("cs: ridge system not positive definite")
		}
		r.a, r.ridge = a, l
	default:
		panic(fmt.Sprintf("cs: unknown reconstruction method %d", opts.Method))
	}
	return r
}

// useDict builds the Batch-OMP state (flat dictionary, Gram matrix,
// norms) over the sparse-domain dictionary cols and re-points cols at
// column views of its flat copy, so the dictionary is stored once.
func (r *MethodReconstructor) useDict(cols [][]float64) {
	r.solver = NewBatchOMP(cols)
	for j := range cols {
		cols[j] = r.solver.column(j)
	}
	r.dict = cols
	r.zeroRow = make([]float64, r.m)
}

// spectralNormSq estimates the largest eigenvalue of DᵀD via power
// iteration on the precomputed Gram matrix.
func spectralNormSq(b *BatchOMP) float64 {
	k := b.k
	if k == 0 {
		return 1
	}
	v := make([]float64, k)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(k))
	}
	w := make([]float64, k)
	var lambda float64
	for iter := 0; iter < 30; iter++ {
		for i := 0; i < k; i++ {
			w[i] = dsp.Dot(b.gram[i*k:(i+1)*k], v)
		}
		norm := math.Sqrt(dsp.Energy(w))
		if norm == 0 {
			return 1
		}
		lambda = norm
		for i := range v {
			v[i] = w[i] / norm
		}
	}
	if lambda <= 0 {
		return 1
	}
	return lambda
}

// FrameLen returns N_Φ.
func (r *MethodReconstructor) FrameLen() int { return r.n }

// Measurements returns M.
func (r *MethodReconstructor) Measurements() int { return r.m }

// ReconstructFrame recovers one frame from its M measurements.
func (r *MethodReconstructor) ReconstructFrame(y []float64) []float64 {
	if len(y) != r.m {
		panic("cs: measurement vector length mismatch")
	}
	switch r.opts.Method {
	case MethodOMP:
		return r.dct.Inverse(r.solver.Solve(y, r.opts.MaxAtoms, r.opts.Tol))
	case MethodIHT:
		return r.dct.Inverse(r.iht(y))
	case MethodBOMP:
		return r.dct.Inverse(r.bomp(make([]float64, r.n), y, new(bompScratch)))
	default:
		return r.ridgeSolve(y)
	}
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

// ReconstructInto is Reconstruct against caller-owned storage: dst is
// grown (reallocating only when capacity is exceeded) to frames·N_Φ and
// fully overwritten, the returned slice aliases it, and results are
// bit-identical to Reconstruct. OMP and BOMP solve against sc and
// allocate nothing in the steady state; IHT and ridge run their
// per-frame code and copy. A single MethodReconstructor may serve many
// goroutines concurrently as long as each brings its own ReconScratch.
func (r *MethodReconstructor) ReconstructInto(dst, y []float64, sc *ReconScratch) []float64 {
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
		yf, out := y[f*r.m:(f+1)*r.m], dst[f*r.n:(f+1)*r.n]
		switch r.opts.Method {
		case MethodOMP:
			r.dct.InverseInto(out, r.solver.SolveInto(theta, yf, r.opts.MaxAtoms, r.opts.Tol, &sc.omp))
		case MethodBOMP:
			r.dct.InverseInto(out, r.bomp(theta, yf, &sc.bomp))
		default:
			copy(out, r.ReconstructFrame(yf))
		}
	}
	return dst
}

// bompScratch is the reusable working set of one block-OMP solving
// goroutine. It grows to the largest geometry it has seen and is then
// allocation-free. The zero value is ready to use. Not safe for
// concurrent use.
type bompScratch struct {
	pY, corr []float64 // Dᵀy and Dᵀr, length K
	resid    []float64 // r = y - D_S·coef, length M
	selected []bool    // per block
	support  []int
	lf       []float64 // Cholesky factor of the support system, row i at i·stride
	z, coef  []float64
}

func (s *bompScratch) grow(k, m, nBlocks, stride int) {
	s.pY, s.corr = grown(s.pY, k), grown(s.corr, k)
	s.resid = grown(s.resid, m)
	s.selected = grown(s.selected, nBlocks)
	s.support = grown(s.support, stride)
	s.lf = grown(s.lf, stride*stride)
	s.z, s.coef = grown(s.z, stride), grown(s.coef, stride)
}

// grown returns v resized to n, reallocating only when capacity is
// exceeded; callers must not rely on its content.
func grown[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// bomp runs block orthogonal matching pursuit: the DCT dictionary is cut
// into contiguous blocks of BlockLen atoms, each greedy step admits the
// block with the largest aggregate residual correlation, and the
// coefficients on the grown support are re-fit by least squares before
// the residual is updated — OMP's orthogonalisation at block granularity.
//
// It runs on the Batch-OMP state: one projections pass per frame (Dᵀy)
// and one per step (Dᵀr), support Gram entries read from the
// precomputed Gram matrix, the Cholesky factor of (D_SᵀD_S + 1e-12·I)
// extended by the new block's rows only, and the residual rebuilt with
// dsp.SubRows4. Every quantity sums its terms in the same order as a
// from-scratch refit (dot products from +0 in ascending sample order,
// factor rows exactly as cholesky computes them, coefficients applied in
// support order), so the result is bit-identical to one. theta (length
// K) is fully overwritten and returned; sc holds everything else.
func (r *MethodReconstructor) bomp(theta, y []float64, sc *bompScratch) []float64 {
	clear(theta)
	energy0 := dsp.Energy(y)
	if energy0 == 0 {
		return theta
	}
	b := r.solver
	k, maxAtoms, blockLen := r.n, r.opts.MaxAtoms, r.opts.BlockLen
	nBlocks := (k + blockLen - 1) / blockLen
	// A block is admitted while the support is below maxAtoms, so the
	// support can overshoot it by up to blockLen-1 atoms.
	stride := min(maxAtoms+blockLen-1, k)
	sc.grow(k, r.m, nBlocks, stride)
	pY, resid, selected := sc.pY, sc.resid, sc.selected
	lf, z, coef := sc.lf, sc.z, sc.coef
	clear(selected)
	support := sc.support[:0]
	b.projections(pY, y)
	corr := pY // the first step's residual is y itself
	n := 0     // committed support: coef[:n] is the current fit
steps:
	for len(support) < maxAtoms {
		if n > 0 {
			b.projections(sc.corr, resid)
			corr = sc.corr
		}
		best, bestScore := -1, 0.0
		for blk := 0; blk < nBlocks; blk++ {
			if selected[blk] {
				continue
			}
			var s float64
			for _, d := range corr[blk*blockLen : min((blk+1)*blockLen, k)] {
				s += d * d
			}
			if s > bestScore {
				best, bestScore = blk, s
			}
		}
		if best < 0 || bestScore <= 0 {
			break
		}
		selected[best] = true
		for j := best * blockLen; j < min((best+1)*blockLen, k); j++ {
			support = append(support, j)
		}
		// Extend the factor by the new rows. Row i of cholesky depends
		// only on rows ≤ i of the system, so the committed rows are
		// bitwise what a refactorisation would produce.
		p := len(support)
		for i := n; i < p; i++ {
			gi := b.gram[support[i]*k : (support[i]+1)*k]
			li := lf[i*stride : i*stride+i+1]
			for j := 0; j <= i; j++ {
				sum := gi[support[j]]
				if j == i {
					sum += 1e-12
				}
				for t, v := range lf[j*stride : j*stride+j] {
					sum -= li[t] * v
				}
				if j < i {
					li[j] = sum / lf[j*stride+j]
				} else if sum <= 1e-300 {
					break steps // numerically dependent block: stop
				} else {
					li[i] = math.Sqrt(sum)
				}
			}
		}
		// Forward solve L·z = D_Sᵀy for the new rows only (earlier rows
		// are unchanged), then back-substitute Lᵀ·coef = z in full.
		for i := n; i < p; i++ {
			sum := pY[support[i]]
			for t, v := range lf[i*stride : i*stride+i] {
				sum -= v * z[t]
			}
			z[i] = sum / lf[i*stride+i]
		}
		for i := p - 1; i >= 0; i-- {
			sum := z[i]
			for t := i + 1; t < p; t++ {
				sum -= lf[t*stride+i] * coef[t]
			}
			coef[i] = sum / lf[i*stride+i]
		}
		n = p
		// resid = y - D_S·coef over the nonzero coefficients, four atoms
		// per pass in support order: each element sees the subtractions
		// one by one. A short last group is padded with +0 coefficients
		// against a zero row, and x - (+0) is exact for every float64 x.
		copy(resid, y)
		var cols [4][]float64
		var cf [4]float64
		cnt := 0
		for i, j := range support {
			if coef[i] == 0 {
				continue
			}
			cols[cnt], cf[cnt] = b.column(j), coef[i]
			cnt++
			if cnt == 4 {
				dsp.SubRows4(resid, resid, cols[0], cols[1], cols[2], cols[3], cf[0], cf[1], cf[2], cf[3])
				cnt = 0
			}
		}
		if cnt > 0 {
			for ; cnt < 4; cnt++ {
				cols[cnt], cf[cnt] = r.zeroRow, 0
			}
			dsp.SubRows4(resid, resid, cols[0], cols[1], cols[2], cols[3], cf[0], cf[1], cf[2], cf[3])
		}
		if dsp.Energy(resid) <= r.opts.Tol*energy0 {
			break
		}
	}
	for i, j := range support[:n] {
		theta[j] = coef[i]
	}
	return theta
}

// Reconstruct recovers a concatenated measurement stream.
func (r *MethodReconstructor) Reconstruct(y []float64) []float64 {
	frames := len(y) / r.m
	out := make([]float64, 0, frames*r.n)
	for f := 0; f < frames; f++ {
		out = append(out, r.ReconstructFrame(y[f*r.m:(f+1)*r.m])...)
	}
	return out
}

// iht runs iterative hard thresholding: θ ← H_K(θ + µ·Dᵀ(y − D·θ)).
func (r *MethodReconstructor) iht(y []float64) []float64 {
	theta := make([]float64, r.n)
	resid := make([]float64, r.m)
	grad := make([]float64, r.n)
	for iter := 0; iter < r.opts.IHTIters; iter++ {
		// resid = y - D·theta.
		copy(resid, y)
		for k, c := range theta {
			if c == 0 {
				continue
			}
			col := r.dict[k]
			for i := range resid {
				resid[i] -= c * col[i]
			}
		}
		// grad = Dᵀ·resid.
		for k := range grad {
			grad[k] = dsp.Dot(r.dict[k], resid)
		}
		for k := range theta {
			theta[k] += r.ihtStep * grad[k]
		}
		keepTopKAbs(theta, r.opts.MaxAtoms)
	}
	return theta
}

// keepTopKAbs zeroes all but the k largest-magnitude entries, in place.
func keepTopKAbs(v []float64, k int) {
	if k >= len(v) {
		return
	}
	// Selection by threshold: find the k-th largest magnitude with a
	// simple partial pass (n is a few hundred; O(n·k) is fine and
	// allocation-free in the hot loop is not required here).
	mags := make([]float64, len(v))
	for i, x := range v {
		mags[i] = math.Abs(x)
	}
	thr := dsp.KthLargest(mags, k)
	kept := 0
	for i, x := range v {
		if math.Abs(x) >= thr && kept < k {
			kept++
			continue
		}
		v[i] = 0
	}
}

// ridgeSolve computes x̂ = Aᵀ·(A·Aᵀ + λI)⁻¹·y.
func (r *MethodReconstructor) ridgeSolve(y []float64) []float64 {
	w := choleskySolve(r.ridge, y, r.m)
	out := make([]float64, r.n)
	for i, wi := range w {
		if wi == 0 {
			continue
		}
		row := r.a[i]
		for j := range out {
			out[j] += wi * row[j]
		}
	}
	return out
}
