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
		out := make([]float64, r.n)
		r.bompRecord(y, new(bompScratch), func(_ int, theta []float64) { r.dct.InverseInto(out, theta) })
		return out
	default:
		return r.ridgeSolve(y)
	}
}

// ReconScratch holds the per-goroutine working set of the allocation-free
// reconstruction path: the coefficient vector, the projections of the
// OMP frames in flight and the Batch-OMP solver scratch, and the
// block-OMP lanes. The zero value is ready to use; it grows to the
// largest geometry seen.
type ReconScratch struct {
	theta []float64
	p     [projectLanes][]float64
	omp   Scratch
	bomp  bompScratch
}

// projectLanes is the number of frames whose Dᵀy or Dᵀr one dsp.Project
// pass computes: every vector shares each load of the dictionary.
const projectLanes = 4

// ReconstructInto is Reconstruct against caller-owned storage: dst is
// grown (reallocating only when capacity is exceeded) to frames·N_Φ and
// fully overwritten, the returned slice aliases it, and results are
// bit-identical to Reconstruct. OMP and BOMP solve against sc and
// allocate nothing in the steady state; both project four frames per
// pass over the dictionary (OMP its frames' Dᵀy, BOMP its lanes' Dᵀy or
// Dᵀr). IHT and ridge run their per-frame code and copy. A single
// MethodReconstructor may serve many goroutines concurrently as long as
// each brings its own ReconScratch.
func (r *MethodReconstructor) ReconstructInto(dst, y []float64, sc *ReconScratch) []float64 {
	frames := len(y) / r.m
	need := frames * r.n
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dst = dst[:need]
	switch r.opts.Method {
	case MethodOMP:
		sc.theta = grown(sc.theta, r.n)
		var ys [projectLanes][]float64
		for f0 := 0; f0 < frames; f0 += projectLanes {
			g := min(projectLanes, frames-f0)
			for i := range g {
				ys[i] = y[(f0+i)*r.m : (f0+i+1)*r.m]
				sc.p[i] = grown(sc.p[i], r.n)
			}
			r.solver.pan.Project(sc.p[:g], ys[:g])
			for i := range g {
				theta := r.solver.solveInto(sc.theta, ys[i], sc.p[i], r.opts.MaxAtoms, r.opts.Tol, &sc.omp)
				r.dct.InverseInto(dst[(f0+i)*r.n:(f0+i+1)*r.n], theta)
			}
		}
	case MethodBOMP:
		r.bompRecord(y[:frames*r.m], &sc.bomp, func(f int, theta []float64) {
			r.dct.InverseInto(dst[f*r.n:(f+1)*r.n], theta)
		})
	default:
		for f := 0; f < frames; f++ {
			copy(dst[f*r.n:(f+1)*r.n], r.ReconstructFrame(y[f*r.m:(f+1)*r.m]))
		}
	}
	return dst
}

// bompScratch is the reusable working set of one block-OMP solving
// goroutine: the lanes of bompRecord. It grows to the largest
// geometry it has seen and is then allocation-free. The zero value is
// ready to use. Not safe for concurrent use.
type bompScratch struct {
	lanes [projectLanes]bompLane
}

// bompLane is one frame in flight in bompRecord's lanes: the
// frame and the working set of its pursuit.
type bompLane struct {
	frame    int       // index of the frame in the record
	y        []float64 // its M measurements
	energy0  float64   // ||y||²
	pY, corr []float64 // Dᵀy and Dᵀr, length K
	resid    []float64 // r = y - D_S·coef, length M
	selected []bool    // per block
	support  []int
	n        int       // committed support: coef[:n] is the current fit
	lf       []float64 // Cholesky factor of the support system, row i at i·stride
	z, coef  []float64
	theta    []float64 // the finished frame's coefficients, length K
}

func (l *bompLane) grow(k, m, nBlocks, stride int) {
	l.pY, l.corr, l.theta = grown(l.pY, k), grown(l.corr, k), grown(l.theta, k)
	l.resid = grown(l.resid, m)
	l.selected = grown(l.selected, nBlocks)
	l.support = grown(l.support, stride)
	l.lf = grown(l.lf, stride*stride)
	l.z, l.coef = grown(l.z, stride), grown(l.coef, stride)
}

// grown returns v resized to n, reallocating only when capacity is
// exceeded; callers must not rely on its content.
func grown[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, n)
	}
	return v[:n]
}

// bompRecord runs block orthogonal matching pursuit over every frame of
// the record y (a whole number of M-measurement frames) and calls
// done(f, theta) as frame f finishes, frames finishing in any order;
// theta (length K) is valid only during the call. The DCT dictionary is
// cut into contiguous blocks of BlockLen atoms, each greedy step admits
// the block with the largest aggregate residual correlation, and the
// coefficients on the grown support are re-fit by least squares before
// the residual is updated — OMP's orthogonalisation at block
// granularity.
//
// Frames are independent, so up to four run in lock-step lanes: each
// tick is one dsp.Project pass over the live lanes, a lane contributing
// its y on its first step (Dᵀy) and its residual after that (Dᵀr), and
// then every live lane takes one step (bompStep). A lane whose frame
// finishes takes the record's next frame. Project computes each vector's
// projections exactly as a pass of its own would, so a frame's result
// does not depend on which frames share its ticks.
func (r *MethodReconstructor) bompRecord(y []float64, sc *bompScratch, done func(f int, theta []float64)) {
	frames := len(y) / r.m
	k, blockLen := r.n, r.opts.BlockLen
	nBlocks := (k + blockLen - 1) / blockLen
	// A block is admitted while the support is below maxAtoms, so the
	// support can overshoot it by up to blockLen-1 atoms.
	stride := min(r.opts.MaxAtoms+blockLen-1, k)
	var live [projectLanes]*bompLane
	nLive, next := 0, 0
	for i := range min(projectLanes, frames) {
		l := &sc.lanes[i]
		l.grow(k, r.m, nBlocks, stride)
		var ok bool
		if next, ok = r.bompAdmit(l, y, next, done); ok {
			live[nLive] = l
			nLive++
		}
	}
	var ys, ds [projectLanes][]float64
	for nLive > 0 {
		for i, l := range live[:nLive] {
			if l.n == 0 {
				ys[i], ds[i] = l.y, l.pY
			} else {
				ys[i], ds[i] = l.resid, l.corr
			}
		}
		r.solver.pan.Project(ds[:nLive], ys[:nLive])
		for i := 0; i < nLive; {
			l := live[i]
			if r.bompStep(l, stride) {
				i++
				continue
			}
			r.bompFinish(l, done)
			var ok bool
			if next, ok = r.bompAdmit(l, y, next, done); ok {
				i++
				continue
			}
			// Retire the lane: the last live lane, not yet stepped this
			// tick, takes its place.
			nLive--
			live[i] = live[nLive]
		}
	}
}

// bompAdmit loads lane l with the record's next frame that needs a
// pursuit, starting at frame next and finishing all-zero frames on the
// way. It returns the frame after the admitted one and true, or the
// frame count and false when no frame was left to admit.
func (r *MethodReconstructor) bompAdmit(l *bompLane, y []float64, next int, done func(f int, theta []float64)) (int, bool) {
	for ; next < len(y)/r.m; next++ {
		l.frame, l.y = next, y[next*r.m:(next+1)*r.m]
		l.support, l.n = l.support[:0], 0
		clear(l.selected)
		if l.energy0 = dsp.Energy(l.y); l.energy0 == 0 || r.opts.MaxAtoms <= 0 {
			r.bompFinish(l, done)
			continue
		}
		return next + 1, true
	}
	return next, false
}

// bompFinish hands lane l's frame to done: the committed coefficients on
// their atoms, zero elsewhere.
func (r *MethodReconstructor) bompFinish(l *bompLane, done func(f int, theta []float64)) {
	clear(l.theta)
	for i, j := range l.support[:l.n] {
		l.theta[j] = l.coef[i]
	}
	done(l.frame, l.theta)
}

// bompStep takes one block-OMP step of lane l, whose correlations this
// tick's projection pass has just computed, and reports whether the
// pursuit goes on. The support Gram entries come from the precomputed
// Gram matrix, the Cholesky factor of (D_SᵀD_S + 1e-12·I) is extended by
// the new block's rows only, and the residual is rebuilt with
// dsp.SubRows4. Every quantity sums its terms in the same order as a
// from-scratch refit (dot products from +0 in ascending sample order,
// factor rows exactly as cholesky computes them, coefficients applied in
// support order), so the result is bit-identical to one.
func (r *MethodReconstructor) bompStep(l *bompLane, stride int) bool {
	b := r.solver
	k, blockLen := r.n, r.opts.BlockLen
	nBlocks := len(l.selected)
	corr := l.corr
	if l.n == 0 {
		corr = l.pY // the first step's residual is y itself
	}
	best, bestScore := -1, 0.0
	for blk := 0; blk < nBlocks; blk++ {
		if l.selected[blk] {
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
		return false
	}
	l.selected[best] = true
	for j := best * blockLen; j < min((best+1)*blockLen, k); j++ {
		l.support = append(l.support, j)
	}
	// Extend the factor by the new rows. Row i of cholesky depends only
	// on rows ≤ i of the system, so the committed rows are bitwise what a
	// refactorisation would produce.
	support, lf, z, coef, n := l.support, l.lf, l.z, l.coef, l.n
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
				return false // numerically dependent block: stop
			} else {
				li[i] = math.Sqrt(sum)
			}
		}
	}
	// Forward solve L·z = D_Sᵀy for the new rows only (earlier rows are
	// unchanged), then back-substitute Lᵀ·coef = z in full.
	for i := n; i < p; i++ {
		sum := l.pY[support[i]]
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
	l.n = p
	// resid = y - D_S·coef over the nonzero coefficients, four atoms per
	// pass in support order: each element sees the subtractions one by
	// one. A short last group is padded with +0 coefficients against a
	// zero row, and x - (+0) is exact for every float64 x.
	resid := l.resid
	copy(resid, l.y)
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
	return dsp.Energy(resid) > r.opts.Tol*l.energy0 && p < r.opts.MaxAtoms
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
