package cs

import (
	"fmt"
	"math"
	"math/bits"

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

// ReconstructFrame recovers one frame from its M measurements. OMP and
// BOMP run their record driver with one frame.
func (r *MethodReconstructor) ReconstructFrame(y []float64) []float64 {
	if len(y) != r.m {
		panic("cs: measurement vector length mismatch")
	}
	switch r.opts.Method {
	case MethodIHT:
		return r.dct.Inverse(r.iht(y))
	case MethodRidge:
		return r.ridgeSolve(y)
	}
	return r.Reconstruct(y)
}

// ReconScratch holds the per-goroutine working set of the allocation-free
// reconstruction path: the lanes of the OMP and the block-OMP drivers.
// The zero value is ready to use; it grows to the largest geometry seen.
type ReconScratch struct {
	omp  Scratch
	bomp bompScratch
}

// ReconstructInto is Reconstruct against caller-owned storage: dst is
// grown (reallocating only when capacity is exceeded) to frames·N_Φ and
// fully overwritten, and the returned slice aliases it. OMP and BOMP
// solve against sc and allocate nothing in the steady state, four frames
// in lock-step lanes that share each dsp.Project pass over the
// dictionary and each lane kernel call: OMP steps a group of four frames
// until all have stopped, then takes the next four; BOMP refills a lane
// with the record's next frame as soon as its frame stops. IHT and ridge
// run their per-frame code and copy. A single MethodReconstructor may
// serve many goroutines concurrently as long as each brings its own
// ReconScratch.
func (r *MethodReconstructor) ReconstructInto(dst, y []float64, sc *ReconScratch) []float64 {
	frames := len(y) / r.m
	need := frames * r.n
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dst = dst[:need]
	switch r.opts.Method {
	case MethodOMP:
		var ys [dsp.Lanes][]float64
		for f0 := 0; f0 < frames; f0 += dsp.Lanes {
			g := min(dsp.Lanes, frames-f0)
			for i := range g {
				ys[i] = y[(f0+i)*r.m : (f0+i+1)*r.m]
			}
			r.solver.solveLanes(ys[:g], r.opts.MaxAtoms, r.opts.Tol, &sc.omp, func(i int, theta []float64) {
				r.dct.InverseInto(dst[(f0+i)*r.n:(f0+i+1)*r.n], theta)
			})
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
// goroutine: the lanes of bompRecord and their factor algebra. It grows
// to the largest geometry it has seen and is then allocation-free. The
// zero value is ready to use. Not safe for concurrent use.
type bompScratch struct {
	lanes [dsp.Lanes]bompLane
	// The lanes' Cholesky factors of the support system, forward-solve
	// vectors and coefficients, lane-interleaved for the dsp lane
	// kernels.
	lf      dsp.LaneTri
	z, coef dsp.LaneVec
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
	n        int       // committed support: the lane's coef[:n] is the current fit
	theta    []float64 // the finished frame's coefficients, length K
}

func (l *bompLane) grow(k, m, nBlocks, stride int) {
	l.pY, l.corr, l.theta = grown(l.pY, k), grown(l.corr, k), grown(l.theta, k)
	l.resid = grown(l.resid, m)
	l.selected = grown(l.selected, nBlocks)
	l.support = grown(l.support, stride)
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
// projections exactly as a pass of its own would, and each lane kernel
// gives each lane what a solve of its own would, so a frame's result
// does not depend on which frames share its ticks.
func (r *MethodReconstructor) bompRecord(y []float64, sc *bompScratch, done func(f int, theta []float64)) {
	frames := len(y) / r.m
	k, blockLen := r.n, r.opts.BlockLen
	nBlocks := (k + blockLen - 1) / blockLen
	// A block is admitted while the support is below maxAtoms, so the
	// support can overshoot it by up to blockLen-1 atoms.
	stride := min(r.opts.MaxAtoms+blockLen-1, k)
	sc.lf.Grow(stride)
	sc.z, sc.coef = grown(sc.z, dsp.Lanes*stride), grown(sc.coef, dsp.Lanes*stride)
	var live uint8
	next := 0
	for f := range min(dsp.Lanes, frames) {
		sc.lanes[f].grow(k, r.m, nBlocks, stride)
		var ok bool
		if next, ok = r.bompAdmit(sc, f, y, next, done); ok {
			live |= 1 << f
		}
	}
	var ys, ds [dsp.Lanes][]float64
	for live != 0 {
		nv := 0
		for f := range sc.lanes {
			if live>>f&1 == 0 {
				continue
			}
			if l := &sc.lanes[f]; l.n == 0 {
				ys[nv], ds[nv] = l.y, l.pY
			} else {
				ys[nv], ds[nv] = l.resid, l.corr
			}
			nv++
		}
		r.solver.pan.Project(ds[:nv], ys[:nv])
		stopped := live &^ r.bompStep(sc, live)
		for f := range sc.lanes {
			if stopped>>f&1 == 0 {
				continue
			}
			r.bompFinish(sc, f, done)
			var ok bool
			if next, ok = r.bompAdmit(sc, f, y, next, done); !ok {
				live &^= 1 << f
			}
		}
	}
}

// bompAdmit loads lane f with the record's next frame that needs a
// pursuit, starting at frame next and finishing all-zero frames on the
// way. It returns the frame after the admitted one and true, or the
// frame count and false when no frame was left to admit.
func (r *MethodReconstructor) bompAdmit(sc *bompScratch, f int, y []float64, next int, done func(f int, theta []float64)) (int, bool) {
	l := &sc.lanes[f]
	for ; next < len(y)/r.m; next++ {
		l.frame, l.y = next, y[next*r.m:(next+1)*r.m]
		l.support, l.n = l.support[:0], 0
		clear(l.selected)
		if l.energy0 = dsp.Energy(l.y); l.energy0 == 0 || r.opts.MaxAtoms <= 0 {
			r.bompFinish(sc, f, done)
			continue
		}
		return next + 1, true
	}
	return next, false
}

// bompFinish hands lane f's frame to done: the committed coefficients on
// their atoms, zero elsewhere.
func (r *MethodReconstructor) bompFinish(sc *bompScratch, f int, done func(f int, theta []float64)) {
	l := &sc.lanes[f]
	clear(l.theta)
	for i, j := range l.support[:l.n] {
		l.theta[j] = sc.coef.At(f, i)
	}
	done(l.frame, l.theta)
}

// bompStep takes one block-OMP step of every lane in live, whose
// correlations this tick's projection pass has just computed, and
// returns the lanes whose pursuit goes on. Each lane admits its best
// block; the lanes that did are then grouped by support size (their
// committed and their grown one), and one bompExtend per group runs the
// factor algebra of all its lanes through the lane kernels. Lanes of one
// record share their sizes except after a ragged last block (K not a
// multiple of BlockLen) or a refill, so there is usually one group.
// Finally every extended lane rebuilds its residual with dsp.SubRows4
// and runs the exit checks. Every quantity sums its terms in the same
// order as a from-scratch refit (dot products from +0 in ascending sample
// order, factor rows exactly as cholesky computes them, coefficients
// applied in support order), so the result is bit-identical to one.
func (r *MethodReconstructor) bompStep(sc *bompScratch, live uint8) uint8 {
	k, blockLen := r.n, r.opts.BlockLen
	var grew uint8
	for f := range sc.lanes {
		if live>>f&1 == 0 {
			continue
		}
		l := &sc.lanes[f]
		corr := l.corr
		if l.n == 0 {
			corr = l.pY // the first step's residual is y itself
		}
		best, bestScore := -1, 0.0
		selected, whole := l.selected, 0
		if blockLen == 4 {
			// Whole blocks in a fixed-length loop. Each sum keeps the
			// generic loop's order, and 0 + d₀² is d₀² bitwise (a square
			// is never −0), so the scores are the generic loop's.
			whole = k / 4
			for blk, sel := range selected[:whole] {
				if sel {
					continue
				}
				d := corr[4*blk : 4*blk+4]
				if s := d[0]*d[0] + d[1]*d[1] + d[2]*d[2] + d[3]*d[3]; s > bestScore {
					best, bestScore = blk, s
				}
			}
		}
		for blk := whole; blk < len(selected); blk++ { // a ragged last block, or BlockLen ≠ 4
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
			continue
		}
		l.selected[best] = true
		for j := best * blockLen; j < min((best+1)*blockLen, k); j++ {
			l.support = append(l.support, j)
		}
		grew |= 1 << f
	}
	var extended uint8
	for pending := grew; pending != 0; {
		lead := &sc.lanes[bits.TrailingZeros8(pending)]
		var group uint8
		for f := range sc.lanes {
			if l := &sc.lanes[f]; pending>>f&1 != 0 && l.n == lead.n && len(l.support) == len(lead.support) {
				group |= 1 << f
			}
		}
		pending &^= group
		extended |= r.bompExtend(sc, group, lead.n, len(lead.support))
	}
	var goOn uint8
	for f := range sc.lanes {
		if extended>>f&1 != 0 && r.bompResidual(sc, f) {
			goOn |= 1 << f
		}
	}
	return goOn
}

// bompExtend grows the factors of the lanes in group, which share the
// committed support size n and the grown size p, by rows n…p-1, solves
// forward for the new entries of z and back-substitutes the coefficients
// in full, and returns the lanes whose extension succeeded. Row i of
// cholesky depends only on rows ≤ i of the system, so the committed rows
// are bitwise what a refactorisation would produce: entry j < i of row i
// is (G_ij - Σ_{t<j} L_it·L_jt) / L_jj, a forward solve of the gathered
// Gram row against the rows above, and the diagonal is the square root
// of G_ii + 1e-12 - Σ_{t<i} L_it², subtracted term by term. A lane whose
// new diagonal is not positive stops there (a numerically dependent
// block) and keeps its committed fit, coef[:n].
func (r *MethodReconstructor) bompExtend(sc *bompScratch, group uint8, n, p int) uint8 {
	b := r.solver
	for i := n; i < p && group != 0; i++ {
		row := sc.lf.Row(i)
		var diag [dsp.Lanes]float64
		for f := range sc.lanes {
			if group>>f&1 != 0 {
				support := sc.lanes[f].support
				gi := b.gramRow(support[i])
				for j, sj := range support[:i] {
					row.Set(f, j, gi[sj])
				}
				diag[f] = gi[support[i]] + 1e-12
			}
		}
		sc.lf.SolveLower(group, row, 0, i)
		diag = dsp.LaneSubDot(diag, row, row, i)
		for f := range sc.lanes {
			if group>>f&1 == 0 {
				continue
			}
			if diag[f] <= 1e-300 {
				group &^= 1 << f // numerically dependent block: stop
				continue
			}
			sc.lf.Set(f, i, i, math.Sqrt(diag[f]))
		}
	}
	// Forward solve L·z = D_Sᵀy for the new rows only (earlier rows are
	// unchanged), then back-substitute Lᵀ·coef = z in full.
	for f := range sc.lanes {
		if group>>f&1 != 0 {
			l := &sc.lanes[f]
			for i := n; i < p; i++ {
				sc.z.Set(f, i, l.pY[l.support[i]])
			}
		}
	}
	sc.lf.SolveLower(group, sc.z, n, p)
	sc.lf.SolveUpper(group, sc.coef, sc.z, p)
	return group
}

// bompResidual commits lane f's extended support, rebuilds its residual
// and reports whether its pursuit goes on: resid = y - D_S·coef over the
// nonzero coefficients, four atoms per pass in support order, so each
// element sees the subtractions one by one. A short last group is padded
// with +0 coefficients against a zero row, and x - (+0) is exact for
// every float64 x.
func (r *MethodReconstructor) bompResidual(sc *bompScratch, f int) bool {
	l := &sc.lanes[f]
	l.n = len(l.support)
	resid := l.resid
	copy(resid, l.y)
	var cols [4][]float64
	var cf [4]float64
	cnt := 0
	for i, j := range l.support {
		c := sc.coef.At(f, i)
		if c == 0 {
			continue
		}
		cols[cnt], cf[cnt] = r.solver.column(j), c
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
	return dsp.Energy(resid) > r.opts.Tol*l.energy0 && l.n < r.opts.MaxAtoms
}

// Reconstruct recovers a concatenated measurement stream: ReconstructInto
// on fresh storage.
func (r *MethodReconstructor) Reconstruct(y []float64) []float64 {
	return r.ReconstructInto(nil, y, new(ReconScratch))
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
