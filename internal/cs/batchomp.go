package cs

import (
	"math"

	"efficsense/internal/dsp"
)

// BatchOMP is an orthogonal-matching-pursuit solver specialised for a
// fixed dictionary reused across many measurement vectors (every frame of
// a record, every record of a sweep). It precomputes the Gram matrix
// G = DᵀD once, then solves each frame with correlation updates in the
// coefficient domain and an incrementally grown Cholesky factor — the
// "Batch-OMP" formulation. Results match the direct OMP function to
// numerical precision; the per-frame cost drops from O(atoms·M·K) to
// O(atoms·K + atoms²·K).
//
// The dictionary and Gram matrix are stored flat (column- and row-major
// respectively) so the two O(atoms·K) inner loops stream contiguous
// memory, the dictionary once more in the panel layout of dsp.Project
// for the Dᵀy projections, and every solve can run against a
// caller-owned Scratch, which makes the steady state allocation-free. A
// BatchOMP is read-only after construction and safe for concurrent
// solves with distinct Scratches.
type BatchOMP struct {
	flat  []float64  // column-major dictionary: column j at [j*m, (j+1)*m)
	pan   dsp.Panels // the dictionary in panels, for Dᵀy
	gram  []float64  // row-major K×K Gram matrix: row i at [i*k, (i+1)*k)
	norms []float64  // column norms
	k, m  int
}

// Scratch is the reusable working set of one solving goroutine. It grows
// to the largest (K, maxAtoms) it has seen and is then allocation-free.
// The zero value is ready to use. Not safe for concurrent use.
type Scratch struct {
	p, corr  []float64 // Dᵀy (SolveInto's own) and the correlations
	w, z     []float64
	lf, lfT  []float64
	coef, pS []float64
	support  []int
	// mask is the selection scan's exclusion mask (dsp.SubRows4ArgMax):
	// absMask for an eligible column, 0 for a support atom or a
	// zero-norm column. Every solve rebuilds it.
	mask []uint64
}

// absMask clears the sign bit of a float64: the mask of an eligible
// column.
const absMask = 1<<63 - 1

func (s *Scratch) grow(k, maxAtoms int) {
	if cap(s.corr) < k {
		s.corr = make([]float64, k)
		s.mask = make([]uint64, k)
	}
	s.corr, s.mask = s.corr[:k], s.mask[:k]
	if cap(s.w) < maxAtoms {
		s.w = make([]float64, maxAtoms)
		s.z = make([]float64, maxAtoms)
		s.coef = make([]float64, maxAtoms)
		s.pS = make([]float64, maxAtoms)
		s.support = make([]int, maxAtoms)
	}
	// The Cholesky factor (and its transpose, kept so back-substitution
	// streams rows instead of striding columns) is indexed with stride
	// maxAtoms; rows are written before they are read, so stale content
	// is harmless.
	if cap(s.lf) < maxAtoms*maxAtoms {
		s.lf = make([]float64, maxAtoms*maxAtoms)
		s.lfT = make([]float64, maxAtoms*maxAtoms)
	}
	s.lf = s.lf[:maxAtoms*maxAtoms]
	s.lfT = s.lfT[:maxAtoms*maxAtoms]
}

// NewBatchOMP precomputes the Gram matrix of the dictionary columns.
func NewBatchOMP(cols [][]float64) *BatchOMP {
	k := len(cols)
	b := &BatchOMP{k: k}
	if k == 0 {
		return b
	}
	b.m = len(cols[0])
	b.flat = make([]float64, k*b.m)
	for j, c := range cols {
		copy(b.flat[j*b.m:(j+1)*b.m], c)
	}
	b.pan = dsp.NewPanels(cols)
	b.norms = make([]float64, k)
	b.gram = make([]float64, k*k)
	for i := 0; i < k; i++ {
		ci := cols[i]
		for j := i; j < k; j++ {
			cj := cols[j]
			var dot float64
			for t := range ci {
				dot += ci[t] * cj[t]
			}
			b.gram[i*k+j] = dot
			b.gram[j*k+i] = dot
		}
		b.norms[i] = math.Sqrt(b.gram[i*k+i])
	}
	return b
}

// column returns dictionary column j, a view into the flat copy.
func (b *BatchOMP) column(j int) []float64 {
	return b.flat[j*b.m : (j+1)*b.m : (j+1)*b.m]
}

// Solve returns the sparse coefficient vector for measurement y, with the
// same maxAtoms/tol semantics (and the same diminishing-returns early
// exit) as OMP.
func (b *BatchOMP) Solve(y []float64, maxAtoms int, tol float64) []float64 {
	var sc Scratch
	return b.SolveInto(make([]float64, b.k), y, maxAtoms, tol, &sc)
}

// SolveInto is Solve against caller-owned storage: theta (length K)
// receives the coefficient vector and sc holds the working set, so
// repeated solves allocate nothing. theta is fully overwritten. A
// non-empty y must be M long.
func (b *BatchOMP) SolveInto(theta, y []float64, maxAtoms int, tol float64, sc *Scratch) []float64 {
	sc.p = grown(sc.p, b.k)
	if b.k > 0 && len(y) > 0 {
		b.pan.Project([][]float64{sc.p}, [][]float64{y})
	}
	return b.solveInto(theta, y, sc.p, maxAtoms, tol, sc)
}

// solveInto is SolveInto given p = Dᵀy, which it only reads.
func (b *BatchOMP) solveInto(theta, y, p []float64, maxAtoms int, tol float64, sc *Scratch) []float64 {
	clear(theta)
	support, coef := b.solve(y, p, maxAtoms, tol, sc)
	for i, j := range support {
		theta[j] = coef[i]
	}
	return theta
}

// solve runs the pursuit from p = Dᵀy, the only O(K·M) quantity of a
// solve, and returns the selected atoms with their least-squares
// coefficients, both backed by sc (valid until the next solve on the
// same Scratch).
func (b *BatchOMP) solve(y, p []float64, maxAtoms int, tol float64, sc *Scratch) ([]int, []float64) {
	if b.k == 0 || len(y) == 0 || maxAtoms <= 0 {
		return nil, nil
	}
	var yEnergy float64
	for _, v := range y {
		yEnergy += v * v
	}
	if yEnergy == 0 {
		return nil, nil
	}
	sc.grow(b.k, maxAtoms)
	support := sc.support[:0]
	mask := sc.mask
	for j, nj := range b.norms {
		mask[j] = 0
		if nj != 0 {
			mask[j] = absMask
		}
	}
	lf, lfT := sc.lf, sc.lfT
	coef := sc.coef[:0]
	pS := sc.pS[:0]
	z := sc.z
	prevEnergy := yEnergy
	limit := maxAtoms
	if limit > b.m {
		limit = b.m
	}
	best, bestVal := b.updateSelect(sc.corr, p, support, coef, mask)
	for len(support) < limit {
		if best < 0 || bestVal < 1e-15 {
			break
		}
		// Grow the Cholesky factor with atom `best`.
		s := len(support)
		w := sc.w[:s]
		gBest := b.gramRow(best)
		for i, si := range support {
			w[i] = gBest[si]
		}
		// Forward substitution L·w' = w in place, in column order, as one
		// right-looking AXPY per column: once w[t] is final, column t of L
		// (row t of lfT, contiguous) times w[t] is subtracted from every
		// entry below it. Each w[i] still sees its subtractions in
		// ascending t and its division last, exactly as in the row-by-row
		// form, so the result is bitwise the same; but no entry waits on
		// another's running sum, so the updates pipeline. The vectors are
		// shorter than maxAtoms, too short to repay a kernel call.
		for t := 0; t < s; t++ {
			wt := w[t] / lf[t*maxAtoms+t]
			w[t] = wt
			rest := w[t+1 : s]
			col := lfT[t*maxAtoms+t+1 : t*maxAtoms+s]
			col = col[:len(rest)]
			for i, lv := range col {
				rest[i] -= lv * wt
			}
		}
		var zz float64
		for _, v := range w {
			zz += v * v
		}
		diag := gBest[best] - zz
		if diag <= 1e-300 {
			break // numerically dependent atom: stop
		}
		for t := 0; t < s; t++ {
			lf[s*maxAtoms+t] = w[t]
			lfT[t*maxAtoms+s] = w[t]
		}
		d := math.Sqrt(diag)
		lf[s*maxAtoms+s] = d
		lfT[s*maxAtoms+s] = d
		support = append(support, best)
		mask[best] = 0
		pS = append(pS, p[best])
		// Solve L·Lᵀ·coef = p_S. The forward solve is incremental: z[i]
		// for i < s depends only on rows ≤ i of L and p_S, all untouched
		// by this append, so those entries are bitwise what a full
		// recompute would produce — only the new row's entry is computed,
		// O(s) instead of O(s²) per atom.
		{
			sum := pS[s]
			row := lf[s*maxAtoms : s*maxAtoms+s]
			for t, lv := range row {
				sum -= lv * z[t]
			}
			z[s] = sum / d
		}
		n := len(support)
		coef = coef[:n]
		// Back-substitution Lᵀ·coef = z reads column i of L, kept as the
		// contiguous row i of the transposed factor.
		for i := n - 1; i >= 0; i-- {
			sum := z[i]
			row := lfT[i*maxAtoms+i+1 : i*maxAtoms+n]
			for t, lv := range row {
				sum -= lv * coef[i+1+t]
			}
			coef[i] = sum / lf[i*maxAtoms+i]
		}
		// Residual energy for the exact LS solution: ||y||² - coefᵀ·p_S.
		// The exit checks run before the next selection — the correlation
		// update only feeds atom selection, so the final iteration's
		// O(atoms·K) update (the largest one) is skipped entirely when any
		// exit fires.
		rEnergy := yEnergy
		for i, c := range coef {
			rEnergy -= c * pS[i]
		}
		if rEnergy < 0 {
			rEnergy = 0
		}
		if rEnergy <= tol*yEnergy {
			break
		}
		if prevEnergy > 0 && (prevEnergy-rEnergy) < 0.005*prevEnergy {
			break
		}
		prevEnergy = rEnergy
		if len(support) >= limit {
			break
		}
		best, bestVal = b.updateSelect(sc.corr, p, support, coef, mask)
	}
	return support, coef
}

// updateSelect computes the residual correlation corr = p - G_S·coef and
// returns the best next atom (index and |corr|/norm score) in one fused
// sweep. Support atoms are applied four at a time in support order, so
// every element sees the same sequence of subtractions as applying atoms
// one by one — bit-identical values. The last group of 1–4 atoms is
// folded into the selection scan itself (dsp.SubRows4ArgMax): those values
// live only in registers and are never stored, because corr is consumed
// solely by this selection and the next call restarts from p. With an
// empty support the scan runs over p directly (the first selection needs
// no copy at all). Short groups are padded with zero coefficients against
// a positive dummy row (b.norms), and x - (+0) is exact for every float64
// x. mask excludes support atoms and zero-norm columns from the scan.
func (b *BatchOMP) updateSelect(corr, p []float64, support []int, coef []float64, mask []uint64) (int, float64) {
	s := len(support)
	norms := b.norms
	src := p
	base := 0
	if s > 4 {
		// All but the final 1–4 atoms stream through corr, four atoms per
		// pass (wider passes spill registers on amd64 and lose); the first
		// pass reads p so no upfront copy is needed. Grouping only changes
		// how often corr is loaded and stored — each element still sees
		// the subtractions in support order.
		base = (s - 1) &^ 3
		in := p[:len(corr)]
		for si := 0; si < base; si += 4 {
			dsp.SubRows4(corr, in, b.gramRow(support[si]), b.gramRow(support[si+1]),
				b.gramRow(support[si+2]), b.gramRow(support[si+3]),
				coef[si], coef[si+1], coef[si+2], coef[si+3])
			in = corr
		}
		src = corr
	}
	g := [4][]float64{norms, norms, norms, norms}
	var c [4]float64
	for i := base; i < s; i++ {
		g[i-base], c[i-base] = b.gramRow(support[i]), coef[i]
	}
	return dsp.SubRows4ArgMax(src, g[0], g[1], g[2], g[3], c[0], c[1], c[2], c[3], mask, norms)
}

// gramRow returns row j of the Gram matrix: G_j·, the correlations of
// column j with every column.
func (b *BatchOMP) gramRow(j int) []float64 {
	return b.gram[j*b.k : (j+1)*b.k : (j+1)*b.k]
}
