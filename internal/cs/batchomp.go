package cs

import "math"

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
// memory, and every solve can run against a caller-owned Scratch, which
// makes the steady state allocation-free. A BatchOMP is read-only after
// construction and safe for concurrent solves with distinct Scratches.
type BatchOMP struct {
	flat  []float64 // column-major dictionary: column j at [j*m, (j+1)*m)
	rows  []float64 // row-major mirror for the vector projections path; nil without AVX
	gram  []float64 // row-major K×K Gram matrix: row i at [i*k, (i+1)*k)
	norms []float64 // column norms
	k, m  int
}

// Scratch is the reusable working set of one solving goroutine. It grows
// to the largest (K, maxAtoms) it has seen and is then allocation-free.
// The zero value is ready to use. Not safe for concurrent use.
type Scratch struct {
	p, corr   []float64
	w, z      []float64
	lf, lfT   []float64
	coef, pS  []float64
	support   []int
	inSupport []bool
}

func (s *Scratch) grow(k, maxAtoms int) {
	if cap(s.p) < k {
		s.p = make([]float64, k)
		s.corr = make([]float64, k)
	}
	s.p, s.corr = s.p[:k], s.corr[:k]
	if cap(s.inSupport) < k {
		s.inSupport = make([]bool, k)
	}
	s.inSupport = s.inSupport[:k]
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
	if useAVX {
		// Row-major mirror: row i holds element i of every column, so the
		// vector projections path can accumulate four adjacent columns per
		// instruction instead of gathering down one column at a time.
		b.rows = make([]float64, k*b.m)
		for j, c := range cols {
			for i, v := range c {
				b.rows[i*k+j] = v
			}
		}
	}
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
// repeated solves allocate nothing. theta is fully overwritten.
func (b *BatchOMP) SolveInto(theta, y []float64, maxAtoms int, tol float64, sc *Scratch) []float64 {
	for i := range theta {
		theta[i] = 0
	}
	support, coef := b.solve(y, maxAtoms, tol, sc)
	for i, j := range support {
		theta[j] = coef[i]
	}
	return theta
}

// solve runs the pursuit and returns the selected atoms with their
// least-squares coefficients, both backed by sc (valid until the next
// solve on the same Scratch).
func (b *BatchOMP) solve(y []float64, maxAtoms int, tol float64, sc *Scratch) ([]int, []float64) {
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
	// p = Dᵀy, the only O(K·M) step per solve.
	p := sc.p
	b.projections(p, y)
	support := sc.support[:0]
	inSupport := sc.inSupport
	lf, lfT := sc.lf, sc.lfT
	coef := sc.coef[:0]
	pS := sc.pS[:0]
	z := sc.z
	prevEnergy := yEnergy
	limit := maxAtoms
	if limit > b.m {
		limit = b.m
	}
	best, bestVal := b.updateSelect(sc.corr, p, support, coef, inSupport)
	for len(support) < limit {
		if best < 0 || bestVal < 1e-15 {
			break
		}
		// Grow the Cholesky factor with atom `best`.
		s := len(support)
		w := sc.w[:s]
		gBest := b.gram[best*b.k : (best+1)*b.k]
		for i, si := range support {
			w[i] = gBest[si]
		}
		// Forward substitution L·z = w.
		for i := 0; i < s; i++ {
			sum := w[i]
			row := lf[i*maxAtoms : i*maxAtoms+i]
			for t, lv := range row {
				sum -= lv * w[t] // w reused as z in place
			}
			w[i] = sum / lf[i*maxAtoms+i]
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
		inSupport[best] = true
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
		best, bestVal = b.updateSelect(sc.corr, p, support, coef, inSupport)
	}
	// Reset the membership flags so the Scratch is clean for reuse.
	for _, j := range support {
		inSupport[j] = false
	}
	return support, coef
}

// projections computes p = Dᵀy. Columns are processed four at a time with
// independent accumulators — each column's dot product still sums in the
// original sequential order (bit-identical results), but y is streamed
// once per group instead of once per column and the four dependency
// chains overlap (wider groups spill registers on amd64 and lose).
func (b *BatchOMP) projections(p, y []float64) {
	if b.rows != nil && len(y) == b.m {
		b.projectionsRows(p, y)
		return
	}
	m := b.m
	j := 0
	for ; j+4 <= b.k; j += 4 {
		c0 := b.flat[(j+0)*m : (j+1)*m]
		c1 := b.flat[(j+1)*m : (j+2)*m]
		c2 := b.flat[(j+2)*m : (j+3)*m]
		c3 := b.flat[(j+3)*m : (j+4)*m]
		var d0, d1, d2, d3 float64
		for i, v := range y {
			d0 += c0[i] * v
			d1 += c1[i] * v
			d2 += c2[i] * v
			d3 += c3[i] * v
		}
		p[j], p[j+1], p[j+2], p[j+3] = d0, d1, d2, d3
	}
	for ; j < b.k; j++ {
		c := b.flat[j*m : (j+1)*m]
		var dot float64
		for i, v := range y {
			dot += c[i] * v
		}
		p[j] = dot
	}
}

// projectionsRows is projections over the row-major mirror: p accumulates
// y[i]·row_i for ascending i, two rows per pass, which vectorises across
// adjacent columns. Each p[j] still sums its terms in ascending-i order
// starting from +0 — the exact order of the scalar dot product — so the
// two layouts produce bit-identical projections.
func (b *BatchOMP) projectionsRows(p, y []float64) {
	k := b.k
	for j := range p {
		p[j] = 0
	}
	i := 0
	for ; i+2 <= len(y); i += 2 {
		r0 := b.rows[(i+0)*k : (i+1)*k]
		r1 := b.rows[(i+1)*k : (i+2)*k]
		axpyPair(p, r0, r1, y[i], y[i+1])
	}
	for ; i < len(y); i++ {
		r := b.rows[i*k : (i+1)*k]
		yi := y[i]
		r = r[:len(p)]
		for j := range p {
			p[j] += yi * r[j]
		}
	}
}

// updateSelect computes the residual correlation corr = p - G_S·coef and
// returns the best next atom (index and |corr|/norm score) in one fused
// sweep. Support atoms are applied four at a time in support order, so
// every element sees the same sequence of subtractions as applying atoms
// one by one — bit-identical values. The last group of 1–4 atoms is
// folded into the selection scan itself: those values live only in
// registers and are never stored, because corr is consumed solely by this
// selection and the next call restarts from p. With an empty support the
// scan runs over p directly (the first selection needs no copy at all).
// Short groups are padded with zero coefficients against a positive dummy
// row (b.norms), and x - (+0) is exact for every float64 x.
func (b *BatchOMP) updateSelect(corr, p []float64, support []int, coef []float64, inSupport []bool) (int, float64) {
	k := b.k
	s := len(support)
	norms := b.norms
	src := p
	if s > 4 {
		// All but the final 1–4 atoms stream through corr, four atoms per
		// pass (wider passes spill registers on amd64 and lose); the first
		// pass reads p so no upfront copy is needed. Grouping only changes
		// how often corr is loaded and stored — each element still sees
		// the subtractions in support order.
		head := (s - 1) &^ 3
		in := p[:len(corr)]
		for si := 0; si < head; si += 4 {
			g0 := b.gram[support[si+0]*k : support[si+0]*k+k]
			g1 := b.gram[support[si+1]*k : support[si+1]*k+k]
			g2 := b.gram[support[si+2]*k : support[si+2]*k+k]
			g3 := b.gram[support[si+3]*k : support[si+3]*k+k]
			updatePass4(corr, in, g0, g1, g2, g3, coef[si+0], coef[si+1], coef[si+2], coef[si+3])
			in = corr
		}
		src = corr
	}
	base := 0
	if s > 4 {
		base = (s - 1) &^ 3
	}
	g0, g1, g2, g3 := norms, norms, norms, norms
	var c0, c1, c2, c3 float64
	if n := s - base; n > 0 {
		g0, c0 = b.gram[support[base+0]*k:support[base+0]*k+k], coef[base+0]
		if n > 1 {
			g1, c1 = b.gram[support[base+1]*k:support[base+1]*k+k], coef[base+1]
		}
		if n > 2 {
			g2, c2 = b.gram[support[base+2]*k:support[base+2]*k+k], coef[base+2]
		}
		if n > 3 {
			g3, c3 = b.gram[support[base+3]*k:support[base+3]*k+k], coef[base+3]
		}
	}
	g0, g1, g2, g3 = g0[:len(src)], g1[:len(src)], g2[:len(src)], g3[:len(src)]
	norms = norms[:len(src)]
	inSupport = inSupport[:len(src)]
	best, bestVal := -1, 0.0
	for j, v := range src {
		if inSupport[j] || norms[j] == 0 {
			continue
		}
		v = (((v - c0*g0[j]) - c1*g1[j]) - c2*g2[j]) - c3*g3[j]
		if a := math.Abs(v) / norms[j]; a > bestVal {
			best, bestVal = j, a
		}
	}
	return best, bestVal
}
