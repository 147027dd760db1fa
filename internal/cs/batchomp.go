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
	norms dsp.Norms  // column norms, with the reciprocals dsp.Select screens by
	k, m  int
}

// Scratch is the reusable working set of one solving goroutine: the
// lanes of solveLanes and their factor algebra. It grows to the largest
// (K, maxAtoms) it has seen and is then allocation-free. The zero value
// is ready to use. Not safe for concurrent use.
type Scratch struct {
	lanes [dsp.Lanes]ompLane
	// The lanes' Cholesky factors, forward-solve vectors z, coefficients
	// and support projections p_S, lane-interleaved for the dsp lane
	// kernels.
	lf          dsp.LaneTri
	z, coef, pS dsp.LaneVec
	theta       []float64 // a finished frame's coefficients, length K
}

// ompLane is one frame in flight in solveLanes.
type ompLane struct {
	p []float64 // Dᵀy, length K
	// mask is the selection's exclusion mask (dsp.Select): absMask for
	// an eligible column, 0 for a support atom or a zero-norm column.
	// Every solve rebuilds it.
	mask    []uint64
	support []int
	// gram holds the support atoms' Gram rows in support order, and c
	// the lane's coefficients gathered for dsp.Select.
	gram       [][]float64
	c          []float64
	prevEnergy float64 // the residual energy before the last atom
	best       int     // the next atom and its selection score
	bestVal    float64
}

// absMask clears the sign bit of a float64: the mask of an eligible
// column.
const absMask = 1<<63 - 1

func (s *Scratch) grow(k, rows int) {
	for i := range s.lanes {
		l := &s.lanes[i]
		l.p, l.mask = grown(l.p, k), grown(l.mask, k)
		l.support, l.gram, l.c = grown(l.support, rows), grown(l.gram, rows), grown(l.c, rows)
	}
	s.theta = grown(s.theta, k)
	// Factor rows and vector entries are written before they are read,
	// so stale content is harmless.
	s.lf.Grow(rows)
	s.z, s.coef, s.pS = grown(s.z, dsp.Lanes*rows), grown(s.coef, dsp.Lanes*rows), grown(s.pS, dsp.Lanes*rows)
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
	norms := make([]float64, k)
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
		norms[i] = math.Sqrt(b.gram[i*k+i])
	}
	b.norms = dsp.NewNorms(norms)
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
// non-empty y must be M long. It runs solveLanes with one lane.
func (b *BatchOMP) SolveInto(theta, y []float64, maxAtoms int, tol float64, sc *Scratch) []float64 {
	if len(y) == 0 {
		clear(theta)
		return theta
	}
	b.solveLanes([][]float64{y}, maxAtoms, tol, sc, func(_ int, th []float64) { copy(theta, th) })
	return theta
}

// solveLanes runs the pursuits of one to four frames ys (each M long)
// in lock-step lanes and calls emit(f, theta) as frame f's pursuit
// stops, frames stopping in any order; theta (length K) is valid only
// during the call.
//
// One dsp.Project pass computes every frame's p = Dᵀy, the only
// O(K·M) quantity of a solve. Every live lane then takes one step per
// tick: its own correlation update and atom selection (updateSelect,
// against its own correlations and mask), then one stream of lane
// kernels, masked to the live lanes, that grows every lane's Cholesky
// factor by the new atom's row, appends the new z entry, back-solves the
// coefficients in full and forms the residual energy. Lanes start
// together and each step adds one atom to every live lane, so the live
// lanes always share one support size and every kernel call serves all
// of them. The exit checks run per lane; a stopped lane emits its frame
// and drops out of the mask. Each lane performs exactly the scalar
// operations of a solve of its own, in the same order, so a frame's
// coefficients do not depend on which frames share its lanes.
func (b *BatchOMP) solveLanes(ys [][]float64, maxAtoms int, tol float64, sc *Scratch, emit func(f int, theta []float64)) {
	limit := max(min(maxAtoms, b.m), 0)
	sc.grow(b.k, limit)
	finish := func(f int) {
		clear(sc.theta)
		for i, j := range sc.lanes[f].support {
			sc.theta[j] = sc.coef.At(f, i)
		}
		emit(f, sc.theta)
	}
	if limit == 0 { // no atom budget, or an empty dictionary (M = 0)
		for f := range ys {
			sc.lanes[f].support = sc.lanes[f].support[:0]
			finish(f)
		}
		return
	}
	var ps [dsp.Lanes][]float64
	for f := range ys {
		ps[f] = sc.lanes[f].p
	}
	b.pan.Project(ps[:len(ys)], ys)
	var live uint8
	var energy0 [dsp.Lanes]float64 // ||y||² per lane
	for f, y := range ys {
		l := &sc.lanes[f]
		l.support, l.gram = l.support[:0], l.gram[:0]
		if energy0[f] = dsp.Energy(y); energy0[f] == 0 {
			finish(f)
			continue
		}
		for j := range l.mask {
			l.mask[j] = 0
			if b.norms.Norm(j) != 0 {
				l.mask[j] = absMask
			}
		}
		l.prevEnergy = energy0[f]
		l.best, l.bestVal = b.updateSelect(l, sc.coef, f)
		live |= 1 << f
	}
	for s := 0; ; s++ {
		for f := range ys {
			if l := &sc.lanes[f]; live>>f&1 != 0 && (l.best < 0 || l.bestVal < 1e-15) {
				finish(f)
				live &^= 1 << f
			}
		}
		if live == 0 {
			return
		}
		// Grow each factor with its lane's atom: row s is w = G[best][S],
		// solved in place against the rows above it, and its diagonal is
		// sqrt(G[best][best] - ||w||²).
		row := sc.lf.Row(s)
		for f := range ys {
			if live>>f&1 != 0 {
				l := &sc.lanes[f]
				g := b.gramRow(l.best)
				for i, si := range l.support {
					row.Set(f, i, g[si])
				}
			}
		}
		sc.lf.SolveLower(live, row, 0, s)
		zz := dsp.LaneDot(row, row, s)
		for f := range ys {
			if live>>f&1 == 0 {
				continue
			}
			l := &sc.lanes[f]
			diag := b.gramRow(l.best)[l.best] - zz[f]
			if diag <= 1e-300 {
				finish(f) // numerically dependent atom: stop
				live &^= 1 << f
				continue
			}
			sc.lf.Set(f, s, s, math.Sqrt(diag))
			l.support = append(l.support, l.best)
			l.gram = append(l.gram, b.gramRow(l.best))
			l.mask[l.best] = 0
			sc.pS.Set(f, s, l.p[l.best])
			sc.z.Set(f, s, l.p[l.best])
		}
		if live == 0 {
			return
		}
		// Solve L·Lᵀ·coef = p_S. The forward solve is incremental: z[i]
		// for i < s depends only on rows ≤ i of L and p_S, all untouched
		// by this append, so only the new row's entry is computed.
		n := s + 1
		sc.lf.SolveLower(live, sc.z, s, n)
		sc.lf.SolveUpper(live, sc.coef, sc.z, n)
		// Residual energy for the exact LS solution: ||y||² - coefᵀ·p_S.
		// The exit checks run before the next selection — the correlation
		// update only feeds atom selection, so the final iteration's
		// O(atoms·K) update (the largest one) is skipped entirely when any
		// exit fires.
		energy := dsp.LaneSubDot(energy0, sc.coef, sc.pS, n)
		for f := range ys {
			if live>>f&1 == 0 {
				continue
			}
			l := &sc.lanes[f]
			rEnergy := energy[f]
			if rEnergy < 0 {
				rEnergy = 0
			}
			if rEnergy <= tol*energy0[f] || (l.prevEnergy > 0 && (l.prevEnergy-rEnergy) < 0.005*l.prevEnergy) || n >= limit {
				finish(f)
				live &^= 1 << f
				continue
			}
			l.prevEnergy = rEnergy
			l.best, l.bestVal = b.updateSelect(l, sc.coef, f)
		}
	}
}

// updateSelect returns lane f's best next atom, index and |corr|/norm
// score, for its residual correlations corr = p − G_S·coef, which
// dsp.Select forms column by column from the support atoms' Gram rows in
// support order and never stores: corr only feeds this selection, and
// the next call starts again from p. With an empty support it scores p
// itself. The lane's mask excludes support atoms and zero-norm columns.
func (b *BatchOMP) updateSelect(l *ompLane, coef dsp.LaneVec, f int) (int, float64) {
	c := l.c[:len(l.gram)]
	for i := range c {
		c[i] = coef.At(f, i)
	}
	return dsp.Select(l.p, l.gram, c, l.mask, &b.norms)
}

// gramRow returns row j of the Gram matrix: G_j·, the correlations of
// column j with every column.
func (b *BatchOMP) gramRow(j int) []float64 {
	return b.gram[j*b.k : (j+1)*b.k : (j+1)*b.k]
}
