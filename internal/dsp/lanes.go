package dsp

// Lane kernels: the small dense triangular algebra of greedy pursuit
// (the Cholesky factor growth, forward and back solves and energy sums
// of Batch-OMP and block-OMP in internal/cs), run for four lock-step
// lanes at once. One frame's solve is a chain of dependent operations
// that no bit-identical reordering shortens, but the lanes are four
// independent chains of the same shape: with every quantity stored
// lane-interleaved, one 256-bit vector operation advances all four, and
// each lane performs exactly the scalar operations of a solve of its
// own, in the same order. The bodies use only per-element multiply,
// add, subtract and divide (no FMA), so results are bit-identical on
// every tier; the avx512 tier runs the AVX bodies, four lanes filling
// one YMM register.

// Lanes is the number of lock-step lanes a lane kernel carries.
const Lanes = 4

// LaneVec holds one vector per lane, interleaved: entry i of lane l is
// at Lanes·i + l, so the Lanes entries i of all lanes are contiguous.
type LaneVec []float64

// At returns entry i of lane l.
func (v LaneVec) At(l, i int) float64 { return v[Lanes*i+l] }

// Set stores x as entry i of lane l.
func (v LaneVec) Set(l, i int, x float64) { v[Lanes*i+l] = x }

// LaneTri holds one lower-triangular factor per lane, interleaved:
// entry (i, t) of lane l is at Lanes·(i·stride + t) + l, stride being
// the row capacity. Row i of the factor is itself a LaneVec (Row), and
// every entry, whichever way a solve walks the factor, is one contiguous
// group of Lanes values. The zero value is empty; Grow sizes it.
type LaneTri struct {
	data   []float64
	stride int
}

// Grow sizes f for factors of up to rows rows, reallocating only when
// capacity is exceeded. Entries are stale until written.
func (f *LaneTri) Grow(rows int) {
	need := Lanes * rows * rows
	if cap(f.data) < need {
		f.data = make([]float64, need)
	}
	f.data, f.stride = f.data[:need], rows
}

// Set stores x as entry (i, t) of lane l's factor.
func (f *LaneTri) Set(l, i, t int, x float64) { f.data[Lanes*(i*f.stride+t)+l] = x }

// Row returns row i of every lane's factor, entries 0…i, as a LaneVec
// that aliases f.
func (f *LaneTri) Row(i int) LaneVec {
	return f.data[Lanes*i*f.stride : Lanes*(i*f.stride+i+1)]
}

// SolveLower runs the forward substitution of the lanes in mask (bit l
// selects lane l) in place on x over rows [from, to): for i in that
// range, x_i = (x_i − Σ_{t<i} L_it·x_t) / L_ii, the subtractions in
// ascending t and the division last. Entries below from are read as
// solved; entries of other rows and of lanes outside mask are not
// written. x may be row `to` or a later row of f (Row), so a factor row
// can be solved in place.
func (f *LaneTri) SolveLower(mask uint8, x LaneVec, from, to int) {
	if mask &= 1<<Lanes - 1; mask == 0 || from >= to {
		return
	}
	l := f.data[:Lanes*((to-1)*f.stride+to)]
	x = x[:Lanes*to]
	if tier >= tierAVX {
		laneSolveLowerAVX(&laneKeep[mask], l, f.stride, x, from, to)
		return
	}
	laneSolveLowerGo(mask, l, f.stride, x, from, to)
}

// SolveUpper runs the back substitution Lᵀ·c = z of the lanes in mask
// over the leading n rows: for i from n−1 down to 0,
// c_i = (z_i − Σ_{t>i} L_ti·c_t) / L_ii, the subtractions in ascending t
// and the division last. Entries of c past n and of lanes outside mask
// are not written.
func (f *LaneTri) SolveUpper(mask uint8, c, z LaneVec, n int) {
	if mask &= 1<<Lanes - 1; mask == 0 || n <= 0 {
		return
	}
	l := f.data[:Lanes*((n-1)*f.stride+n)]
	c, z = c[:Lanes*n], z[:Lanes*n]
	if tier >= tierAVX {
		laneSolveUpperAVX(&laneKeep[mask], l, f.stride, c, z)
		return
	}
	laneSolveUpperGo(mask, l, f.stride, c, z)
}

// LaneDot returns, per lane, Σ_{i<n} a_i·b_i summed in ascending i from
// +0, one multiply then one add per term: a Dot of the lane's vectors.
// Every lane is summed; the caller reads the lanes it needs.
func LaneDot(a, b LaneVec, n int) [Lanes]float64 {
	var acc [Lanes]float64
	if n <= 0 {
		return acc
	}
	a, b = a[:Lanes*n], b[:Lanes*n]
	if tier >= tierAVX {
		laneDotAVX(&acc, a, b)
		return acc
	}
	for i := 0; i < len(a); i += Lanes {
		ai, bi := a[i:i+Lanes], b[i:i+Lanes]
		acc[0] += ai[0] * bi[0]
		acc[1] += ai[1] * bi[1]
		acc[2] += ai[2] * bi[2]
		acc[3] += ai[3] * bi[3]
	}
	return acc
}

// LaneSubDot returns, per lane, acc − a_0·b_0 − a_1·b_1 − … −
// a_{n−1}·b_{n−1}, subtracting term by term in ascending i. Every lane
// is computed; the caller reads the lanes it needs.
func LaneSubDot(acc [Lanes]float64, a, b LaneVec, n int) [Lanes]float64 {
	if n <= 0 {
		return acc
	}
	a, b = a[:Lanes*n], b[:Lanes*n]
	if tier >= tierAVX {
		laneSubDotAVX(&acc, a, b)
		return acc
	}
	for i := 0; i < len(a); i += Lanes {
		ai, bi := a[i:i+Lanes], b[i:i+Lanes]
		acc[0] -= ai[0] * bi[0]
		acc[1] -= ai[1] * bi[1]
		acc[2] -= ai[2] * bi[2]
		acc[3] -= ai[3] * bi[3]
	}
	return acc
}

// laneKeep[mask] is the blend selector of the AVX lane solves: all
// ones in the lanes outside mask, whose stored values they keep.
var laneKeep = func() (keep [1 << Lanes][Lanes]uint64) {
	for mask := range keep {
		for l := range keep[mask] {
			if mask>>l&1 == 0 {
				keep[mask][l] = ^uint64(0)
			}
		}
	}
	return keep
}()

// laneSolveLowerGo is the Go body of SolveLower: the four lanes' chains
// side by side, every lane computed and only the lanes in mask stored.
func laneSolveLowerGo(mask uint8, l []float64, stride int, x []float64, from, to int) {
	for i := from; i < to; i++ {
		row := l[Lanes*i*stride : Lanes*(i*stride+i+1)]
		xi := x[Lanes*i : Lanes*i+Lanes]
		a0, a1, a2, a3 := xi[0], xi[1], xi[2], xi[3]
		for t := 0; t < i; t++ {
			lt, xt := row[Lanes*t:Lanes*t+Lanes], x[Lanes*t:Lanes*t+Lanes]
			a0 -= lt[0] * xt[0]
			a1 -= lt[1] * xt[1]
			a2 -= lt[2] * xt[2]
			a3 -= lt[3] * xt[3]
		}
		d := row[Lanes*i : Lanes*i+Lanes]
		storeLanes(xi, mask, a0/d[0], a1/d[1], a2/d[2], a3/d[3])
	}
}

// laneSolveUpperGo is the Go body of SolveUpper.
func laneSolveUpperGo(mask uint8, l []float64, stride int, c, z []float64) {
	n := len(c) / Lanes
	for i := n - 1; i >= 0; i-- {
		zi := z[Lanes*i : Lanes*i+Lanes]
		a0, a1, a2, a3 := zi[0], zi[1], zi[2], zi[3]
		for t := i + 1; t < n; t++ {
			lt, ct := l[Lanes*(t*stride+i):Lanes*(t*stride+i)+Lanes], c[Lanes*t:Lanes*t+Lanes]
			a0 -= lt[0] * ct[0]
			a1 -= lt[1] * ct[1]
			a2 -= lt[2] * ct[2]
			a3 -= lt[3] * ct[3]
		}
		d := l[Lanes*(i*stride+i) : Lanes*(i*stride+i)+Lanes]
		storeLanes(c[Lanes*i:Lanes*i+Lanes], mask, a0/d[0], a1/d[1], a2/d[2], a3/d[3])
	}
}

// storeLanes stores the lanes of v0…v3 that mask selects into dst.
func storeLanes(dst []float64, mask uint8, v0, v1, v2, v3 float64) {
	dst = dst[:Lanes]
	if mask&1 != 0 {
		dst[0] = v0
	}
	if mask&2 != 0 {
		dst[1] = v1
	}
	if mask&4 != 0 {
		dst[2] = v2
	}
	if mask&8 != 0 {
		dst[3] = v3
	}
}
