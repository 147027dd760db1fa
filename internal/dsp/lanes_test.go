package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"efficsense/internal/xrand"
)

// The per-lane scalar references of the lane kernels: the loops of the
// Batch-OMP and block-OMP pursuits (internal/cs) before they ran on the
// lane kernels, over one lane's row-major factor lf with row stride st.

// refForwardColumns is Batch-OMP's forward substitution L·w' = w in
// place over rows [0, s): one right-looking update per column, each
// entry seeing its subtractions in ascending column order and its
// division last.
func refForwardColumns(lf []float64, st int, w []float64, s int) {
	for t := 0; t < s; t++ {
		wt := w[t] / lf[t*st+t]
		w[t] = wt
		for i := t + 1; i < s; i++ {
			w[i] -= lf[i*st+t] * wt
		}
	}
}

// refForwardRows is block-OMP's forward solve of the new rows
// [from, to) of L·z = D_Sᵀy, row by row.
func refForwardRows(lf []float64, st int, z []float64, from, to int) {
	for i := from; i < to; i++ {
		sum := z[i]
		for t, v := range lf[i*st : i*st+i] {
			sum -= v * z[t]
		}
		z[i] = sum / lf[i*st+i]
	}
}

// refFactorRow is block-OMP's computation of the off-diagonal entries of
// a new factor row i in place, from its Gram entries: entry j takes its
// Gram entry, minus li[t]·L_jt for t < j, divided by L_jj.
func refFactorRow(lf []float64, st int, li []float64, i int) {
	for j := 0; j < i; j++ {
		sum := li[j]
		for t, v := range lf[j*st : j*st+j] {
			sum -= li[t] * v
		}
		li[j] = sum / lf[j*st+j]
	}
}

// refBack is the back-substitution Lᵀ·c = z of both pursuits.
func refBack(lf []float64, st int, c, z []float64, n int) {
	for i := n - 1; i >= 0; i-- {
		sum := z[i]
		for t := i + 1; t < n; t++ {
			sum -= lf[t*st+i] * c[t]
		}
		c[i] = sum / lf[i*st+i]
	}
}

// refSumSquares is Batch-OMP's ‖w‖² (from +0) and refSubDot the chain of
// block-OMP's diagonal and Batch-OMP's residual energy (from acc,
// subtracting term by term).
func refSumSquares(w []float64) float64 {
	var zz float64
	for _, v := range w {
		zz += v * v
	}
	return zz
}

func refSubDot(acc float64, a, b []float64) float64 {
	for i, v := range a {
		acc -= v * b[i]
	}
	return acc
}

// laneCase is one lane kernel input: per-lane row-major factors and
// vectors, and the same values in the interleaved layout, built by the
// layout's index formula rather than through the accessors.
type laneCase struct {
	n, st      int
	lf         [Lanes][]float64 // st×st, row-major
	x, z, c    [Lanes][]float64 // st long
	tri        LaneTri
	lx, lz, lc LaneVec
}

func newLaneCase(rng *xrand.Source, n int, special bool) *laneCase {
	st := n + 1 // one spare row: the in-place target of SolveLower
	lc := &laneCase{n: n, st: st}
	value := func(scale float64) float64 {
		if special && rng.Intn(20) == 0 {
			return specialValue(rng)
		}
		return rng.Normal(0, scale)
	}
	for l := 0; l < Lanes; l++ {
		lc.lf[l] = make([]float64, st*st)
		for i := 0; i < st; i++ {
			for t := 0; t <= i; t++ {
				lc.lf[l][i*st+t] = value(0.2)
			}
			if d := &lc.lf[l][i*st+i]; !special || rng.Intn(20) != 0 {
				*d = 1 + math.Abs(rng.Normal(0, 1))
			}
		}
		for _, v := range []*[Lanes][]float64{&lc.x, &lc.z, &lc.c} {
			v[l] = make([]float64, st)
			for i := range v[l] {
				v[l][i] = value(1)
			}
		}
	}
	lc.tri.Grow(st)
	lc.lx, lc.lz, lc.lc = make(LaneVec, Lanes*st), make(LaneVec, Lanes*st), make(LaneVec, Lanes*st)
	for l := 0; l < Lanes; l++ {
		for i := 0; i < st; i++ {
			for t := 0; t < st; t++ {
				lc.tri.data[Lanes*(i*st+t)+l] = lc.lf[l][i*st+t]
			}
			lc.lx[Lanes*i+l], lc.lz[Lanes*i+l], lc.lc[Lanes*i+l] = lc.x[l][i], lc.z[l][i], lc.c[l][i]
		}
	}
	return lc
}

// checkLanes compares the interleaved got with the per-lane want over
// every lane and entry, bit for bit.
func checkLanes(t *testing.T, what string, got []float64, want [Lanes][]float64) {
	t.Helper()
	for l := 0; l < Lanes; l++ {
		for i, w := range want[l] {
			if g := got[Lanes*i+l]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: lane %d entry %d = %v (%#x), want %v (%#x)", what, l, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}

// expect returns a copy of the per-lane vectors with ref applied to the
// lanes in mask only: the masked-off lanes must come out untouched.
func expect(v [Lanes][]float64, mask uint8, ref func(l int, v []float64)) [Lanes][]float64 {
	var out [Lanes][]float64
	for l := range v {
		out[l] = append([]float64(nil), v[l]...)
		if mask>>l&1 != 0 {
			ref(l, out[l])
		}
	}
	return out
}

// TestLaneKernelsMatchScalar pins the lane kernels to the pursuits'
// per-lane scalar loops bit for bit on every kernel tier: sizes 0–3, 5,
// 17, 48 and 51, every one of the 16 lane masks (masked-off lanes and
// entries outside the solved rows must stay untouched), with and
// without signed zeros, subnormals, infinities and the FPU's own NaN
// among the factor and vector entries.
func TestLaneKernelsMatchScalar(t *testing.T) {
	forEachTier(t, testLaneKernels)
}

func testLaneKernels(t *testing.T) {
	rng := xrand.New(76)
	for _, n := range []int{0, 1, 2, 3, 5, 17, 48, 51} {
		for trial := 0; trial < 4; trial++ {
			lc := newLaneCase(rng, n, trial >= 2)
			st := lc.st
			for mask := uint8(0); mask < 1<<Lanes; mask++ {
				name := func(k string) string { return fmt.Sprintf("n=%d trial %d mask %04b: %s", n, trial, mask, k) }

				x := append(LaneVec(nil), lc.lx...)
				lc.tri.SolveLower(mask, x, 0, n)
				checkLanes(t, name("SolveLower"), x, expect(lc.x, mask, func(l int, v []float64) {
					refForwardColumns(lc.lf[l], st, v, n)
				}))

				from := n / 2
				x = append(LaneVec(nil), lc.lx...)
				lc.tri.SolveLower(mask, x, from, n)
				checkLanes(t, name("SolveLower from n/2"), x, expect(lc.x, mask, func(l int, v []float64) {
					refForwardRows(lc.lf[l], st, v, from, n)
				}))

				// In place on the factor's spare row n, as block-OMP grows
				// its factor; every other entry must keep its bits.
				tri := LaneTri{data: append([]float64(nil), lc.tri.data...), stride: st}
				tri.SolveLower(mask, tri.Row(n), 0, n)
				checkLanes(t, name("SolveLower on a factor row"), tri.data, expect(lc.lf, mask, func(l int, v []float64) {
					refFactorRow(v, st, v[n*st:n*st+n], n)
				}))

				c := append(LaneVec(nil), lc.lc...)
				z := append(LaneVec(nil), lc.lz...)
				lc.tri.SolveUpper(mask, c, z, n)
				checkLanes(t, name("SolveUpper"), c, expect(lc.c, mask, func(l int, v []float64) {
					refBack(lc.lf[l], st, v, lc.z[l], n)
				}))
				checkLanes(t, name("SolveUpper's z"), z, lc.z)
			}

			dot := LaneDot(lc.lx, lc.lx, n)
			acc := [Lanes]float64{rng.Normal(0, 1), 0, math.Copysign(0, -1), 1e-12}
			sub := LaneSubDot(acc, lc.lc, lc.lz, n)
			subSq := LaneSubDot(acc, lc.lx, lc.lx, n)
			for l := 0; l < Lanes; l++ {
				for _, r := range []struct {
					what      string
					got, want float64
				}{
					{"LaneDot", dot[l], refSumSquares(lc.x[l][:n])},
					{"LaneSubDot", sub[l], refSubDot(acc[l], lc.c[l][:n], lc.z[l][:n])},
					{"LaneSubDot of squares", subSq[l], refSubDot(acc[l], lc.x[l][:n], lc.x[l][:n])},
				} {
					if math.Float64bits(r.got) != math.Float64bits(r.want) {
						t.Fatalf("n=%d trial %d: %s lane %d = %v, want %v", n, trial, r.what, l, r.got, r.want)
					}
				}
			}
		}
	}
}

// TestLaneLayout pins the accessors to the documented interleaving:
// entry i of lane l of a LaneVec at Lanes·i + l, entry (i, t) of a
// LaneTri at Lanes·(i·stride + t) + l, and Row(i) its entries 0…i.
func TestLaneLayout(t *testing.T) {
	const rows = 5
	var f LaneTri
	f.Grow(rows)
	v := make(LaneVec, Lanes*rows)
	for l := 0; l < Lanes; l++ {
		for i := 0; i < rows; i++ {
			v.Set(l, i, float64(10*i+l))
			for k := 0; k <= i; k++ {
				f.Set(l, i, k, float64(100*i+10*k+l))
			}
		}
	}
	for l := 0; l < Lanes; l++ {
		for i := 0; i < rows; i++ {
			if v[Lanes*i+l] != float64(10*i+l) || v.At(l, i) != v[Lanes*i+l] {
				t.Fatalf("LaneVec lane %d entry %d at the wrong slot", l, i)
			}
			row := f.Row(i)
			if len(row) != Lanes*(i+1) {
				t.Fatalf("Row(%d) has %d values, want %d", i, len(row), Lanes*(i+1))
			}
			for k := 0; k <= i; k++ {
				want := float64(100*i + 10*k + l)
				if f.data[Lanes*(i*rows+k)+l] != want || row.At(l, k) != want {
					t.Fatalf("LaneTri lane %d entry (%d, %d) at the wrong slot", l, i, k)
				}
			}
		}
	}
}

// BenchmarkLaneSolve times the factor algebra of one 48-step pursuit —
// every step's forward solve, ‖w‖², the new z entry, the full
// back-substitution and the residual energy, as Batch-OMP runs them —
// for one and for four lanes, at support sizes up to 18, 37 and 48 (the
// EEG scenario's M = 75, 150 and 192). ns/solve is the time per lane.
func BenchmarkLaneSolve(b *testing.B) {
	for _, atoms := range []int{18, 37, 48} {
		for _, mask := range []uint8{1, 1<<Lanes - 1} {
			b.Run(fmt.Sprintf("atoms=%d/lanes=%d", atoms, bits.OnesCount8(mask)), func(b *testing.B) {
				lc := newLaneCase(xrand.New(77), atoms, false)
				w, z, c := make(LaneVec, len(lc.lx)), make(LaneVec, len(lc.lx)), make(LaneVec, len(lc.lx))
				var energy [Lanes]float64
				b.ReportAllocs()
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					for s := 0; s < atoms; s++ {
						copy(w, lc.lx)
						lc.tri.SolveLower(mask, w, 0, s)
						energy = LaneDot(w, w, s)
						copy(z[Lanes*s:Lanes*s+Lanes], lc.lz[Lanes*s:])
						lc.tri.SolveLower(mask, z, s, s+1)
						lc.tri.SolveUpper(mask, c, z, s+1)
						energy = LaneSubDot(energy, c, lc.lx, s+1)
					}
				}
				laneSink = energy[0]
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bits.OnesCount8(mask)), "ns/solve")
			})
		}
	}
}

// laneSink keeps BenchmarkLaneSolve's results live.
var laneSink float64
