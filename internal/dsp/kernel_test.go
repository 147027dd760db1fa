package dsp

import (
	"fmt"
	"math"
	"testing"

	"efficsense/internal/isa/isatest"
	"efficsense/internal/xrand"
)

// absMask is the SubRows4ArgMax mask of an eligible index.
const absMask = 1<<63 - 1

// referenceArgMax is the selection scan SubRows4ArgMax replaces: excluded
// and zero-denominator indices are skipped, every other index scores
// |v|/den[j], and a strictly larger score takes the lead.
func referenceArgMax(src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64, excluded []bool, den []float64) (int, float64) {
	best, bestVal := -1, 0.0
	for j := range src {
		if excluded[j] || den[j] == 0 {
			continue
		}
		v := (((src[j] - c0*r0[j]) - c1*r1[j]) - c2*r2[j]) - c3*r3[j]
		if a := math.Abs(v) / den[j]; a > bestVal {
			best, bestVal = j, a
		}
	}
	return best, bestVal
}

// TestSubRows4ArgMaxMatchesReference pins the fused update-and-select
// kernel to the scalar scan on random inputs: lengths 1–13 and 384 (the
// vector body plus every scalar tail), excluded and zero-denominator
// indices, and forced ties inside a lane, across lanes and between the
// vector body and the tail, where the lowest index must win; on every
// kernel tier.
func TestSubRows4ArgMaxMatchesReference(t *testing.T) {
	isatest.ForEachTier(t, testSubRows4ArgMax)
}

func testSubRows4ArgMax(t *testing.T) {
	rng := xrand.New(71)
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 384}
	for _, n := range lengths {
		for trial := 0; trial < 200; trial++ {
			src := make([]float64, n)
			rows := [4][]float64{}
			for r := range rows {
				rows[r] = make([]float64, n)
				rng.FillNormal(rows[r], 0, 1)
			}
			rng.FillNormal(src, 0, 1)
			den := make([]float64, n)
			for j := range den {
				den[j] = 0.5 + rng.Float64()
			}
			c := [4]float64{rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)}
			// Some trials pad with zero coefficients, as the solver does
			// for a short last group.
			for r := trial % 4; r < 4 && trial%5 == 0; r++ {
				c[r] = 0
			}
			excluded := make([]bool, n)
			mask := make([]uint64, n)
			for j := range mask {
				switch rng.Intn(6) {
				case 0:
					excluded[j] = true
				case 1:
					den[j] = 0
				case 2:
					// A tie: copy every input of an earlier index.
					if j > 0 {
						i := rng.Intn(j)
						src[j], den[j], excluded[j] = src[i], den[i], excluded[i]
						for r := range rows {
							rows[r][j] = rows[r][i]
						}
					}
				}
			}
			// The caller's contract: zero denominators are masked out.
			for j := range mask {
				if !excluded[j] && den[j] != 0 {
					mask[j] = absMask
				}
			}
			wantI, wantV := referenceArgMax(src, rows[0], rows[1], rows[2], rows[3], c[0], c[1], c[2], c[3], excluded, den)
			gotI, gotV := SubRows4ArgMax(src, rows[0], rows[1], rows[2], rows[3], c[0], c[1], c[2], c[3], mask, den)
			if gotI != wantI || math.Float64bits(gotV) != math.Float64bits(wantV) {
				t.Fatalf("n=%d trial %d: got (%d, %v), reference (%d, %v)", n, trial, gotI, gotV, wantI, wantV)
			}
		}
	}
}

// TestSubRows4ArgMaxAllExcluded: with nothing eligible the scan returns
// (-1, 0), whatever the values.
func TestSubRows4ArgMaxAllExcluded(t *testing.T) {
	for _, n := range []int{0, 3, 4, 9} {
		v := make([]float64, n)
		for j := range v {
			v[j] = float64(j + 1)
		}
		den := make([]float64, n)
		for j := range den {
			den[j] = float64(j % 2) // zero denominators too
		}
		if i, a := SubRows4ArgMax(v, v, v, v, v, 0, 0, 0, 0, make([]uint64, n), den); i != -1 || a != 0 {
			t.Fatalf("n=%d: got (%d, %v), want (-1, 0)", n, i, a)
		}
	}
}

// TestRowKernelsMatchScalar pins SubRows4 and AddRows4 to their element
// formulas bit for bit at every length up to 37 (vector bodies and scalar
// tail), including SubRows4 in place, on every kernel tier.
func TestRowKernelsMatchScalar(t *testing.T) {
	isatest.ForEachTier(t, testRowKernels)
}

func testRowKernels(t *testing.T) {
	rng := xrand.New(72)
	for n := 0; n <= 37; n++ {
		src := make([]float64, n)
		rng.FillNormal(src, 0, 1)
		var rows [4][]float64
		for r := range rows {
			rows[r] = make([]float64, n)
			rng.FillNormal(rows[r], 0, 1)
		}
		c0, c1, c2, c3 := rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)
		r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]

		want := make([]float64, n)
		for j := range want {
			want[j] = (((src[j] - c0*r0[j]) - c1*r1[j]) - c2*r2[j]) - c3*r3[j]
		}
		got := make([]float64, n)
		SubRows4(got, src, r0, r1, r2, r3, c0, c1, c2, c3)
		checkBits(t, "SubRows4", n, got, want)
		inPlace := Clone(src)
		SubRows4(inPlace, inPlace, r0, r1, r2, r3, c0, c1, c2, c3)
		checkBits(t, "SubRows4 in place", n, inPlace, want)

		for j := range want {
			want[j] = (((src[j] + c0*r0[j]) + c1*r1[j]) + c2*r2[j]) + c3*r3[j]
		}
		got = Clone(src)
		AddRows4(got, r0, r1, r2, r3, c0, c1, c2, c3)
		checkBits(t, "AddRows4", n, got, want)
	}
}

func checkBits(t *testing.T, name string, n int, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s n=%d: element %d = %v, want %v", name, n, j, got[j], want[j])
		}
	}
}

// specialValue returns one of the IEEE-754 edge cases Project must carry
// exactly as Dot does: signed zeros, subnormals, values whose products
// are subnormal, infinities and NaN.
func specialValue(rng *xrand.Source) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 5e-324
	case 3:
		return -2.5e-310
	case 4:
		return 1e-160
	case 5:
		return math.Inf(1)
	case 6:
		return math.Inf(-1)
	}
	return hostNaN
}

// hostNaN is the NaN the FPU itself makes of an invalid operation such
// as ∞ − ∞ or 0·∞. When both operands of an add or a multiply are NaNs,
// the result carries the payload of one of them, chosen by operand
// order, and the compiler orders the operands of the Go reference as it
// likes (a -race build orders them differently). Feeding in only this
// NaN keeps every NaN of a sum on one bit pattern, so the comparison can
// stay bit for bit.
var (
	inf     = math.Inf(1)
	hostNaN = inf - inf
)

// TestProjectMatchesReference pins Project to a Dot per column and vector
// bit for bit, on every kernel tier: M from 1 to 192, K a multiple of 16
// and not (the padded last panel), an odd number of whole panels (the
// one-vector AVX-512 body runs them in pairs), one to four vectors, with
// and without signed zeros, subnormals, infinities and NaNs among the
// dictionary and vector entries. Output entries past K must stay
// untouched.
func TestProjectMatchesReference(t *testing.T) {
	isatest.ForEachTier(t, testProject)
}

func testProject(t *testing.T) {
	rng := xrand.New(73)
	for _, m := range []int{1, 2, 3, 4, 5, 7, 75, 150, 192} {
		for _, k := range []int{16, 60, 100, 384, 385} {
			for trial := 0; trial < 8; trial++ {
				// Trials 0–3 are finite; the rest sprinkle edge cases into
				// the dictionary (odd trials) and the vectors (trials 6, 7).
				rate := 0
				if trial >= 4 {
					rate = 40
				}
				sprinkle := func(v []float64, on bool) {
					rng.FillNormal(v, 0, 1)
					for i := range v {
						if on && rng.Intn(rate) == 0 {
							v[i] = specialValue(rng)
						}
					}
				}
				cols := make([][]float64, k)
				for j := range cols {
					cols[j] = make([]float64, m)
					sprinkle(cols[j], rate > 0 && trial%2 == 1)
				}
				pan := NewPanels(cols)
				n := 1 + trial%4
				ys := make([][]float64, n)
				dst := make([][]float64, n)
				for f := range ys {
					ys[f] = make([]float64, m)
					sprinkle(ys[f], rate > 0 && trial >= 6)
					dst[f] = make([]float64, k+3)
					for j := range dst[f] {
						dst[f][j] = -7
					}
				}
				pan.Project(dst, ys)
				for f := range ys {
					for j, c := range cols {
						if want := Dot(c, ys[f]); math.Float64bits(dst[f][j]) != math.Float64bits(want) {
							t.Fatalf("M=%d K=%d trial %d: vector %d of %d, column %d = %v (%#x), Dot %v (%#x)",
								m, k, trial, f, n, j, dst[f][j], math.Float64bits(dst[f][j]), want, math.Float64bits(want))
						}
					}
					for j := k; j < len(dst[f]); j++ {
						if dst[f][j] != -7 {
							t.Fatalf("M=%d K=%d: vector %d written past K at %d", m, k, f, j)
						}
					}
				}
			}
		}
	}
}

// TestProjectPanics: Project takes one to four vectors, each M long.
func TestProjectPanics(t *testing.T) {
	pan := NewPanels([][]float64{{1, 2}, {3, 4}})
	y, d := []float64{1, 1}, make([]float64, 2)
	for name, call := range map[string]func(){
		"none":       func() { pan.Project(nil, nil) },
		"five":       func() { pan.Project([][]float64{d, d, d, d, d}, [][]float64{y, y, y, y, y}) },
		"short y":    func() { pan.Project([][]float64{d}, [][]float64{y[:1]}) },
		"short dst":  func() { pan.Project([][]float64{d[:1]}, [][]float64{y}) },
		"dst counts": func() { pan.Project([][]float64{d, d}, [][]float64{y}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkProject times one pass over a dictionary of the ECG and EEG
// solvers' largest geometry (M 192, K 384) for one to four vectors; the
// multiply-adds per second are reported as Gmadd/s.
func BenchmarkProject(b *testing.B) {
	const m, k = 192, 384
	rng := xrand.New(74)
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, m)
		rng.FillNormal(cols[j], 0, 1)
	}
	pan := NewPanels(cols)
	for n := 1; n <= 4; n++ {
		b.Run(fmt.Sprintf("vectors=%d", n), func(b *testing.B) {
			ys := make([][]float64, n)
			dst := make([][]float64, n)
			for f := range ys {
				ys[f] = make([]float64, m)
				rng.FillNormal(ys[f], 0, 1)
				dst[f] = make([]float64, k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pan.Project(dst, ys)
			}
			b.ReportMetric(float64(n*m*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
		})
	}
}
