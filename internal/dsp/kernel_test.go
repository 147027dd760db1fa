package dsp

import (
	"math"
	"testing"

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
// vector body and the tail, where the lowest index must win.
func TestSubRows4ArgMaxMatchesReference(t *testing.T) {
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
// formulas bit for bit at every length up to 37 (vector body and scalar
// tail), including SubRows4 in place.
func TestRowKernelsMatchScalar(t *testing.T) {
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
