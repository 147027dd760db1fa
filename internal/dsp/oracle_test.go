package dsp

import (
	"fmt"
	"math"
	"testing"

	"efficsense/internal/xrand"
)

// The oracles below are verbatim copies of the implementations the
// optimised kernels replaced. Each optimised form must match its oracle
// bit for bit, on every input.

// resampleReference is Resample before its tap weights were split out
// (and shared across inputs by ResampleAll): one sincHann per tap per
// output.
func resampleReference(v []float64, srcRate, dstRate float64) []float64 {
	if len(v) == 0 || srcRate <= 0 || dstRate <= 0 {
		return nil
	}
	if srcRate == dstRate {
		return Clone(v)
	}
	src := v
	if dstRate < srcRate {
		fir := LowpassFIR(0.45*dstRate, srcRate, 63)
		src = fir.Apply(v)
	}
	ratio := srcRate / dstRate
	outLen := int(math.Floor(float64(len(v)-1)*dstRate/srcRate)) + 1
	out := make([]float64, outLen)
	const halfTaps = 16
	for i := range out {
		t := float64(i) * ratio // fractional source index
		c := int(math.Floor(t))
		var acc, wsum float64
		for k := c - halfTaps + 1; k <= c+halfTaps; k++ {
			if k < 0 || k >= len(src) {
				continue
			}
			d := t - float64(k)
			w := sincHannReference(d, halfTaps)
			acc += src[k] * w
			wsum += w
		}
		if wsum != 0 {
			acc /= wsum
		}
		out[i] = acc
	}
	return out
}

func sincHannReference(d float64, half int) float64 {
	ad := math.Abs(d)
	if ad >= float64(half) {
		return 0
	}
	s := 1.0
	if d != 0 {
		s = math.Sin(math.Pi*d) / (math.Pi * d)
	}
	w := 0.5 * (1 + math.Cos(math.Pi*ad/float64(half)))
	return s * w
}

// dctForwardReference is DCT.Forward before ForwardInto: one Dot per
// basis row.
func dctForwardReference(d *DCT, x []float64) []float64 {
	out := make([]float64, d.n)
	for k := 0; k < d.n; k++ {
		out[k] = Dot(d.table[k], x)
	}
	return out
}

// sameBits reports the first index where a and b differ in bit pattern
// (or in length), or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestResampleMatchesReference(t *testing.T) {
	rates := []struct{ src, dst float64 }{
		{173.61, 512},  // the paper's Step 4 upsampling (dataset synthesis)
		{512, 2150.4},  // the evaluator's simulation grid
		{2048, 256},    // a downsample through the anti-aliasing FIR
		{150, 136},     // the span rounding case of the output length
		{500, 500},     // identity
		{0, 512},       // invalid rate
		{512, 512.001}, // a near-identity ratio
	}
	rng := xrand.New(5)
	for _, r := range rates {
		for _, n := range []int{0, 1, 2, 33, 225, 4097} {
			t.Run(fmt.Sprintf("%gto%g/n%d", r.src, r.dst, n), func(t *testing.T) {
				// Three inputs: ResampleAll shares each output's weights
				// across them, and each must still match on its own.
				vs := make([][]float64, 3)
				for i := range vs {
					vs[i] = make([]float64, n)
					rng.FillNormal(vs[i], 0, 1)
				}
				all := ResampleAll(vs, r.src, r.dst)
				for i, v := range vs {
					want := resampleReference(v, r.src, r.dst)
					if j := sameBits(Resample(v, r.src, r.dst), want); j >= 0 {
						t.Fatalf("input %d: Resample differs from the reference at %d", i, j)
					}
					if j := sameBits(all[i], want); j >= 0 {
						t.Fatalf("input %d: ResampleAll differs from the reference at %d", i, j)
					}
				}
			})
		}
	}
}

func TestResampleAllEdges(t *testing.T) {
	if out := ResampleAll(nil, 100, 200); len(out) != 0 {
		t.Fatalf("no inputs gave %d outputs", len(out))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inputs of different lengths should panic")
		}
	}()
	ResampleAll([][]float64{make([]float64, 8), make([]float64, 9)}, 100, 200)
}

func TestDCTForwardIntoMatchesReference(t *testing.T) {
	rng := xrand.New(9)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 384} {
		d := NewDCT(n)
		x := make([]float64, n)
		rng.FillNormal(x, 0, 1)
		want := dctForwardReference(d, x)
		if i := sameBits(d.Forward(x), want); i >= 0 {
			t.Fatalf("n=%d: Forward differs from the reference at %d", n, i)
		}
		dst := make([]float64, n)
		for i := range dst {
			dst[i] = math.NaN() // stale contents must be overwritten
		}
		if i := sameBits(d.ForwardInto(dst, x), want); i >= 0 {
			t.Fatalf("n=%d: ForwardInto differs from the reference at %d", n, i)
		}
	}
}

// dctInverseReference is Inverse before it ran on the row kernels: one
// scalar pass per nonzero coefficient, in ascending k.
func dctInverseReference(d *DCT, c []float64) []float64 {
	out := make([]float64, d.n)
	for k, ck := range c {
		if ck == 0 {
			continue
		}
		row := d.table[k]
		for i := range out {
			out[i] += ck * row[i]
		}
	}
	return out
}

// TestDCTInverseIntoMatchesReference covers every count of nonzero
// coefficients modulo 4 (the AddRows4 groups and their Axpy tail), at
// lengths that exercise the kernels' scalar tails, including a dense and
// an all-zero vector.
func TestDCTInverseIntoMatchesReference(t *testing.T) {
	rng := xrand.New(10)
	for _, n := range []int{1, 2, 3, 5, 8, 13, 64, 384} {
		d := NewDCT(n)
		for _, nz := range []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 13, 48, n} {
			if nz > n {
				continue
			}
			c := make([]float64, n)
			for _, k := range rng.Choose(n, nz) {
				c[k] = rng.Normal(0, 1)
			}
			want := dctInverseReference(d, c)
			if i := sameBits(d.Inverse(c), want); i >= 0 {
				t.Fatalf("n=%d nz=%d: Inverse differs from the reference at %d", n, nz, i)
			}
			dst := make([]float64, n)
			for i := range dst {
				dst[i] = math.NaN() // stale contents must be overwritten
			}
			if i := sameBits(d.InverseInto(dst, c), want); i >= 0 {
				t.Fatalf("n=%d nz=%d: InverseInto differs from the reference at %d", n, nz, i)
			}
		}
	}
}
