package dsp

import (
	"math"

	"efficsense/internal/par"
)

// resampleHalfTaps is the one-sided support of Resample's kernel.
const resampleHalfTaps = 16

// Resample converts v from srcRate to dstRate using windowed-sinc
// interpolation (Hann-windowed, 16 taps per side). This implements the
// paper's Step 4 upsampling of the 173.61 Hz EEG records to 512 Hz to
// mimic a continuous-time signal. Downsampling first applies an
// anti-aliasing lowpass at 0.45·dstRate.
func Resample(v []float64, srcRate, dstRate float64) []float64 {
	return ResampleAll([][]float64{v}, srcRate, dstRate)[0]
}

// ResampleAll returns Resample(v, srcRate, dstRate) for every v in vs,
// which must all have the same length. An output sample's tap weights
// depend only on its index and the geometry, so each output's weights
// are computed once and applied to every input, blocks of outputs on
// every core. No weight table is kept: one output's weights sit on the
// stack while every input reads them, so R inputs cost one input's sines
// and cosines and no memory beyond their outputs.
func ResampleAll(vs [][]float64, srcRate, dstRate float64) [][]float64 {
	out := make([][]float64, len(vs))
	if len(vs) == 0 {
		return out
	}
	n := len(vs[0])
	for _, v := range vs {
		if len(v) != n {
			panic("dsp: ResampleAll inputs differ in length")
		}
	}
	switch {
	case n == 0 || srcRate <= 0 || dstRate <= 0:
		return out
	case srcRate == dstRate:
		for i, v := range vs {
			out[i] = Clone(v)
		}
		return out
	}
	srcs := vs
	if dstRate < srcRate {
		fir := LowpassFIR(0.45*dstRate, srcRate, 63)
		srcs = make([][]float64, len(vs))
		par.For(len(vs), func(i int) { srcs[i] = fir.Apply(vs[i]) })
	}
	// Multiply before dividing: (n-1)/ratio loses a sample when the
	// exact span is an integer but src/dst is not representable (e.g.
	// 225 samples at 150→136 Hz spans exactly 204 steps, yet
	// 225/(150/136) rounds to 203.999…).
	outLen := int(math.Floor(float64(n-1)*dstRate/srcRate)) + 1
	for i := range out {
		out[i] = make([]float64, outLen)
	}
	ratio := srcRate / dstRate
	const chunk = 512 // outputs per work item
	par.For((outLen+chunk-1)/chunk, func(c int) {
		var w [2 * resampleHalfTaps]float64
		for i := c * chunk; i < min((c+1)*chunk, outLen); i++ {
			first, count, wsum := resampleTaps(i, ratio, n, &w)
			for r, src := range srcs {
				var acc float64
				for j, x := range src[first : first+count] {
					acc += x * w[j]
				}
				if wsum != 0 {
					acc /= wsum
				}
				out[r][i] = acc
			}
		}
	})
	return out
}

// resampleTaps computes the kernel weights of output i over an input of
// n samples: w[:count] weighs inputs first … first+count-1, in ascending
// order, and wsum is their sum accumulated in that order.
func resampleTaps(i int, ratio float64, n int, w *[2 * resampleHalfTaps]float64) (first, count int, wsum float64) {
	t := float64(i) * ratio // fractional source index
	c := int(math.Floor(t))
	first = max(c-resampleHalfTaps+1, 0)
	last := min(c+resampleHalfTaps, n-1)
	for k := first; k <= last; k++ {
		wk := sincHann(t-float64(k), resampleHalfTaps)
		w[k-first] = wk
		wsum += wk
	}
	return first, max(last-first+1, 0), wsum
}

// sincHann is a Hann-windowed sinc kernel with support |d| < half.
func sincHann(d float64, half int) float64 {
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

// Decimate keeps every k-th sample of v starting at offset 0, without
// filtering (the caller is responsible for bandwidth). Used by the
// sample-and-hold model where the analog chain runs on an oversampled
// "continuous-time" grid and the ADC picks instants off it.
func Decimate(v []float64, k int) []float64 {
	if k <= 0 {
		panic("dsp: Decimate factor must be positive")
	}
	out := make([]float64, 0, len(v)/k+1)
	for i := 0; i < len(v); i += k {
		out = append(out, v[i])
	}
	return out
}

// HoldInterp expands a sampled sequence back to length n by zero-order
// hold with factor k (inverse companion of Decimate for visualisation).
func HoldInterp(v []float64, k, n int) []float64 {
	if k <= 0 {
		panic("dsp: HoldInterp factor must be positive")
	}
	out := make([]float64, n)
	for i := range out {
		j := i / k
		if j >= len(v) {
			j = len(v) - 1
		}
		if j >= 0 {
			out[i] = v[j]
		}
	}
	return out
}
