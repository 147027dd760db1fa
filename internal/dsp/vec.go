// Package dsp is the signal-processing substrate of EffiCSense: FFT/DCT
// transforms, window functions, FIR and biquad filters, arbitrary-ratio
// resampling, Welch spectral estimation, and the SNR/SNDR/ENOB metrics
// that the pathfinding goal functions are built on. It replaces the parts
// of the MATLAB/Simulink toolchain the paper relies on.
package dsp

import "math"

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// RMS returns the root-mean-square of v (0 for empty input).
func RMS(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return math.Sqrt(Energy(v) / float64(len(v)))
}

// Energy returns the sum of squares of v.
func Energy(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// Power returns the mean square of v (0 for empty input).
func Power(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Energy(v) / float64(len(v))
}

// Variance returns the population variance of v.
func Variance(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Dot returns the inner product of a and b; the shorter length governs.
func Dot(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var s float64
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Scale multiplies v in place by k and returns v.
func Scale(v []float64, k float64) []float64 {
	for i := range v {
		v[i] *= k
	}
	return v
}

// AddTo adds src into dst element-wise (dst += src); the shorter length
// governs. Returns dst.
func AddTo(dst, src []float64) []float64 {
	n := len(dst)
	if len(src) < n {
		n = len(src)
	}
	for i := 0; i < n; i++ {
		dst[i] += src[i]
	}
	return dst
}

// Axpy computes y[j] += a*x[j] for j in [0, len(y)): one row of
// AddRows4. x must be at least len(y) long.
func Axpy(y, x []float64, a float64) {
	x = x[:len(y)]
	for j := range y {
		y[j] += a * x[j]
	}
}

// Sub returns a new slice a-b; the shorter length governs.
func Sub(a, b []float64) []float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = a[i] - b[i]
	}
	return out
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// MaxAbs returns the largest absolute value in v (0 for empty input).
func MaxAbs(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Peak returns the maximum value and its index (-1 for empty input).
func Peak(v []float64) (max float64, idx int) {
	idx = -1
	max = math.Inf(-1)
	for i, x := range v {
		if x > max {
			max, idx = x, i
		}
	}
	if idx == -1 {
		max = 0
	}
	return max, idx
}

// RemoveMean subtracts the mean from v in place and returns v.
func RemoveMean(v []float64) []float64 {
	m := Mean(v)
	for i := range v {
		v[i] -= m
	}
	return v
}

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// LeastSquaresGain returns the scalar g minimising ||ref - g·x||².
// It is used to align a processed waveform with its reference before
// computing distortion power, removing the (irrelevant) chain gain.
func LeastSquaresGain(ref, x []float64) float64 {
	den := Dot(x, x)
	if den == 0 {
		return 0
	}
	return Dot(ref, x) / den
}

// KthLargest returns the k-th largest value of a (k = 1 is the maximum),
// reordering a in place (quickselect). k <= 0 gives +Inf and k > len(a)
// gives -Inf. The sparsifying thresholds (IHT's hard threshold, the
// detector's sparse training copies) select their atoms with it.
func KthLargest(a []float64, k int) float64 {
	if k <= 0 {
		return math.Inf(1)
	}
	if k > len(a) {
		return math.Inf(-1)
	}
	lo, hi := 0, len(a)-1
	target := k - 1 // index in descending order
	for lo < hi {
		p := a[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] > p {
				i++
			}
			for a[j] < p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if target <= j {
			hi = j
		} else if target >= i {
			lo = i
		} else {
			break
		}
	}
	return a[target]
}
