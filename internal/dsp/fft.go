package dsp

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// fftPlan holds what a radix-2 decimation-in-time FFT of one power-of-two
// length needs besides the data: the bit-reversal permutation, the
// twiddle factors of every stage in both directions, and the Hann window
// Welch applies at this length. Twiddles are not cos/sin per index: each
// stage's are the running products w_k = w_{k-1}·wStep that the classic
// in-place loop forms, so a planned transform rounds exactly as that loop
// does. A plan is read-only after construction and shared by every
// goroutine.
type fftPlan struct {
	n   int
	rev []int32
	// tw[0] is the forward table, tw[1] the inverse one; the half-h stage
	// uses re[h-1 : 2h-1] and im[h-1 : 2h-1].
	tw [2]struct{ re, im []float64 }
	// hann is Hann(n) and hannPower its sum of squares.
	hann      []float64
	hannPower float64
}

// fftPlans caches one plan per power-of-two length, indexed by log2(n).
var fftPlans [bits.UintSize]atomic.Pointer[fftPlan]

// planFFT returns the plan for length n, a power of two >= 1, building it
// on first use. Racing first uses build equal plans; one of them wins.
func planFFT(n int) *fftPlan {
	slot := &fftPlans[bits.TrailingZeros(uint(n))]
	if p := slot.Load(); p != nil {
		return p
	}
	p := newFFTPlan(n)
	if !slot.CompareAndSwap(nil, p) {
		p = slot.Load()
	}
	return p
}

func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{n: n, rev: make([]int32, n)}
	for i, j := 0, 0; i < n; i++ {
		p.rev[i] = int32(j)
		mask := n >> 1
		for j&mask != 0 {
			j &^= mask
			mask >>= 1
		}
		j |= mask
	}
	for dir, sign := range [2]float64{-1, 1} {
		re, im := make([]float64, max(n-1, 0)), make([]float64, max(n-1, 0))
		for half := 1; half < n; half <<= 1 {
			ang := sign * 2 * math.Pi / float64(2*half)
			wStep := complex(math.Cos(ang), math.Sin(ang))
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				re[half-1+k], im[half-1+k] = real(w), imag(w)
				w *= wStep
			}
		}
		p.tw[dir].re, p.tw[dir].im = re, im
	}
	p.hann = Hann(n)
	for _, w := range p.hann {
		p.hannPower += w * w
	}
	return p
}

// load gathers v (zero-padded to the plan length) into bit-reversed order
// in the split arrays re and im; a nil win leaves v unweighted, otherwise
// each sample is multiplied by its window value. im is all zeros.
func (p *fftPlan) load(re, im, v, win []float64) {
	re, im = re[:p.n], im[:p.n]
	clear(im)
	switch {
	case len(v) != p.n:
		for i, r := range p.rev {
			switch {
			case int(r) >= len(v):
				re[i] = 0
			case win != nil:
				re[i] = v[r] * win[r]
			default:
				re[i] = v[r]
			}
		}
	case win != nil:
		win = win[:len(v)]
		for i, r := range p.rev {
			re[i] = v[r] * win[r]
		}
	default:
		for i, r := range p.rev {
			re[i] = v[r]
		}
	}
}

// run transforms split arrays already in bit-reversed order, one
// butterfly stage per doubling of the block size.
func (p *fftPlan) run(re, im []float64, inverse bool) {
	tw := p.tw[0]
	if inverse {
		tw = p.tw[1]
	}
	re, im = re[:p.n], im[:p.n]
	for h := 1; h < p.n; h <<= 1 {
		butterflies(re, im, tw.re[h-1:2*h-1], tw.im[h-1:2*h-1])
	}
}

// complexTransform runs the planned FFT over interleaved complex data in
// place, scaling every output by 1/len(x) when inverse.
func complexTransform(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("dsp: FFT length must be a power of two")
	}
	p := planFFT(n)
	buf := make([]float64, 2*n)
	re, im := buf[:n], buf[n:]
	for i, r := range p.rev {
		re[i], im[i] = real(x[r]), imag(x[r])
	}
	p.run(re, im, inverse)
	if !inverse {
		for i := range x {
			x[i] = complex(re[i], im[i])
		}
		return
	}
	nf := float64(n)
	for i := range x {
		x[i] = complex(re[i]/nf, im[i]/nf)
	}
}

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two (panic otherwise). The
// transform is unnormalised: IFFT(FFT(x)) == x.
func FFT(x []complex128) {
	complexTransform(x, false)
}

// IFFT computes the inverse FFT of x in place, including the 1/N
// normalisation. len(x) must be a power of two.
func IFFT(x []complex128) {
	complexTransform(x, true)
}

// FFTReal computes the FFT of a real sequence, zero-padding to the next
// power of two, and returns the complex spectrum (length NextPow2(len(v))).
func FFTReal(v []float64) []complex128 {
	p := planFFT(NextPow2(len(v)))
	buf := make([]float64, 2*p.n)
	re, im := buf[:p.n], buf[p.n:]
	p.load(re, im, v, nil)
	p.run(re, im, false)
	x := make([]complex128, p.n)
	for i := range x {
		x[i] = complex(re[i], im[i])
	}
	return x
}

// MagnitudeSpectrum returns |X[k]| for k in [0, N/2], computed from the
// real input v after applying the given window (nil = rectangular). The
// result is amplitude-normalised so a full-scale sine of amplitude A in
// the middle of a bin reads approximately A.
func MagnitudeSpectrum(v []float64, window []float64) []float64 {
	n := len(v)
	if n == 0 {
		return nil
	}
	var coherentGain float64 = 1
	if window != nil {
		if len(window) != n {
			panic("dsp: window length mismatch")
		}
		var wsum float64
		for _, w := range window {
			wsum += w
		}
		coherentGain = wsum / float64(n)
	}
	p := planFFT(NextPow2(n))
	buf := make([]float64, 2*p.n)
	re, im := buf[:p.n], buf[p.n:]
	p.load(re, im, v, window)
	p.run(re, im, false)
	m := p.n/2 + 1
	out := make([]float64, m)
	norm := 2 / (float64(n) * coherentGain)
	for k := 0; k < m; k++ {
		mag := math.Hypot(re[k], im[k])
		if k == 0 || k == p.n/2 {
			out[k] = mag / (float64(n) * coherentGain)
		} else {
			out[k] = mag * norm
		}
	}
	return out
}
