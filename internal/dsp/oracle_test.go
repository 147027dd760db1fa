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

// referenceForwardDCT is DCT.ForwardInto before the forward transform ran
// on the row kernels: four basis rows share each pass over x, one
// accumulator each, and the last N mod 4 rows take one Dot each.
func referenceForwardDCT(d *DCT, x []float64) []float64 {
	dst := make([]float64, d.n)
	k := 0
	for ; k+4 <= d.n; k += 4 {
		r0, r1 := d.table[k][:len(x)], d.table[k+1][:len(x)]
		r2, r3 := d.table[k+2][:len(x)], d.table[k+3][:len(x)]
		var s0, s1, s2, s3 float64
		for i, xi := range x {
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		dst[k], dst[k+1], dst[k+2], dst[k+3] = s0, s1, s2, s3
	}
	for ; k < d.n; k++ {
		dst[k] = Dot(d.table[k], x)
	}
	return dst
}

// referenceFFT is the FFT before it was planned: an in-place bit-reversal
// by swaps, then every stage's twiddles formed by the running product
// w *= wStep inside the butterfly loop, on interleaved complex data.
// inverse selects the conjugate twiddles and does not scale.
func referenceFFT(x []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic("dsp: FFT length must be a power of two")
	}
	// Bit-reversal permutation.
	for i, j := 0, 0; i < n; i++ {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
		mask := n >> 1
		for j&mask != 0 {
			j &^= mask
			mask >>= 1
		}
		j |= mask
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		ang := sign * 2 * math.Pi / float64(size)
		wStep := complex(math.Cos(ang), math.Sin(ang))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// referenceIFFT is IFFT before it was planned.
func referenceIFFT(x []complex128) {
	referenceFFT(x, true)
	n := float64(len(x))
	for i := range x {
		x[i] = complex(real(x[i])/n, imag(x[i])/n)
	}
}

// referenceFFTReal is FFTReal before it was planned.
func referenceFFTReal(v []float64) []complex128 {
	x := make([]complex128, NextPow2(len(v)))
	for i, s := range v {
		x[i] = complex(s, 0)
	}
	referenceFFT(x, false)
	return x
}

// referenceMagnitudeSpectrum is MagnitudeSpectrum before it was planned.
func referenceMagnitudeSpectrum(v []float64, window []float64) []float64 {
	n := len(v)
	if n == 0 {
		return nil
	}
	buf := make([]float64, n)
	copy(buf, v)
	var coherentGain float64 = 1
	if window != nil {
		var wsum float64
		for i := range buf {
			buf[i] *= window[i]
			wsum += window[i]
		}
		coherentGain = wsum / float64(n)
	}
	spec := referenceFFTReal(buf)
	m := len(spec)/2 + 1
	out := make([]float64, m)
	norm := 2 / (float64(n) * coherentGain)
	for k := 0; k < m; k++ {
		mag := math.Hypot(real(spec[k]), imag(spec[k]))
		if k == 0 || k == len(spec)/2 {
			out[k] = mag / (float64(n) * coherentGain)
		} else {
			out[k] = mag * norm
		}
	}
	return out
}

// referenceWelch is Welch before it was planned: a Hann window computed
// per call and one referenceFFT per segment on an interleaved buffer.
func referenceWelch(v []float64, sampleRate float64, segLen int) PSD {
	if len(v) == 0 || sampleRate <= 0 {
		return PSD{}
	}
	n := NextPow2(segLen)
	if n > len(v) {
		n = NextPow2(len(v)) / 2
		if n < 2 {
			n = 2
		}
	}
	if n > len(v) {
		n = len(v) // tiny input: single rectangular-ish segment
	}
	win := Hann(n)
	var winPower float64
	for _, w := range win {
		winPower += w * w
	}
	hop := n / 2
	if hop == 0 {
		hop = 1
	}
	m := n/2 + 1
	acc := make([]float64, m)
	segments := 0
	buf := make([]complex128, NextPow2(n))
	for start := 0; start+n <= len(v); start += hop {
		for i := range buf {
			buf[i] = 0
		}
		for i := 0; i < n; i++ {
			buf[i] = complex(v[start+i]*win[i], 0)
		}
		referenceFFT(buf, false)
		scale := 1 / (sampleRate * winPower)
		for k := 0; k < m; k++ {
			re, im := real(buf[k]), imag(buf[k])
			p := (re*re + im*im) * scale
			if k != 0 && k != len(buf)/2 {
				p *= 2 // fold negative frequencies
			}
			acc[k] += p
		}
		segments++
	}
	if segments == 0 {
		return PSD{}
	}
	binW := sampleRate / float64(NextPow2(n))
	freqs := make([]float64, m)
	for k := range freqs {
		freqs[k] = float64(k) * binW
		acc[k] /= float64(segments)
	}
	return PSD{Freqs: freqs, Density: acc, BinWidth: binW}
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

// TestDCTForwardIntoMatchesReference pins the forward transform, through
// Forward and through a reused DCTForward, to the four-accumulator loop
// at every length mod 4 (the AddRows4 groups and their Axpy tail).
func TestDCTForwardIntoMatchesReference(t *testing.T) {
	rng := xrand.New(9)
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 384} {
		d := NewDCT(n)
		fwd := d.ForwardLayout()
		x := make([]float64, n)
		rng.FillNormal(x, 0, 1)
		want := referenceForwardDCT(d, x)
		if i := sameBits(d.Forward(x), want); i >= 0 {
			t.Fatalf("n=%d: Forward differs from the reference at %d", n, i)
		}
		dst := make([]float64, n)
		for trial := 0; trial < 3; trial++ {
			for i := range dst {
				dst[i] = math.NaN() // stale contents must be overwritten
			}
			if i := sameBits(fwd.Into(dst, x), want); i >= 0 {
				t.Fatalf("n=%d trial %d: DCTForward.Into differs from the reference at %d", n, trial, i)
			}
			rng.FillNormal(x, 0, 1)
			want = referenceForwardDCT(d, x)
		}
	}
}

// sameComplexBits reports the first index where a and b differ in the
// bit pattern of a real or imaginary part (or in length), or -1.
func sameComplexBits(a, b []complex128) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// TestFFTMatchesReference pins FFT and IFFT to the unplanned loop at
// every power of two from 1 to 4096 — the scalar stages (half-lengths 1
// and 2) and the vector stages — on complex, real-only and all-zero
// inputs, and FFTReal and MagnitudeSpectrum (windowed or not) on real
// inputs, including lengths that zero-pad.
func TestFFTMatchesReference(t *testing.T) {
	rng := xrand.New(11)
	for n := 1; n <= 4096; n <<= 1 {
		for _, kind := range []string{"random", "real", "zero"} {
			x := make([]complex128, n)
			for i := range x {
				switch kind {
				case "random":
					x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
				case "real":
					x[i] = complex(rng.Normal(0, 1), 0)
				}
			}
			got, want := append([]complex128(nil), x...), append([]complex128(nil), x...)
			FFT(got)
			referenceFFT(want, false)
			if i := sameComplexBits(got, want); i >= 0 {
				t.Fatalf("n=%d %s: FFT bin %d = %v, reference %v", n, kind, i, got[i], want[i])
			}
			copy(got, x)
			copy(want, x)
			IFFT(got)
			referenceIFFT(want)
			if i := sameComplexBits(got, want); i >= 0 {
				t.Fatalf("n=%d %s: IFFT sample %d = %v, reference %v", n, kind, i, got[i], want[i])
			}
		}
	}
	for _, n := range []int{0, 1, 2, 3, 31, 32, 33, 511, 512, 513, 1000} {
		v := make([]float64, n)
		rng.FillNormal(v, 0, 1)
		if i := sameComplexBits(FFTReal(v), referenceFFTReal(v)); i >= 0 {
			t.Fatalf("n=%d: FFTReal bin %d differs from the reference", n, i)
		}
		for _, win := range [][]float64{nil, Hann(n), BlackmanHarris(n)} {
			if i := sameBits(MagnitudeSpectrum(v, win), referenceMagnitudeSpectrum(v, win)); i >= 0 {
				t.Fatalf("n=%d: MagnitudeSpectrum bin %d differs from the reference", n, i)
			}
		}
	}
}

// TestWelchMatchesReference pins Welch to the unplanned estimate across
// input lengths around the segment lengths (one segment, many, segments
// shortened to fit the input, a one-sample input) and the detector's
// record length, on noise with a DC offset.
func TestWelchMatchesReference(t *testing.T) {
	rng := xrand.New(12)
	for _, n := range []int{1, 2, 3, 31, 32, 33, 511, 512, 513, 12080} {
		v := make([]float64, n)
		rng.FillNormal(v, 0.3, 1)
		for _, seg := range []int{1, 4, 256, 512, 1000} {
			got, want := Welch(v, 537.6, seg), referenceWelch(v, 537.6, seg)
			if i := sameBits(got.Density, want.Density); i >= 0 {
				t.Fatalf("n=%d seg=%d: density bin %d = %v, reference %v", n, seg, i, got.Density[i], want.Density[i])
			}
			if i := sameBits(got.Freqs, want.Freqs); i >= 0 {
				t.Fatalf("n=%d seg=%d: frequency %d differs from the reference", n, seg, i)
			}
			if math.Float64bits(got.BinWidth) != math.Float64bits(want.BinWidth) {
				t.Fatalf("n=%d seg=%d: bin width %v, reference %v", n, seg, got.BinWidth, want.BinWidth)
			}
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
