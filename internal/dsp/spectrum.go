package dsp

import "math"

// PSD is a one-sided power spectral density estimate.
type PSD struct {
	// Freqs holds the bin center frequencies (Hz).
	Freqs []float64
	// Density holds the PSD values (signal-units²/Hz).
	Density []float64
	// BinWidth is the frequency resolution (Hz).
	BinWidth float64
}

// Welch estimates the one-sided PSD of v sampled at sampleRate using
// Welch's method: Hann-windowed segments of length segLen (rounded up to a
// power of two) with 50 % overlap. Parseval holds: integrating the density
// over frequency recovers the signal power.
func Welch(v []float64, sampleRate float64, segLen int) PSD {
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
	// n is a power of two on every branch (the last only for len(v) = 1),
	// so the plan's window is the segment's.
	p := planFFT(n)
	hop := n / 2
	if hop == 0 {
		hop = 1
	}
	m := n/2 + 1
	acc := make([]float64, m)
	segments := 0
	buf := make([]float64, 2*p.n)
	re, im := buf[:p.n], buf[p.n:]
	scale := 1 / (sampleRate * p.hannPower)
	for start := 0; start+n <= len(v); start += hop {
		p.load(re, im, v[start:start+n], p.hann)
		p.run(re, im, false)
		for k, a := range acc {
			pk := (re[k]*re[k] + im[k]*im[k]) * scale
			if k != 0 && k != n/2 {
				pk *= 2 // fold negative frequencies
			}
			acc[k] = a + pk
		}
		segments++
	}
	if segments == 0 {
		return PSD{}
	}
	binW := sampleRate / float64(n)
	freqs := make([]float64, m)
	for k := range freqs {
		freqs[k] = float64(k) * binW
		acc[k] /= float64(segments)
	}
	return PSD{Freqs: freqs, Density: acc, BinWidth: binW}
}

// BandPower integrates the PSD between lo and hi Hz (inclusive).
func (p PSD) BandPower(lo, hi float64) float64 {
	var sum float64
	for i, f := range p.Freqs {
		if f >= lo && f <= hi {
			sum += p.Density[i] * p.BinWidth
		}
	}
	return sum
}

// TotalPower integrates the full PSD.
func (p PSD) TotalPower() float64 {
	if len(p.Freqs) == 0 {
		return 0
	}
	return p.BandPower(0, p.Freqs[len(p.Freqs)-1])
}

// BandPower computes the power of v (sampled at sampleRate) in [lo, hi] Hz
// directly via a Welch estimate with a default segment length.
func BandPower(v []float64, sampleRate, lo, hi float64) float64 {
	seg := 256
	if len(v) < seg {
		seg = len(v)
	}
	return Welch(v, sampleRate, seg).BandPower(lo, hi)
}

// MedianFrequency returns the frequency below which half the spectral
// power of the PSD lies, a classic EEG feature.
func (p PSD) MedianFrequency() float64 {
	total := p.TotalPower()
	if total == 0 {
		return 0
	}
	var cum float64
	for i, d := range p.Density {
		cum += d * p.BinWidth
		if cum >= total/2 {
			return p.Freqs[i]
		}
	}
	return p.Freqs[len(p.Freqs)-1]
}

// SpectralEdge returns the frequency below which frac (0..1) of the power
// lies.
func (p PSD) SpectralEdge(frac float64) float64 {
	total := p.TotalPower()
	if total == 0 || len(p.Freqs) == 0 {
		return 0
	}
	target := math.Min(math.Max(frac, 0), 1) * total
	var cum float64
	for i, d := range p.Density {
		cum += d * p.BinWidth
		if cum >= target {
			return p.Freqs[i]
		}
	}
	return p.Freqs[len(p.Freqs)-1]
}
