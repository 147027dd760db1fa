// Package classify provides the seizure detector used as the
// application-accuracy goal function (paper Section IV). The paper uses
// the pre-trained deep network of Ullah et al. [20] as a black box; this
// reproduction substitutes a feature-based multilayer perceptron trained
// in pure Go. Features are deliberately gain-invariant (relative band
// powers, normalised line length, shape statistics) so the detector
// responds to what the front-end actually degrades — in-band SNR and
// waveform fidelity — and not to the chain's arbitrary gain.
package classify

import (
	"math"

	"efficsense/internal/dsp"
)

// FeatureCount is the dimensionality of the feature vector.
const FeatureCount = 14

// FeatureNames labels the vector entries for reports. All features except
// log-rms are gain-invariant; log-rms assumes the waveform is referred to
// electrode scale (volts at the sensor), which the evaluation framework
// guarantees by dividing chain outputs by their known design gain.
var FeatureNames = [FeatureCount]string{
	"relpow-delta", "relpow-theta", "relpow-alpha", "relpow-beta", "relpow-gamma",
	"line-length", "zero-cross", "median-freq", "edge-90", "peak-factor", "mobility",
	"rhythmicity", "harmonic-ratio", "log-rms",
}

// eegBands are the canonical EEG bands (Hz); the discharge fundamental of
// ictal records falls in delta/theta, its spike harmonics spread upward.
var eegBands = [5][2]float64{
	{0.5, 4},  // delta
	{4, 8},    // theta
	{8, 13},   // alpha
	{13, 30},  // beta
	{30, 100}, // gamma (upper edge clamped to Nyquist at runtime)
}

// Features computes the gain-invariant feature vector of a waveform
// sampled at rate Hz. It is safe for arbitrary amplitude scales (the
// front-end output may be volts after gain while the electrode signal is
// microvolts).
func Features(v []float64, rate float64) []float64 {
	out := make([]float64, FeatureCount)
	if len(v) < 32 || rate <= 0 {
		return out
	}
	w := dsp.RemoveMean(dsp.Clone(v))
	rms := dsp.RMS(w)
	if rms == 0 {
		return out
	}
	seg := 512
	if len(w) < seg {
		seg = len(w)
	}
	psd := dsp.Welch(w, rate, seg)
	total := psd.TotalPower()
	nyq := rate / 2
	for i, band := range eegBands {
		hi := math.Min(band[1], nyq)
		if total > 0 && hi > band[0] {
			out[i] = psd.BandPower(band[0], hi) / total
		}
	}
	// One pass over the first difference feeds three features: the line
	// length (sum of |Δ|), the zero crossings and the derivative energy
	// of the Hjorth mobility below.
	var ll, zc, de float64
	for i := 1; i < len(w); i++ {
		d := w[i] - w[i-1]
		ll += math.Abs(d)
		de += d * d
		if (w[i] >= 0) != (w[i-1] >= 0) {
			zc++
		}
	}
	// Line length normalised by RMS and sample count: mean absolute
	// derivative in units of the signal scale.
	out[5] = ll / (float64(len(w)-1) * rms)
	// Zero-crossing rate.
	out[6] = zc / float64(len(w)-1)
	// Spectral shape.
	out[7] = psd.MedianFrequency() / nyq
	out[8] = psd.SpectralEdge(0.9) / nyq
	// Peak factor (crest): peak over RMS, log-compressed.
	out[9] = math.Log1p(dsp.MaxAbs(w) / rms)
	// Hjorth mobility: RMS of derivative over RMS of signal, in cycles.
	out[10] = math.Sqrt(de/float64(len(w)-1)) / rms
	// Rhythmicity: ictal spike-wave discharges are narrowband (a sharp
	// 3–5 Hz peak), while broadband noise — including compressive-sensing
	// reconstruction residue — spreads across the low band. The peak-to-
	// mean PSD ratio in the discharge band separates the two where plain
	// band power cannot.
	peak, meanLow := psdPeakAndMean(psd, 2.5, 6.5, 0.5, 16)
	if meanLow > 0 {
		out[11] = math.Log1p(peak / meanLow)
	}
	// Harmonic ratio: a spike train puts energy at 2× the discharge
	// fundamental; an unstructured low-frequency blob does not.
	f0 := psdArgmax(psd, 2.5, 6.5)
	if f0 > 0 && total > 0 {
		fund := psd.BandPower(f0-0.7, f0+0.7)
		harm := psd.BandPower(2*f0-1, 2*f0+1)
		if fund > 0 {
			out[12] = harm / (fund + 1e-30)
		}
	}
	// Absolute scale: seizure discharges are several-fold larger than
	// background at the electrode, and front-end noise blobs are small —
	// the one cue that survives any spectral distortion. Expressed as
	// decades above 1 µVrms.
	out[13] = math.Log10(rms / 1e-6)
	return out
}

// psdPeakAndMean returns the maximum PSD bin inside [peakLo, peakHi] and
// the mean PSD over [meanLo, meanHi].
func psdPeakAndMean(psd dsp.PSD, peakLo, peakHi, meanLo, meanHi float64) (peak, mean float64) {
	n := 0
	for i, f := range psd.Freqs {
		d := psd.Density[i]
		if f >= peakLo && f <= peakHi && d > peak {
			peak = d
		}
		if f >= meanLo && f <= meanHi {
			mean += d
			n++
		}
	}
	if n > 0 {
		mean /= float64(n)
	}
	return peak, mean
}

// psdArgmax returns the frequency of the strongest PSD bin in [lo, hi].
func psdArgmax(psd dsp.PSD, lo, hi float64) float64 {
	best, bestF := -1.0, 0.0
	for i, f := range psd.Freqs {
		if f >= lo && f <= hi && psd.Density[i] > best {
			best = psd.Density[i]
			bestF = f
		}
	}
	return bestF
}

// Scaler standardises feature vectors to zero mean and unit variance
// using statistics frozen at fit time.
type Scaler struct {
	Mean  []float64
	Scale []float64
}

// FitScaler computes standardisation statistics over the rows of x.
func FitScaler(x [][]float64) *Scaler {
	if len(x) == 0 {
		return &Scaler{}
	}
	d := len(x[0])
	s := &Scaler{Mean: make([]float64, d), Scale: make([]float64, d)}
	for _, row := range x {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Scale[j] += d * d
		}
	}
	for j := range s.Scale {
		s.Scale[j] = math.Sqrt(s.Scale[j] / float64(len(x)))
		if s.Scale[j] < 1e-12 {
			s.Scale[j] = 1
		}
	}
	return s
}

// Transform returns the standardised copy of row.
func (s *Scaler) Transform(row []float64) []float64 {
	if len(s.Mean) == 0 {
		return dsp.Clone(row)
	}
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = (v - s.Mean[j]) / s.Scale[j]
	}
	return out
}
