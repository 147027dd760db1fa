package classify

import (
	"math"
	"sort"
	"testing"

	"efficsense/internal/dsp"
	"efficsense/internal/eeg"
	"efficsense/internal/xrand"
)

// The oracles below are verbatim copies of the serial training path the
// fan-out replaced (the forward DCT spelled as one Dot per row, the way
// DCT.Forward computed it). The optimised path must match them bit for
// bit at every worker count.

func keepTopKReference(c []float64, k int) {
	if k >= len(c) {
		return
	}
	idx := make([]int, len(c))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(c[idx[a]]) > math.Abs(c[idx[b]])
	})
	for _, i := range idx[k:] {
		c[i] = 0
	}
}

func sparsifyReference(v []float64, frame, keep int) []float64 {
	d := dsp.NewDCT(frame)
	out := make([]float64, len(v))
	copy(out, v)
	for start := 0; start+frame <= len(v); start += frame {
		x := out[start : start+frame]
		c := make([]float64, frame)
		for k := range c {
			c[k] = dsp.Dot(d.Column(k), x)
		}
		keepTopKReference(c, keep)
		copy(out[start:start+frame], d.Inverse(c))
	}
	return out
}

func trainDetectorReference(ds *eeg.Dataset, cfg DetectorConfig) *Detector {
	cfg = cfg.withDefaults()
	rng := xrand.Derive(cfg.Seed, "detector-augment")
	var x [][]float64
	var y []float64
	for _, rec := range ds.Records {
		label := 0.0
		if rec.Label == eeg.Ictal {
			label = 1.0
		}
		rms := rmsOf(rec.Samples)
		for _, lvl := range cfg.AugmentNoise {
			v := rec.Samples
			if lvl > 0 {
				noisy := make([]float64, len(v))
				sigma := lvl * rms
				for i, s := range v {
					noisy[i] = s + rng.Normal(0, sigma)
				}
				v = noisy
			}
			variants := [][]float64{v}
			if !cfg.SkipSparse {
				variants = append(variants, sparsifyReference(v, cfg.SparseFrame, cfg.SparseKeep))
			}
			win := 0
			if cfg.WindowSeconds > 0 {
				win = int(cfg.WindowSeconds * rec.Rate)
			}
			for _, w := range variants {
				if win > 0 && len(w) >= win {
					for start := 0; start+win <= len(w); start += win {
						x = append(x, Features(w[start:start+win], rec.Rate))
						y = append(y, label)
					}
				} else {
					x = append(x, Features(w, rec.Rate))
					y = append(y, label)
				}
			}
		}
	}
	scaler := FitScaler(x)
	for i, row := range x {
		x[i] = scaler.Transform(row)
	}
	net := NewMLP(FeatureCount, cfg.Hidden, cfg.Seed)
	net.Train(x, y, cfg.Train)
	return &Detector{scaler: scaler, net: net, Threshold: 0.5}
}

// featuresReference is Features before its first-difference loops were
// fused: line length, zero crossings and the derivative (a fresh slice,
// then dsp.RMS) in three passes.
func featuresReference(v []float64, rate float64) []float64 {
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
	var ll float64
	for i := 1; i < len(w); i++ {
		ll += math.Abs(w[i] - w[i-1])
	}
	out[5] = ll / (float64(len(w)-1) * rms)
	var zc float64
	for i := 1; i < len(w); i++ {
		if (w[i] >= 0) != (w[i-1] >= 0) {
			zc++
		}
	}
	out[6] = zc / float64(len(w)-1)
	out[7] = psd.MedianFrequency() / nyq
	out[8] = psd.SpectralEdge(0.9) / nyq
	out[9] = math.Log1p(dsp.MaxAbs(w) / rms)
	deriv := make([]float64, len(w)-1)
	for i := range deriv {
		deriv[i] = w[i+1] - w[i]
	}
	out[10] = dsp.RMS(deriv) / rms
	peak, meanLow := psdPeakAndMean(psd, 2.5, 6.5, 0.5, 16)
	if meanLow > 0 {
		out[11] = math.Log1p(peak / meanLow)
	}
	f0 := psdArgmax(psd, 2.5, 6.5)
	if f0 > 0 && total > 0 {
		fund := psd.BandPower(f0-0.7, f0+0.7)
		harm := psd.BandPower(2*f0-1, 2*f0+1)
		if fund > 0 {
			out[12] = harm / (fund + 1e-30)
		}
	}
	out[13] = math.Log10(rms / 1e-6)
	return out
}

func firstBitDiff(a, b []float64) int {
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

func TestKeepTopKMatchesReference(t *testing.T) {
	rng := xrand.New(4)
	distinct := make([]float64, 384)
	rng.FillNormal(distinct, 0, 1)
	// Ties away from the k-th magnitude leave the selection unambiguous.
	tiedAway := []float64{9, -9, 1, 7, -0.5, 6, 2, -2}
	tiedAtK := []float64{5, -3, 1, 3, -0.5, 9, -3, 2} // 3rd..5th largest are |3|
	zeros := []float64{0, math.Copysign(0, -1), 0, 0, math.Copysign(0, -1), 0}
	withNaN := []float64{4, math.NaN(), -1, 6, 2, -8}
	cases := []struct {
		name string
		c    []float64
		k    int
	}{
		{"distinct", distinct, 24},
		{"distinct k=1", distinct, 1},
		{"distinct k=0", distinct, 0},
		{"ties away from k", tiedAway, 3},
		{"tie at k", tiedAtK, 3},
		{"tie at k, k=4", tiedAtK, 4},
		{"all zero", zeros, 2},
		{"k = len", distinct, len(distinct)},
		{"k > len", tiedAtK, 20},
		{"NaN", withNaN, 3},
		{"empty", nil, 0},
	}
	for _, tc := range cases {
		got := append([]float64(nil), tc.c...)
		want := append([]float64(nil), tc.c...)
		keepTopK(got, tc.k, make([]float64, len(got)))
		keepTopKReference(want, tc.k)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Errorf("%s: entry %d = %v, reference %v (got %v, want %v)", tc.name, i, got[i], want[i], got, want)
		}
	}
}

// TestFeaturesMatchesReference pins the feature vector bit for bit on
// ictal and interictal records, their sparsified and noisy copies, and
// the short and degenerate inputs.
func TestFeaturesMatchesReference(t *testing.T) {
	ds := eeg.Synthesize(eeg.DefaultConfig(8, 4))
	rng := xrand.New(8)
	var inputs [][]float64
	for _, r := range ds.Records {
		noisy := dsp.Clone(r.Samples)
		for i := range noisy {
			noisy[i] += rng.Normal(0, 2e-5)
		}
		inputs = append(inputs, r.Samples, noisy,
			sparsify(r.Samples, dsp.NewDCT(384).ForwardLayout(), 24), r.Samples[:500], r.Samples[:32])
	}
	inputs = append(inputs, make([]float64, 600), []float64{1, 2})
	for i, v := range inputs {
		if j := firstBitDiff(Features(v, ds.Rate), featuresReference(v, ds.Rate)); j >= 0 {
			t.Fatalf("input %d (%d samples): feature %d (%s) differs from the reference", i, len(v), j, FeatureNames[j])
		}
	}
}

func TestSparsifyMatchesReference(t *testing.T) {
	rec := eeg.Synthesize(eeg.DefaultConfig(6, 2)).Records[1].Samples
	for _, tc := range []struct{ frame, keep int }{{384, 24}, {64, 5}, {7, 2}} {
		got := sparsify(rec, dsp.NewDCT(tc.frame).ForwardLayout(), tc.keep)
		want := sparsifyReference(rec, tc.frame, tc.keep)
		if i := firstBitDiff(got, want); i >= 0 {
			t.Fatalf("frame %d keep %d: sample %d = %v, reference %v", tc.frame, tc.keep, i, got[i], want[i])
		}
	}
}

// TestTrainDetectorMatchesReference pins the fan-out's order contract:
// five records split into uneven batches at every worker count the test
// runs with (make setup-identity runs 1, 2 and 4), yet the trained
// weights match the serial oracle exactly.
func TestTrainDetectorMatchesReference(t *testing.T) {
	ds := eeg.Synthesize(eeg.DefaultConfig(12, 5))
	for _, cfg := range []DetectorConfig{
		{Seed: 3, Train: TrainOptions{Epochs: 3}},
		{Seed: 4, WindowSeconds: DefaultWindowSeconds, Train: TrainOptions{Epochs: 2}},
		{Seed: 5, SkipSparse: true, AugmentNoise: []float64{0.3, 0}, Train: TrainOptions{Epochs: 2}},
	} {
		got := TrainDetector(ds, cfg).Fingerprint()
		if want := trainDetectorReference(ds, cfg).Fingerprint(); got != want {
			t.Errorf("config %+v: detector fingerprint %016x, reference %016x", cfg, got, want)
		}
	}
}
