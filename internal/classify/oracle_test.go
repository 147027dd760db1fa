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

func TestSparsifyMatchesReference(t *testing.T) {
	rec := eeg.Synthesize(eeg.DefaultConfig(6, 2)).Records[1].Samples
	for _, tc := range []struct{ frame, keep int }{{384, 24}, {64, 5}, {7, 2}} {
		got := sparsify(rec, tc.frame, tc.keep)
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
