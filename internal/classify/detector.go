package classify

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sort"

	"efficsense/internal/dsp"
	"efficsense/internal/eeg"
	"efficsense/internal/par"
	"efficsense/internal/xrand"
)

// DefaultWindowSeconds is the nominal decision-window duration of the
// windowed protocol (≈ the 512-sample windows of ref [20] at the Bonn
// native rate).
const DefaultWindowSeconds = 3.0

// Detector is the trained seizure classifier: feature extraction,
// standardisation and the MLP, bundled behind a waveform-level API so the
// pathfinding framework can treat it as the black-box accuracy metric the
// paper treats its network [20] as.
type Detector struct {
	scaler *Scaler
	net    *MLP
	// Threshold converts the ictal probability into a decision (0.5).
	Threshold float64
}

// DetectorConfig controls training.
type DetectorConfig struct {
	// Hidden is the MLP hidden width (default 12).
	Hidden int
	// AugmentNoise lists relative white-noise levels (fraction of each
	// record's RMS) added as extra training copies, teaching the detector
	// the front-end's noise regime. Default {0, 0.1, 0.25, 0.5}.
	AugmentNoise []float64
	// AugmentSparse additionally trains on DCT-sparsified copies of each
	// noisy variant — the waveform class a compressive-sensing
	// reconstruction produces. Without it the detector mistakes sparse
	// low-frequency noise residue for a discharge (all-false-positive
	// collapse at high noise floors). Default on; set SkipSparse to
	// disable for ablations.
	SkipSparse bool
	// SparseFrame and SparseKeep control the sparsifier (defaults 384 and
	// 24, matching the CS chain's frame length and atom budget).
	SparseFrame, SparseKeep int
	// WindowSeconds switches training to window-level examples of this
	// duration (the protocol of the paper's detector [20], which
	// classifies ≈3 s segments). Each window inherits its record's label.
	// Zero trains on whole records.
	WindowSeconds float64
	// Train are the optimiser options.
	Train TrainOptions
	// Seed drives initialisation and augmentation.
	Seed int64
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Hidden <= 0 {
		c.Hidden = 12
	}
	if c.AugmentNoise == nil {
		c.AugmentNoise = []float64{0, 0.1, 0.25, 0.5}
	}
	if c.SparseFrame <= 0 {
		c.SparseFrame = 384
	}
	if c.SparseKeep <= 0 {
		c.SparseKeep = 24
	}
	if c.Train.Seed == 0 {
		c.Train.Seed = c.Seed
	}
	return c
}

// sparsify projects v frame-by-frame onto its keep strongest DCT atoms —
// a cheap stand-in for what a CS reconstruction does to a record. fwd is
// the forward layout of the frame-length DCT.
func sparsify(v []float64, fwd *dsp.DCTForward, keep int) []float64 {
	frame := fwd.N()
	d := dsp.NewDCT(frame)
	out := make([]float64, len(v))
	copy(out, v)
	c := make([]float64, frame)
	mags := make([]float64, frame)
	for start := 0; start+frame <= len(v); start += frame {
		x := out[start : start+frame]
		fwd.Into(c, x)
		keepTopK(c, keep, mags)
		d.InverseInto(x, c)
	}
	return out
}

// keepTopK zeroes all but the k largest-magnitude entries of c; mags
// (at least len(c) long) is scratch. When exactly k entries reach the
// k-th largest magnitude, those k are the ones any descending sort keeps,
// so a quickselect threshold decides. When the k-th magnitude is tied
// (or c holds a NaN), which tied entry survives depends on the order the
// sort leaves them in, so that case still sorts.
func keepTopK(c []float64, k int, mags []float64) {
	if k >= len(c) {
		return
	}
	mags = mags[:len(c)]
	for i, x := range c {
		mags[i] = math.Abs(x)
	}
	thr := dsp.KthLargest(mags, k)
	atLeast, below := 0, 0
	for _, m := range mags {
		if m >= thr {
			atLeast++
		} else if m < thr {
			below++
		}
	}
	if atLeast != k || atLeast+below != len(c) {
		keepTopKSorted(c, k)
		return
	}
	for i, x := range c {
		if math.Abs(x) < thr {
			c[i] = 0
		}
	}
}

// keepTopKSorted is keepTopK by a full sort of the magnitudes.
func keepTopKSorted(c []float64, k int) {
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

// TrainDetector fits a detector on the labelled dataset. Every record
// yields one training copy per AugmentNoise level, and each copy yields
// its own examples and (unless SkipSparse) those of its sparsified
// version. The augmentation noise comes from one stream, drawn serially
// in record then level order; sparsification and feature extraction run
// on every core, GOMAXPROCS records at a time, so at most that many
// records' noisy copies are alive at once. Examples are assembled in
// record, level, variant, window order whatever the worker count, so the
// scaler and the network see the same inputs as a serial run. The
// sparsifier's forward DCT layout is built once here, shared by every
// worker, and dropped when training returns.
func TrainDetector(ds *eeg.Dataset, cfg DetectorConfig) *Detector {
	cfg = cfg.withDefaults()
	rng := xrand.Derive(cfg.Seed, "detector-augment")
	var fwd *dsp.DCTForward
	if !cfg.SkipSparse {
		fwd = dsp.NewDCT(cfg.SparseFrame).ForwardLayout()
	}
	levels := len(cfg.AugmentNoise)
	batch := runtime.GOMAXPROCS(0)
	var x [][]float64
	var y []float64
	for lo := 0; lo < len(ds.Records); lo += batch {
		recs := ds.Records[lo:min(lo+batch, len(ds.Records))]
		copies := make([][]float64, len(recs)*levels)
		for r, rec := range recs {
			rms := rmsOf(rec.Samples)
			for l, lvl := range cfg.AugmentNoise {
				v := rec.Samples
				if lvl > 0 {
					// s + Normal(0, σ) per sample, the draws in one block.
					noisy := make([]float64, len(v))
					rng.FillNormal(noisy, 0, lvl*rms)
					for i, s := range v {
						noisy[i] = s + noisy[i]
					}
					v = noisy
				}
				copies[r*levels+l] = v
			}
		}
		feats := make([][][]float64, len(copies))
		par.For(len(copies), func(j int) {
			feats[j] = copyFeatures(copies[j], recs[j/levels].Rate, fwd, cfg)
		})
		for j, rows := range feats {
			label := 0.0
			if recs[j/levels].Label == eeg.Ictal {
				label = 1.0
			}
			for _, row := range rows {
				x = append(x, row)
				y = append(y, label)
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

// copyFeatures returns the training feature rows of one augmented copy
// v: v's, then (when fwd is set) its sparsified version's, each per
// window (whole-copy when windows are off or v is shorter than one
// window).
func copyFeatures(v []float64, rate float64, fwd *dsp.DCTForward, cfg DetectorConfig) [][]float64 {
	variants := [][]float64{v}
	if fwd != nil {
		variants = append(variants, sparsify(v, fwd, cfg.SparseKeep))
	}
	win := 0
	if cfg.WindowSeconds > 0 {
		win = int(cfg.WindowSeconds * rate)
	}
	var rows [][]float64
	for _, w := range variants {
		if win > 0 && len(w) >= win {
			for start := 0; start+win <= len(w); start += win {
				rows = append(rows, Features(w[start:start+win], rate))
			}
		} else {
			rows = append(rows, Features(w, rate))
		}
	}
	return rows
}

func rmsOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var ss float64
	for _, s := range v {
		ss += s * s
	}
	return math.Sqrt(ss / float64(len(v)))
}

// Fingerprint digests the trained parameters — scaler statistics, every
// network weight and the decision threshold — so two detectors with equal
// fingerprints classify identically. Unlike a pointer identity, the value
// is stable across processes and across retrainings that converge to the
// same weights, which is what lets evaluation caches keyed on it outlive
// the detector instance.
func (d *Detector) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeF := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	writeS := func(v []float64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
		h.Write(buf[:])
		for _, x := range v {
			writeF(x)
		}
	}
	if d.scaler != nil {
		writeS(d.scaler.Mean)
		writeS(d.scaler.Scale)
	}
	if d.net != nil {
		writeS(d.net.w1)
		writeS(d.net.b1)
		writeS(d.net.w2)
		writeF(d.net.b2)
	}
	writeF(d.Threshold)
	return h.Sum64()
}

// Probability returns the ictal probability of a waveform.
func (d *Detector) Probability(v []float64, rate float64) float64 {
	return d.net.Predict(d.scaler.Transform(Features(v, rate)))
}

// Classify returns the predicted class of a waveform.
func (d *Detector) Classify(v []float64, rate float64) eeg.Class {
	if d.Probability(v, rate) >= d.Threshold {
		return eeg.Ictal
	}
	return eeg.Interictal
}

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, TN, FP, FN int
}

// Accuracy returns (TP+TN)/total, the paper's detection-accuracy metric.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.TN + c.FP + c.FN
	if total == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(total)
}

// Sensitivity returns TP/(TP+FN).
func (c Confusion) Sensitivity() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Specificity returns TN/(TN+FP).
func (c Confusion) Specificity() float64 {
	if c.TN+c.FP == 0 {
		return 0
	}
	return float64(c.TN) / float64(c.TN+c.FP)
}

// ClassifyWindowed splits the waveform into windowSamples-long segments,
// classifies each, and returns the majority vote — the protocol of the
// paper's detector [20], which operates on short (≈3 s) windows rather
// than whole 23.6 s records. windowSamples <= 0, or a record shorter than
// one window, falls back to whole-record classification. Ties go to
// Ictal (a miss is the costlier error in seizure monitoring).
func (d *Detector) ClassifyWindowed(v []float64, rate float64, windowSamples int) eeg.Class {
	if windowSamples <= 0 || len(v) < windowSamples {
		return d.Classify(v, rate)
	}
	// Soft vote: average the per-window ictal probabilities. Averaging
	// probabilities is markedly more stable than hard majority voting
	// when individual windows sit near the decision boundary.
	var sum float64
	total := 0
	for start := 0; start+windowSamples <= len(v); start += windowSamples {
		sum += d.Probability(v[start:start+windowSamples], rate)
		total++
	}
	if sum/float64(total) >= d.Threshold {
		return eeg.Ictal
	}
	return eeg.Interictal
}

// EvaluateWaves scores front-end output waveforms against ground-truth
// labels. waves[i] is the chain output for the record with labels[i]; all
// waveforms share the given sample rate.
func (d *Detector) EvaluateWaves(waves [][]float64, rate float64, labels []eeg.Class) Confusion {
	return d.EvaluateWavesWindowed(waves, rate, labels, 0)
}

// EvaluateWavesWindowed is EvaluateWaves with per-window voting (see
// ClassifyWindowed).
func (d *Detector) EvaluateWavesWindowed(waves [][]float64, rate float64, labels []eeg.Class, windowSamples int) Confusion {
	var c Confusion
	for i, w := range waves {
		pred := d.ClassifyWindowed(w, rate, windowSamples)
		switch {
		case pred == eeg.Ictal && labels[i] == eeg.Ictal:
			c.TP++
		case pred == eeg.Interictal && labels[i] == eeg.Interictal:
			c.TN++
		case pred == eeg.Ictal && labels[i] == eeg.Interictal:
			c.FP++
		default:
			c.FN++
		}
	}
	return c
}

// EvaluateDataset scores the detector on raw dataset records.
func (d *Detector) EvaluateDataset(ds *eeg.Dataset) Confusion {
	waves := make([][]float64, len(ds.Records))
	labels := make([]eeg.Class, len(ds.Records))
	for i, r := range ds.Records {
		waves[i] = r.Samples
		labels[i] = r.Label
	}
	return d.EvaluateWaves(waves, ds.Rate, labels)
}
