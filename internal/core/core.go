// Package core is the EffiCSense pathfinding framework itself: it couples
// the behavioural chains (internal/chain), the power/area models
// (internal/power), the application dataset (internal/eeg) and the
// accuracy metric (internal/classify) behind a single
// design-point → figures-of-interest evaluation, the operation every
// sweep and Pareto search in the paper is built from (framework Steps 1–5,
// Fig 2).
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"sync"

	"efficsense/internal/chain"
	"efficsense/internal/classify"
	"efficsense/internal/cs"
	"efficsense/internal/dsp"
	"efficsense/internal/eeg"
	"efficsense/internal/par"
	"efficsense/internal/power"
	"efficsense/internal/siggen"
	"efficsense/internal/tech"
	"efficsense/internal/units"
)

// Architecture selects one of the paper's two systems (Fig 1).
type Architecture int

const (
	// ArchBaseline is the classical chain (Fig 1a).
	ArchBaseline Architecture = iota
	// ArchCS is the passive charge-sharing analog CS chain (Fig 1b).
	ArchCS
	// ArchCSDigital is the digital CS variant: Nyquist ADC + MAC
	// compression (refs [2], [12]).
	ArchCSDigital
	// ArchCSActive is the active analog CS variant: OTA integrators
	// instead of passive sharing (the counterpoint of ref [10]).
	ArchCSActive
)

// String implements fmt.Stringer.
func (a Architecture) String() string {
	switch a {
	case ArchBaseline:
		return "baseline"
	case ArchCS:
		return "cs"
	case ArchCSDigital:
		return "cs-digital"
	case ArchCSActive:
		return "cs-active"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// Architectures returns every defined architecture in enum order.
func Architectures() []Architecture {
	return []Architecture{ArchBaseline, ArchCS, ArchCSDigital, ArchCSActive}
}

// ParseArchitecture inverts Architecture.String: wire names, CSV columns
// and CLI flags all resolve through this one table, so an architecture's
// external name can never drift from its String form.
func ParseArchitecture(name string) (Architecture, error) {
	for _, a := range Architectures() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown architecture %q", name)
}

// DesignPoint is one configuration in the search space of Table III.
type DesignPoint struct {
	// Arch selects the system.
	Arch Architecture
	// Bits is the ADC resolution N (6–8).
	Bits int
	// LNANoise is the input-referred LNA noise floor (V rms, swept
	// 1–20 µV).
	LNANoise float64
	// M is the CS measurement count (75/150/192); ignored for baseline.
	M int
	// CHold is the CS hold capacitor (F); 0 selects the default. Ignored
	// for baseline.
	CHold float64
}

// String renders the point compactly for reports.
func (d DesignPoint) String() string {
	if d.Arch == ArchBaseline {
		return fmt.Sprintf("baseline N=%d vn=%s", d.Bits, units.Format(d.LNANoise, "V"))
	}
	s := fmt.Sprintf("%s N=%d vn=%s M=%d", d.Arch, d.Bits, units.Format(d.LNANoise, "V"), d.M)
	if d.CHold > 0 {
		s += " Ch=" + units.Format(d.CHold, "F")
	}
	return s
}

// Key returns a stable, collision-free identity for the point, usable as
// a memoisation-cache key. Two points compare equal exactly when their
// keys compare equal; float axes are keyed on their exact bit patterns so
// no two distinct sweep values alias.
func (d DesignPoint) Key() string { return string(d.AppendKey(nil)) }

// AppendKey appends Key's bytes to dst and returns the extended slice,
// so hot paths — the sweep engine's per-lookup cache keys — can build
// keys into a reused buffer without fmt or intermediate strings. Key is
// defined in terms of AppendKey, so the two can never drift.
func (d DesignPoint) AppendKey(dst []byte) []byte {
	dst = append(dst, 'a')
	dst = strconv.AppendInt(dst, int64(d.Arch), 10)
	dst = append(dst, ':', 'n')
	dst = strconv.AppendInt(dst, int64(d.Bits), 10)
	dst = append(dst, ':', 'v')
	dst = appendHex16(dst, math.Float64bits(d.LNANoise))
	dst = append(dst, ':', 'm')
	dst = strconv.AppendInt(dst, int64(d.M), 10)
	dst = append(dst, ':', 'c')
	return appendHex16(dst, math.Float64bits(d.CHold))
}

// appendHex16 appends v as 16 zero-padded lowercase hex digits (%016x).
func appendHex16(dst []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return append(dst, b[:]...)
}

// GroupKey returns the point with its ADC resolution cleared: the
// coordinates that determine everything batch evaluation can share
// between points. The LNA realisation depends on the noise floor, the CS
// encoder realisation on (M, C_hold, seed) — never on Bits — so points
// equal under GroupKey share one amplified (baseline) or encoded (CS)
// waveform per record, and a batch engine co-locates them in one
// EvaluateBatch call to pay for that waveform once.
func (d DesignPoint) GroupKey() DesignPoint {
	d.Bits = 0
	return d
}

// Result carries every figure of interest for one design point — the
// quantities the paper's Figs 4 and 7–10 are plotted from.
type Result struct {
	Point DesignPoint
	// MeanSNRdB is the record-averaged SNR versus the band-limited
	// reference (goal function of Fig 7a).
	MeanSNRdB float64
	// Accuracy is the seizure-detection accuracy (goal function of
	// Fig 7b); Confusion carries the full matrix.
	Accuracy  float64
	Confusion classify.Confusion
	// Power is the record-averaged Table II breakdown; TotalPower its sum.
	Power      power.Breakdown
	TotalPower float64
	// AreaCaps is the total design capacitance in C_u,min multiples
	// (Fig 9/10 metric).
	AreaCaps float64
	// Err marks a point whose evaluation failed (for example a recovered
	// panic in a sweep worker): the other fields are zero and the result
	// must be excluded from fronts and optima. Nil for a sound evaluation.
	Err error
}

// Config assembles an Evaluator.
type Config struct {
	Tech tech.Params
	Sys  tech.System
	// Dataset holds the evaluation records (typically a test split).
	Dataset *eeg.Dataset
	// Detector is the trained accuracy metric. Nil skips accuracy (SNR
	// sweeps like Fig 4 don't need it).
	Detector *classify.Detector
	// Metric is the pluggable application-quality metric. When nil, a
	// non-nil Detector is adapted automatically (DetectorMetric), which
	// is the historical behaviour; setting Metric directly lets a
	// scenario score quality without a trained detector.
	Metric Metric
	// Scenario names the registered workload this evaluator scores (""
	// for the default EEG chain). It is folded into the fingerprint so
	// the shared sweep cache never mixes results across workloads whose
	// other inputs happen to coincide.
	Scenario string
	// InputPeak is the expected electrode-signal peak (V) the LNA gain
	// is set from; 0 selects the chain default (250 µV, the EEG scale).
	InputPeak float64
	// ReconMethod selects the CS reconstruction algorithm (OMP default).
	ReconMethod cs.Method
	// NPhi and Sparsity fix the CS frame geometry (defaults 384 / 2).
	NPhi     int
	Sparsity int
	// SimOversample is the grid multiple (default 4).
	SimOversample int
	// WindowSeconds selects the windowed detection protocol: each record
	// is split into windows of this duration, classified per window and
	// decided by majority vote (ref [20] classifies ≈3 s segments). Zero
	// classifies whole records. Use classify.DefaultWindowSeconds for the
	// paper-faithful protocol; the detector should be trained with the
	// same WindowSeconds.
	WindowSeconds float64
	// Seed drives every stochastic realisation.
	Seed int64
}

// Evaluator scores design points on a fixed dataset. It pre-resamples all
// records to the simulation grid once, so sweeping many points stays
// cheap. Evaluate is safe for concurrent use on *different* points
// (internal state is read-only after construction).
type Evaluator struct {
	cfg         Config
	metric      Metric      // resolved quality metric (nil skips accuracy)
	grids       [][]float64 // records on the simulation grid
	refs        [][]float64 // band-limited references at f_sample
	labels      []eeg.Class
	fingerprint string
	scratch     sync.Pool // per-worker *evalScratch for the batch path
}

// DefaultNPhi is the CS frame length N_Φ of a Config that leaves NPhi
// at 0 (Table III).
const DefaultNPhi = 384

// withDefaults fills the frame geometry and grid multiple.
func (c Config) withDefaults() Config {
	if c.NPhi <= 0 {
		c.NPhi = DefaultNPhi
	}
	if c.Sparsity <= 0 {
		c.Sparsity = 2
	}
	if c.SimOversample < 2 {
		c.SimOversample = 4
	}
	return c
}

// common returns the chain parameters of a point under this
// configuration.
func (c Config) common(p DesignPoint) chain.Common {
	return chain.Common{
		Tech:          c.Tech,
		Sys:           c.Sys,
		Bits:          p.Bits,
		LNANoise:      p.LNANoise,
		InputPeak:     c.InputPeak,
		SimOversample: c.SimOversample,
		Seed:          c.Seed,
	}
}

// frontHalf runs the part of a chain shared by a GroupKey group over one
// grid record (AmplifySession or EncodeSession); backHalf finishes one
// point from it into dst (DigitizeSession or FinishSession).
type (
	frontHalf func(s *chain.EvalSession, grid []float64) []float64
	backHalf  func(s *chain.EvalSession, front, dst []float64) chain.Output
)

// newHalves builds the chain of a design point and returns its two
// session halves. It is the one place a design point becomes a chain.
func newHalves(cfg Config, p DesignPoint) (frontHalf, backHalf) {
	common := cfg.common(p)
	csCfg := chain.CSConfig{
		Common: common, M: p.M, NPhi: cfg.NPhi, Sparsity: cfg.Sparsity, CHold: p.CHold,
		ReconMethod: cfg.ReconMethod,
	}
	switch p.Arch {
	case ArchBaseline:
		c := chain.NewBaseline(common)
		return c.AmplifySession, c.DigitizeSession
	case ArchCS:
		c := chain.NewCS(csCfg)
		return c.EncodeSession, c.FinishSession
	case ArchCSDigital:
		c := chain.NewDigitalCS(csCfg)
		return c.AmplifySession, c.DigitizeSession
	case ArchCSActive:
		c := chain.NewActiveCS(csCfg)
		return c.EncodeSession, c.FinishSession
	}
	panic(fmt.Sprintf("core: unknown architecture %d", p.Arch))
}

// NewEvaluator precomputes the per-record grid inputs and references.
func NewEvaluator(cfg Config) (*Evaluator, error) {
	if cfg.Dataset == nil || len(cfg.Dataset.Records) == 0 {
		return nil, fmt.Errorf("core: evaluator requires a dataset")
	}
	if err := cfg.Tech.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := cfg.Sys.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg = cfg.withDefaults()
	if cfg.Metric == nil && cfg.Detector != nil {
		cfg.Metric = DetectorMetric{Detector: cfg.Detector}
	}
	e := &Evaluator{cfg: cfg, metric: cfg.Metric}
	e.scratch.New = func() any {
		return &evalScratch{sess: chain.NewEvalSession(cfg.Seed)}
	}
	common := cfg.common(DesignPoint{})
	e.grids = gridRecords(cfg.Dataset.Records, common.GridRate())
	e.refs = make([][]float64, len(e.grids))
	e.labels = make([]eeg.Class, len(e.grids))
	par.For(len(e.grids), func(i int) {
		e.refs[i] = chain.ReferenceGrid(common, e.grids[i])
		e.labels[i] = cfg.Dataset.Records[i].Label
	})
	e.fingerprint = fingerprintConfig(cfg)
	return e, nil
}

// gridRecords resamples every record onto the simulation grid. Records of
// one length and rate (every registered scenario's datasets) share each
// output's kernel weights, so they convert together; a dataset of mixed
// geometries converts record by record, on every core either way.
func gridRecords(recs []eeg.Record, gridRate float64) [][]float64 {
	samples := make([][]float64, len(recs))
	uniform := true
	for i, r := range recs {
		samples[i] = r.Samples
		uniform = uniform && len(r.Samples) == len(recs[0].Samples) && r.Rate == recs[0].Rate
	}
	if !uniform || len(recs) == 0 {
		grids := make([][]float64, len(recs))
		par.For(len(recs), func(i int) { grids[i] = dsp.Resample(recs[i].Samples, recs[i].Rate, gridRate) })
		return grids
	}
	return dsp.ResampleAll(samples, recs[0].Rate, gridRate)
}

// fingerprintConfig digests everything Evaluate's output depends on: the
// technology and system constants, the frame geometry, the seed, the
// dataset contents and the detector weights. Two evaluators with equal
// fingerprints produce bit-identical results for any design point, which
// is what lets sweep caches be shared across evaluator instances — and,
// because every input is hashed by value (the exact bit pattern of every
// dataset sample, the trained detector parameters), the fingerprint is
// stable across processes and detector rebuilds, never keyed on pointer
// identity or on a collision-prone aggregate like a sample sum.
func fingerprintConfig(cfg Config) string {
	h := fnv.New64a()
	var det uint64
	if cfg.Metric != nil {
		det = cfg.Metric.Fingerprint()
	} else if cfg.Detector != nil {
		det = cfg.Detector.Fingerprint()
	}
	fmt.Fprintf(h, "%+v|%+v|%d|%d|%d|%g|%d|det:%016x",
		cfg.Tech, cfg.Sys, cfg.NPhi, cfg.Sparsity, cfg.SimOversample,
		cfg.WindowSeconds, cfg.Seed, det)
	// Scenario identity and the per-scenario evaluator knobs: keyed so the
	// shared LRU can never serve one workload's result to another even if
	// every numeric input happens to coincide.
	fmt.Fprintf(h, "|scn:%s|ip:%016x|rm:%d",
		cfg.Scenario, math.Float64bits(cfg.InputPeak), cfg.ReconMethod)
	var buf [8]byte
	for _, r := range cfg.Dataset.Records {
		fmt.Fprintf(h, "|r:%d:%d:%016x:",
			r.Label, len(r.Samples), math.Float64bits(r.Rate))
		for _, v := range r.Samples {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("core-ev-%016x", h.Sum64())
}

// Fingerprint identifies the evaluation function this instance computes:
// evaluators with equal fingerprints return identical results for every
// design point. The design-space sweep engine uses it to key its
// memoisation cache, so repeated constrained queries (the Fig 9/10
// workload) reuse evaluations across sweeps and evaluator rebuilds.
func (e *Evaluator) Fingerprint() string { return e.fingerprint }

// Records returns the number of evaluation records.
func (e *Evaluator) Records() int { return len(e.grids) }

// OutputRate returns the rate of chain outputs (f_sample).
func (e *Evaluator) OutputRate() float64 { return e.cfg.Sys.FSample() }

// Evaluate scores one design point over every record. It is a batch of
// one: results are identical to (and produced by) the EvaluateBatch path.
func (e *Evaluator) Evaluate(p DesignPoint) Result {
	return e.EvaluateBatch(context.Background(), []DesignPoint{p})[0]
}

// SineResult is the outcome of a single-tone characterisation (Fig 4).
type SineResult struct {
	Point      DesignPoint
	SNDRdB     float64
	ENOB       float64
	Power      power.Breakdown
	TotalPower float64
}

// EvaluateSine characterises a design point with a full-signal-band sine
// (the paper's Fig 4 stimulus: a sine through the Fig 1a system),
// returning SNDR and the power breakdown. freq of 0 selects a tone near
// one third of the input bandwidth; seconds of 0 selects 30 s.
func EvaluateSine(cfg Config, p DesignPoint, freq, seconds float64) SineResult {
	cfg = cfg.withDefaults()
	if freq <= 0 {
		freq = cfg.Sys.BWInput / 3.1
	}
	if seconds <= 0 {
		seconds = 30
	}
	gridRate := cfg.common(p).GridRate()
	n := int(seconds * gridRate)
	// Drive at ~70 % of the input range (matching the chain headroom).
	amp := 175e-6
	if cfg.InputPeak > 0 {
		amp = 0.7 * cfg.InputPeak
	}
	in := siggen.Sine(n, freq, gridRate, amp, 0)
	front, back := newHalves(cfg, p)
	s := chain.NewEvalSession(cfg.Seed)
	out := back(s, front(s, in), nil)
	m := dsp.AnalyzeSine(out.Samples, out.Rate)
	return SineResult{
		Point:      p,
		SNDRdB:     m.SNDRdB,
		ENOB:       m.ENOB,
		Power:      out.Power,
		TotalPower: out.Power.Total(),
	}
}
