package cs

import (
	"fmt"
	"math"

	"efficsense/internal/xrand"
)

// EncoderConfig parameterises the passive charge-sharing CS encoder of
// paper Fig 5. CSample and CHold set the sharing ratio (Eq 1) and, with
// the technology's matching law and kT/C, the analog imperfections.
type EncoderConfig struct {
	// Phi is the sensing matrix (owned by the encoder afterwards).
	Phi *SRBM
	// CSample is the sampling capacitor C_sample (F).
	CSample float64
	// CHold is the per-measurement hold capacitor C_hold (F).
	CHold float64
	// MismatchSigmaSample and MismatchSigmaHold are the relative 1-sigma
	// value errors of the sampling and hold capacitors (from
	// tech.Params.MismatchSigma). Zero disables mismatch.
	MismatchSigmaSample float64
	MismatchSigmaHold   float64
	// Temperature (K) for the kT/C sharing noise; 0 disables noise.
	Temperature float64
	// LeakageCurrent models switch leakage droop on the hold capacitors
	// (A); 0 disables. Droop is applied per input-sample period.
	LeakageCurrent float64
	// SamplePeriod is the input sample period (s), needed for droop.
	SamplePeriod float64
	// Seed fixes the mismatch realisation and the noise stream.
	Seed int64
}

// Encoder implements the passive charge-sharing matrix multiplier. One
// frame consumes Phi.N input samples and produces Phi.M measurements, each
// the Eq (1) weighted sum of its column-selected samples.
type Encoder struct {
	cfg EncoderConfig
	// cs[k] is the actual value of sampling capacitor k (one per non-zero
	// per column position, i.e. S physical capacitors reused each sample).
	cs []float64
	// ch[i] is the actual value of hold capacitor i.
	ch    []float64
	noise *xrand.Source
	// units holds one frame's kT/C unit draws, drawn in one call.
	units []float64
}

// NewEncoder builds an encoder, drawing one mismatch realisation. It
// panics on a missing matrix or non-positive capacitors (programming
// errors in a sweep definition).
func NewEncoder(cfg EncoderConfig) *Encoder {
	if cfg.Phi == nil {
		panic("cs: encoder requires a sensing matrix")
	}
	if cfg.CSample <= 0 || cfg.CHold <= 0 {
		panic("cs: encoder capacitors must be positive")
	}
	rng := xrand.Derive(cfg.Seed, "cs-encoder")
	mm := rng.Derive("mismatch")
	e := &Encoder{
		cfg:   cfg,
		cs:    make([]float64, cfg.Phi.S),
		ch:    make([]float64, cfg.Phi.M),
		noise: rng.Derive("ktc"),
	}
	for k := range e.cs {
		e.cs[k] = cfg.CSample * (1 + mm.Normal(0, cfg.MismatchSigmaSample))
	}
	for i := range e.ch {
		e.ch[i] = cfg.CHold * (1 + mm.Normal(0, cfg.MismatchSigmaHold))
	}
	return e
}

// Phi returns the sensing matrix.
func (e *Encoder) Phi() *SRBM { return e.cfg.Phi }

// FrameLen returns the input samples consumed per frame (N_Φ).
func (e *Encoder) FrameLen() int { return e.cfg.Phi.N }

// Measurements returns the outputs produced per frame (M).
func (e *Encoder) Measurements() int { return e.cfg.Phi.M }

// EncodeFrame processes one frame of exactly N_Φ samples and returns the M
// hold-capacitor voltages at the end of the frame. Hold capacitors are
// reset (discharged) at frame start, as in the paper's frame-based
// operation.
func (e *Encoder) EncodeFrame(x []float64) []float64 {
	if len(x) != e.cfg.Phi.N {
		panic(fmt.Sprintf("cs: EncodeFrame needs %d samples, got %d", e.cfg.Phi.N, len(x)))
	}
	v := make([]float64, e.cfg.Phi.M)
	e.encodeFrameInto(v, x)
	return v
}

// Encode processes a waveform frame by frame, dropping a trailing partial
// frame, and returns the concatenated measurements (len = frames·M).
func (e *Encoder) Encode(x []float64) []float64 { return e.EncodeInto(nil, x) }

// EncodeInto is Encode against caller-owned storage: dst is grown
// (reallocating only when capacity is exceeded) to frames·M and fully
// overwritten; the returned slice aliases it. The per-frame arithmetic and
// the kT/C noise-stream consumption are exactly EncodeFrame's.
func (e *Encoder) EncodeInto(dst, x []float64) []float64 {
	n := e.cfg.Phi.N
	frames := len(x) / n
	m := e.cfg.Phi.M
	need := frames * m
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dst = dst[:need]
	for f := 0; f < frames; f++ {
		e.encodeFrameInto(dst[f*m:(f+1)*m], x[f*n:(f+1)*n])
	}
	return dst
}

// encodeFrameInto is EncodeFrame writing into caller storage (length M).
// The frame's kT/C noise comes from one FillUnitNormal call, in the order
// of one Normal call per noise term, and each term adds 0 + σ·u as
// Normal(0, σ) does; a term whose σ is not positive draws nothing and
// adds 0, as Normal does, and without noise (kT = 0) nothing is drawn.
func (e *Encoder) encodeFrameInto(v, x []float64) {
	for i := range v {
		v[i] = 0
	}
	kt := 0.0
	if e.cfg.Temperature > 0 {
		kt = 1.380649e-23 * e.cfg.Temperature
	}
	droop := 0.0
	if e.cfg.LeakageCurrent > 0 && e.cfg.SamplePeriod > 0 {
		droop = e.cfg.LeakageCurrent * e.cfg.SamplePeriod
	}
	var u []float64
	if kt > 0 {
		u = e.frameUnits(kt)
		e.noise.FillUnitNormal(u)
	}
	q := 0 // next unit draw
	for j := range x {
		if droop > 0 {
			for i := range v {
				// dV = I·t/C, pulled toward ground.
				d := droop / e.ch[i]
				switch {
				case v[i] > d:
					v[i] -= d
				case v[i] < -d:
					v[i] += d
				default:
					v[i] = 0
				}
			}
		}
		for k, row := range e.cfg.Phi.Support[j] {
			csk := e.cs[k%len(e.cs)]
			chi := e.ch[row]
			// φ1: sample x[j] on C_sample (kT/C sampling noise);
			sample := x[j]
			if kt > 0 {
				n := 0.0
				if sd := math.Sqrt(kt / csk); !(sd <= 0) {
					n = 0 + sd*u[q]
					q++
				}
				sample += n
			}
			// φ2: share with C_hold (kT/C redistribution noise on the sum
			// node, referred to the merged capacitance).
			alpha := csk / (csk + chi)
			v[row] = alpha*sample + (1-alpha)*v[row]
			if kt > 0 {
				n := 0.0
				if sd := math.Sqrt(kt / (csk + chi)); !(sd <= 0) {
					n = 0 + sd*u[q]
					q++
				}
				v[row] += n
			}
		}
	}
}

// frameUnits returns the storage for one frame's kT/C unit draws at
// noise level kt: one per noise term of the frame whose σ is not ≤ 0,
// counted on first use (the σ depend only on the capacitors).
func (e *Encoder) frameUnits(kt float64) []float64 {
	if e.units == nil {
		n := 0
		for _, rows := range e.cfg.Phi.Support {
			for k, row := range rows {
				csk := e.cs[k%len(e.cs)]
				if !(math.Sqrt(kt/csk) <= 0) {
					n++
				}
				if !(math.Sqrt(kt/(csk+e.ch[row])) <= 0) {
					n++
				}
			}
		}
		e.units = make([]float64, n)
	}
	return e.units
}

// EffectiveMatrix returns the M×N linear map actually implemented by the
// charge-sharing network: A[i][j] is the end-of-frame weight of sample j
// in measurement i, per Eq (1) with the per-row share ordering. If
// nominal is true the design-value capacitors are used (what the
// reconstructor knows); otherwise the mismatched realisation (what the
// silicon does).
func (e *Encoder) EffectiveMatrix(nominal bool) [][]float64 {
	m, n := e.cfg.Phi.M, e.cfg.Phi.N
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		for k, row := range e.cfg.Phi.Support[j] {
			var csk, chi float64
			if nominal {
				csk, chi = e.cfg.CSample, e.cfg.CHold
			} else {
				csk, chi = e.cs[k%len(e.cs)], e.ch[row]
			}
			alpha := csk / (csk + chi)
			// This share scales everything already accumulated in row by
			// (1-alpha) and adds alpha·x[j].
			for jj := 0; jj < j; jj++ {
				a[row][jj] *= 1 - alpha
			}
			a[row][j] = alpha
		}
	}
	return a
}

// NominalEffectiveMatrix returns EffectiveMatrix(true) for the given
// sensing matrix and design-value capacitors without constructing an
// encoder (so no mismatch realisation is drawn). It runs the exact same
// share recurrence, making the result bit-identical to what any encoder
// built from (phi, csample, chold) reports — which is what lets a
// geometry-keyed plan cache build the reconstructor dictionary once and
// share it across every design point of that geometry.
func NominalEffectiveMatrix(phi *SRBM, csample, chold float64) [][]float64 {
	if phi == nil {
		panic("cs: nominal matrix requires a sensing matrix")
	}
	if csample <= 0 || chold <= 0 {
		panic("cs: encoder capacitors must be positive")
	}
	m, n := phi.M, phi.N
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		for _, row := range phi.Support[j] {
			alpha := csample / (csample + chold)
			for jj := 0; jj < j; jj++ {
				a[row][jj] *= 1 - alpha
			}
			a[row][j] = alpha
		}
	}
	return a
}

// Eq1Weights returns the analytic Eq (1) weights for a row that receives
// shares at 1-based positions 1..count with capacitors c1 (sample) and c2
// (hold): weight of the m-th shared sample is a·b^(count-m) with
// a = c1/(c1+c2), b = c2/(c1+c2). Exposed for tests and documentation.
func Eq1Weights(c1, c2 float64, count int) []float64 {
	a := c1 / (c1 + c2)
	b := c2 / (c1 + c2)
	w := make([]float64, count)
	for m := 1; m <= count; m++ {
		w[m-1] = a * math.Pow(b, float64(count-m))
	}
	return w
}
