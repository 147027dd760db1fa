// Package adc models the successive-approximation ADC used by both
// EffiCSense architectures (the paper notes the SAR is the most common
// choice for biomedical front-ends and uses it throughout). The model
// captures the non-idealities that matter at system level: capacitive-DAC
// mismatch (binary-weighted unit capacitors with Pelgrom-style matching),
// comparator input noise, and the finite quantisation grid. An ideal
// converter is provided as the reference for ENOB-style comparisons.
package adc

import (
	"math"

	"efficsense/internal/dsp"
	"efficsense/internal/xrand"
)

// SAR is an N-bit successive-approximation converter with a bipolar input
// range [-VFS/2, +VFS/2].
type SAR struct {
	bits    int
	vfs     float64
	lsb     float64   // ideal quantisation step, precomputed
	weights []float64 // actual (mismatched) bit weights, in volts
	ideal   []float64 // ideal bit weights, in volts
	compStd float64   // comparator input-referred noise sigma (V)
	rng     *xrand.Source
	units   []float64 // ConvertInto's comparator draws for one block
}

// Config describes a SAR instance.
type Config struct {
	// Bits is the resolution N (Table III sweeps 6–8).
	Bits int
	// VFS is the full-scale range (V), Table III: 2 V.
	VFS float64
	// UnitCap is the DAC unit capacitor C_u (F). Together with
	// MismatchCoeff it sets the per-bit weight errors. Zero disables
	// mismatch.
	UnitCap float64
	// MismatchCoeff is the relative 1-sigma mismatch of a single unit
	// capacitor (tech.Params.MismatchSigma(UnitCap)).
	MismatchCoeff float64
	// ComparatorNoise is the comparator input-referred noise sigma (V).
	ComparatorNoise float64
	// Seed fixes the mismatch realisation and noise stream.
	Seed int64
}

// MaxBits is the finest resolution the SAR model converts at.
const MaxBits = 24

// New builds a SAR ADC. It panics on a resolution outside [1, MaxBits] or
// a non-positive range (programming errors, not data errors).
func New(cfg Config) *SAR {
	if cfg.Bits < 1 || cfg.Bits > MaxBits {
		panic("adc: Bits must be in [1, 24]")
	}
	if cfg.VFS <= 0 {
		panic("adc: VFS must be positive")
	}
	rng := xrand.Derive(cfg.Seed, "sar-adc")
	n := cfg.Bits
	s := &SAR{
		bits:    n,
		vfs:     cfg.VFS,
		lsb:     cfg.VFS / math.Pow(2, float64(n)),
		weights: make([]float64, n),
		ideal:   make([]float64, n),
		compStd: cfg.ComparatorNoise,
		rng:     rng.Derive("comparator"),
	}
	mismatchRng := rng.Derive("mismatch")
	// Bit i (MSB first) uses 2^(n-1-i) unit caps; the relative error of a
	// parallel combination of k units shrinks as 1/sqrt(k).
	totalIdeal := math.Pow(2, float64(n)) // total units incl. dummy LSB cap
	for i := 0; i < n; i++ {
		units := math.Pow(2, float64(n-1-i))
		rel := 0.0
		if cfg.MismatchCoeff > 0 {
			rel = mismatchRng.Normal(0, cfg.MismatchCoeff/math.Sqrt(units))
		}
		s.ideal[i] = cfg.VFS * units / totalIdeal
		s.weights[i] = s.ideal[i] * (1 + rel)
	}
	return s
}

// Bits returns the resolution.
func (s *SAR) Bits() int { return s.bits }

// VFS returns the full-scale range.
func (s *SAR) VFS() float64 { return s.vfs }

// LSB returns the ideal quantisation step.
func (s *SAR) LSB() float64 { return s.lsb }

// ConvertCode digitises one voltage and returns the raw output code in
// [0, 2^N). The successive approximation walks the *actual* (mismatched)
// weights while the backend interprets codes with ideal weights — exactly
// how static DAC errors become INL in silicon.
//
// The comparator decision is a 0/1 value (a SETcc, not a branch) that both
// shifts into the code, MSB first, and indexes the next accumulator: acc[0]
// is the level kept so far, acc[1] the trial level. Input-dependent
// decisions would mispredict about half the time as branches.
func (s *SAR) ConvertCode(v float64) int {
	// Refer the bipolar input to the DAC's unipolar search.
	target := v + s.vfs/2
	code := 0
	var acc [2]float64
	for _, w := range s.weights {
		acc[1] = acc[0] + w
		noise := 0.0
		if s.compStd > 0 {
			noise = s.rng.Normal(0, s.compStd)
		}
		bit := 0
		if target+noise >= acc[1] {
			bit = 1
		}
		acc[0] = acc[bit]
		code = code<<1 | bit
	}
	return code
}

// CodeToVoltage converts an output code back to the (ideal) mid-tread
// voltage the backend assigns to it.
func (s *SAR) CodeToVoltage(code int) float64 {
	return (float64(code)+0.5)*s.LSB() - s.vfs/2
}

// Convert digitises a waveform, returning the backend voltages.
func (s *SAR) Convert(in []float64) []float64 { return s.ConvertInto(nil, in) }

// ConvertInto digitises a waveform into caller-owned storage — Convert
// without the allocation. dst is grown (reallocating only when capacity is
// exceeded) to len(in) and fully overwritten; the returned slice aliases
// it. dst may be the input slice itself (conversion is element-wise). The
// voltages and the comparator noise stream's consumption are exactly those
// of len(in) sequential ConvertCode calls, so the two are interchangeable
// mid-stream.
//
// The conversion runs a block of samples at a time: the block's Bits
// unit draws per sample come from the stream in one FillUnitNormal call,
// in ConvertCode's order, and dsp.SuccessiveApprox runs the block's
// decisions several samples per register, each with ConvertCode's
// arithmetic. Without comparator noise (compStd not positive) nothing
// is drawn.
func (s *SAR) ConvertInto(dst, in []float64) []float64 {
	if cap(dst) < len(in) {
		dst = make([]float64, len(in))
	}
	dst = dst[:len(in)]
	half := s.vfs / 2
	if !(s.compStd > 0) {
		dsp.SuccessiveApprox(dst, in, nil, s.weights, 0, half, s.lsb)
		return dst
	}
	if need := min(len(in), sarBlock) * s.bits; len(s.units) < need {
		s.units = make([]float64, need)
	}
	for lo := 0; lo < len(in); {
		hi := min(lo+len(s.units)/s.bits, len(in))
		u := s.units[:(hi-lo)*s.bits]
		s.rng.FillUnitNormal(u)
		dsp.SuccessiveApprox(dst[lo:hi], in[lo:hi], u, s.weights, s.compStd, half, s.lsb)
		lo = hi
	}
	return dst
}

// sarBlock is the most samples ConvertInto draws comparator noise for at
// a time.
const sarBlock = 128

// ConvertCodes digitises a waveform, returning raw codes.
func (s *SAR) ConvertCodes(in []float64) []int {
	out := make([]int, len(in))
	for i, v := range in {
		out[i] = s.ConvertCode(v)
	}
	return out
}

// INL returns the integral nonlinearity (in LSB) at every code, measured
// from the actual transition levels implied by the mismatched weights.
// Useful for characterisation plots and tests.
func (s *SAR) INL() []float64 {
	n := 1 << s.bits
	inl := make([]float64, n)
	lsb := s.LSB()
	for code := 0; code < n; code++ {
		var actual float64
		for i := 0; i < s.bits; i++ {
			if code&(1<<(s.bits-1-i)) != 0 {
				actual += s.weights[i]
			}
		}
		ideal := float64(code) * lsb
		inl[code] = (actual - ideal) / lsb
	}
	return inl
}

// Ideal is a noiseless, perfectly matched mid-tread quantiser with the
// same interface, used as the reference converter.
type Ideal struct {
	bits int
	vfs  float64
}

// NewIdeal returns an ideal N-bit quantiser over [-vfs/2, +vfs/2].
func NewIdeal(bits int, vfs float64) *Ideal {
	if bits < 1 || vfs <= 0 {
		panic("adc: invalid ideal quantiser parameters")
	}
	return &Ideal{bits: bits, vfs: vfs}
}

// LSB returns the quantisation step.
func (q *Ideal) LSB() float64 { return q.vfs / math.Pow(2, float64(q.bits)) }

// Convert quantises the waveform.
func (q *Ideal) Convert(in []float64) []float64 {
	out := make([]float64, len(in))
	lsb := q.LSB()
	half := q.vfs / 2
	maxCode := math.Pow(2, float64(q.bits)) - 1
	for i, v := range in {
		code := math.Floor((v + half) / lsb)
		if code < 0 {
			code = 0
		}
		if code > maxCode {
			code = maxCode
		}
		out[i] = (code+0.5)*lsb - half
	}
	return out
}
