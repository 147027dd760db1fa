package cs

import (
	"fmt"

	"efficsense/internal/xrand"
)

// ActiveEncoder models the classical *active* analog CS front-end the
// paper positions its passive charge-sharing technique against ([2],
// [10]): one switched-capacitor integrator per measurement row performs
// y_i = Σ_j Φ_ij·x_j exactly (no Eq-1 decay — the OTA's virtual ground
// removes the charge-sharing attenuation), at the cost of OTA noise on
// every accumulation and a finite-gain error.
type ActiveEncoderConfig struct {
	// Phi is the sensing matrix.
	Phi *SRBM
	// OTANoise is the input-referred noise of one integration step (V
	// rms); it accumulates with every addition into a row.
	OTANoise float64
	// GainError is the relative per-step integration loss from finite OTA
	// gain (e.g. 1/A0). Zero is ideal.
	GainError float64
	// Seed fixes the noise stream.
	Seed int64
}

// ActiveEncoder accumulates frames with ideal (OTA-assisted) integration.
type ActiveEncoder struct {
	cfg   ActiveEncoderConfig
	noise *xrand.Source
}

// NewActiveEncoder builds the encoder. It panics without a matrix.
func NewActiveEncoder(cfg ActiveEncoderConfig) *ActiveEncoder {
	if cfg.Phi == nil {
		panic("cs: active encoder requires a sensing matrix")
	}
	return &ActiveEncoder{
		cfg:   cfg,
		noise: xrand.Derive(cfg.Seed, "cs-active-encoder"),
	}
}

// Phi returns the sensing matrix.
func (e *ActiveEncoder) Phi() *SRBM { return e.cfg.Phi }

// FrameLen returns N_Φ.
func (e *ActiveEncoder) FrameLen() int { return e.cfg.Phi.N }

// Measurements returns M.
func (e *ActiveEncoder) Measurements() int { return e.cfg.Phi.M }

// EncodeFrame integrates one frame of exactly N_Φ samples.
func (e *ActiveEncoder) EncodeFrame(x []float64) []float64 {
	n := e.cfg.Phi.N
	if len(x) != n {
		panic(fmt.Sprintf("cs: EncodeFrame needs %d samples, got %d", n, len(x)))
	}
	v := make([]float64, e.cfg.Phi.M)
	keep := 1 - e.cfg.GainError
	for j := 0; j < n; j++ {
		for _, row := range e.cfg.Phi.Support[j] {
			sample := x[j]
			if e.cfg.OTANoise > 0 {
				sample += e.noise.Normal(0, e.cfg.OTANoise)
			}
			v[row] = v[row]*keep + sample
		}
	}
	return v
}

// Encode processes whole frames, dropping a trailing partial frame.
func (e *ActiveEncoder) Encode(x []float64) []float64 {
	n := e.cfg.Phi.N
	frames := len(x) / n
	out := make([]float64, 0, frames*e.cfg.Phi.M)
	for f := 0; f < frames; f++ {
		out = append(out, e.EncodeFrame(x[f*n:(f+1)*n])...)
	}
	return out
}

// EffectiveMatrix returns the linear map of the active encoder: the plain
// {0,1} sensing matrix scaled by the finite-gain survival of each
// contribution (the m-th of k entries in a row decays by keep^(k-m)).
func (e *ActiveEncoder) EffectiveMatrix() [][]float64 {
	m, n := e.cfg.Phi.M, e.cfg.Phi.N
	keep := 1 - e.cfg.GainError
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		for _, row := range e.cfg.Phi.Support[j] {
			for jj := 0; jj < j; jj++ {
				a[row][jj] *= keep
			}
			a[row][j] = 1
		}
	}
	return a
}

// DigitalEncode computes the exact digital matrix product y = Φ·x frame by
// frame — what the digital-CS architecture's MAC unit does after the ADC.
// No analog imperfections apply (the samples are already quantised).
func DigitalEncode(phi *SRBM, x []float64) []float64 {
	n := phi.N
	frames := len(x) / n
	out := make([]float64, 0, frames*phi.M)
	for f := 0; f < frames; f++ {
		v := make([]float64, phi.M)
		base := f * n
		for j := 0; j < n; j++ {
			for _, row := range phi.Support[j] {
				v[row] += x[base+j]
			}
		}
		out = append(out, v...)
	}
	return out
}
