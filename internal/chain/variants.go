package chain

import (
	"math"

	"efficsense/internal/adc"
	"efficsense/internal/blocks"
	"efficsense/internal/cs"
	"efficsense/internal/dsp"
	"efficsense/internal/power"
)

// This file wires the two alternative compressive-sensing front-ends the
// paper's Section III invites designers to compare against the passive
// charge-sharing chain: a fully digital CS system (Fig 1a chain plus a MAC
// compressor after the ADC, refs [2]/[12]) and an active analog CS system
// (OTA integrators instead of passive sharing, ref [10]'s counterpoint).

// DigitalCS is the digital compressive-sensing chain: LNA → S&H → SAR at
// the full Nyquist rate → digital y = Φ·x → reduced-rate transmitter. It
// saves transmission energy like the analog CS chain but pays the full
// ADC/S&H power and a MAC unit — the trade the paper's Table I literature
// ([2], [12]) analyses. Up to the compressor it is the Fig 1a chain.
type DigitalCS struct {
	base    *Baseline
	cfg     CSConfig
	phi     *cs.SRBM
	rec     *cs.MethodReconstructor
	accBits int
}

// NewDigitalCS builds the digital CS chain. It panics if M is not set.
func NewDigitalCS(cfg CSConfig) *DigitalCS {
	cfg = cfg.withDefaults()
	if cfg.M <= 0 || cfg.M > cfg.NPhi {
		panic("chain: digital CS requires 0 < M <= NPhi")
	}
	phi := cs.GenerateSRBM(cfg.M, cfg.NPhi, cfg.Sparsity, cfg.Seed)
	return &DigitalCS{
		base:    newBaseline(cfg.Common),
		cfg:     cfg,
		phi:     phi,
		accBits: power.AccumulatorBits(cfg.Bits, busiestRow(phi)),
		rec: cs.NewMethodReconstructor(phi.Dense(), cfg.NPhi, cs.ReconOptions{
			Method: cs.MethodOMP, MaxAtoms: cfg.MaxAtoms, Tol: 1e-4,
		}),
	}
}

// Gain returns the LNA gain.
func (d *DigitalCS) Gain() float64 { return d.base.gain }

// Run processes an electrode-scale waveform.
func (d *DigitalCS) Run(input []float64, inputRate float64) Output {
	return runOnce(d.cfg.Common, input, inputRate, d.AmplifySession, d.DigitizeSession)
}

// AmplifySession runs the LNA over one grid record, as
// Baseline.AmplifySession does.
func (d *DigitalCS) AmplifySession(s *EvalSession, grid []float64) []float64 {
	return d.base.AmplifySession(s, grid)
}

// DigitizeSession finishes a digital-CS run from an amplified waveform:
// the baseline's sample & hold and SAR, the exact digital compression
// (the MAC has no analog imperfections) and reconstruction into dst.
func (d *DigitalCS) DigitizeSession(s *EvalSession, amplified, dst []float64) Output {
	s.dec = d.base.digitize(s, amplified, s.dec)
	s.y = cs.DigitalEncodeInto(s.y, d.phi, s.dec)
	return Output{
		Samples:  d.rec.ReconstructInto(dst, s.y, &s.rs),
		Rate:     d.cfg.Sys.FSample(),
		Gain:     d.base.gain,
		Power:    d.PowerBreakdown(dsp.RMS(s.dec), dsp.Mean(s.dec)),
		AreaCaps: d.Area(),
	}
}

// PowerBreakdown evaluates the digital-CS power: the full Fig 1a chain at
// Nyquist rate, plus the MAC unit and matrix shift register, with the
// transmitter at the compressed word rate and accumulator width.
func (d *DigitalCS) PowerBreakdown(vinRMS, vinMean float64) power.Breakdown {
	cfg := d.cfg
	fclk, fs := cfg.Sys.FClk(cfg.Bits), cfg.Sys.FSample()
	wordRate := fs * float64(cfg.M) / float64(cfg.NPhi)
	addsPerSecond := float64(cfg.Sparsity) * fs
	p := d.base.PowerBreakdown(vinRMS, vinMean)
	p[power.CompTransmitter] = power.TransmitterRate(cfg.Tech, d.accBits, wordRate)
	p[power.CompCSEncoder] = power.DigitalMAC(cfg.Tech, cfg.Sys, d.accBits, addsPerSecond) +
		power.CSEncoderLogic(cfg.Tech, cfg.Sys, cfg.NPhi, fclk)
	return p
}

// Area returns the capacitor area — the digital variant adds no analog
// capacitors beyond the Fig 1a chain.
func (d *DigitalCS) Area() float64 { return d.base.Area() }

// ActiveCS is the active analog CS chain: one OTA integrator per
// measurement row performs exact accumulation (scaled by 1/maxCount to
// stay in range), then the reduced-rate SAR digitises the integrator
// outputs. The OTAs dominate its power — the paper's motivation for the
// passive charge-sharing alternative.
type ActiveCS struct {
	cfg     CSConfig
	gain    float64
	intGain float64 // integrator scale Cs/Cint, sized for the busiest row
	enc     *cs.ActiveEncoder
	rec     *cs.MethodReconstructor
	sar     *adc.SAR
	lna     *blocks.LNA
}

// NewActiveCS builds the active CS chain. It panics if M is not set.
func NewActiveCS(cfg CSConfig) *ActiveCS {
	cfg = cfg.withDefaults()
	if cfg.M <= 0 || cfg.M > cfg.NPhi {
		panic("chain: active CS requires 0 < M <= NPhi")
	}
	gain := cfg.lnaGain()
	phi := cs.GenerateSRBM(cfg.M, cfg.NPhi, cfg.Sparsity, cfg.Seed)
	maxCount := max(busiestRow(phi), 1)
	// Sampling kT/C of the integrator input capacitor (C_int/CRatio).
	csIn := cfg.CHold / cfg.CRatio
	otaNoise := math.Sqrt(cfg.Tech.KT() / csIn)
	const finiteGain = 1e-3 // 60 dB OTA: per-step loss 1/A0
	enc := cs.NewActiveEncoder(cs.ActiveEncoderConfig{
		Phi:       phi,
		OTANoise:  otaNoise,
		GainError: finiteGain,
		Seed:      cfg.Seed,
	})
	intGain := 1 / float64(maxCount)
	// Reconstruction knows the nominal (scaled, finite-gain) map.
	a := enc.EffectiveMatrix()
	for i := range a {
		for j := range a[i] {
			a[i][j] *= intGain
		}
	}
	return &ActiveCS{
		cfg:     cfg,
		gain:    gain,
		intGain: intGain,
		enc:     enc,
		rec: cs.NewMethodReconstructor(a, cfg.NPhi, cs.ReconOptions{
			Method: cs.MethodOMP, MaxAtoms: cfg.MaxAtoms, Tol: 1e-4,
		}),
		sar: newSAR(cfg.Common, cfg.Sys.VFS),
		lna: newLNA(cfg.Common, gain),
	}
}

// Gain returns the LNA gain.
func (c *ActiveCS) Gain() float64 { return c.gain }

// MeasurementRate returns the CS-side ADC rate (Hz).
func (c *ActiveCS) MeasurementRate() float64 {
	return c.cfg.Sys.FSample() * float64(c.cfg.M) / float64(c.cfg.NPhi)
}

// Run processes an electrode-scale waveform.
func (c *ActiveCS) Run(input []float64, inputRate float64) Output {
	return runOnce(c.cfg.Common, input, inputRate, c.EncodeSession, c.FinishSession)
}

// EncodeSession runs the active-CS front half — LNA, ideal decimation,
// the integrator bank, the 1/maxCount range scaling — over one grid
// record. The returned measurements are session scratch, shared across
// a group's resolutions as CSChain.EncodeSession's are.
func (c *ActiveCS) EncodeSession(s *EvalSession, grid []float64) []float64 {
	amplified := s.lnaProcess(c.lna, c.cfg.GridRate(), grid)
	s.y = c.enc.EncodeInto(s.y, s.decimate(amplified, c.cfg.SimOversample))
	dsp.Scale(s.y, c.intGain)
	return s.y
}

// FinishSession completes an active-CS run from scaled measurements:
// SAR conversion, then reconstruction into dst.
func (c *ActiveCS) FinishSession(s *EvalSession, y, dst []float64) Output {
	recon, yq := s.finish(c.sar, c.rec, y, dst)
	return Output{
		Samples:  recon,
		Rate:     c.cfg.Sys.FSample(),
		Gain:     c.gain,
		Power:    c.PowerBreakdown(dsp.RMS(yq), dsp.Mean(yq)),
		AreaCaps: c.Area(),
	}
}

// PowerBreakdown evaluates the active-CS power: the integrator bank
// replaces the passive network and the LNA drives the sampling caps; ADC
// and transmitter run at the reduced measurement rate; the matrix shift
// register is shared with the passive design.
func (c *ActiveCS) PowerBreakdown(vinRMS, vinMean float64) power.Breakdown {
	cfg := c.cfg
	fs := cfg.Sys.FSample()
	p := cfg.analogPower(c.gain, cfg.CHold/cfg.CRatio, vinRMS, vinMean)
	// Each integrator settles once per input sample; its noise budget is
	// relaxed by the averaging over its mean accumulation count.
	meanCount := float64(cfg.Sparsity) * float64(cfg.NPhi) / float64(cfg.M)
	p[power.CompIntegrators] = power.IntegratorBank(cfg.Tech, cfg.Sys, cfg.M, power.IntegratorParams{
		GBW:       4 * fs,
		CInt:      cfg.CHold,
		NoiseRMS:  cfg.LNANoise * math.Sqrt(meanCount),
		Bandwidth: fs / 2,
	})
	return p
}

// Area returns the capacitor area: the integrator array plus the ADC.
func (c *ActiveCS) Area() float64 { return c.cfg.analogArea() }
