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
// ([2], [12]) analyses.
type DigitalCS struct {
	cfg       CSConfig
	gain      float64
	sampleCap float64
	phi       *cs.SRBM
	sar       *adc.SAR
	lna       *blocks.LNA
	rec       *cs.MethodReconstructor
	accBits   int
}

// NewDigitalCS builds the digital CS chain. It panics if M is not set.
func NewDigitalCS(cfg CSConfig) *DigitalCS {
	cfg = cfg.withDefaults()
	if cfg.M <= 0 || cfg.M > cfg.NPhi {
		panic("chain: digital CS requires 0 < M <= NPhi")
	}
	gain := cfg.Headroom * (cfg.Sys.VFS / 2) / cfg.InputPeak
	sampleCap := power.MinSampleCap(cfg.Tech, cfg.Sys, cfg.Bits)
	lsb := cfg.Sys.VFS / math.Pow(2, float64(cfg.Bits))
	phi := cs.GenerateSRBM(cfg.M, cfg.NPhi, cfg.Sparsity, cfg.Seed)
	maxCount := 0
	for _, k := range phi.RowCounts() {
		if k > maxCount {
			maxCount = k
		}
	}
	d := &DigitalCS{
		cfg:       cfg,
		gain:      gain,
		sampleCap: sampleCap,
		phi:       phi,
		accBits:   power.AccumulatorBits(cfg.Bits, maxCount),
		sar: adc.New(adc.Config{
			Bits:            cfg.Bits,
			VFS:             cfg.Sys.VFS,
			UnitCap:         cfg.Tech.CUnitMin,
			MismatchCoeff:   cfg.Tech.MismatchSigma(cfg.Tech.CUnitMin),
			ComparatorNoise: cfg.ComparatorNoiseLSB * lsb,
			Seed:            cfg.Seed,
		}),
		lna: &blocks.LNA{
			Gain:         gain,
			NoiseRMS:     cfg.LNANoise,
			Bandwidth:    cfg.Sys.LNABandwidth(),
			HD3FullScale: 0.001,
			ClipLevel:    cfg.Sys.VFS / 2,
		},
	}
	d.rec = cs.NewMethodReconstructor(phi.Dense(), cfg.NPhi, cs.ReconOptions{
		Method: cs.MethodOMP, MaxAtoms: cfg.MaxAtoms, Tol: 1e-4,
	})
	return d
}

// Gain returns the LNA gain.
func (d *DigitalCS) Gain() float64 { return d.gain }

// Run processes an electrode-scale waveform.
func (d *DigitalCS) Run(input []float64, inputRate float64) Output {
	return d.RunGrid(dsp.Resample(input, inputRate, d.cfg.GridRate()))
}

// RunGrid is Run for a grid-rate input.
func (d *DigitalCS) RunGrid(grid []float64) Output {
	cfg := d.cfg
	ctx := blocks.NewContext(cfg.GridRate(), cfg.Seed)
	amplified := d.lna.Process(ctx, grid)
	sh := &blocks.SampleHold{
		Decimation:  cfg.SimOversample,
		Cap:         d.sampleCap,
		Temperature: cfg.Tech.Temperature,
	}
	held := sh.Sample(ctx, amplified)
	digital := d.sar.Convert(held)
	// Exact digital compression; the MAC has no analog imperfections.
	y := cs.DigitalEncode(d.phi, digital)
	recon := d.rec.Reconstruct(y)
	return Output{
		Samples:  recon,
		Rate:     cfg.Sys.FSample(),
		Gain:     d.gain,
		Power:    d.PowerBreakdown(dsp.RMS(digital), dsp.Mean(digital)),
		AreaCaps: d.Area(),
	}
}

// PowerBreakdown evaluates the digital-CS power: the full Fig 1a chain at
// Nyquist rate, plus the MAC unit and matrix shift register, with the
// transmitter at the compressed word rate and accumulator width.
func (d *DigitalCS) PowerBreakdown(vinRMS, vinMean float64) power.Breakdown {
	cfg := d.cfg
	fclk, fs := cfg.Sys.FClk(cfg.Bits), cfg.Sys.FSample()
	lnaP := power.LNAParams{
		GBW:       d.gain * cfg.Sys.LNABandwidth(),
		CLoad:     d.sampleCap,
		NoiseRMS:  cfg.LNANoise,
		Bandwidth: cfg.Sys.LNABandwidth(),
		FClk:      fclk,
	}
	wordRate := fs * float64(cfg.M) / float64(cfg.NPhi)
	addsPerSecond := float64(cfg.Sparsity) * fs
	return power.Breakdown{
		power.CompLNA:         power.LNA(cfg.Tech, cfg.Sys, lnaP),
		power.CompSampleHold:  power.SampleHold(cfg.Tech, cfg.Sys, cfg.Bits, fclk),
		power.CompComparator:  power.Comparator(cfg.Tech, cfg.Sys, cfg.Bits, fclk, fs, 0),
		power.CompSARLogic:    power.SARLogic(cfg.Tech, cfg.Sys, cfg.Bits, fclk, fs),
		power.CompDAC:         power.DAC(cfg.Sys, cfg.Bits, fclk, cfg.Tech.CUnitMin, vinRMS, vinMean),
		power.CompTransmitter: power.TransmitterRate(cfg.Tech, d.accBits, wordRate),
		power.CompCSEncoder: power.DigitalMAC(cfg.Tech, cfg.Sys, d.accBits, addsPerSecond) +
			power.CSEncoderLogic(cfg.Tech, cfg.Sys, cfg.NPhi, fclk),
		power.CompLeakage: power.Leakage(cfg.Tech, cfg.Sys, 2<<cfg.Bits),
	}
}

// Area returns the capacitor area — the digital variant adds no analog
// capacitors beyond the Fig 1a chain.
func (d *DigitalCS) Area() float64 {
	return power.CapCount(d.cfg.Tech,
		power.ADCCapacitance(d.cfg.Bits, d.cfg.Tech.CUnitMin, d.sampleCap))
}

// ActiveCS is the active analog CS chain: one OTA integrator per
// measurement row performs exact accumulation (scaled by 1/maxCount to
// stay in range), then the reduced-rate SAR digitises the integrator
// outputs. The OTAs dominate its power — the paper's motivation for the
// passive charge-sharing alternative.
type ActiveCS struct {
	cfg      CSConfig
	gain     float64
	intGain  float64 // integrator scale Cs/Cint, sized for the busiest row
	otaNoise float64
	enc      *cs.ActiveEncoder
	rec      *cs.MethodReconstructor
	sar      *adc.SAR
	lna      *blocks.LNA
	maxCount int
}

// NewActiveCS builds the active CS chain. It panics if M is not set.
func NewActiveCS(cfg CSConfig) *ActiveCS {
	cfg = cfg.withDefaults()
	if cfg.M <= 0 || cfg.M > cfg.NPhi {
		panic("chain: active CS requires 0 < M <= NPhi")
	}
	gain := cfg.Headroom * (cfg.Sys.VFS / 2) / cfg.InputPeak
	phi := cs.GenerateSRBM(cfg.M, cfg.NPhi, cfg.Sparsity, cfg.Seed)
	maxCount := 0
	for _, k := range phi.RowCounts() {
		if k > maxCount {
			maxCount = k
		}
	}
	if maxCount < 1 {
		maxCount = 1
	}
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
	lsb := cfg.Sys.VFS / math.Pow(2, float64(cfg.Bits))
	c := &ActiveCS{
		cfg:      cfg,
		gain:     gain,
		intGain:  intGain,
		otaNoise: otaNoise,
		enc:      enc,
		rec: cs.NewMethodReconstructor(a, cfg.NPhi, cs.ReconOptions{
			Method: cs.MethodOMP, MaxAtoms: cfg.MaxAtoms, Tol: 1e-4,
		}),
		maxCount: maxCount,
		sar: adc.New(adc.Config{
			Bits:            cfg.Bits,
			VFS:             cfg.Sys.VFS,
			UnitCap:         cfg.Tech.CUnitMin,
			MismatchCoeff:   cfg.Tech.MismatchSigma(cfg.Tech.CUnitMin),
			ComparatorNoise: cfg.ComparatorNoiseLSB * lsb,
			Seed:            cfg.Seed,
		}),
		lna: &blocks.LNA{
			Gain:         gain,
			NoiseRMS:     cfg.LNANoise,
			Bandwidth:    cfg.Sys.LNABandwidth(),
			HD3FullScale: 0.001,
			ClipLevel:    cfg.Sys.VFS / 2,
		},
	}
	return c
}

// Gain returns the LNA gain.
func (c *ActiveCS) Gain() float64 { return c.gain }

// MeasurementRate returns the CS-side ADC rate (Hz).
func (c *ActiveCS) MeasurementRate() float64 {
	return c.cfg.Sys.FSample() * float64(c.cfg.M) / float64(c.cfg.NPhi)
}

// Run processes an electrode-scale waveform.
func (c *ActiveCS) Run(input []float64, inputRate float64) Output {
	return c.RunGrid(dsp.Resample(input, inputRate, c.cfg.GridRate()))
}

// RunGrid is Run for a grid-rate input.
func (c *ActiveCS) RunGrid(grid []float64) Output {
	cfg := c.cfg
	ctx := blocks.NewContext(cfg.GridRate(), cfg.Seed)
	amplified := c.lna.Process(ctx, grid)
	sampled := dsp.Decimate(amplified, cfg.SimOversample)
	y := c.enc.Encode(sampled)
	dsp.Scale(y, c.intGain)
	yq := c.sar.Convert(y)
	recon := c.rec.Reconstruct(yq)
	return Output{
		Samples:  recon,
		Rate:     cfg.Sys.FSample(),
		Gain:     c.gain,
		Power:    c.PowerBreakdown(dsp.RMS(yq), dsp.Mean(yq)),
		AreaCaps: c.Area(),
	}
}

// PowerBreakdown evaluates the active-CS power: the integrator bank
// replaces the passive network; ADC and transmitter run at the reduced
// measurement rate; the matrix shift register is shared with the passive
// design.
func (c *ActiveCS) PowerBreakdown(vinRMS, vinMean float64) power.Breakdown {
	cfg := c.cfg
	fs := cfg.Sys.FSample()
	fsCS := c.MeasurementRate()
	fclkCS := float64(cfg.Bits+1) * fsCS
	fclkIn := cfg.Sys.FClk(cfg.Bits)
	lnaP := power.LNAParams{
		GBW:       c.gain * cfg.Sys.LNABandwidth(),
		CLoad:     cfg.CHold / cfg.CRatio, // LNA drives the sampling caps
		NoiseRMS:  cfg.LNANoise,
		Bandwidth: cfg.Sys.LNABandwidth(),
		FClk:      fs,
	}
	// Each integrator settles once per input sample; its noise budget is
	// relaxed by the averaging over its mean accumulation count.
	meanCount := float64(cfg.Sparsity) * float64(cfg.NPhi) / float64(cfg.M)
	intP := power.IntegratorParams{
		GBW:       4 * fs,
		CInt:      cfg.CHold,
		NoiseRMS:  cfg.LNANoise * math.Sqrt(meanCount),
		Bandwidth: fs / 2,
	}
	switches := 4*(cfg.M+cfg.Sparsity) + (2 << cfg.Bits)
	return power.Breakdown{
		power.CompLNA:         power.LNA(cfg.Tech, cfg.Sys, lnaP),
		power.CompIntegrators: power.IntegratorBank(cfg.Tech, cfg.Sys, cfg.M, intP),
		power.CompComparator:  power.Comparator(cfg.Tech, cfg.Sys, cfg.Bits, fclkCS, fsCS, 0),
		power.CompSARLogic:    power.SARLogic(cfg.Tech, cfg.Sys, cfg.Bits, fclkCS, fsCS),
		power.CompDAC:         power.DAC(cfg.Sys, cfg.Bits, fclkCS, cfg.Tech.CUnitMin, vinRMS, vinMean),
		power.CompTransmitter: power.Transmitter(cfg.Tech, cfg.Bits, fclkCS),
		power.CompCSEncoder:   power.CSEncoderLogic(cfg.Tech, cfg.Sys, cfg.NPhi, fclkIn),
		power.CompLeakage:     power.Leakage(cfg.Tech, cfg.Sys, switches),
	}
}

// Area returns the capacitor area: the integrator array plus the ADC.
func (c *ActiveCS) Area() float64 {
	cfg := c.cfg
	total := power.CSEncoderCapacitance(cfg.Sparsity, cfg.M, cfg.CHold/cfg.CRatio, cfg.CHold) +
		power.ADCCapacitance(cfg.Bits, cfg.Tech.CUnitMin, 0)
	return power.CapCount(cfg.Tech, total)
}
