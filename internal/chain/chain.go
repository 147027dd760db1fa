// Package chain assembles complete sensor front-ends from the block
// library — the Go equivalent of wiring up the paper's Fig 1
// architectures in Simulink. Two systems are provided: the classical
// acquisition chain (Fig 1a: LNA → S&H → SAR ADC) and the analog
// compressive-sensing chain (Fig 1b: LNA → charge-sharing CS encoder →
// SAR ADC → sparse reconstruction). Both run on a common oversampled
// "continuous-time" grid and report their coupled power breakdown
// (Table II) and capacitor area alongside the processed waveform.
package chain

import (
	"math"

	"efficsense/internal/adc"
	"efficsense/internal/blocks"
	"efficsense/internal/cs"
	"efficsense/internal/dsp"
	"efficsense/internal/power"
	"efficsense/internal/tech"
)

// Common bundles the parameters shared by both architectures.
type Common struct {
	Tech tech.Params
	Sys  tech.System
	// Bits is the SAR resolution N.
	Bits int
	// LNANoise is the input-referred LNA noise over BW_LNA (V rms), the
	// primary swept variable.
	LNANoise float64
	// InputPeak is the expected electrode-signal peak (V); it sets the
	// LNA gain so the chain uses the ADC range. Default 250 µV.
	InputPeak float64
	// Headroom is the fraction of full scale targeted at InputPeak
	// (default 0.7, leaving crest margin before clipping).
	Headroom float64
	// SimOversample is the grid-rate multiple of f_sample (default 4).
	SimOversample int
	// ComparatorNoiseLSB is the comparator input noise in LSB (default
	// 0.25 — a converter designed to meet its resolution).
	ComparatorNoiseLSB float64
	// Seed fixes every stochastic realisation in the chain.
	Seed int64
}

func (c Common) withDefaults() Common {
	if c.InputPeak <= 0 {
		c.InputPeak = 250e-6
	}
	if c.Headroom <= 0 || c.Headroom > 1 {
		c.Headroom = 0.7
	}
	if c.SimOversample < 2 {
		c.SimOversample = 4
	}
	if c.ComparatorNoiseLSB < 0 {
		c.ComparatorNoiseLSB = 0
	} else if c.ComparatorNoiseLSB == 0 {
		c.ComparatorNoiseLSB = 0.25
	}
	return c
}

// GridRate returns the simulation grid rate (Hz).
func (c Common) GridRate() float64 {
	return float64(c.SimOversample) * c.Sys.FSample()
}

// Output is a processed waveform with its rate and the coupled
// power/area estimate of the producing chain.
type Output struct {
	// Samples is the digital output referred back through the chain gain,
	// i.e. in ADC volts.
	Samples []float64
	// Rate is the output sample rate (Hz).
	Rate float64
	// Gain is the chain's LNA gain; dividing Samples by it refers the
	// output back to electrode scale (what the detector is trained on).
	Gain float64
	// Power is the Table II breakdown of the configuration.
	Power power.Breakdown
	// AreaCaps is the total design capacitance in C_u,min multiples.
	AreaCaps float64
}

// Baseline is the classical chain of Fig 1a.
type Baseline struct {
	cfg       Common
	gain      float64
	sampleCap float64
	sar       *adc.SAR
	lna       *blocks.LNA
}

// NewBaseline builds the classical chain for the given configuration.
func NewBaseline(cfg Common) *Baseline {
	cfg = cfg.withDefaults()
	gain := cfg.Headroom * (cfg.Sys.VFS / 2) / cfg.InputPeak
	sampleCap := power.MinSampleCap(cfg.Tech, cfg.Sys, cfg.Bits)
	lsb := cfg.Sys.VFS / math.Pow(2, float64(cfg.Bits))
	sar := adc.New(adc.Config{
		Bits:            cfg.Bits,
		VFS:             cfg.Sys.VFS,
		UnitCap:         cfg.Tech.CUnitMin,
		MismatchCoeff:   cfg.Tech.MismatchSigma(cfg.Tech.CUnitMin),
		ComparatorNoise: cfg.ComparatorNoiseLSB * lsb,
		Seed:            cfg.Seed,
	})
	lna := &blocks.LNA{
		Gain:         gain,
		NoiseRMS:     cfg.LNANoise,
		Bandwidth:    cfg.Sys.LNABandwidth(),
		HD3FullScale: 0.001,
		ClipLevel:    cfg.Sys.VFS / 2,
	}
	return &Baseline{cfg: cfg, gain: gain, sampleCap: sampleCap, sar: sar, lna: lna}
}

// Gain returns the LNA gain chosen for this chain.
func (b *Baseline) Gain() float64 { return b.gain }

// Run processes an electrode-scale waveform sampled at inputRate and
// returns the digitised output at f_sample.
func (b *Baseline) Run(input []float64, inputRate float64) Output {
	return b.RunGrid(dsp.Resample(input, inputRate, b.cfg.GridRate()))
}

// RunGrid is Run for an input already on the simulation grid (GridRate),
// the fast path for sweeps that evaluate many design points on the same
// records.
func (b *Baseline) RunGrid(grid []float64) Output {
	cfg := b.cfg
	ctx := blocks.NewContext(cfg.GridRate(), cfg.Seed)
	amplified := b.lna.Process(ctx, grid)
	sh := &blocks.SampleHold{
		Decimation:  cfg.SimOversample,
		Cap:         b.sampleCap,
		Temperature: cfg.Tech.Temperature,
	}
	held := sh.Sample(ctx, amplified)
	digital := b.sar.Convert(held)
	return Output{
		Samples:  digital,
		Rate:     cfg.Sys.FSample(),
		Gain:     b.gain,
		Power:    b.PowerBreakdown(dsp.RMS(digital), dsp.Mean(digital)),
		AreaCaps: b.Area(),
	}
}

// PowerBreakdown evaluates the Table II models for this configuration.
// vinRMS/vinMean describe the converted signal (for the DAC model); pass
// measured values from a run, or estimates for static analysis.
func (b *Baseline) PowerBreakdown(vinRMS, vinMean float64) power.Breakdown {
	cfg := b.cfg
	fclk, fs := cfg.Sys.FClk(cfg.Bits), cfg.Sys.FSample()
	lnaP := power.LNAParams{
		GBW:       b.gain * cfg.Sys.LNABandwidth(),
		CLoad:     b.sampleCap,
		NoiseRMS:  cfg.LNANoise,
		Bandwidth: cfg.Sys.LNABandwidth(),
		FClk:      fclk,
	}
	return power.Breakdown{
		power.CompLNA:         power.LNA(cfg.Tech, cfg.Sys, lnaP),
		power.CompSampleHold:  power.SampleHold(cfg.Tech, cfg.Sys, cfg.Bits, fclk),
		power.CompComparator:  power.Comparator(cfg.Tech, cfg.Sys, cfg.Bits, fclk, fs, 0),
		power.CompSARLogic:    power.SARLogic(cfg.Tech, cfg.Sys, cfg.Bits, fclk, fs),
		power.CompDAC:         power.DAC(cfg.Sys, cfg.Bits, fclk, cfg.Tech.CUnitMin, vinRMS, vinMean),
		power.CompTransmitter: power.Transmitter(cfg.Tech, cfg.Bits, fclk),
		power.CompLeakage:     power.Leakage(cfg.Tech, cfg.Sys, 2<<cfg.Bits),
	}
}

// Area returns the design capacitance in C_u,min multiples.
func (b *Baseline) Area() float64 {
	return power.CapCount(b.cfg.Tech,
		power.ADCCapacitance(b.cfg.Bits, b.cfg.Tech.CUnitMin, b.sampleCap))
}

// CSConfig extends Common with the compressive-sensing knobs.
type CSConfig struct {
	Common
	// M is the measurement count per frame (Table III: 75/150/192).
	M int
	// NPhi is the frame length N_Φ (Table III: 384).
	NPhi int
	// Sparsity is the s of the s-SRBM (the paper's encoder: 2).
	Sparsity int
	// CHold is the hold capacitor (F); it is also the LNA load. Default
	// 80 fF.
	CHold float64
	// CRatio is CHold/CSample (default 16); it sets the Eq (1) sharing
	// weights.
	CRatio float64
	// MaxAtoms bounds the OMP support per frame (default M/4).
	MaxAtoms int
	// ReconMethod selects the reconstruction algorithm (OMP default; IHT
	// and ridge available — the "choice of reconstruction" degree of
	// freedom the paper lists in Section I).
	ReconMethod cs.Method
	// ModelLeakage enables hold-capacitor droop at the technology leakage
	// current in the behavioural model. The paper carries I_leak only in
	// the power/technology table, not in the functional model — at 1 pA on
	// femtofarad holds over a 0.7 s frame droop would dominate, which is a
	// finding the ablation benches expose — so droop defaults to off.
	ModelLeakage bool
}

func (c CSConfig) withDefaults() CSConfig {
	c.Common = c.Common.withDefaults()
	if c.NPhi <= 0 {
		c.NPhi = 384
	}
	if c.Sparsity <= 0 {
		c.Sparsity = 2
	}
	if c.CHold <= 0 {
		c.CHold = 80e-15
	}
	if c.CRatio <= 1 {
		c.CRatio = 16
	}
	if c.MaxAtoms <= 0 {
		c.MaxAtoms = c.M / 4
		if c.MaxAtoms < 4 {
			c.MaxAtoms = 4
		}
	}
	return c
}

// CSChain is the compressive-sensing chain of Fig 1b.
type CSChain struct {
	cfg     CSConfig
	gain    float64
	vfsCS   float64 // scaled measurement-converter reference
	csample float64
	enc     *cs.Encoder
	rec     *cs.MethodReconstructor
	sar     *adc.SAR
	lna     *blocks.LNA
}

// NewCS builds the compressive-sensing chain. It panics if M is not set.
func NewCS(cfg CSConfig) *CSChain {
	cfg = cfg.withDefaults()
	if cfg.M <= 0 || cfg.M > cfg.NPhi {
		panic("chain: CS requires 0 < M <= NPhi")
	}
	csample := cfg.CHold / cfg.CRatio
	leak := 0.0
	if cfg.ModelLeakage {
		leak = cfg.Tech.ILeak
	}
	// The design-point-independent planning products — sensing matrix,
	// nominal effective matrix, reconstruction dictionary and its Gram
	// factorisation — are shared through a geometry-keyed cache, so a sweep
	// pays for them once per geometry rather than once per point.
	plan := planForCS(cfg, csample)
	phi := plan.phi
	enc := cs.NewEncoder(cs.EncoderConfig{
		Phi:                 phi,
		CSample:             csample,
		CHold:               cfg.CHold,
		MismatchSigmaSample: cfg.Tech.MismatchSigma(csample),
		MismatchSigmaHold:   cfg.Tech.MismatchSigma(cfg.CHold),
		Temperature:         cfg.Tech.Temperature,
		LeakageCurrent:      leak,
		SamplePeriod:        1 / cfg.Sys.FSample(),
		Seed:                cfg.Seed,
	})
	// The charge-sharing network attenuates: a row receiving k shares
	// passes a DC input with weight 1-b^k (Eq 1 summed). The LNA cannot
	// make that up without clipping, so — as in passive CS SAR designs —
	// the measurement converter's reference is scaled down instead. The
	// busiest row bounds the worst-case measurement swing.
	alpha := csample / (csample + cfg.CHold)
	bFac := 1 - alpha
	dcGain := 1 - math.Pow(bFac, float64(plan.maxCount))
	if dcGain < 1e-6 {
		dcGain = 1e-6
	}
	gain := cfg.Headroom * (cfg.Sys.VFS / 2) / cfg.InputPeak
	vfsCS := cfg.Sys.VFS * dcGain
	lsb := vfsCS / math.Pow(2, float64(cfg.Bits))
	sar := adc.New(adc.Config{
		Bits:            cfg.Bits,
		VFS:             vfsCS,
		UnitCap:         cfg.Tech.CUnitMin,
		MismatchCoeff:   cfg.Tech.MismatchSigma(cfg.Tech.CUnitMin),
		ComparatorNoise: cfg.ComparatorNoiseLSB * lsb,
		Seed:            cfg.Seed,
	})
	lna := &blocks.LNA{
		Gain:         gain,
		NoiseRMS:     cfg.LNANoise,
		Bandwidth:    cfg.Sys.LNABandwidth(),
		HD3FullScale: 0.001,
		ClipLevel:    cfg.Sys.VFS / 2,
	}
	return &CSChain{
		cfg: cfg, gain: gain, vfsCS: vfsCS, csample: csample,
		enc: enc, rec: plan.rec, sar: sar, lna: lna,
	}
}

// Gain returns the LNA gain.
func (c *CSChain) Gain() float64 { return c.gain }

// CompressionRatio returns N_Φ/M.
func (c *CSChain) CompressionRatio() float64 {
	return float64(c.cfg.NPhi) / float64(c.cfg.M)
}

// MeasurementRate returns the CS-side ADC sample rate (Hz).
func (c *CSChain) MeasurementRate() float64 {
	return c.cfg.Sys.FSample() * float64(c.cfg.M) / float64(c.cfg.NPhi)
}

// Run processes an electrode-scale waveform and returns the reconstructed
// output at f_sample (whole frames only; a trailing partial frame is
// dropped).
func (c *CSChain) Run(input []float64, inputRate float64) Output {
	return c.RunGrid(dsp.Resample(input, inputRate, c.cfg.GridRate()))
}

// RunGrid is Run for an input already on the simulation grid.
func (c *CSChain) RunGrid(grid []float64) Output {
	cfg := c.cfg
	ctx := blocks.NewContext(cfg.GridRate(), cfg.Seed)
	amplified := c.lna.Process(ctx, grid)
	// The encoder's sampling capacitors take the samples directly; its
	// own kT/C model injects the sampling noise, so the decimation here
	// is ideal.
	sampled := dsp.Decimate(amplified, cfg.SimOversample)
	y := c.enc.Encode(sampled)
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

// PowerBreakdown evaluates the Table II models for the CS configuration.
// The ADC runs at the measurement rate f_sample·M/N_Φ; the CS encoder
// logic runs at the input-side clock.
func (c *CSChain) PowerBreakdown(vinRMS, vinMean float64) power.Breakdown {
	cfg := c.cfg
	fsCS := c.MeasurementRate()
	fclkCS := float64(cfg.Bits+1) * fsCS
	fclkIn := cfg.Sys.FClk(cfg.Bits)
	lnaP := power.LNAParams{
		GBW:       c.gain * cfg.Sys.LNABandwidth(),
		CLoad:     cfg.CHold, // the encoder is the LNA's load (paper §III)
		NoiseRMS:  cfg.LNANoise,
		Bandwidth: cfg.Sys.LNABandwidth(),
		FClk:      cfg.Sys.FSample(),
	}
	switches := 4*(cfg.M+cfg.Sparsity) + (2 << cfg.Bits)
	return power.Breakdown{
		power.CompLNA:         power.LNA(cfg.Tech, cfg.Sys, lnaP),
		power.CompComparator:  power.Comparator(cfg.Tech, cfg.Sys, cfg.Bits, fclkCS, fsCS, 0),
		power.CompSARLogic:    power.SARLogic(cfg.Tech, cfg.Sys, cfg.Bits, fclkCS, fsCS),
		power.CompDAC:         power.DAC(cfg.Sys, cfg.Bits, fclkCS, cfg.Tech.CUnitMin, vinRMS, vinMean),
		power.CompTransmitter: power.Transmitter(cfg.Tech, cfg.Bits, fclkCS),
		power.CompCSEncoder:   power.CSEncoderLogic(cfg.Tech, cfg.Sys, cfg.NPhi, fclkIn),
		power.CompLeakage:     power.Leakage(cfg.Tech, cfg.Sys, switches),
	}
}

// Area returns the design capacitance in C_u,min multiples: the encoder
// array plus the ADC.
func (c *CSChain) Area() float64 {
	cfg := c.cfg
	total := power.CSEncoderCapacitance(cfg.Sparsity, cfg.M, c.csample, cfg.CHold) +
		power.ADCCapacitance(cfg.Bits, cfg.Tech.CUnitMin, 0)
	return power.CapCount(cfg.Tech, total)
}

// Reference returns the band-limited ideal acquisition of the input at
// f_sample: the same one-pole bandwidth limit as the LNA but no noise,
// distortion or quantisation, at unity gain. Both architectures are
// scored against this waveform (SNR goal function, Fig 7a).
func Reference(cfg Common, input []float64, inputRate float64) []float64 {
	cfg = cfg.withDefaults()
	return ReferenceGrid(cfg, dsp.Resample(input, inputRate, cfg.GridRate()))
}

// ReferenceGrid is Reference for an input already on the simulation grid.
func ReferenceGrid(cfg Common, grid []float64) []float64 {
	cfg = cfg.withDefaults()
	lp := dsp.NewOnePoleLP(cfg.Sys.LNABandwidth(), cfg.GridRate())
	return dsp.Decimate(lp.Apply(grid), cfg.SimOversample)
}
