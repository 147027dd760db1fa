package chain

import (
	"math"
	"sync"

	"efficsense/internal/adc"
	"efficsense/internal/blocks"
	"efficsense/internal/cs"
	"efficsense/internal/dsp"
	"efficsense/internal/xrand"
)

// EvalSession is the reusable per-worker state of a chain run: the
// replayed noise banks plus every intermediate waveform buffer a chain
// run needs. One session serves any number of chain runs built from the
// same seed; buffers grow to the largest record seen and are then reused,
// so the steady state allocates nothing. Every chain runs in two halves
// on a session: a front half (AmplifySession or EncodeSession) that does
// not depend on the ADC resolution, and a back half (DigitizeSession or
// FinishSession) that finishes one design point from it. Run is one
// record through both halves on a fresh session; batch evaluation runs a
// group's front half once per record and every member's back half on it.
//
// Replaying the banks reproduces the block models (blocks.LNA.Process,
// blocks.SampleHold.Sample on a fresh blocks.NewContext) bit for bit, for
// two reasons. First, every chain run starts a fresh noise context from
// the same seed, so the derived "lna-noise" and "sh-noise" streams are
// the same sequence for every record and every design point — the
// session materialises each sequence once as a bank of unit normals and
// replays it as sigma·u[i] (exactly how xrand.Source.Normal scales its
// draws). Second, the stateful streams (encoder noise, SAR comparator)
// live in the per-point block instances, which consume them in record
// order.
//
// A session is not safe for concurrent use; pool one per worker.
type EvalSession struct {
	lnaSrc *xrand.Source // positioned after len(lnaUnit) draws
	shSrc  *xrand.Source
	lnaU   []float64 // unit-normal bank of the "lna-noise" stream
	shU    []float64 // unit-normal bank of the "sh-noise" stream

	amp []float64 // amplified waveform (grid rate)
	dec []float64 // decimated or digitised waveform (f_sample)
	y   []float64 // measurements
	yq  []float64 // quantised measurements
	rs  cs.ReconScratch
}

// NewEvalSession returns a session for chains built with the given seed.
func NewEvalSession(seed int64) *EvalSession {
	// Derivation order mirrors one chain run: blocks.NewContext seeds the
	// root, the LNA derives "lna-noise" first (advancing the root by one
	// draw) and the sample & hold derives "sh-noise" second.
	root := xrand.New(seed)
	return &EvalSession{
		lnaSrc: root.Derive("lna-noise"),
		shSrc:  root.Derive("sh-noise"),
	}
}

// lnaUnits returns the first n draws of the "lna-noise" unit bank,
// extending it lazily from the retained source.
func (s *EvalSession) lnaUnits(n int) []float64 {
	for len(s.lnaU) < n {
		grown := append(s.lnaU, make([]float64, n-len(s.lnaU))...)
		s.lnaSrc.FillUnitNormal(grown[len(s.lnaU):])
		s.lnaU = grown
	}
	return s.lnaU[:n]
}

func (s *EvalSession) shUnits(n int) []float64 {
	for len(s.shU) < n {
		grown := append(s.shU, make([]float64, n-len(s.shU))...)
		s.shSrc.FillUnitNormal(grown[len(s.shU):])
		s.shU = grown
	}
	return s.shU[:n]
}

// growFloats returns v resized to n, reallocating only on growth.
func growFloats(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// lnaProcess replays blocks.LNA.Process against the session's noise bank,
// writing into the session's amplifier buffer. The arithmetic — noise
// sigma, per-sample sum, one-pole lowpass, cubic HD3 and clipping — is
// the same expression sequence as Process, so the output is bit-identical
// to a fresh-context run at the session seed. It has no flicker path:
// newLNA builds every chain's amplifier without one.
func (s *EvalSession) lnaProcess(l *blocks.LNA, rate float64, in []float64) []float64 {
	out := growFloats(s.amp, len(in))
	s.amp = out
	var sigma float64
	if l.NoiseRMS > 0 && l.Bandwidth > 0 && rate > 2*l.Bandwidth {
		sigma = l.NoiseRMS * math.Sqrt(rate/(2*l.Bandwidth))
	} else if l.NoiseRMS > 0 {
		sigma = l.NoiseRMS
	}
	g := l.Gain
	if sigma > 0 {
		u := s.lnaUnits(len(in))
		for i, x := range in {
			n := 0 + sigma*u[i]
			out[i] = (x + n) * g
		}
	} else {
		for i, x := range in {
			out[i] = (x + 0) * g
		}
	}
	if l.Bandwidth > 0 && l.Bandwidth < rate/2 {
		lp := dsp.NewOnePoleLP(l.Bandwidth, rate)
		lp.ApplyInPlace(out)
	}
	if l.HD3FullScale > 0 && l.ClipLevel > 0 {
		c3 := -4 * l.HD3FullScale / (l.ClipLevel * l.ClipLevel)
		for i, x := range out {
			out[i] = x + c3*x*x*x
		}
	}
	if l.ClipLevel > 0 {
		for i, x := range out {
			if x > l.ClipLevel {
				out[i] = l.ClipLevel
			} else if x < -l.ClipLevel {
				out[i] = -l.ClipLevel
			}
		}
	}
	return out
}

// sampleHold replays blocks.SampleHold.Sample against the session's
// "sh-noise" bank, writing the held samples into dst (grown as needed).
func (s *EvalSession) sampleHold(sh *blocks.SampleHold, in, dst []float64) []float64 {
	temp := sh.Temperature
	if temp <= 0 {
		temp = 300
	}
	var sigma float64
	if sh.Cap > 0 {
		sigma = math.Sqrt(1.380649e-23 * temp / sh.Cap)
	}
	d := sh.Decimation
	dst = growFloats(dst, (len(in)+d-1)/d)
	if sigma > 0 {
		u := s.shUnits(len(dst))
		for j := range dst {
			dst[j] = in[j*d] + 0 + sigma*u[j]
		}
	} else {
		for j := range dst {
			dst[j] = in[j*d] + 0
		}
	}
	return dst
}

// decimate keeps every d-th sample of in, in the session's decimation
// buffer. The CS encoders' sampling capacitors take the samples
// directly and their own models inject the sampling noise, so the
// decimation is ideal.
func (s *EvalSession) decimate(in []float64, d int) []float64 {
	s.dec = growFloats(s.dec, (len(in)+d-1)/d)
	for j := range s.dec {
		s.dec[j] = in[j*d]
	}
	return s.dec
}

// runOnce is a chain's public Run: the input resampled onto the
// simulation grid, then both halves on a fresh session, the output in
// newly allocated storage.
func runOnce(cfg Common, input []float64, inputRate float64,
	front func(*EvalSession, []float64) []float64,
	back func(s *EvalSession, front, dst []float64) Output) Output {
	s := NewEvalSession(cfg.Seed)
	return back(s, front(s, dsp.Resample(input, inputRate, cfg.GridRate())), nil)
}

// AmplifySession runs the baseline LNA over one grid record. The returned
// slice is session scratch, valid until the next Amplify/Encode call — it
// is shared across every design point of a batch group whose LNA settings
// coincide (gain and noise floor do not depend on the ADC resolution).
func (b *Baseline) AmplifySession(s *EvalSession, grid []float64) []float64 {
	return s.lnaProcess(b.lna, b.cfg.GridRate(), grid)
}

// digitize runs the sample & hold (with the session's replayed kT/C
// bank) and this chain's stateful SAR over an amplified waveform, into
// dst.
func (b *Baseline) digitize(s *EvalSession, amplified, dst []float64) []float64 {
	dst = s.sampleHold(b.sh, amplified, dst)
	return b.sar.ConvertInto(dst, dst)
}

// DigitizeSession finishes a baseline run from an amplified waveform:
// sample & hold and SAR conversion. dst receives the digital output
// (grown as needed, fully overwritten) and is returned inside the
// Output, so the caller owns the waveform storage.
func (b *Baseline) DigitizeSession(s *EvalSession, amplified, dst []float64) Output {
	dst = b.digitize(s, amplified, dst)
	return Output{
		Samples:  dst,
		Rate:     b.cfg.Sys.FSample(),
		Gain:     b.gain,
		Power:    b.PowerBreakdown(dsp.RMS(dst), dsp.Mean(dst)),
		AreaCaps: b.Area(),
	}
}

// EncodeSession runs the CS front half — LNA, ideal decimation, the
// charge-sharing encoder — over one grid record. The returned measurement
// vector is session scratch, valid until the next Amplify/Encode call.
// Because the encoder realisation depends only on (geometry, seed), the
// measurements are shared across every design point of a group that
// differs only in ADC resolution.
func (c *CSChain) EncodeSession(s *EvalSession, grid []float64) []float64 {
	amplified := s.lnaProcess(c.lna, c.cfg.GridRate(), grid)
	s.y = c.enc.EncodeInto(s.y, s.decimate(amplified, c.cfg.SimOversample))
	return s.y
}

// finish quantises measurements y through sar into the session's buffer
// and reconstructs the frames from them into dst.
func (s *EvalSession) finish(sar *adc.SAR, rec *cs.MethodReconstructor, y, dst []float64) (recon, yq []float64) {
	s.yq = sar.ConvertInto(s.yq, y)
	return rec.ReconstructInto(dst, s.yq, &s.rs), s.yq
}

// FinishSession completes a CS run from a measurement vector: SAR
// conversion through this chain's stateful converter, then sparse
// reconstruction. dst receives the reconstructed waveform (grown as
// needed, fully overwritten) and is returned inside the Output.
func (c *CSChain) FinishSession(s *EvalSession, y, dst []float64) Output {
	recon, yq := s.finish(c.sar, c.rec, y, dst)
	return Output{
		Samples:  recon,
		Rate:     c.cfg.Sys.FSample(),
		Gain:     c.gain,
		Power:    c.PowerBreakdown(dsp.RMS(yq), dsp.Mean(yq)),
		AreaCaps: c.Area(),
	}
}

// csPlanKey identifies everything the expensive, design-point-independent
// part of a CS chain depends on: the sensing-matrix geometry and seed,
// the nominal sharing factor (which fixes the effective matrix and hence
// the OMP dictionary and Gram matrix) and the solver settings.
type csPlanKey struct {
	m, nphi, sparsity int
	seed              int64
	alphaBits         uint64
	maxAtoms          int
	method            cs.Method
}

// csPlan is the shared, read-only planning product: the sensing matrix,
// the busiest-row count (which sets the measurement-range scaling) and
// the reconstructor with its precomputed dictionary/Gram/Cholesky state.
// All of it is safe for concurrent use — the reconstructors take
// per-caller scratch.
type csPlan struct {
	phi      *cs.SRBM
	rec      *cs.MethodReconstructor
	maxCount int
}

const csPlanCap = 32

var (
	csPlanMu    sync.Mutex
	csPlans     = map[csPlanKey]*csPlan{}
	csPlanOrder []csPlanKey
)

// planForCS returns the shared plan for a CS geometry, building it on
// first use. The cache is bounded (FIFO eviction): a long-lived daemon
// sweeping many geometries keeps at most csPlanCap dictionaries alive;
// evicted plans stay valid for chains already holding them.
func planForCS(cfg CSConfig, csample float64) *csPlan {
	alpha := csample / (csample + cfg.CHold)
	key := csPlanKey{
		m: cfg.M, nphi: cfg.NPhi, sparsity: cfg.Sparsity,
		seed: cfg.Seed, alphaBits: math.Float64bits(alpha),
		maxAtoms: cfg.MaxAtoms, method: cfg.ReconMethod,
	}
	csPlanMu.Lock()
	if p, ok := csPlans[key]; ok {
		csPlanMu.Unlock()
		return p
	}
	csPlanMu.Unlock()
	// Build outside the lock: plan construction is the expensive part and
	// concurrent duplicate builds of the same key are harmless (both
	// produce identical read-only plans; one wins the map slot).
	phi := cs.GenerateSRBM(cfg.M, cfg.NPhi, cfg.Sparsity, cfg.Seed)
	a := cs.NominalEffectiveMatrix(phi, csample, cfg.CHold)
	rec := cs.NewMethodReconstructor(a, cfg.NPhi, cs.ReconOptions{
		Method:   cfg.ReconMethod,
		MaxAtoms: cfg.MaxAtoms,
		Tol:      1e-4,
	})
	p := &csPlan{phi: phi, rec: rec, maxCount: busiestRow(phi)}
	csPlanMu.Lock()
	if prior, ok := csPlans[key]; ok {
		csPlanMu.Unlock()
		return prior
	}
	csPlans[key] = p
	csPlanOrder = append(csPlanOrder, key)
	if len(csPlanOrder) > csPlanCap {
		delete(csPlans, csPlanOrder[0])
		csPlanOrder = csPlanOrder[1:]
	}
	csPlanMu.Unlock()
	return p
}
