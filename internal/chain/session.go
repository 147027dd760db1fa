package chain

import (
	"math"
	"sync"

	"efficsense/internal/blocks"
	"efficsense/internal/cs"
	"efficsense/internal/dsp"
	"efficsense/internal/xrand"
)

// EvalSession is the reusable per-worker state of the batch evaluation
// path: the replayed noise banks plus every intermediate waveform buffer
// a chain run needs. One session serves any number of chain runs built
// from the same seed; buffers grow to the largest record seen and are
// then reused, so the steady state allocates nothing.
//
// Bit-identity with the classic RunGrid path rests on two facts. First,
// every chain run starts a fresh noise context from the same seed, so the
// derived "lna-noise" and "sh-noise" streams are the same sequence for
// every record and every design point — the session materialises each
// sequence once as a bank of unit normals and replays it as sigma·u[i]
// (exactly how xrand.Source.Normal scales its draws). Second, the
// stateful streams (encoder kT/C, SAR comparator) live in the per-point
// block instances, which consume them through the same ...Into methods in
// the same record order as the classic path.
//
// A session is not safe for concurrent use; pool one per worker.
type EvalSession struct {
	seed   int64
	lnaSrc *xrand.Source // positioned after len(lnaUnit) draws
	shSrc  *xrand.Source
	lnaU   []float64 // unit-normal bank of the "lna-noise" stream
	shU    []float64 // unit-normal bank of the "sh-noise" stream

	amp []float64 // amplified waveform (grid rate)
	dec []float64 // decimated waveform (f_sample)
	y   []float64 // encoder measurements
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
		seed:   seed,
		lnaSrc: root.Derive("lna-noise"),
		shSrc:  root.Derive("sh-noise"),
	}
}

// Seed returns the seed the session's noise banks replay.
func (s *EvalSession) Seed() int64 { return s.seed }

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
// to a fresh-context run at the session seed.
func (s *EvalSession) lnaProcess(l *blocks.LNA, rate float64, in []float64) []float64 {
	if l.FlickerCorner > 0 {
		// The flicker path consumes the noise stream differently; take the
		// classic path with a fresh context (identical by construction).
		return l.Process(blocks.NewContext(rate, s.seed), in)
	}
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

// AmplifySession runs the baseline LNA over one grid record. The returned
// slice is session scratch, valid until the next Amplify/Encode call — it
// is shared across every design point of a batch group whose LNA settings
// coincide (gain and noise floor do not depend on the ADC resolution).
func (b *Baseline) AmplifySession(s *EvalSession, grid []float64) []float64 {
	return s.lnaProcess(b.lna, b.cfg.GridRate(), grid)
}

// DigitizeSession finishes a baseline run from an amplified waveform:
// sample & hold with the session's replayed kT/C noise bank, then SAR
// conversion through this chain's stateful converter. dst receives the
// digital output (grown as needed, fully overwritten) and is returned
// inside the Output, so the caller owns the waveform storage.
func (b *Baseline) DigitizeSession(s *EvalSession, amplified, dst []float64) Output {
	cfg := b.cfg
	temp := cfg.Tech.Temperature
	if temp <= 0 {
		temp = 300
	}
	var sigma float64
	if b.sampleCap > 0 {
		sigma = math.Sqrt(1.380649e-23 * temp / b.sampleCap)
	}
	d := cfg.SimOversample
	n := (len(amplified) + d - 1) / d
	dst = growFloats(dst, n)
	if sigma > 0 {
		u := s.shUnits(n)
		j := 0
		for i := 0; i < len(amplified); i += d {
			dst[j] = amplified[i] + 0 + sigma*u[j]
			j++
		}
	} else {
		j := 0
		for i := 0; i < len(amplified); i += d {
			dst[j] = amplified[i] + 0
			j++
		}
	}
	dst = b.sar.ConvertInto(dst, dst)
	return Output{
		Samples:  dst,
		Rate:     cfg.Sys.FSample(),
		Gain:     b.gain,
		Power:    b.PowerBreakdown(dsp.RMS(dst), dsp.Mean(dst)),
		AreaCaps: b.Area(),
	}
}

// RunGridSession is RunGrid through the session path: identical results,
// no per-run allocation beyond dst growth.
func (b *Baseline) RunGridSession(s *EvalSession, grid, dst []float64) Output {
	return b.DigitizeSession(s, b.AmplifySession(s, grid), dst)
}

// EncodeSession runs the CS front half — LNA, ideal decimation, the
// charge-sharing encoder — over one grid record. The returned measurement
// vector is session scratch, valid until the next Amplify/Encode call.
// Because the encoder realisation depends only on (geometry, seed), the
// measurements are shared across every design point of a group that
// differs only in ADC resolution.
func (c *CSChain) EncodeSession(s *EvalSession, grid []float64) []float64 {
	amplified := s.lnaProcess(c.lna, c.cfg.GridRate(), grid)
	d := c.cfg.SimOversample
	n := (len(amplified) + d - 1) / d
	s.dec = growFloats(s.dec, n)
	j := 0
	for i := 0; i < len(amplified); i += d {
		s.dec[j] = amplified[i]
		j++
	}
	s.y = c.enc.EncodeInto(s.y, s.dec)
	return s.y
}

// FinishSession completes a CS run from a measurement vector: SAR
// conversion through this chain's stateful converter, then sparse
// reconstruction. dst receives the reconstructed waveform (grown as
// needed, fully overwritten) and is returned inside the Output.
func (c *CSChain) FinishSession(s *EvalSession, y, dst []float64) Output {
	cfg := c.cfg
	s.yq = c.sar.ConvertInto(s.yq, y)
	yq := s.yq
	return Output{
		Samples:  c.rec.ReconstructInto(dst, yq, &s.rs),
		Rate:     cfg.Sys.FSample(),
		Gain:     c.gain,
		Power:    c.PowerBreakdown(dsp.RMS(yq), dsp.Mean(yq)),
		AreaCaps: c.Area(),
	}
}

// RunGridSession is RunGrid through the session path: identical results,
// no per-run allocation beyond dst growth.
func (c *CSChain) RunGridSession(s *EvalSession, grid, dst []float64) Output {
	return c.FinishSession(s, c.EncodeSession(s, grid), dst)
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
	maxCount := 0
	for _, k := range phi.RowCounts() {
		if k > maxCount {
			maxCount = k
		}
	}
	a := cs.NominalEffectiveMatrix(phi, csample, cfg.CHold)
	rec := cs.NewMethodReconstructor(a, cfg.NPhi, cs.ReconOptions{
		Method:   cfg.ReconMethod,
		MaxAtoms: cfg.MaxAtoms,
		Tol:      1e-4,
	})
	p := &csPlan{phi: phi, rec: rec, maxCount: maxCount}
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
