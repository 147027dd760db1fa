// Package xrand provides the deterministic random-number substrate used by
// every stochastic model in EffiCSense (thermal noise, capacitor mismatch,
// sensing-matrix generation, EEG synthesis). Each model derives an
// independent, reproducible stream from a root seed and a string label, so
// that changing one block's consumption pattern never perturbs another
// block's realisation — the property that makes design-space sweeps
// comparable point to point.
//
// Every stream is math/rand's, bit for bit: a Source runs the generator
// of rand.NewSource as a concrete ring (ring.go), so Gaussian draws can
// be converted a block at a time (FillUnitNormal) while the uniform,
// integer and permutation draws still go through rand.Rand.
package xrand

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random stream: the stream of
// rand.New(rand.NewSource(seed)), with the distributions the simulator
// needs. Gaussian draws run on the ring directly; the other methods go
// through a rand.Rand over the same ring, so every draw of every method
// comes from one sequence in call order.
type Source struct {
	ring ring
	rng  *rand.Rand // rand.New(&ring)
}

// New returns a Source seeded with the given value.
func New(seed int64) *Source {
	s := new(Source)
	s.ring.Seed(seed)
	s.rng = rand.New(&s.ring)
	return s
}

// Derive returns an independent child stream identified by label. Streams
// derived from the same (seed, label) pair are identical across runs;
// different labels give (practically) independent streams.
func Derive(seed int64, label string) *Source {
	h := fnv.New64a()
	// Hash the label and mix in the seed; FNV is stable across platforms.
	_, _ = h.Write([]byte(label))
	const golden = int64(0x9E3779B97F4A7C15 >> 1)
	mixed := int64(h.Sum64()) ^ (seed * golden)
	return New(mixed)
}

// Derive returns a child stream of s identified by label, advancing s by
// one draw so repeated Derive calls with the same label on the same parent
// yield different children.
func (s *Source) Derive(label string) *Source {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return New(int64(h.Sum64()) ^ s.rng.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform value in [0, n).
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Normal returns a Gaussian sample with the given mean and standard
// deviation, mean + sigma·u for the next unit draw u. A non-positive
// sigma returns mean exactly and draws nothing (a disabled noise source
// leaves the stream where it was, so streams stay aligned across noise
// settings); a NaN sigma draws.
func (s *Source) Normal(mean, sigma float64) float64 {
	if sigma <= 0 {
		return mean
	}
	return mean + sigma*s.ring.normal()
}

// FillUnitNormal fills dst with standard-normal draws, one per element:
// exactly the values, in order, of len(dst) calls to math/rand's
// NormFloat64 on the same stream. Because Normal(0, sigma) is computed
// as 0 + sigma·u, a caller holding a block of unit draws u reproduces
// any run of Normal(0, s) calls as 0 + s·u[i]: the SAR and the
// charge-sharing encoder draw their noise a block at a time this way,
// and the evaluation session replays one noise stream at every noise
// level of a batch.
func (s *Source) FillUnitNormal(dst []float64) { s.ring.fillNormal(dst) }

// FillNormal fills dst with independent N(mean, sigma²) samples, the
// values of len(dst) Normal calls. A non-positive sigma fills mean and
// draws nothing.
func (s *Source) FillNormal(dst []float64, mean, sigma float64) {
	if sigma <= 0 {
		for i := range dst {
			dst[i] = mean
		}
		return
	}
	s.FillUnitNormal(dst)
	for i, u := range dst {
		dst[i] = mean + sigma*u
	}
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.rng.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Choose returns k distinct indices drawn uniformly from [0, n) in
// ascending order. It panics if k > n or k < 0.
func (s *Source) Choose(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: Choose requires 0 <= k <= n")
	}
	// Floyd's algorithm: O(k) memory, uniform.
	chosen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		t := s.rng.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			chosen[j] = struct{}{}
		} else {
			chosen[t] = struct{}{}
		}
	}
	out := make([]int, 0, k)
	for i := 0; i < n && len(out) < k; i++ {
		if _, ok := chosen[i]; ok {
			out = append(out, i)
		}
	}
	return out
}

// Shuffle permutes the ints in place.
func (s *Source) Shuffle(v []int) {
	s.rng.Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
}

// OneOverF fills dst with 1/f^alpha ("coloured") noise of unit RMS using
// the Voss–McCartney-like spectral shaping method: white Gaussian noise is
// generated, shaped in a cascade of first-order lowpass sections whose
// cutoffs are octave-spaced, then normalised. alpha in [0, 2]; alpha=0 is
// white, alpha=2 is Brownian-like.
func (s *Source) OneOverF(dst []float64, alpha float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	if alpha <= 0 {
		s.FillNormal(dst, 0, 1)
		normaliseRMS(dst)
		return
	}
	// Sum of octave-spaced one-pole filtered white sources approximates a
	// 1/f^alpha slope; the per-stage weight sets the slope. The poles and
	// weights do not depend on the sample, so they are computed once. The
	// per-sample expressions, (states[k]*weight)/norm included, must keep
	// their operation order: every coloured-noise stream depends on it bit
	// for bit.
	const stages = 10
	var states, pole, gain, weight [stages]float64
	for k := range stages {
		// Pole frequency halves per stage.
		pole[k] = math.Exp(-2 * math.Pi * math.Pow(0.5, float64(k)) * 0.25)
		gain[k] = 1 - pole[k]
		// Stage weight sets overall slope: weight 2^(k*alpha/2) boosts
		// low-frequency stages for larger alpha.
		weight[k] = math.Pow(2, float64(k)*alpha/2)
	}
	norm := math.Pow(2, float64(stages)*alpha/4)
	// The unit draws come a block of samples at a time, in the order the
	// per-sample loop consumes them: sample by sample, stage by stage.
	var units [oneOverFBlock * stages]float64
	for lo := 0; lo < n; lo += oneOverFBlock {
		block := dst[lo:min(lo+oneOverFBlock, n)]
		u := units[:len(block)*stages]
		s.FillUnitNormal(u)
		for i := range block {
			var v float64
			for k, uk := range u[i*stages : (i+1)*stages] {
				states[k] = pole[k]*states[k] + gain[k]*uk
				v += states[k] * weight[k] / norm
			}
			block[i] = v
		}
	}
	removeMean(dst)
	normaliseRMS(dst)
}

// oneOverFBlock is the number of samples OneOverF draws units for at a
// time.
const oneOverFBlock = 64

func removeMean(v []float64) {
	var m float64
	for _, x := range v {
		m += x
	}
	m /= float64(len(v))
	for i := range v {
		v[i] -= m
	}
}

func normaliseRMS(v []float64) {
	var ss float64
	for _, x := range v {
		ss += x * x
	}
	rms := math.Sqrt(ss / float64(len(v)))
	if rms == 0 {
		return
	}
	for i := range v {
		v[i] /= rms
	}
}
