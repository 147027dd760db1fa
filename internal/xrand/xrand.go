// Package xrand provides the deterministic random-number substrate used by
// every stochastic model in EffiCSense (thermal noise, capacitor mismatch,
// sensing-matrix generation, EEG synthesis). Each model derives an
// independent, reproducible stream from a root seed and a string label, so
// that changing one block's consumption pattern never perturbs another
// block's realisation — the property that makes design-space sweeps
// comparable point to point.
package xrand

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random stream. It wraps math/rand with the
// distributions the simulator needs.
type Source struct {
	rng *rand.Rand
}

// New returns a Source seeded with the given value.
func New(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
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
// deviation. A non-positive sigma returns mean exactly (a disabled noise
// source draws nothing so streams stay aligned across noise settings).
func (s *Source) Normal(mean, sigma float64) float64 {
	if sigma <= 0 {
		return mean
	}
	return mean + sigma*s.rng.NormFloat64()
}

// FillUnitNormal fills dst with raw standard-normal draws, one per
// element. Because Normal(0, sigma) is computed as 0 + sigma·NormFloat64,
// a caller holding a bank of unit draws u can reproduce any Normal(0, s)
// stream as s·u[i] — the trick the evaluation session uses to pay for a
// noise stream once and replay it at every noise level of a batch.
func (s *Source) FillUnitNormal(dst []float64) {
	for i := range dst {
		dst[i] = s.rng.NormFloat64()
	}
}

// FillNormal fills dst with independent N(mean, sigma²) samples.
func (s *Source) FillNormal(dst []float64, mean, sigma float64) {
	for i := range dst {
		dst[i] = s.Normal(mean, sigma)
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
	for i := 0; i < n; i++ {
		var v float64
		for k := range stages {
			states[k] = pole[k]*states[k] + gain[k]*s.rng.NormFloat64()
			v += states[k] * weight[k] / norm
		}
		dst[i] = v
	}
	removeMean(dst)
	normaliseRMS(dst)
}

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
