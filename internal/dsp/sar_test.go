package dsp

import (
	"math"
	"testing"

	"efficsense/internal/isa/isatest"
	"efficsense/internal/xrand"
)

// successiveApproxReference is SuccessiveApprox one sample at a time, a
// branch per decision: the oracle of every tier's body.
func successiveApproxReference(dst, in, u, w []float64, sigma, half, lsb float64) {
	for s := range dst {
		t := in[s] + half
		acc, code := 0.0, 0
		for b, wb := range w {
			trial := acc + wb
			noise := 0.0
			if u != nil {
				noise = 0 + sigma*u[s*len(w)+b]
			}
			code <<= 1
			if t+noise >= trial {
				acc = trial
				code |= 1
			}
		}
		dst[s] = (float64(code)+0.5)*lsb - half
	}
}

// TestSuccessiveApproxMatchesReference pins SuccessiveApprox, on every
// kernel tier, to the one-sample reference: 1 to 24 bits with jittered
// weights, 0 to 41 samples (so the vector groups of 8 and the Go tail
// both run), with and without noise, inputs beyond full scale, exactly
// on trial levels, ±0, ±∞ and NaN, and in place.
func TestSuccessiveApproxMatchesReference(t *testing.T) {
	isatest.ForEachTier(t, func(t *testing.T) {
		rng := xrand.New(17)
		for bits := 1; bits <= 24; bits++ {
			w := make([]float64, bits)
			for b := range w {
				w[b] = math.Ldexp(1, -1-b) * (1 + 0.01*rng.Normal(0, 1))
			}
			lsb := math.Ldexp(2, -bits)
			for n := 0; n <= 41; n++ {
				in := make([]float64, n)
				for i := range in {
					switch rng.Intn(6) {
					case 0:
						in[i] = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1, -1}[rng.Intn(7)]
					case 1:
						in[i] = w[0] - 1 // the MSB's trial level exactly
					default:
						in[i] = 2.4*rng.Float64() - 1.2
					}
				}
				u := make([]float64, n*bits)
				rng.FillUnitNormal(u)
				for _, noisy := range []bool{false, true} {
					var uu []float64
					sigma := 0.0
					if noisy {
						uu, sigma = u, 0.3*lsb
					}
					got, want := make([]float64, n), make([]float64, n)
					SuccessiveApprox(got, in, uu, w, sigma, 1, lsb)
					successiveApproxReference(want, in, uu, w, sigma, 1, lsb)
					checkBits(t, "SuccessiveApprox", n, got, want)
					inPlace := append([]float64(nil), in...)
					SuccessiveApprox(inPlace, inPlace, uu, w, sigma, 1, lsb)
					checkBits(t, "SuccessiveApprox in place", n, inPlace, want)
				}
			}
		}
	})
}

// BenchmarkSuccessiveApprox times the decisions alone at 8 bits over
// 4096 samples with noise draws supplied; ns/op is per decision.
func BenchmarkSuccessiveApprox(b *testing.B) {
	const n, bits = 4096, 8
	in, dst, u, w := make([]float64, n), make([]float64, n), make([]float64, n*bits), make([]float64, bits)
	rng := xrand.New(1)
	rng.FillUnitNormal(u)
	for i := range in {
		in[i] = 2*rng.Float64() - 1
	}
	for i := range w {
		w[i] = math.Ldexp(1, -i)
	}
	b.ResetTimer()
	for done := 0; done < b.N; done += n * bits {
		SuccessiveApprox(dst, in, u, w, 1e-3, 1, 2.0/256)
	}
}
