package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// oneOverFReference is OneOverF as it was before its loop invariants were
// hoisted and its draws came in blocks: every pole and weight recomputed
// per sample, one NormFloat64 per stage and sample from r. It is the
// oracle OneOverF must match bit for bit.
func oneOverFReference(r *rand.Rand, dst []float64, alpha float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	if alpha <= 0 {
		for i := range dst {
			dst[i] = 0 + 1*r.NormFloat64()
		}
		normaliseRMS(dst)
		return
	}
	const stages = 10
	states := make([]float64, stages)
	for i := 0; i < n; i++ {
		var v float64
		for k := 0; k < stages; k++ {
			a := math.Exp(-2 * math.Pi * math.Pow(0.5, float64(k)) * 0.25)
			states[k] = a*states[k] + (1-a)*r.NormFloat64()
			v += states[k] * math.Pow(2, float64(k)*alpha/2) / math.Pow(2, float64(stages)*alpha/4)
		}
		dst[i] = v
	}
	removeMean(dst)
	normaliseRMS(dst)
}

func TestOneOverFMatchesReference(t *testing.T) {
	for _, alpha := range []float64{0, 1.1, 2} {
		for _, n := range []int{1, 7, 63, 64, 65, 4097} {
			got, want := make([]float64, n), make([]float64, n)
			s, ref := New(42), New(42)
			s.OneOverF(got, alpha)
			oneOverFReference(ref.rng, want, alpha)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("alpha %g n %d: sample %d = %v, reference %v", alpha, n, i, got[i], want[i])
				}
			}
			// Both consumed the same number of draws from the stream.
			if a, b := s.Float64(), ref.Float64(); a != b {
				t.Fatalf("alpha %g n %d: stream position differs after the fill", alpha, n)
			}
		}
	}
}
