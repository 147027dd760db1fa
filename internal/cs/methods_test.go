package cs

import (
	"math"
	"testing"

	"efficsense/internal/dsp"
	"efficsense/internal/xrand"
)

// sparseFrameProblem builds an ideal passive encoder, a DCT-sparse frame
// and its measurements.
func sparseFrameProblem(n, m int, seed int64) (enc *Encoder, x, y []float64) {
	enc = idealEncoder(m, n, 2, seed)
	d := dsp.NewDCT(n)
	coeffs := make([]float64, n)
	coeffs[2] = 1.0
	coeffs[9] = -0.5
	coeffs[17] = 0.3
	x = d.Inverse(coeffs)
	y = enc.EncodeFrame(x)
	return enc, x, y
}

func TestMethodStrings(t *testing.T) {
	if MethodOMP.String() != "omp" || MethodIHT.String() != "iht" || MethodRidge.String() != "ridge" {
		t.Fatal("method names")
	}
	if Method(7).String() == "" {
		t.Fatal("unknown method should render")
	}
}

func TestMethodOMPRecovers(t *testing.T) {
	enc, x, y := sparseFrameProblem(128, 64, 21)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 128, ReconOptions{Method: MethodOMP, MaxAtoms: 12, Tol: 1e-12})
	snr := dsp.SNRVersusReference(x, r.ReconstructFrame(y))
	if snr < 50 {
		t.Fatalf("OMP method SNR = %g dB", snr)
	}
}

func TestMethodIHTRecovers(t *testing.T) {
	enc, x, y := sparseFrameProblem(128, 64, 22)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 128, ReconOptions{Method: MethodIHT, MaxAtoms: 8, IHTIters: 150})
	snr := dsp.SNRVersusReference(x, r.ReconstructFrame(y))
	if snr < 25 {
		t.Fatalf("IHT method SNR = %g dB", snr)
	}
}

func TestMethodRidgeRecoversApproximately(t *testing.T) {
	// Ridge has no sparsity prior so recovery is rough, but must be
	// positively correlated and stable.
	enc, x, y := sparseFrameProblem(128, 96, 23)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 128, ReconOptions{Method: MethodRidge, RidgeLambda: 0.01})
	xh := r.ReconstructFrame(y)
	if rho := dsp.CrossCorrelation(x, xh); rho < 0.5 {
		t.Fatalf("ridge correlation = %g", rho)
	}
}

func TestMethodReconstructorStream(t *testing.T) {
	enc, _, _ := sparseFrameProblem(64, 32, 24)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 64, ReconOptions{Method: MethodRidge})
	y := enc.Encode(make([]float64, 3*64))
	out := r.Reconstruct(y)
	if len(out) != 3*64 {
		t.Fatalf("stream length %d", len(out))
	}
	if r.FrameLen() != 64 || r.Measurements() != 32 {
		t.Fatal("accessors")
	}
}

func TestMethodReconstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	enc, _, _ := sparseFrameProblem(64, 32, 25)
	a := enc.EffectiveMatrix(true)
	mustPanic("shape", func() { NewMethodReconstructor(a, 65, ReconOptions{}) })
	mustPanic("method", func() { NewMethodReconstructor(a, 64, ReconOptions{Method: Method(9)}) })
	r := NewMethodReconstructor(a, 64, ReconOptions{})
	mustPanic("frame length", func() { r.ReconstructFrame(make([]float64, 5)) })
}

func TestKeepTopKAbs(t *testing.T) {
	v := []float64{0.1, -5, 3, -0.2, 4}
	keepTopKAbs(v, 2)
	nz := 0
	for _, x := range v {
		if x != 0 {
			nz++
		}
	}
	if nz != 2 || v[1] != -5 || v[4] != 4 {
		t.Fatalf("keepTopKAbs result %v", v)
	}
	w := []float64{1, 2}
	keepTopKAbs(w, 5) // no-op
	if w[0] != 1 || w[1] != 2 {
		t.Fatal("oversized k should be a no-op")
	}
}

func TestActiveEncoderExactSum(t *testing.T) {
	phi := GenerateSRBM(8, 32, 2, 26)
	enc := NewActiveEncoder(ActiveEncoderConfig{Phi: phi, Seed: 26})
	rng := xrand.New(26)
	x := make([]float64, 32)
	rng.FillNormal(x, 0, 1)
	y := enc.EncodeFrame(x)
	// Ideal active integration is the exact binary matrix product.
	want := DigitalEncode(phi, x)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("row %d: active %g vs exact %g", i, y[i], want[i])
		}
	}
}

func TestActiveEncoderMatchesEffectiveMatrix(t *testing.T) {
	phi := GenerateSRBM(6, 24, 2, 27)
	enc := NewActiveEncoder(ActiveEncoderConfig{Phi: phi, GainError: 0.02, Seed: 27})
	rng := xrand.New(27)
	x := make([]float64, 24)
	rng.FillNormal(x, 0, 1)
	y := enc.EncodeFrame(x)
	a := enc.EffectiveMatrix()
	for i := range y {
		want := dsp.Dot(a[i], x)
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("row %d: encoder %g vs matrix %g", i, y[i], want)
		}
	}
}

func TestActiveEncoderNoiseAccumulates(t *testing.T) {
	phi := GenerateSRBM(4, 64, 2, 28)
	noisy := NewActiveEncoder(ActiveEncoderConfig{Phi: phi, OTANoise: 1e-3, Seed: 28})
	y := noisy.EncodeFrame(make([]float64, 64))
	if dsp.RMS(y) == 0 {
		t.Fatal("OTA noise missing")
	}
	// More accumulations per row → more noise: rows with higher counts
	// should show larger variance on average over repeated frames.
	counts := phi.RowCounts()
	var accum [4]float64
	const trials = 400
	for t := 0; t < trials; t++ {
		y := noisy.EncodeFrame(make([]float64, 64))
		for i, v := range y {
			accum[i] += v * v
		}
	}
	// Compare the busiest against the idlest row.
	hi, lo := 0, 0
	for i, c := range counts {
		if c > counts[hi] {
			hi = i
		}
		if c < counts[lo] {
			lo = i
		}
	}
	if counts[hi] > counts[lo] && accum[hi] <= accum[lo] {
		t.Fatalf("noise should accumulate with row count: var[hi]=%g var[lo]=%g (counts %v)",
			accum[hi], accum[lo], counts)
	}
}

func TestActiveEncoderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("missing matrix should panic")
		}
	}()
	NewActiveEncoder(ActiveEncoderConfig{})
}

func TestDigitalEncodeShape(t *testing.T) {
	phi := GenerateSRBM(8, 32, 2, 29)
	y := DigitalEncode(phi, make([]float64, 100)) // 3 frames + remainder
	if len(y) != 24 {
		t.Fatalf("digital encode length %d", len(y))
	}
}

func TestNewMatrixReconstructorEquivalence(t *testing.T) {
	// The generic constructor on the passive encoder's nominal matrix
	// must reproduce NewReconstructor exactly.
	enc, x, y := sparseFrameProblem(96, 48, 30)
	r1 := NewReconstructor(enc, 10, 1e-10)
	r2 := NewMatrixReconstructor(enc.EffectiveMatrix(true), 96, 10, 1e-10)
	a := r1.ReconstructFrame(y)
	b := r2.ReconstructFrame(y)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reconstructors diverge at %d", i)
		}
	}
	_ = x
}
