package dsp

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"
	"testing/quick"

	"efficsense/internal/xrand"
)

func TestFFTRoundTrip(t *testing.T) {
	rng := xrand.New(1)
	for _, n := range []int{1, 2, 4, 64, 1024} {
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
			orig[i] = x[i]
		}
		FFT(x)
		IFFT(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip error at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTKnownImpulse(t *testing.T) {
	x := make([]complex128, 8)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 256
	const bin = 10
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * bin * float64(i) / n
		x[i] = complex(math.Cos(ang), 0)
	}
	FFT(x)
	// Real cosine at bin 10: energy split between bins 10 and n-10, each n/2.
	if got := cmplx.Abs(x[bin]); math.Abs(got-n/2) > 1e-6 {
		t.Fatalf("|X[%d]| = %g, want %d", bin, got, n/2)
	}
	if got := cmplx.Abs(x[n-bin]); math.Abs(got-n/2) > 1e-6 {
		t.Fatalf("|X[%d]| = %g, want %d", n-bin, got, n/2)
	}
	for k, v := range x {
		if k != bin && k != n-bin && cmplx.Abs(v) > 1e-6 {
			t.Fatalf("leakage at bin %d: %g", k, cmplx.Abs(v))
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := xrand.New(7)
	const n = 512
	x := make([]complex128, n)
	var timePower float64
	for i := range x {
		v := rng.Normal(0, 1)
		x[i] = complex(v, 0)
		timePower += v * v
	}
	FFT(x)
	var freqPower float64
	for _, v := range x {
		freqPower += real(v)*real(v) + imag(v)*imag(v)
	}
	freqPower /= n
	if math.Abs(timePower-freqPower) > 1e-6*timePower {
		t.Fatalf("Parseval violated: time %g vs freq %g", timePower, freqPower)
	}
}

func TestFFTPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FFT of length 12 should panic")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64, scaleRaw uint8) bool {
		rng := xrand.New(seed)
		scale := float64(scaleRaw)/16 + 0.5
		const n = 64
		a := make([]complex128, n)
		b := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.Normal(0, 1), 0)
			b[i] = complex(rng.Normal(0, 1), 0)
			sum[i] = complex(scale, 0)*a[i] + b[i]
		}
		FFT(a)
		FFT(b)
		FFT(sum)
		for i := range sum {
			want := complex(scale, 0)*a[i] + b[i]
			if cmplx.Abs(sum[i]-want) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMagnitudeSpectrumAmplitude(t *testing.T) {
	const n = 1024
	const fs = 1024.0
	const freq = 128.0 // exactly on a bin
	const amp = 0.75
	v := make([]float64, n)
	for i := range v {
		v[i] = amp * math.Sin(2*math.Pi*freq*float64(i)/fs)
	}
	spec := MagnitudeSpectrum(v, nil)
	got := spec[128]
	if math.Abs(got-amp) > 1e-9 {
		t.Fatalf("on-bin amplitude = %g, want %g", got, amp)
	}
	// Windowed: coherent gain compensation keeps amplitude approximately.
	specW := MagnitudeSpectrum(v, Hann(n))
	var peak float64
	for _, m := range specW {
		if m > peak {
			peak = m
		}
	}
	if math.Abs(peak-amp) > 0.05*amp {
		t.Fatalf("windowed peak amplitude = %g, want ~%g", peak, amp)
	}
}

// BenchmarkFFT512 is one Welch segment of the detector's features.
func BenchmarkFFT512(b *testing.B) {
	x := make([]complex128, 512)
	rng := xrand.New(1)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

// TestFFTPlanConcurrentFirstUse: goroutines that all ask for a length no
// other test plans race to build its plan; each transform still matches
// the reference bit for bit (run under -race, this also checks the plan
// is published safely).
func TestFFTPlanConcurrentFirstUse(t *testing.T) {
	const n = 1 << 14
	x := make([]complex128, n)
	rng := xrand.New(13)
	for i := range x {
		x[i] = complex(rng.Normal(0, 1), rng.Normal(0, 1))
	}
	want := append([]complex128(nil), x...)
	referenceFFT(want, false)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := append([]complex128(nil), x...)
			FFT(got)
			if i := sameComplexBits(got, want); i >= 0 {
				t.Errorf("bin %d = %v, reference %v", i, got[i], want[i])
			}
		}()
	}
	wg.Wait()
}
