package adc

import (
	"math"
	"testing"
	"testing/quick"

	"efficsense/internal/dsp"
	"efficsense/internal/isa/isatest"
	"efficsense/internal/siggen"
	"efficsense/internal/xrand"
)

func TestIdealQuantiserENOB(t *testing.T) {
	const fs = 16384.0
	for _, bits := range []int{6, 8, 10} {
		q := NewIdeal(bits, 2)
		in := siggen.Sine(1<<15, 1001.3, fs, 0.999, 0)
		out := q.Convert(in)
		m := dsp.AnalyzeSine(out, fs)
		if math.Abs(m.ENOB-float64(bits)) > 0.35 {
			t.Errorf("ideal %d-bit ENOB = %g", bits, m.ENOB)
		}
	}
}

func TestSARMatchesIdealWhenPerfect(t *testing.T) {
	s := New(Config{Bits: 8, VFS: 2, Seed: 1})
	q := NewIdeal(8, 2)
	in := siggen.Ramp(1000, -0.999, 0.999)
	so := s.Convert(in)
	qo := q.Convert(in)
	for i := range so {
		if math.Abs(so[i]-qo[i]) > 1e-12 {
			t.Fatalf("perfect SAR differs from ideal quantiser at %d: %g vs %g (in %g)",
				i, so[i], qo[i], in[i])
		}
	}
}

func TestSARENOBWithNoise(t *testing.T) {
	const fs = 16384.0
	// Comparator noise of 2 LSB rms should cost ~several dB of SNDR.
	clean := New(Config{Bits: 8, VFS: 2, Seed: 2})
	lsb := clean.LSB()
	noisy := New(Config{Bits: 8, VFS: 2, ComparatorNoise: 2 * lsb, Seed: 2})
	in := siggen.Sine(1<<15, 1001.3, fs, 0.999, 0)
	mClean := dsp.AnalyzeSine(clean.Convert(in), fs)
	mNoisy := dsp.AnalyzeSine(noisy.Convert(in), fs)
	if mClean.SNDRdB-mNoisy.SNDRdB < 3 {
		t.Fatalf("comparator noise cost only %g dB", mClean.SNDRdB-mNoisy.SNDRdB)
	}
}

func TestSARMismatchDegradesSNDR(t *testing.T) {
	const fs = 16384.0
	in := siggen.Sine(1<<15, 1001.3, fs, 0.999, 0)
	clean := New(Config{Bits: 10, VFS: 2, Seed: 3})
	// 5 % unit-cap mismatch is gross but demonstrates the mechanism.
	bad := New(Config{Bits: 10, VFS: 2, UnitCap: 1e-15, MismatchCoeff: 0.05, Seed: 3})
	mc := dsp.AnalyzeSine(clean.Convert(in), fs)
	mb := dsp.AnalyzeSine(bad.Convert(in), fs)
	if mc.SNDRdB-mb.SNDRdB < 3 {
		t.Fatalf("mismatch cost only %g dB (clean %g, mismatched %g)",
			mc.SNDRdB-mb.SNDRdB, mc.SNDRdB, mb.SNDRdB)
	}
}

func TestSARCodesMonotoneIdeal(t *testing.T) {
	s := New(Config{Bits: 8, VFS: 2, Seed: 4})
	prev := -1
	for v := -1.0; v <= 1.0; v += 0.001 {
		code := s.ConvertCode(v)
		if code < prev {
			t.Fatalf("codes not monotone at %g: %d < %d", v, code, prev)
		}
		prev = code
	}
}

func TestSARCodeRangeProperty(t *testing.T) {
	s := New(Config{Bits: 6, VFS: 2, UnitCap: 1e-15, MismatchCoeff: 0.01, Seed: 5})
	f := func(raw int16) bool {
		v := float64(raw) / math.MaxInt16 * 3 // deliberately overranges
		code := s.ConvertCode(v)
		return code >= 0 && code < 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSARRoundTripWithinLSB(t *testing.T) {
	s := New(Config{Bits: 8, VFS: 2, Seed: 6})
	lsb := s.LSB()
	for v := -0.99; v < 0.99; v += 0.0137 {
		got := s.CodeToVoltage(s.ConvertCode(v))
		if math.Abs(got-v) > lsb {
			t.Fatalf("reconstruction error %g > 1 LSB at %g", got-v, v)
		}
	}
}

func TestSARClipsGracefully(t *testing.T) {
	s := New(Config{Bits: 8, VFS: 2, Seed: 7})
	if got := s.ConvertCode(10); got != 255 {
		t.Fatalf("overrange code = %d, want 255", got)
	}
	if got := s.ConvertCode(-10); got != 0 {
		t.Fatalf("underrange code = %d, want 0", got)
	}
}

func TestSARINL(t *testing.T) {
	perfect := New(Config{Bits: 8, VFS: 2, Seed: 8})
	for code, v := range perfect.INL() {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("perfect SAR INL[%d] = %g", code, v)
		}
	}
	bad := New(Config{Bits: 8, VFS: 2, UnitCap: 1e-15, MismatchCoeff: 0.02, Seed: 8})
	var maxINL float64
	for _, v := range bad.INL() {
		if a := math.Abs(v); a > maxINL {
			maxINL = a
		}
	}
	if maxINL == 0 {
		t.Fatal("mismatched SAR should show nonzero INL")
	}
}

func TestSARDeterministicMismatch(t *testing.T) {
	a := New(Config{Bits: 8, VFS: 2, UnitCap: 1e-15, MismatchCoeff: 0.01, Seed: 9})
	b := New(Config{Bits: 8, VFS: 2, UnitCap: 1e-15, MismatchCoeff: 0.01, Seed: 9})
	for i := range a.weights {
		if a.weights[i] != b.weights[i] {
			t.Fatal("same seed should give identical mismatch realisation")
		}
	}
	c := New(Config{Bits: 8, VFS: 2, UnitCap: 1e-15, MismatchCoeff: 0.01, Seed: 10})
	same := true
	for i := range a.weights {
		if a.weights[i] != c.weights[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different mismatch")
	}
}

func TestSARAccessors(t *testing.T) {
	s := New(Config{Bits: 7, VFS: 2, Seed: 11})
	if s.Bits() != 7 || s.VFS() != 2 {
		t.Fatal("accessors wrong")
	}
	if got := s.LSB(); math.Abs(got-2.0/128) > 1e-15 {
		t.Fatalf("LSB = %g", got)
	}
	codes := s.ConvertCodes([]float64{-1, 0, 0.999})
	if len(codes) != 3 || codes[0] != 0 || codes[2] != 127 {
		t.Fatalf("ConvertCodes = %v", codes)
	}
}

func TestConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("zero bits", func() { New(Config{Bits: 0, VFS: 2}) })
	mustPanic("zero vfs", func() { New(Config{Bits: 8}) })
	mustPanic("ideal zero bits", func() { NewIdeal(0, 2) })
}

// referenceConvertCode is ConvertCode before its decision became an
// index: a branch per bit that sets the code bit and keeps the trial.
func referenceConvertCode(s *SAR, v float64) int {
	target := v + s.vfs/2
	code := 0
	acc := 0.0
	for i := 0; i < s.bits; i++ {
		trial := acc + s.weights[i]
		noise := 0.0
		if s.compStd > 0 {
			noise = s.rng.Normal(0, s.compStd)
		}
		if target+noise >= trial {
			acc = trial
			code |= 1 << (s.bits - 1 - i)
		}
	}
	return code
}

// TestConvertCodeMatchesReference runs two identically seeded SARs side
// by side, one through ConvertCode and one through the branchy
// reference, at every resolution from 1 to 24 bits, with and without
// mismatch and comparator noise. Inputs cover the range, overrange and
// exact code boundaries (where the >= decision ties): all of them up to
// 12 bits, 4096 evenly spaced ones above. Codes must agree,
// and afterwards both comparator streams must be at the same position.
func TestConvertCodeMatchesReference(t *testing.T) {
	for bits := 1; bits <= 24; bits++ {
		for _, cfg := range []Config{
			{Bits: bits, VFS: 2, Seed: 3},
			{Bits: bits, VFS: 2, Seed: 4, UnitCap: 1e-15, MismatchCoeff: 0.02},
			{Bits: bits, VFS: 2, Seed: 5, UnitCap: 1e-15, MismatchCoeff: 0.02, ComparatorNoise: 0.5 * 2 / float64(int(1)<<bits)},
		} {
			got, want := New(cfg), New(cfg)
			var in []float64
			in = append(in, siggen.Ramp(997, -1.1, 1.1)...)
			// Every code boundary up to 12 bits; above, 4096 evenly spaced
			// ones and full scale.
			step := max(1, 1<<bits>>12)
			for code := 0; code <= 1<<bits; code += step {
				in = append(in, float64(code)*got.LSB()-1)
			}
			in = append(in, 1)
			for i, v := range in {
				if g, w := got.ConvertCode(v), referenceConvertCode(want, v); g != w {
					t.Fatalf("bits %d, noise %g: input %d (%v) converts to %d, reference %d",
						bits, cfg.ComparatorNoise, i, v, g, w)
				}
			}
			if g, w := got.rng.Float64(), want.rng.Float64(); g != w {
				t.Fatalf("bits %d, noise %g: comparator streams diverged", bits, cfg.ComparatorNoise)
			}
		}
	}
}

// sarCases are the converters the ConvertInto referee runs at each
// resolution: comparator noise off, on and NaN (which ConvertCode treats
// as off: NaN > 0 is false), all with capacitor mismatch.
func sarCases(bits int) []Config {
	lsb := 2 / math.Ldexp(1, bits)
	var cfgs []Config
	for i, noise := range []float64{0, 0.5 * lsb, math.NaN()} {
		cfgs = append(cfgs, Config{Bits: bits, VFS: 2, Seed: int64(7 + i), UnitCap: 1e-15, MismatchCoeff: 0.02, ComparatorNoise: noise})
	}
	return cfgs
}

// sarInputs returns n inputs spanning beyond ±full scale (so codes clip
// at both ends), with exact code boundaries, ±0 and ±full scale mixed in.
func sarInputs(s *SAR, n int, rng *xrand.Source) []float64 {
	in := make([]float64, n)
	for i := range in {
		switch rng.Intn(5) {
		case 0:
			in[i] = float64(rng.Intn(1<<s.Bits()+1))*s.LSB() - 1
		case 1:
			in[i] = []float64{0, math.Copysign(0, -1), 1, -1, 3, -3}[rng.Intn(6)]
		default:
			in[i] = 2.4*rng.Float64() - 1.2
		}
	}
	return in
}

// TestConvertIntoMatchesConvertCode pins ConvertInto, on every kernel
// tier, to ConvertCode: one SAR alternates ConvertCode and ConvertInto
// calls (some in place) of 0 to 600 samples — past one block of draws —
// while an identically seeded twin converts every sample through
// ConvertCode alone. Every voltage must match bit for bit and the two
// comparator streams must end at the same position, at every resolution
// from 1 to 24 bits, with comparator noise off, on and NaN.
func TestConvertIntoMatchesConvertCode(t *testing.T) {
	isatest.ForEachTier(t, func(t *testing.T) {
		rng := xrand.New(23)
		for bits := 1; bits <= 24; bits++ {
			for _, cfg := range sarCases(bits) {
				got, twin := New(cfg), New(cfg)
				for _, n := range []int{0, 1, 7, 8, 9, 17, 255, 256, 257, 600} {
					in := sarInputs(got, n, rng)
					want := make([]float64, n)
					for i, v := range in {
						want[i] = twin.CodeToVoltage(twin.ConvertCode(v))
					}
					var out []float64
					if n%2 == 1 {
						out = got.ConvertInto(nil, in)
					} else {
						out = append([]float64(nil), in...)
						out = got.ConvertInto(out, out)
					}
					for i := range want {
						if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
							t.Fatalf("bits %d, noise %g, n %d: sample %d (%v) converts to %v, ConvertCode %v",
								bits, cfg.ComparatorNoise, n, i, in[i], out[i], want[i])
						}
					}
					for _, x := range in[:min(n, 1)] {
						if g, w := got.ConvertCode(x), twin.ConvertCode(x); g != w {
							t.Fatalf("bits %d, noise %g: ConvertCode after ConvertInto = %d, twin %d", bits, cfg.ComparatorNoise, g, w)
						}
					}
				}
				if g, w := got.rng.Float64(), twin.rng.Float64(); g != w {
					t.Fatalf("bits %d, noise %g: comparator streams apart", bits, cfg.ComparatorNoise)
				}
			}
		}
	})
}

// BenchmarkSARConvert times ConvertInto at 8 bits over 4096 samples
// with comparator noise, draws included; ns/op is per comparator
// decision.
func BenchmarkSARConvert(b *testing.B) {
	s := New(Config{Bits: 8, VFS: 2, Seed: 1, UnitCap: 1e-15, MismatchCoeff: 0.02, ComparatorNoise: 1e-3})
	in := siggen.Sine(4096, 50, 1e3, 0.9, 0)
	dst := make([]float64, len(in))
	b.ResetTimer()
	for done := 0; done < b.N; done += len(in) * s.Bits() {
		dst = s.ConvertInto(dst, in)
	}
}
