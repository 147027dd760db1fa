package chain

import (
	"fmt"
	"math"
	"testing"

	"efficsense/internal/blocks"
	"efficsense/internal/cs"
	"efficsense/internal/dsp"
	"efficsense/internal/xrand"
)

// halves is one chain's two session halves and its public Run.
type halves struct {
	run   func(input []float64, rate float64) Output
	front func(s *EvalSession, grid []float64) []float64
	back  func(s *EvalSession, front, dst []float64) Output
}

func requireSameOutput(t *testing.T, label string, got, want Output) {
	t.Helper()
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("%s: length %d != %d", label, len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if math.Float64bits(got.Samples[i]) != math.Float64bits(want.Samples[i]) {
			t.Fatalf("%s: sample %d: %v != %v", label, i, got.Samples[i], want.Samples[i])
		}
	}
	if got.Rate != want.Rate || got.Gain != want.Gain || got.AreaCaps != want.AreaCaps ||
		len(got.Power) != len(want.Power) {
		t.Fatalf("%s: rate, gain, area or power components differ", label)
	}
	for c, v := range want.Power {
		if math.Float64bits(got.Power[c]) != math.Float64bits(v) {
			t.Fatalf("%s: power[%s] %v != %v", label, c, got.Power[c], v)
		}
	}
}

// requireGroupedMatchesRun pins the sharing batch evaluation relies on:
// build(bits) makes one member of a batch group (every setting but the
// resolution fixed, seed seed), and the front half of a 7-bit lead
// finished by the back half of a 6-bit member must equal the member's
// own Run, over two consecutive records on one session (the converter
// and encoder noise streams are chain state, so record order matters).
func requireGroupedMatchesRun(t *testing.T, seed int64, build func(bits int) halves) {
	t.Helper()
	in := testInput(8192)
	gridRate := testCommon(6, 0, seed).withDefaults().GridRate()
	own, lead, member := build(6), build(7), build(6)
	sess := NewEvalSession(seed)
	var dst []float64
	for ri, rec := range [][]float64{in[:4096], in[4096:]} {
		want := own.run(rec, 512)
		got := member.back(sess, lead.front(sess, dsp.Resample(rec, 512, gridRate)), dst)
		dst = got.Samples
		requireSameOutput(t, fmt.Sprintf("record %d", ri), got, want)
	}
}

func TestBaselineSessionBitIdentical(t *testing.T) {
	requireGroupedMatchesRun(t, 11, func(bits int) halves {
		c := NewBaseline(testCommon(bits, 4e-6, 11))
		return halves{c.Run, c.AmplifySession, c.DigitizeSession}
	})
}

// TestCSSessionBitIdentical covers every reconstruction method.
func TestCSSessionBitIdentical(t *testing.T) {
	for _, method := range []cs.Method{cs.MethodOMP, cs.MethodBOMP, cs.MethodIHT, cs.MethodRidge} {
		t.Run(method.String(), func(t *testing.T) {
			requireGroupedMatchesRun(t, 12, func(bits int) halves {
				c := NewCS(CSConfig{Common: testCommon(bits, 3e-6, 12), M: 96, NPhi: 256, ReconMethod: method})
				return halves{c.Run, c.EncodeSession, c.FinishSession}
			})
		})
	}
}

func TestVariantSessionBitIdentical(t *testing.T) {
	t.Run("digital", func(t *testing.T) {
		requireGroupedMatchesRun(t, 13, func(bits int) halves {
			c := NewDigitalCS(CSConfig{Common: testCommon(bits, 3e-6, 13), M: 96, NPhi: 256})
			return halves{c.Run, c.AmplifySession, c.DigitizeSession}
		})
	})
	t.Run("active", func(t *testing.T) {
		requireGroupedMatchesRun(t, 14, func(bits int) halves {
			c := NewActiveCS(CSConfig{Common: testCommon(bits, 3e-6, 14), M: 96, NPhi: 256})
			return halves{c.Run, c.EncodeSession, c.FinishSession}
		})
	})
}

// TestAmplifySessionMatchesLNA pins the session's LNA replay to the block
// model, blocks.LNA.Process on a fresh context at the chain seed, over
// records of two lengths and with the noise floor on and off.
func TestAmplifySessionMatchesLNA(t *testing.T) {
	for _, vn := range []float64{4e-6, 0} {
		cfg := testCommon(7, vn, 21).withDefaults()
		b := NewBaseline(cfg)
		sess := NewEvalSession(cfg.Seed)
		grid := dsp.Resample(testInput(6144), 512, cfg.GridRate())
		for _, rec := range [][]float64{grid[:len(grid)/3], grid} {
			want := b.lna.Process(blocks.NewContext(cfg.GridRate(), cfg.Seed), rec)
			got := b.AmplifySession(sess, rec)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("vn=%g len %d sample %d: %v != %v", vn, len(rec), i, got[i], want[i])
				}
			}
		}
	}
}

// TestSampleHoldMatchesBlock pins the session's sample & hold to
// blocks.SampleHold.Sample run after the LNA on one fresh context (the
// derivation order of the "sh-noise" stream), for the baseline's own
// capacitor, no capacitor (no noise) and the 300 K default temperature.
func TestSampleHoldMatchesBlock(t *testing.T) {
	cfg := testCommon(8, 3e-6, 22).withDefaults()
	b := NewBaseline(cfg)
	grid := dsp.Resample(testInput(5000), 512, cfg.GridRate())
	for _, sh := range []*blocks.SampleHold{
		b.sh,
		{Decimation: cfg.SimOversample},
		{Decimation: cfg.SimOversample, Cap: 2e-15},
	} {
		sess := NewEvalSession(cfg.Seed)
		var dst []float64
		for _, rec := range [][]float64{grid[:len(grid)/2+1], grid} {
			ctx := blocks.NewContext(cfg.GridRate(), cfg.Seed)
			amplified := b.lna.Process(ctx, rec)
			want := sh.Sample(ctx, amplified)
			dst = sess.sampleHold(sh, amplified, dst)
			if len(dst) != len(want) {
				t.Fatalf("%+v: length %d != %d", *sh, len(dst), len(want))
			}
			for i := range want {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%+v: sample %d: %v != %v", *sh, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestSessionNoiseBankMatchesDerivedStream pins the replay identity the
// session relies on: sigma·u over the banked unit draws equals the
// Normal(0, sigma) sequence of a freshly derived stream.
func TestSessionNoiseBankMatchesDerivedStream(t *testing.T) {
	sess := NewEvalSession(99)
	u := sess.lnaUnits(64)
	ref := xrand.New(99).Derive("lna-noise")
	for i, ui := range u {
		if got, want := 3.5e-6*ui, ref.Normal(0, 3.5e-6); got != want {
			t.Fatalf("draw %d: %v != %v", i, got, want)
		}
	}
}
