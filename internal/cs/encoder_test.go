package cs

import (
	"math"
	"testing"

	"efficsense/internal/xrand"
)

// encodeFrameReference is the encoder's frame loop as it was before its
// kT/C noise came in blocks: one Normal call per noise term, in share
// order. It is the oracle encodeFrameInto must match bit for bit.
func encodeFrameReference(e *Encoder, v, x []float64) {
	for i := range v {
		v[i] = 0
	}
	kt := 0.0
	if e.cfg.Temperature > 0 {
		kt = 1.380649e-23 * e.cfg.Temperature
	}
	droop := 0.0
	if e.cfg.LeakageCurrent > 0 && e.cfg.SamplePeriod > 0 {
		droop = e.cfg.LeakageCurrent * e.cfg.SamplePeriod
	}
	for j := range x {
		if droop > 0 {
			for i := range v {
				d := droop / e.ch[i]
				switch {
				case v[i] > d:
					v[i] -= d
				case v[i] < -d:
					v[i] += d
				default:
					v[i] = 0
				}
			}
		}
		for k, row := range e.cfg.Phi.Support[j] {
			csk := e.cs[k%len(e.cs)]
			chi := e.ch[row]
			sample := x[j]
			if kt > 0 {
				sample += e.noise.Normal(0, math.Sqrt(kt/csk))
			}
			alpha := csk / (csk + chi)
			v[row] = alpha*sample + (1-alpha)*v[row]
			if kt > 0 {
				v[row] += e.noise.Normal(0, math.Sqrt(kt/(csk+chi)))
			}
		}
	}
}

// TestEncodeIntoMatchesReference runs an encoder through EncodeInto and
// an identically configured twin through the per-draw reference, frame
// by frame, over several records of several frames (and a trailing
// partial frame): without noise, with kT/C noise, with leakage droop,
// and with hold capacitors so mismatched that some overflow to +Inf
// (their redistribution σ is 0, so that term draws nothing) and some
// turn negative (σ is NaN, which draws). Measurements must match bit
// for bit and the noise streams must end at the same position.
func TestEncodeIntoMatchesReference(t *testing.T) {
	phi := GenerateSRBM(24, 96, 2, 3)
	base := EncoderConfig{Phi: phi, CSample: 1e-15, CHold: 16e-15,
		MismatchSigmaSample: 0.01, MismatchSigmaHold: 0.01, Seed: 9}
	cases := map[string]func(c *EncoderConfig){
		"noiseless": func(c *EncoderConfig) {},
		"ktc":       func(c *EncoderConfig) { c.Temperature = 300 },
		"ktc+droop": func(c *EncoderConfig) {
			c.Temperature, c.LeakageCurrent, c.SamplePeriod = 310, 1e-12, 1e-3
		},
		"droop": func(c *EncoderConfig) { c.LeakageCurrent, c.SamplePeriod = 1e-12, 1e-3 },
		"wild holds": func(c *EncoderConfig) {
			c.Temperature, c.CHold, c.MismatchSigmaHold = 300, 1e308, 1.5
		},
	}
	for name, set := range cases {
		cfg := base
		set(&cfg)
		got, ref := NewEncoder(cfg), NewEncoder(cfg)
		rng := xrand.New(11)
		var y []float64
		for rec := 0; rec < 4; rec++ {
			x := make([]float64, (rec+1)*phi.N+rec*7)
			for i := range x {
				x[i] = rng.Normal(0, 1e-3)
			}
			y = got.EncodeInto(y, x)
			want := make([]float64, phi.M)
			for f := 0; f < len(x)/phi.N; f++ {
				encodeFrameReference(ref, want, x[f*phi.N:(f+1)*phi.N])
				for i, w := range want {
					if g := y[f*phi.M+i]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: record %d frame %d measurement %d = %v, reference %v", name, rec, f, i, g, w)
					}
				}
			}
		}
		if g, w := got.noise.Float64(), ref.noise.Float64(); g != w {
			t.Fatalf("%s: noise streams apart", name)
		}
		if name == "wild holds" && len(got.units) >= 2*phi.N*phi.S {
			t.Fatalf("%s: every noise term drew (%d draws a frame)", name, len(got.units))
		}
	}
}
