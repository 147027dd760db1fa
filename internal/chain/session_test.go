package chain

import (
	"testing"

	"efficsense/internal/cs"
	"efficsense/internal/dsp"
	"efficsense/internal/xrand"
)

// gridFor resamples the multitone test input onto the simulation grid.
func gridFor(cfg Common, n int) []float64 {
	return dsp.Resample(testInput(n), 512, cfg.GridRate())
}

// TestBaselineSessionBitIdentical pins the session fast path to the
// classic per-run path bit for bit, across consecutive records (the SAR
// comparator stream is stateful, so record order matters).
func TestBaselineSessionBitIdentical(t *testing.T) {
	cfg := testCommon(7, 4e-6, 11)
	grid := gridFor(cfg, 4096)
	records := [][]float64{grid[:len(grid)/2], grid[len(grid)/2:]}

	classic := NewBaseline(cfg)
	fast := NewBaseline(cfg)
	sess := NewEvalSession(cfg.Seed)
	var dst []float64
	for ri, rec := range records {
		want := classic.RunGrid(rec)
		got := fast.RunGridSession(sess, rec, dst)
		dst = got.Samples
		if len(got.Samples) != len(want.Samples) {
			t.Fatalf("record %d: length %d != %d", ri, len(got.Samples), len(want.Samples))
		}
		for i := range want.Samples {
			if got.Samples[i] != want.Samples[i] {
				t.Fatalf("record %d sample %d: %v != %v", ri, i, got.Samples[i], want.Samples[i])
			}
		}
		if got.Power.Total() != want.Power.Total() || got.AreaCaps != want.AreaCaps {
			t.Fatalf("record %d: power/area mismatch", ri)
		}
	}
}

// TestCSSessionBitIdentical does the same for the CS chain under every
// reconstruction method, including the grouped form: measurements
// encoded once by a "lead" chain and finished through another design
// point's converter must match that point's own classic run exactly (the
// encoder realisation is resolution-independent).
func TestCSSessionBitIdentical(t *testing.T) {
	for _, method := range []cs.Method{cs.MethodOMP, cs.MethodBOMP, cs.MethodIHT, cs.MethodRidge} {
		t.Run(method.String(), func(t *testing.T) {
			mk := func(bits int) *CSChain {
				return NewCS(CSConfig{Common: testCommon(bits, 3e-6, 12), M: 96, NPhi: 256, ReconMethod: method})
			}
			cfg := testCommon(7, 3e-6, 12)
			grid := gridFor(cfg, 6144)
			records := [][]float64{grid[:len(grid)/2], grid[len(grid)/2:]}

			// Whole-run session path, bits = 7.
			classic, fast := mk(7), mk(7)
			sess := NewEvalSession(cfg.Seed)
			var dst []float64
			for ri, rec := range records {
				want := classic.RunGrid(rec)
				got := fast.RunGridSession(sess, rec, dst)
				dst = got.Samples
				if len(got.Samples) != len(want.Samples) {
					t.Fatalf("record %d: length %d != %d", ri, len(got.Samples), len(want.Samples))
				}
				for i := range want.Samples {
					if got.Samples[i] != want.Samples[i] {
						t.Fatalf("record %d sample %d: %v != %v", ri, i, got.Samples[i], want.Samples[i])
					}
				}
				if got.Power.Total() != want.Power.Total() {
					t.Fatalf("record %d: power mismatch", ri)
				}
			}

			// Grouped path: lead encodes, a bits=6 member finishes.
			classic6, lead, member6 := mk(6), mk(7), mk(6)
			sess2 := NewEvalSession(cfg.Seed)
			var dst2 []float64
			for ri, rec := range records {
				want := classic6.RunGrid(rec)
				y := lead.EncodeSession(sess2, rec)
				got := member6.FinishSession(sess2, y, dst2)
				dst2 = got.Samples
				for i := range want.Samples {
					if got.Samples[i] != want.Samples[i] {
						t.Fatalf("grouped record %d sample %d: %v != %v", ri, i, got.Samples[i], want.Samples[i])
					}
				}
				if got.Power.Total() != want.Power.Total() {
					t.Fatalf("grouped record %d: power mismatch", ri)
				}
			}
		})
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
