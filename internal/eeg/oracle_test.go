package eeg

import (
	"fmt"
	"math"
	"testing"

	"efficsense/internal/dsp"
	"efficsense/internal/xrand"
)

// synthesizeReference is Synthesize as it ran before the per-record
// fan-out and the shared upsampling weights: serial, one Resample per
// record. It is the oracle the parallel form must match bit for bit.
func synthesizeReference(cfg Config) *Dataset {
	if cfg.Records <= 0 {
		cfg.Records = PaperRecordCount
	}
	rate := NativeRate
	if cfg.Upsample {
		rate = UpsampledRate
	}
	ds := &Dataset{Rate: rate, Records: make([]Record, cfg.Records)}
	for i := range ds.Records {
		label := Interictal
		if i%2 == 1 {
			label = Ictal
		}
		rng := xrand.Derive(cfg.Seed, fmt.Sprintf("eeg-record-%d", i))
		raw := synthesizeRecord(rng, cfg, label)
		if cfg.Upsample {
			raw = dsp.Resample(raw, NativeRate, UpsampledRate)
		}
		ds.Records[i] = Record{Samples: raw, Rate: rate, Label: label, ID: i}
	}
	return ds
}

// TestSynthesizeMatchesReference runs more records than workers and, at
// -cpu 4, fewer: either way every record lands in its own slot with the
// stream its index derives.
func TestSynthesizeMatchesReference(t *testing.T) {
	native := DefaultConfig(3, 3)
	native.Upsample = false
	artifacts := DefaultConfig(4, 2)
	artifacts.Artifacts = true
	for _, cfg := range []Config{DefaultConfig(2, 5), DefaultConfig(9, 1), native, artifacts} {
		got, want := Synthesize(cfg), synthesizeReference(cfg)
		if got.Rate != want.Rate || len(got.Records) != len(want.Records) {
			t.Fatalf("seed %d: geometry %g Hz × %d, reference %g Hz × %d",
				cfg.Seed, got.Rate, len(got.Records), want.Rate, len(want.Records))
		}
		for i, r := range got.Records {
			w := want.Records[i]
			if r.ID != w.ID || r.Label != w.Label || r.Rate != w.Rate || len(r.Samples) != len(w.Samples) {
				t.Fatalf("seed %d record %d: header differs from the reference", cfg.Seed, i)
			}
			for j := range r.Samples {
				if math.Float64bits(r.Samples[j]) != math.Float64bits(w.Samples[j]) {
					t.Fatalf("seed %d record %d: sample %d = %v, reference %v", cfg.Seed, i, j, r.Samples[j], w.Samples[j])
				}
			}
		}
	}
}
