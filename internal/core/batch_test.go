package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"efficsense/internal/classify"
	"efficsense/internal/eeg"
	"efficsense/internal/tech"
)

func batchTestEvaluator(t testing.TB, det bool) *Evaluator {
	t.Helper()
	ds := eeg.Synthesize(eeg.DefaultConfig(7, 2))
	cfg := Config{Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Dataset: ds, Seed: 7}
	if det {
		train := eeg.Synthesize(eeg.DefaultConfig(8, 4))
		cfg.Detector = classify.TrainDetector(train, classify.DetectorConfig{
			Seed: 8, Train: classify.TrainOptions{Epochs: 10},
		})
		cfg.WindowSeconds = classify.DefaultWindowSeconds
	}
	ev, err := NewEvaluator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func requireIdentical(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.MeanSNRdB != want.MeanSNRdB {
		t.Fatalf("%s: SNR %v != %v", label, got.MeanSNRdB, want.MeanSNRdB)
	}
	if got.TotalPower != want.TotalPower {
		t.Fatalf("%s: power %v != %v", label, got.TotalPower, want.TotalPower)
	}
	if got.AreaCaps != want.AreaCaps {
		t.Fatalf("%s: area %v != %v", label, got.AreaCaps, want.AreaCaps)
	}
	if got.Accuracy != want.Accuracy || got.Confusion != want.Confusion {
		t.Fatalf("%s: accuracy %v/%+v != %v/%+v",
			label, got.Accuracy, got.Confusion, want.Accuracy, want.Confusion)
	}
	for c, v := range want.Power {
		if got.Power[c] != v {
			t.Fatalf("%s: power[%s] %v != %v", label, c, got.Power[c], v)
		}
	}
	if got.Point != want.Point || got.Err != nil || want.Err != nil {
		t.Fatalf("%s: point/err mismatch", label)
	}
}

// goldenPoints is a seeded sweep slice covering every architecture, mixed
// resolutions and noise floors, and two CS geometries — so grouping and
// group sharing are exercised for every chain.
func goldenPoints() []DesignPoint {
	return []DesignPoint{
		{Arch: ArchCS, Bits: 6, LNANoise: 3e-6, M: 96},
		{Arch: ArchCS, Bits: 8, LNANoise: 3e-6, M: 96},
		{Arch: ArchBaseline, Bits: 7, LNANoise: 3e-6},
		{Arch: ArchCS, Bits: 7, LNANoise: 9e-6, M: 96},
		{Arch: ArchBaseline, Bits: 6, LNANoise: 3e-6},
		{Arch: ArchCS, Bits: 7, LNANoise: 3e-6, M: 128},
		{Arch: ArchCSDigital, Bits: 7, LNANoise: 3e-6, M: 96},
		{Arch: ArchCSActive, Bits: 7, LNANoise: 3e-6, M: 96},
		{Arch: ArchCS, Bits: 7, LNANoise: 3e-6, M: 96, CHold: 120e-15},
	}
}

// TestEvaluateBatchGoldenEquivalence pins the batch path to the committed
// bits of evaluateGolden — every figure of interest, every power
// component — with and without a quality metric. Batches of one (the
// Evaluate wrapper) must agree with the grouped batch too: there every
// point is its own group lead, so the comparison checks that sharing a
// lead's front half changes nothing.
func TestEvaluateBatchGoldenEquivalence(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were captured with the amd64 math kernels")
	}
	for d, det := range []bool{false, true} {
		ev := batchTestEvaluator(t, det)
		pts := goldenPoints()
		batch := ev.EvaluateBatch(context.Background(), pts)
		if len(batch) != len(pts) {
			t.Fatalf("batch returned %d results for %d points", len(batch), len(pts))
		}
		for i, p := range pts {
			label := fmt.Sprintf("detector=%v %s", det, p)
			requireGolden(t, label, batch[i], evaluateGolden[d][i])
			requireIdentical(t, "single "+label, ev.Evaluate(p), batch[i])
		}
	}
}

// TestEvaluateBatchContextCancel pins the degradation contract: a
// cancelled context yields per-point error rows, never a panic or a
// half-written result.
func TestEvaluateBatchContextCancel(t *testing.T) {
	ev := batchTestEvaluator(t, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs := ev.EvaluateBatch(ctx, goldenPoints()[:3])
	for i, r := range rs {
		if r.Err == nil {
			t.Fatalf("result %d: expected context error", i)
		}
		if r.TotalPower != 0 {
			t.Fatalf("result %d: partial figures alongside error", i)
		}
	}
}
