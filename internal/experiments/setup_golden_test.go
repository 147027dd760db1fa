package experiments

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"efficsense/internal/core"
)

// setupGoldenRow pins one evaluated point of a golden suite: the exact
// bit patterns of its mean SNR, accuracy and total power. The rows cover
// the evaluator's grid and reference prep, which the fingerprint does not
// hash.
type setupGoldenRow struct {
	point          core.DesignPoint
	snr, acc, powr uint64
}

// setupGolden is one small suite whose set-up — dataset synthesis, the
// trained metric and the evaluator prep — is pinned to values captured
// from the serial implementation.
type setupGolden struct {
	opts        Options
	fingerprint string
	rows        []setupGoldenRow
}

var (
	goldenBaseline = core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: 6e-6}
	goldenCS       = core.DesignPoint{Arch: core.ArchCS, Bits: 8, LNANoise: 6e-6, M: 150}
)

var setupGoldens = []setupGolden{
	{
		opts:        Options{Scenario: "eeg-epilepsy", Seed: 1, Records: 2, TrainRecords: 4, Epochs: 2},
		fingerprint: "core-ev-aa18664dc73b3df1",
		rows: []setupGoldenRow{
			{goldenBaseline, 0x4025ed89e51ca0f4, 0x3ff0000000000000, 0x3ed3edbb4ea8755e},
			{goldenCS, 0x40166d2122cfca68, 0x3fe0000000000000, 0x3ec6ddf33d91c614},
		},
	},
	{
		opts:        Options{Scenario: "eeg-epilepsy", Seed: 2, Records: 2, TrainRecords: 4, Epochs: 2},
		fingerprint: "core-ev-d756c978f58edf39",
		rows: []setupGoldenRow{
			{goldenBaseline, 0x4025b77970de277d, 0x3ff0000000000000, 0x3ed3edbb502511ca},
			{goldenCS, 0x4016038d04c54557, 0x3ff0000000000000, 0x3ec6ddf33d9ad4ea},
		},
	},
	{
		opts:        Options{Scenario: "ecg-telemonitoring", Seed: 1, Records: 2},
		fingerprint: "core-ev-2d8f5ae35e1d8384",
		rows: []setupGoldenRow{
			{goldenBaseline, 0x403c748ef051b0dc, 0x3ff0000000000000, 0x3ed3edbb0f065335},
			{goldenCS, 0x4031bc9493e7fbaa, 0x3ff0000000000000, 0x3ec6ddf33b99cf6b},
		},
	},
}

// TestSetupGolden builds small suites and checks that set-up still
// computes exactly what the serial implementation computed: the
// evaluator fingerprint (every dataset sample and every detector weight)
// and the bits of a baseline and a CS result. Run it at several worker
// counts (make setup-identity) to check that the per-record fan-out
// assembles its results in record order however many workers there are.
func TestSetupGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were captured with the amd64 math kernels")
	}
	for _, g := range setupGoldens {
		name := fmt.Sprintf("%s/seed%d", g.opts.Scenario, g.opts.Seed)
		t.Run(name, func(t *testing.T) {
			ev := NewSuite(g.opts).Evaluator()
			if got := ev.Fingerprint(); got != g.fingerprint {
				t.Errorf("fingerprint %s, want %s", got, g.fingerprint)
			}
			for _, row := range g.rows {
				r := ev.Evaluate(row.point)
				if r.Err != nil {
					t.Fatalf("%v: %v", row.point, r.Err)
				}
				got := setupGoldenRow{row.point,
					math.Float64bits(r.MeanSNRdB), math.Float64bits(r.Accuracy), math.Float64bits(r.TotalPower)}
				if got != row {
					t.Errorf("%v: got {snr %#x, acc %#x, power %#x} (%g dB, %g, %g W), want {%#x, %#x, %#x}",
						row.point, got.snr, got.acc, got.powr, r.MeanSNRdB, r.Accuracy, r.TotalPower,
						row.snr, row.acc, row.powr)
				}
			}
		})
	}
}
