package core

import (
	"math"
	"testing"

	"efficsense/internal/chain"
	"efficsense/internal/dsp"
	"efficsense/internal/eeg"
	"efficsense/internal/tech"
)

// TestEvaluatorPrepMatchesReference checks NewEvaluator's grid and
// reference prep against the serial loop it replaced: every grid,
// reference and label in its record's slot, bit for bit, both for a
// dataset of one geometry (converted together) and for one that mixes
// record lengths and rates (converted record by record).
func TestEvaluatorPrepMatchesReference(t *testing.T) {
	uniform := eeg.Synthesize(eeg.DefaultConfig(31, 3))
	nativeCfg := eeg.DefaultConfig(32, 2)
	nativeCfg.Upsample = false
	mixed := &eeg.Dataset{Rate: uniform.Rate, Records: append(
		append([]eeg.Record(nil), uniform.Records...), eeg.Synthesize(nativeCfg).Records...)}
	mixed.Records[1].Samples = mixed.Records[1].Samples[:1000]
	for name, ds := range map[string]*eeg.Dataset{"uniform": uniform, "mixed": mixed} {
		ev, err := NewEvaluator(Config{Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Dataset: ds, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		common := ev.cfg.common(DesignPoint{})
		gridRate := common.GridRate()
		for i, r := range ds.Records {
			grid := dsp.Resample(r.Samples, r.Rate, gridRate)
			ref := chain.ReferenceGrid(common, grid)
			if ev.labels[i] != r.Label {
				t.Fatalf("%s record %d: label %v, want %v", name, i, ev.labels[i], r.Label)
			}
			for _, c := range []struct {
				what      string
				got, want []float64
			}{{"grid", ev.grids[i], grid}, {"reference", ev.refs[i], ref}} {
				if len(c.got) != len(c.want) {
					t.Fatalf("%s record %d: %s length %d, want %d", name, i, c.what, len(c.got), len(c.want))
				}
				for j := range c.got {
					if math.Float64bits(c.got[j]) != math.Float64bits(c.want[j]) {
						t.Fatalf("%s record %d: %s sample %d = %v, want %v", name, i, c.what, j, c.got[j], c.want[j])
					}
				}
			}
		}
	}
}
