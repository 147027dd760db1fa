package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"efficsense/internal/classify"
	"efficsense/internal/power"
	"efficsense/internal/tech"
)

// goldenResult pins every figure of interest of one evaluated design
// point as exact float64 bit patterns: mean SNR, accuracy, area, total
// power and each power component, plus the confusion matrix.
type goldenResult struct {
	snr, acc, area, total uint64
	conf                  classify.Confusion
	power                 map[power.Component]uint64
}

// evaluateGolden holds goldenPoints() as the per-point reference loop
// evaluated them before the batch path served every architecture: row
// [0] on batchTestEvaluator(t, false) (no quality metric), row [1] on
// batchTestEvaluator(t, true) (the trained detector and the windowed
// protocol).
var evaluateGolden = [2][]goldenResult{
	{ // detector=false
		{ // cs N=6 vn=3µV M=96
			snr: 0x3ff1f839871d4d82, acc: 0x0000000000000000, area: 0x40be49ffffffffff, total: 0x3ec9b78f3a887c8b,
			conf:  classify.Confusion{TP: 0, TN: 0, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3e9f085988bc834d, power.CompComparator: 0x3d57dac784a72d7f, power.CompDAC: 0x3dbeedfa1d5ffe36, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e11ddf7e732a1b9, power.CompSARLogic: 0x3db27136abf52689, power.CompTransmitter: 0x3eab0eec5a705ec5},
		},
		{ // cs N=8 vn=3µV M=96
			snr: 0x40116cc2360c4000, acc: 0x0000000000000000, area: 0x40bf0a0000000000, total: 0x3ecd166425f594e4,
			conf:  classify.Confusion{TP: 0, TN: 0, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea3f314fc792fd6, power.CompComparator: 0x3d65343f925bb6aa, power.CompDAC: 0x3ddf60593eec4964, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e1f0fab08151146, power.CompSARLogic: 0x3dc013ee0580633c, power.CompTransmitter: 0x3eb209f2e6f59483},
		},
		{ // baseline N=7 vn=3µV
			snr: 0x402c15300a6ad194, acc: 0x0000000000000000, area: 0x4060200000000000, total: 0x3ed751d3ade0b868,
			conf:  classify.Confusion{TP: 0, TN: 0, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompComparator: 0x3d803c00ac0e37d9, power.CompDAC: 0x3def3611f739a34c, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e019799812dea11, power.CompSampleHold: 0x3d7ece820cd0b877, power.CompSARLogic: 0x3dd8d37ad3ca02a4, power.CompTransmitter: 0x3ecf9169142dc3e6},
		},
		{ // cs N=7 vn=9µV M=96
			snr: 0x3fff359e645d46ae, acc: 0x0000000000000000, area: 0x40be89fffffffffe, total: 0x3ebc056b23f6af5e,
			conf:  classify.Confusion{TP: 0, TN: 0, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea1bba0e06bb8be, power.CompComparator: 0x3d603c00ac0e37d9, power.CompDAC: 0x3dcf3a4f4776eee8, power.CompLNA: 0x3e8ac7eb40f54b67, power.CompLeakage: 0x3e1643de477e1c3e, power.CompSARLogic: 0x3db8d37ad3ca02a4, power.CompTransmitter: 0x3eaf9169142dc3e6},
		},
		{ // baseline N=6 vn=3µV
			snr: 0x4026dd1cd39566d1, acc: 0x0000000000000000, area: 0x4050400000000000, total: 0x3ed510288afd6c9e,
			conf:  classify.Confusion{TP: 0, TN: 0, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompComparator: 0x3d77dac784a72d7f, power.CompDAC: 0x3ddee983bf7c0e2c, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3df19799812dea11, power.CompSampleHold: 0x3d5af4b1cb36a168, power.CompSARLogic: 0x3dd27136abf52689, power.CompTransmitter: 0x3ecb0eec5a705ec5},
		},
		{ // cs N=7 vn=3µV M=128
			snr: 0x400980763ef0aa27, acc: 0x0000000000000000, area: 0x40c444ffffffffff, total: 0x3ece08b9fd623885,
			conf:  classify.Confusion{TP: 0, TN: 0, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea1bba0e06bb8be, power.CompComparator: 0x3d65a5563abd9fce, power.CompDAC: 0x3dd4d198ecfdfb49, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e1aa9c4a7c996c2, power.CompSARLogic: 0x3dc08cfc8d315718, power.CompTransmitter: 0x3eb50b9b62c92d44},
		},
		{ // cs-digital N=7 vn=3µV M=96
			snr: 0x4015a875e86cb78e, acc: 0x0000000000000000, area: 0x4060200000000000, total: 0x3ed084a374aacda9,
			conf:  classify.Confusion{TP: 0, TN: 0, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea1be49d226fc1a, power.CompComparator: 0x3d803c00ac0e37d9, power.CompDAC: 0x3def3611f739a34c, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e019799812dea11, power.CompSampleHold: 0x3d7ece820cd0b877, power.CompSARLogic: 0x3dd8d37ad3ca02a4, power.CompTransmitter: 0x3ebb0eec5a705ec5},
		},
		{ // cs-active N=7 vn=3µV M=96
			snr: 0x4002db6d3c7e3365, acc: 0x0000000000000000, area: 0x40be89fffffffffe, total: 0x3ee6aaf1beec1e0b,
			conf:  classify.Confusion{TP: 0, TN: 0, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea1bba0e06bb8be, power.CompComparator: 0x3d603c00ac0e37d9, power.CompDAC: 0x3dcf3a130cf39e5a, power.CompIntegrators: 0x3edfa28de4bb5aa8, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e1643de477e1c3e, power.CompSARLogic: 0x3db8d37ad3ca02a4, power.CompTransmitter: 0x3eaf9169142dc3e6},
		},
		{ // cs N=7 vn=3µV M=96 Ch=120fF
			snr: 0x400772eeb94dd3a2, acc: 0x0000000000000000, area: 0x40c6c77fffffffff, total: 0x3ecb66ab32797a8e,
			conf:  classify.Confusion{TP: 0, TN: 0, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea1bba0e06bb8be, power.CompComparator: 0x3d603c00ac0e37d9, power.CompDAC: 0x3dcf3a52c4a327d8, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e1643de477e1c3e, power.CompSARLogic: 0x3db8d37ad3ca02a4, power.CompTransmitter: 0x3eaf9169142dc3e6},
		},
	},
	{ // detector=true
		{ // cs N=6 vn=3µV M=96
			snr: 0x3ff1f839871d4d82, acc: 0x3fe0000000000000, area: 0x40be49ffffffffff, total: 0x3ec9b78f3a887c8b,
			conf:  classify.Confusion{TP: 1, TN: 0, FP: 1, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3e9f085988bc834d, power.CompComparator: 0x3d57dac784a72d7f, power.CompDAC: 0x3dbeedfa1d5ffe36, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e11ddf7e732a1b9, power.CompSARLogic: 0x3db27136abf52689, power.CompTransmitter: 0x3eab0eec5a705ec5},
		},
		{ // cs N=8 vn=3µV M=96
			snr: 0x40116cc2360c4000, acc: 0x3ff0000000000000, area: 0x40bf0a0000000000, total: 0x3ecd166425f594e4,
			conf:  classify.Confusion{TP: 1, TN: 1, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea3f314fc792fd6, power.CompComparator: 0x3d65343f925bb6aa, power.CompDAC: 0x3ddf60593eec4964, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e1f0fab08151146, power.CompSARLogic: 0x3dc013ee0580633c, power.CompTransmitter: 0x3eb209f2e6f59483},
		},
		{ // baseline N=7 vn=3µV
			snr: 0x402c15300a6ad194, acc: 0x3ff0000000000000, area: 0x4060200000000000, total: 0x3ed751d3ade0b868,
			conf:  classify.Confusion{TP: 1, TN: 1, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompComparator: 0x3d803c00ac0e37d9, power.CompDAC: 0x3def3611f739a34c, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e019799812dea11, power.CompSampleHold: 0x3d7ece820cd0b877, power.CompSARLogic: 0x3dd8d37ad3ca02a4, power.CompTransmitter: 0x3ecf9169142dc3e6},
		},
		{ // cs N=7 vn=9µV M=96
			snr: 0x3fff359e645d46ae, acc: 0x3fe0000000000000, area: 0x40be89fffffffffe, total: 0x3ebc056b23f6af5e,
			conf:  classify.Confusion{TP: 1, TN: 0, FP: 1, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea1bba0e06bb8be, power.CompComparator: 0x3d603c00ac0e37d9, power.CompDAC: 0x3dcf3a4f4776eee8, power.CompLNA: 0x3e8ac7eb40f54b67, power.CompLeakage: 0x3e1643de477e1c3e, power.CompSARLogic: 0x3db8d37ad3ca02a4, power.CompTransmitter: 0x3eaf9169142dc3e6},
		},
		{ // baseline N=6 vn=3µV
			snr: 0x4026dd1cd39566d1, acc: 0x3ff0000000000000, area: 0x4050400000000000, total: 0x3ed510288afd6c9e,
			conf:  classify.Confusion{TP: 1, TN: 1, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompComparator: 0x3d77dac784a72d7f, power.CompDAC: 0x3ddee983bf7c0e2c, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3df19799812dea11, power.CompSampleHold: 0x3d5af4b1cb36a168, power.CompSARLogic: 0x3dd27136abf52689, power.CompTransmitter: 0x3ecb0eec5a705ec5},
		},
		{ // cs N=7 vn=3µV M=128
			snr: 0x400980763ef0aa27, acc: 0x3fe0000000000000, area: 0x40c444ffffffffff, total: 0x3ece08b9fd623885,
			conf:  classify.Confusion{TP: 1, TN: 0, FP: 1, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea1bba0e06bb8be, power.CompComparator: 0x3d65a5563abd9fce, power.CompDAC: 0x3dd4d198ecfdfb49, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e1aa9c4a7c996c2, power.CompSARLogic: 0x3dc08cfc8d315718, power.CompTransmitter: 0x3eb50b9b62c92d44},
		},
		{ // cs-digital N=7 vn=3µV M=96
			snr: 0x4015a875e86cb78e, acc: 0x3ff0000000000000, area: 0x4060200000000000, total: 0x3ed084a374aacda9,
			conf:  classify.Confusion{TP: 1, TN: 1, FP: 0, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea1be49d226fc1a, power.CompComparator: 0x3d803c00ac0e37d9, power.CompDAC: 0x3def3611f739a34c, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e019799812dea11, power.CompSampleHold: 0x3d7ece820cd0b877, power.CompSARLogic: 0x3dd8d37ad3ca02a4, power.CompTransmitter: 0x3ebb0eec5a705ec5},
		},
		{ // cs-active N=7 vn=3µV M=96
			snr: 0x4002db6d3c7e3365, acc: 0x3fe0000000000000, area: 0x40be89fffffffffe, total: 0x3ee6aaf1beec1e0b,
			conf:  classify.Confusion{TP: 1, TN: 0, FP: 1, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea1bba0e06bb8be, power.CompComparator: 0x3d603c00ac0e37d9, power.CompDAC: 0x3dcf3a130cf39e5a, power.CompIntegrators: 0x3edfa28de4bb5aa8, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e1643de477e1c3e, power.CompSARLogic: 0x3db8d37ad3ca02a4, power.CompTransmitter: 0x3eaf9169142dc3e6},
		},
		{ // cs N=7 vn=3µV M=96 Ch=120fF
			snr: 0x400772eeb94dd3a2, acc: 0x3fe0000000000000, area: 0x40c6c77fffffffff, total: 0x3ecb66ab32797a8e,
			conf:  classify.Confusion{TP: 1, TN: 0, FP: 1, FN: 0},
			power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea1bba0e06bb8be, power.CompComparator: 0x3d603c00ac0e37d9, power.CompDAC: 0x3dcf3a52c4a327d8, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e1643de477e1c3e, power.CompSARLogic: 0x3db8d37ad3ca02a4, power.CompTransmitter: 0x3eaf9169142dc3e6},
		},
	},
}

// requireGolden fails unless r carries exactly the pinned bits.
func requireGolden(t *testing.T, label string, r Result, want goldenResult) {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("%s: %v", label, r.Err)
	}
	got := goldenResult{
		snr:   math.Float64bits(r.MeanSNRdB),
		acc:   math.Float64bits(r.Accuracy),
		area:  math.Float64bits(r.AreaCaps),
		total: math.Float64bits(r.TotalPower),
		conf:  r.Confusion,
	}
	if got.snr != want.snr || got.acc != want.acc || got.area != want.area ||
		got.total != want.total || got.conf != want.conf {
		t.Errorf("%s: got {snr %#x, acc %#x, area %#x, total %#x, %+v}, want {%#x, %#x, %#x, %#x, %+v}",
			label, got.snr, got.acc, got.area, got.total, got.conf,
			want.snr, want.acc, want.area, want.total, want.conf)
	}
	requirePowerBits(t, label, r.Power, want.power)
}

// requirePowerBits fails unless the breakdown has exactly the pinned
// components, each with the pinned bits.
func requirePowerBits(t *testing.T, label string, got power.Breakdown, want map[power.Component]uint64) {
	t.Helper()
	var names []string
	for c := range got {
		names = append(names, string(c))
	}
	for c := range want {
		if _, ok := got[c]; !ok {
			names = append(names, string(c))
		}
	}
	sort.Strings(names)
	for _, n := range names {
		c := power.Component(n)
		g, inGot := got[c]
		w, inWant := want[c]
		if !inGot || !inWant || math.Float64bits(g) != w {
			t.Errorf("%s: power[%s] = %#x (present %v), want %#x (present %v)",
				label, c, math.Float64bits(g), inGot, w, inWant)
		}
	}
}

var (
	sineConfig = Config{Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Seed: 7}
	// ecgConfig sets the LNA gain and the stimulus from a 1.5 mV peak.
	ecgConfig = Config{Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Seed: 7, InputPeak: 1.5e-3}
	// geomConfig overrides the CS frame geometry.
	geomConfig = Config{Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Seed: 7, NPhi: 256, Sparsity: 3}
)

// sineGolden pins EvaluateSine (the Fig 4 characterisation, 8 s of
// stimulus at the default tone) for every architecture: SNDR, ENOB,
// total power and each power component.
var sineGolden = []struct {
	cfg               Config
	point             DesignPoint
	sndr, enob, total uint64
	power             map[power.Component]uint64
}{
	{
		cfg: sineConfig, point: DesignPoint{Arch: ArchBaseline, Bits: 8, LNANoise: 3e-6},
		sndr: 0x403efa387815d2c0, enob: 0x401369dfc7b60c75, total: 0x3ed993e4c8448b36,
		power: map[power.Component]uint64{power.CompComparator: 0x3d85343f925bb6aa, power.CompDAC: 0x3dfed05bae896daf, power.CompLNA: 0x3ebe20e8a913f4d1, power.CompLeakage: 0x3e119799812dea11, power.CompSampleHold: 0x3da15429273567c3, power.CompSARLogic: 0x3de013ee0580633c, power.CompTransmitter: 0x3ed209f2e6f59483},
	},
	{
		cfg: sineConfig, point: DesignPoint{Arch: ArchCS, Bits: 8, LNANoise: 6e-6, M: 150},
		sndr: 0x40317f926718f6b6, enob: 0x4004ea2b2a99f1f5, total: 0x3ec6ddf338b55ee6,
		power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea3f314fc792fd6, power.CompComparator: 0x3d7090d1aa57a6b4, power.CompDAC: 0x3de882183bf5ef0c, power.CompLNA: 0x3e9e20e8a913f4d1, power.CompLeakage: 0x3e233dcfe54a3803, power.CompSARLogic: 0x3dc91f23e8989b0e, power.CompTransmitter: 0x3ebc2f8b88dfb80c},
	},
	{
		cfg: sineConfig, point: DesignPoint{Arch: ArchCSDigital, Bits: 8, LNANoise: 6e-6, M: 150},
		sndr: 0x4032767f51c8e166, enob: 0x4006324f0ae06d05, total: 0x3ecfabab8b1650e9,
		power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea3f5f6ad040e24, power.CompComparator: 0x3d85343f925bb6aa, power.CompDAC: 0x3dfed008d1513826, power.CompLNA: 0x3e9e20e8a913f4d1, power.CompLeakage: 0x3e119799812dea11, power.CompSampleHold: 0x3da15429273567c3, power.CompSARLogic: 0x3de013ee0580633c, power.CompTransmitter: 0x3ec6e6a15f35c58a},
	},
	{
		cfg: sineConfig, point: DesignPoint{Arch: ArchCSActive, Bits: 8, LNANoise: 6e-6, M: 150},
		sndr: 0x403166c66603e27b, enob: 0x4004c93747c7ed2f, total: 0x3edebdf0b30af0bc,
		power: map[power.Component]uint64{power.CompCSEncoder: 0x3ea3f314fc792fd6, power.CompComparator: 0x3d7090d1aa57a6b4, power.CompDAC: 0x3de88002af8ff37e, power.CompIntegrators: 0x3ed34ef71adb5a15, power.CompLNA: 0x3e9e20e8a913f4d1, power.CompLeakage: 0x3e233dcfe54a3803, power.CompSARLogic: 0x3dc91f23e8989b0e, power.CompTransmitter: 0x3ebc2f8b88dfb80c},
	},
	{
		cfg: ecgConfig, point: DesignPoint{Arch: ArchBaseline, Bits: 7, LNANoise: 20e-6},
		sndr: 0x403d4ee3590914d6, enob: 0x40124deea9b97d43, total: 0x3ecfe9f605d91e82,
		power: map[power.Component]uint64{power.CompComparator: 0x3d803c00ac0e37d9, power.CompDAC: 0x3deeaa5f5d1fa991, power.CompLNA: 0x3e65b14b5b0420e7, power.CompLeakage: 0x3e019799812dea11, power.CompSampleHold: 0x3d7ece820cd0b877, power.CompSARLogic: 0x3dd8d37ad3ca02a4, power.CompTransmitter: 0x3ecf9169142dc3e6},
	},
	{
		cfg: geomConfig, point: DesignPoint{Arch: ArchCS, Bits: 7, LNANoise: 4e-6, M: 96, CHold: 120e-15},
		sndr: 0x4029df0dfdcd7444, enob: 0x3ffdb3e65e095fd3, total: 0x3ec6fbc94845790e,
		power: map[power.Component]uint64{power.CompCSEncoder: 0x3e95478dda1addb1, power.CompComparator: 0x3d685a01021553c7, power.CompDAC: 0x3dd76a17f20c07ca, power.CompLNA: 0x3eb0f282df1b39b6, power.CompLeakage: 0x3e16670d7a807812, power.CompSARLogic: 0x3dc29e9c1ed781fb, power.CompTransmitter: 0x3eb7ad0ecf2252ed},
	},
}

// TestEvaluateSineGolden checks EvaluateSine against bits captured from
// the per-architecture implementation it replaced.
func TestEvaluateSineGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden bits were captured with the amd64 math kernels")
	}
	for _, g := range sineGolden {
		label := fmt.Sprintf("%s (peak %g, NPhi %d)", g.point, g.cfg.InputPeak, g.cfg.NPhi)
		r := EvaluateSine(g.cfg, g.point, 0, 8)
		sndr, enob, total := math.Float64bits(r.SNDRdB), math.Float64bits(r.ENOB), math.Float64bits(r.TotalPower)
		if r.Point != g.point || sndr != g.sndr || enob != g.enob || total != g.total {
			t.Errorf("%s: got {sndr %#x, enob %#x, total %#x} (%g dB, %g bits, %g W), want {%#x, %#x, %#x}",
				label, sndr, enob, total, r.SNDRdB, r.ENOB, r.TotalPower, g.sndr, g.enob, g.total)
		}
		requirePowerBits(t, label, r.Power, g.power)
	}
}
