// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus component-level and ablation benches. Each
// figure bench regenerates its data end to end at a reduced, documented
// scale (the CLI regenerates them at arbitrary scale); custom metrics
// report the headline quantities next to the timing so `go test -bench`
// output doubles as a miniature results table.
package efficsense_test

import (
	"context"
	"math"
	"testing"
	"time"

	"efficsense"
	"efficsense/internal/chain"
	"efficsense/internal/classify"
	"efficsense/internal/core"
	"efficsense/internal/cs"
	"efficsense/internal/dse"
	"efficsense/internal/dsp"
	"efficsense/internal/eeg"
	"efficsense/internal/power"
	"efficsense/internal/tech"
)

// benchSuiteOptions is the reduced scale used by the figure benches: big
// enough to exercise every code path, small enough for -bench=. runs.
func benchSuiteOptions(seed int64) efficsense.SuiteOptions {
	return efficsense.SuiteOptions{
		Seed:         seed,
		Records:      4,
		TrainRecords: 40,
		NoiseSteps:   3,
		Epochs:       40,
	}
}

// BenchmarkTableIIPowerModels evaluates every Table II closed form.
func BenchmarkTableIIPowerModels(b *testing.B) {
	tp := tech.GPDK045()
	sys := tech.DefaultSystem()
	fclk, fs := sys.FClk(8), sys.FSample()
	d := power.LNAParams{GBW: 1e6, CLoad: 80e-15, NoiseRMS: 3e-6, Bandwidth: 768, FClk: fclk}
	var sink float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += power.LNA(tp, sys, d)
		sink += power.SampleHold(tp, sys, 8, fclk)
		sink += power.Comparator(tp, sys, 8, fclk, fs, 0)
		sink += power.SARLogic(tp, sys, 8, fclk, fs)
		sink += power.DAC(sys, 8, fclk, tp.CUnitMin, 0.5, 0)
		sink += power.Transmitter(tp, 8, fclk)
		sink += power.CSEncoderLogic(tp, sys, 384, fclk)
	}
	if sink == 0 {
		b.Fatal("power models returned zero")
	}
}

// BenchmarkTableIIITechnology exercises parameter validation and the
// derived quantities (mismatch law, areas) of the Table III parameter set.
func BenchmarkTableIIITechnology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tp := tech.GPDK045()
		if err := tp.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = tp.MismatchSigma(80e-15)
		_ = tp.CapArea(12e-12)
		sys := tech.DefaultSystem()
		if err := sys.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = sys.FClk(8)
	}
}

// BenchmarkFig4LNASweep regenerates the Fig 4 noise sweep (baseline
// system, sine stimulus) and reports the SNDR span it produces.
func BenchmarkFig4LNASweep(b *testing.B) {
	var span float64
	for i := 0; i < b.N; i++ {
		s := efficsense.NewSuite(benchSuiteOptions(1))
		pts := s.Fig4(8)
		span = pts[0].SNDRdB - pts[len(pts)-1].SNDRdB
	}
	b.ReportMetric(span, "sndr_span_db")
}

// BenchmarkFig7aSNRPareto regenerates the SNR-goal Pareto fronts.
func BenchmarkFig7aSNRPareto(b *testing.B) {
	var frontPts float64
	for i := 0; i < b.N; i++ {
		s := efficsense.NewSuite(benchSuiteOptions(2))
		f := s.Fig7a()
		frontPts = float64(len(f.Baseline) + len(f.CS))
	}
	b.ReportMetric(frontPts, "front_points")
}

// BenchmarkFig7bAccuracyPareto regenerates the accuracy-goal fronts and
// reports the measured CS power saving (paper headline: 3.6×).
func BenchmarkFig7bAccuracyPareto(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		s := efficsense.NewSuite(benchSuiteOptions(3))
		f := s.Fig7b()
		saving = f.PowerSavingsX
	}
	b.ReportMetric(saving, "power_saving_x")
}

// BenchmarkFig8Breakdown regenerates the optimal-point power breakdowns
// and reports the CS optimum's total power in µW (paper: 2.44 µW).
func BenchmarkFig8Breakdown(b *testing.B) {
	var csPower float64
	for i := 0; i < b.N; i++ {
		s := efficsense.NewSuite(benchSuiteOptions(4))
		_, cs, ok := s.Fig8()
		if ok {
			csPower = cs.TotalPower * 1e6
		}
	}
	b.ReportMetric(csPower, "cs_opt_uW")
}

// BenchmarkFig9AreaCloud regenerates the accuracy-vs-area cloud and
// reports the CS/baseline area ratio it exhibits.
func BenchmarkFig9AreaCloud(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		s := efficsense.NewSuite(benchSuiteOptions(5))
		pts := s.Fig9()
		minCS, maxBase := math.Inf(1), 0.0
		for _, p := range pts {
			if p.Arch == efficsense.ArchCS && p.AreaCaps < minCS {
				minCS = p.AreaCaps
			}
			if p.Arch == efficsense.ArchBaseline && p.AreaCaps > maxBase {
				maxBase = p.AreaCaps
			}
		}
		ratio = minCS / maxBase
	}
	b.ReportMetric(ratio, "area_ratio")
}

// BenchmarkFig10Constrained regenerates the area-constrained fronts and
// reports the accuracy forfeited by the tightest cap.
func BenchmarkFig10Constrained(b *testing.B) {
	var forfeit float64
	for i := 0; i < b.N; i++ {
		s := efficsense.NewSuite(benchSuiteOptions(6))
		fronts := s.Fig10(nil)
		forfeit = fronts[len(fronts)-1].BestAccuracy - fronts[0].BestAccuracy
	}
	b.ReportMetric(forfeit, "accuracy_forfeit")
}

// --- Component benches -------------------------------------------------

// BenchmarkEEGRecordSynthesis measures one Bonn-like record (including
// the Step 4 upsampling).
func BenchmarkEEGRecordSynthesis(b *testing.B) {
	cfg := eeg.DefaultConfig(7, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		ds := eeg.Synthesize(cfg)
		if len(ds.Records) != 2 {
			b.Fatal("bad dataset")
		}
	}
}

var benchRecord = func() eeg.Record {
	return eeg.Synthesize(eeg.DefaultConfig(8, 2)).Records[1]
}()

// BenchmarkBaselineChainRecord runs one EEG record through the classical
// chain.
func BenchmarkBaselineChainRecord(b *testing.B) {
	c := chain.NewBaseline(chain.Common{
		Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Bits: 8, LNANoise: 3e-6, Seed: 8,
	})
	// 2150.4 Hz is the default simulation grid (4 × f_sample).
	grid := dsp.Resample(benchRecord.Samples, benchRecord.Rate, 2150.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.RunGrid(grid)
		if len(out.Samples) == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkCSChainRecord runs one EEG record through the full
// compressive-sensing chain including OMP reconstruction.
func BenchmarkCSChainRecord(b *testing.B) {
	c := chain.NewCS(chain.CSConfig{
		Common: chain.Common{
			Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Bits: 8, LNANoise: 6e-6, Seed: 9,
		},
		M: 150,
	})
	grid := dsp.Resample(benchRecord.Samples, benchRecord.Rate, 2150.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := c.RunGrid(grid)
		if len(out.Samples) == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkDetectorTraining measures detector training at a reduced size.
func BenchmarkDetectorTraining(b *testing.B) {
	train := eeg.Synthesize(eeg.DefaultConfig(10, 20))
	for i := 0; i < b.N; i++ {
		det := classify.TrainDetector(train, classify.DetectorConfig{
			Seed: int64(i), Train: classify.TrainOptions{Epochs: 30},
		})
		if det == nil {
			b.Fatal("nil detector")
		}
	}
}

// BenchmarkSuiteSetup times one cold suite set-up, as every figure
// command and every new daemon option set pays for it before its first
// design point: the quality metric (for EEG, training-set synthesis and
// detector training), evaluation-set synthesis and evaluator prep. The
// options are the repository benchmark's (bench/setup.go).
func BenchmarkSuiteSetup(b *testing.B) {
	for _, c := range []struct {
		name string
		opts efficsense.SuiteOptions
	}{
		{"eeg", efficsense.SuiteOptions{Scenario: "eeg-epilepsy", Seed: 1, Records: 8, TrainRecords: 40, Epochs: 50}},
		{"ecg", efficsense.SuiteOptions{Scenario: "ecg-telemonitoring", Seed: 1, Records: 8}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if efficsense.NewSuite(c.opts).Evaluator().Records() != 8 {
					b.Fatal("bad evaluator")
				}
			}
		})
	}
}

// BenchmarkDetectorInference measures one record classification.
func BenchmarkDetectorInference(b *testing.B) {
	train := eeg.Synthesize(eeg.DefaultConfig(11, 20))
	det := classify.TrainDetector(train, classify.DetectorConfig{
		Seed: 11, Train: classify.TrainOptions{Epochs: 30},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Classify(benchRecord.Samples, benchRecord.Rate)
	}
}

// BenchmarkSweepCacheReuse measures the payoff of the sweep engine's
// memoisation cache: a cold Fig 7-style grid sweep, then the same grid
// re-queried for the Fig 9/10-style constrained searches through a second
// engine sharing the cache (the fingerprint keying makes the reuse safe).
// cache_speedup_x reports warm vs cold; the engine makes it ≥ 5×.
func BenchmarkSweepCacheReuse(b *testing.B) {
	s := efficsense.NewSuite(benchSuiteOptions(19))
	ev := s.Evaluator()
	space := dse.Space{
		Architectures: []core.Architecture{core.ArchBaseline, core.ArchCS},
		Bits:          []int{7, 8},
		LNANoise:      dse.GeomRange(2e-6, 12e-6, 2),
		M:             []int{150},
		CHold:         []float64{80e-15},
	}
	if err := space.Validate(); err != nil {
		b.Fatal(err)
	}
	pts := space.Points()
	var speedup float64
	for i := 0; i < b.N; i++ {
		cache := efficsense.NewMemoryCache()
		cold, err := efficsense.NewSweep(ev, efficsense.WithCache(cache))
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if _, err := cold.Run(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
		coldDur := time.Since(t0)

		// A fresh engine over the same evaluator and cache: every point is
		// served from memory, so the constrained queries are nearly free.
		warm, err := efficsense.NewSweep(ev, efficsense.WithCache(cache))
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		rs, err := warm.Run(context.Background(), pts)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := dse.Optimum(dse.FilterArea(rs, 5000), dse.QualityAccuracy, 0); !ok {
			b.Fatal("constrained query found no optimum")
		}
		warmDur := time.Since(t1)
		if hits := warm.Metrics().CacheHits; hits != int64(len(pts)) {
			b.Fatalf("warm sweep hit cache %d/%d times", hits, len(pts))
		}
		speedup = float64(coldDur) / float64(warmDur)
		if speedup < 5 {
			b.Fatalf("cache speedup %.1fx < 5x (cold %v, warm %v)", speedup, coldDur, warmDur)
		}
	}
	b.ReportMetric(speedup, "cache_speedup_x")
}

// BenchmarkDesignPointEvaluation measures one full CS design-point
// evaluation (the unit of work of every sweep).
func BenchmarkDesignPointEvaluation(b *testing.B) {
	s := efficsense.NewSuite(benchSuiteOptions(12))
	ev := s.Evaluator()
	p := efficsense.DesignPoint{Arch: efficsense.ArchCS, Bits: 8, LNANoise: 6e-6, M: 150}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ev.Evaluate(p)
		if r.TotalPower <= 0 {
			b.Fatal("bad result")
		}
	}
}

// --- Ablation benches ----------------------------------------------------
// DESIGN.md calls out three modelling choices; each ablation reports the
// quality it costs or buys, so `-bench Ablation` quantifies the design.

// BenchmarkAblationLeakageDroop enables hold-capacitor droop at the
// Table III leakage current — the paper carries leakage only in the power
// model; this shows why (droop at 1 pA on fF holds destroys the frame).
func BenchmarkAblationLeakageDroop(b *testing.B) {
	grid := dsp.Resample(benchRecord.Samples, benchRecord.Rate, 2150.4)
	common := chain.Common{
		Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Bits: 8, LNANoise: 3e-6, Seed: 13,
	}
	ref := chain.ReferenceGrid(common, grid)
	var snrOn, snrOff float64
	for i := 0; i < b.N; i++ {
		for _, leak := range []bool{false, true} {
			c := chain.NewCS(chain.CSConfig{Common: common, M: 150, ModelLeakage: leak})
			out := c.RunGrid(grid)
			n := min(len(ref), len(out.Samples))
			snr := dsp.SNRVersusReference(ref[:n], out.Samples[:n])
			if leak {
				snrOn = snr
			} else {
				snrOff = snr
			}
		}
	}
	b.ReportMetric(snrOff, "snr_db_no_droop")
	b.ReportMetric(snrOn, "snr_db_droop")
}

// BenchmarkAblationNoiseAugment compares a detector trained on clean
// records only against the default noise-augmented training, evaluated on
// a noisy baseline chain. Augmentation is what keeps the accuracy goal
// function meaningful across the Table III noise sweep.
func BenchmarkAblationNoiseAugment(b *testing.B) {
	var accAug, accClean float64
	for i := 0; i < b.N; i++ {
		for _, aug := range [][]float64{nil, {0}} {
			train := eeg.Synthesize(eeg.DefaultConfig(1014, 60))
			det := classify.TrainDetector(train, classify.DetectorConfig{
				Seed: 14, AugmentNoise: aug, Train: classify.TrainOptions{Epochs: 60},
			})
			test := eeg.Synthesize(eeg.DefaultConfig(14, 16))
			ev, err := core.NewEvaluator(core.Config{
				Tech: tech.GPDK045(), Sys: tech.DefaultSystem(),
				Dataset: test, Detector: det, Seed: 14,
			})
			if err != nil {
				b.Fatal(err)
			}
			r := ev.Evaluate(core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: 10e-6})
			if aug == nil {
				accAug = r.Accuracy
			} else {
				accClean = r.Accuracy
			}
		}
	}
	b.ReportMetric(accAug, "acc_noise_aug")
	b.ReportMetric(accClean, "acc_clean_trained")
}

// BenchmarkAblationAtomBudget sweeps the OMP atom budget and reports the
// reconstruction SNR at the two extremes.
func BenchmarkAblationAtomBudget(b *testing.B) {
	grid := dsp.Resample(benchRecord.Samples, benchRecord.Rate, 2150.4)
	common := chain.Common{
		Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Bits: 8, LNANoise: 3e-6, Seed: 15,
	}
	ref := chain.ReferenceGrid(common, grid)
	var snr8, snr64 float64
	for i := 0; i < b.N; i++ {
		for _, atoms := range []int{8, 64} {
			c := chain.NewCS(chain.CSConfig{Common: common, M: 150, MaxAtoms: atoms})
			out := c.RunGrid(grid)
			n := min(len(ref), len(out.Samples))
			snr := dsp.SNRVersusReference(ref[:n], out.Samples[:n])
			if atoms == 8 {
				snr8 = snr
			} else {
				snr64 = snr
			}
		}
	}
	b.ReportMetric(snr8, "snr_db_8_atoms")
	b.ReportMetric(snr64, "snr_db_64_atoms")
}

// BenchmarkVariantsComparison evaluates all four architectures at a
// matched operating point (the Section III digital/active/passive study)
// and reports the passive chain's advantage over the active one.
func BenchmarkVariantsComparison(b *testing.B) {
	var advantage float64
	for i := 0; i < b.N; i++ {
		s := efficsense.NewSuite(benchSuiteOptions(16))
		v := s.Variants(8, 6e-6, 150)
		var passive, active float64
		for _, r := range v.Points {
			switch r.Point.Arch {
			case efficsense.ArchCS:
				passive = r.TotalPower
			case efficsense.ArchCSActive:
				active = r.TotalPower
			}
		}
		if passive > 0 {
			advantage = active / passive
		}
	}
	b.ReportMetric(advantage, "passive_vs_active_x")
}

// BenchmarkAblationReconMethod compares the four reconstruction
// algorithms on the same encoded record and reports each one's SNR.
func BenchmarkAblationReconMethod(b *testing.B) {
	grid := dsp.Resample(benchRecord.Samples, benchRecord.Rate, 2150.4)
	common := chain.Common{
		Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Bits: 8, LNANoise: 3e-6, Seed: 17,
	}
	ref := chain.ReferenceGrid(common, grid)
	snrs := map[cs.Method]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range []cs.Method{cs.MethodOMP, cs.MethodBOMP, cs.MethodIHT, cs.MethodRidge} {
			c := chain.NewCS(chain.CSConfig{Common: common, M: 150, ReconMethod: m})
			out := c.RunGrid(grid)
			n := min(len(ref), len(out.Samples))
			snrs[m] = dsp.SNRVersusReference(ref[:n], out.Samples[:n])
		}
	}
	b.ReportMetric(snrs[cs.MethodOMP], "snr_db_omp")
	b.ReportMetric(snrs[cs.MethodBOMP], "snr_db_bomp")
	b.ReportMetric(snrs[cs.MethodIHT], "snr_db_iht")
	b.ReportMetric(snrs[cs.MethodRidge], "snr_db_ridge")
}

// BenchmarkAblationHoldCap sweeps the charge-sharing hold capacitor — the
// knob trading LNA load power and area against kT/C noise and matching —
// and reports the reconstruction SNR at the two extremes.
func BenchmarkAblationHoldCap(b *testing.B) {
	grid := dsp.Resample(benchRecord.Samples, benchRecord.Rate, 2150.4)
	common := chain.Common{
		Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Bits: 8, LNANoise: 3e-6, Seed: 18,
	}
	ref := chain.ReferenceGrid(common, grid)
	var snrSmall, snrLarge float64
	for i := 0; i < b.N; i++ {
		for _, ch := range []float64{10e-15, 320e-15} {
			c := chain.NewCS(chain.CSConfig{Common: common, M: 150, CHold: ch})
			out := c.RunGrid(grid)
			n := min(len(ref), len(out.Samples))
			snr := dsp.SNRVersusReference(ref[:n], out.Samples[:n])
			if ch < 100e-15 {
				snrSmall = snr
			} else {
				snrLarge = snr
			}
		}
	}
	b.ReportMetric(snrSmall, "snr_db_ch10f")
	b.ReportMetric(snrLarge, "snr_db_ch320f")
}
