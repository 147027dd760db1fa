package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/power"
	"efficsense/internal/scenario"
	"efficsense/internal/tech"
)

// The suite is expensive (detector training + full sweep), so the tests
// share one small instance.
var (
	suiteOnce sync.Once
	suiteInst *Suite
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment suite is slow")
	}
	suiteOnce.Do(func() {
		suiteInst = NewSuite(Options{
			Seed:         3,
			Records:      12,
			TrainRecords: 60,
			NoiseSteps:   4,
			Epochs:       80,
		})
	})
	return suiteInst
}

// figSource is what the suite and a figure set rebuilt from a sweep CSV
// both offer: the figures the shape criteria read.
type figSource interface {
	Fig7a() Fronts
	Fig9() []Fig9Point
	Fig10(caps []float64) []Fig10Front
}

// canonicalSweep rebuilds the figures of the committed canonical sweep,
// results/sweep.csv (`efficsense sweep -records 120 -noise-steps 8 -seed
// 1`, which `make paper-accept` keeps byte-identical to a fresh run). It
// needs no suite and loads in milliseconds, so it runs under -short.
func canonicalSweep(t *testing.T) figSource {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "results", "sweep.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rs, err := LoadResults(f)
	if err != nil {
		t.Fatal(err)
	}
	return NewFigsFromResults(rs, 0)
}

// forShapeInputs runs a DESIGN.md §4 shape check on the canonical sweep
// and on the small test suite (skipped under -short), one subtest each.
func forShapeInputs(t *testing.T, check func(t *testing.T, src figSource)) {
	t.Run("canonical", func(t *testing.T) { check(t, canonicalSweep(t)) })
	t.Run("suite", func(t *testing.T) { check(t, testSuite(t)) })
}

func TestSharedCacheInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two (tiny) detectors")
	}
	store := cache.New(0)
	opts := Options{Seed: 5, Records: 1, TrainRecords: 4, NoiseSteps: 1, Epochs: 1, Cache: store}
	optsB := opts
	optsB.Seed = 6
	a, b := NewSuite(opts), NewSuite(optsB)
	if a.Cache() != store || b.Cache() != store {
		t.Fatal("injected cache not adopted by the suites")
	}
	p := core.DesignPoint{Arch: core.ArchBaseline, Bits: 6, LNANoise: 10e-6}
	a.Engine().Evaluate(p)
	n := store.Len()
	if n == 0 {
		t.Fatal("evaluation did not reach the shared cache")
	}
	// A suite with different options computes a different function — its
	// evaluator fingerprint differs, so the shared store grows instead of
	// cross-contaminating.
	b.Engine().Evaluate(p)
	if store.Len() <= n {
		t.Fatalf("distinct evaluators collided in the shared cache (len %d)", store.Len())
	}
	// A rebuilt suite with identical options computes the identical
	// function: the value-hashed fingerprint matches and it reuses the
	// first suite's entries instead of re-evaluating.
	m := store.Len()
	c := NewSuite(opts)
	c.Engine().Evaluate(p)
	if store.Len() != m {
		t.Fatalf("identical evaluators did not share cache entries (len %d → %d)", m, store.Len())
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.WithDefaults()
	if o.Records != 40 || o.NoiseSteps != 8 || o.MinAccuracy != 0.98 {
		t.Fatalf("defaults wrong: %+v", o)
	}
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	s := testSuite(t)
	pts := s.Fig4(8)
	if len(pts) != s.Options().NoiseSteps {
		t.Fatalf("point count %d", len(pts))
	}
	// SNDR falls and power falls as the noise floor rises (Fig 4 trend).
	first, last := pts[0], pts[len(pts)-1]
	if first.SNDRdB <= last.SNDRdB {
		t.Fatalf("SNDR should fall with noise floor: %.1f → %.1f dB", first.SNDRdB, last.SNDRdB)
	}
	if first.TotalPower <= last.TotalPower {
		t.Fatalf("power should fall with noise floor: %g → %g", first.TotalPower, last.TotalPower)
	}
	// At the quietest point the LNA dominates (the paper's bottom panel).
	if first.Breakdown[power.CompLNA] < first.Breakdown[power.CompTransmitter] {
		t.Fatal("LNA should dominate the quiet end of the sweep")
	}
	// At the noisiest point the transmitter dominates.
	if last.Breakdown[power.CompTransmitter] < last.Breakdown[power.CompLNA] {
		t.Fatal("transmitter should dominate the noisy end of the sweep")
	}
}

func TestSuiteSweepSizeAndCaching(t *testing.T) {
	s := testSuite(t)
	rs := s.SweepResults()
	wantPoints := 3*4 + 3*4*3 // PaperSpace(4)
	if len(rs) != wantPoints {
		t.Fatalf("sweep size %d, want %d", len(rs), wantPoints)
	}
	// Cached: second call returns the identical slice.
	rs2 := s.SweepResults()
	if &rs[0] != &rs2[0] {
		t.Fatal("sweep should be cached")
	}
}

// frontExtent is a front's highest SNR and lowest power.
func frontExtent(front []core.Result) (maxSNR, minPower float64) {
	minPower = 1e18
	for _, r := range front {
		maxSNR = max(maxSNR, r.MeanSNRdB)
		minPower = min(minPower, r.TotalPower)
	}
	return maxSNR, minPower
}

// TestSweepAndFig7Shapes checks shape criterion (ii): the Fig 7a fronts
// cross. The baseline reaches the higher SNR (canonical sweep: 22.4 dB
// against 8.9), the CS front the lower power (1.20 µW against 3.27).
func TestSweepAndFig7Shapes(t *testing.T) {
	forShapeInputs(t, func(t *testing.T, src figSource) {
		f7a := src.Fig7a()
		if len(f7a.Baseline) == 0 || len(f7a.CS) == 0 {
			t.Fatal("empty Pareto fronts")
		}
		maxB, minPB := frontExtent(f7a.Baseline)
		maxC, minPC := frontExtent(f7a.CS)
		if maxB <= maxC {
			t.Errorf("baseline max SNR %.1f dB should exceed CS max %.1f dB (Fig 7a: baseline wins at high SNR)", maxB, maxC)
		}
		if minPC >= minPB {
			t.Errorf("CS min power %g W should undercut baseline min %g W (Fig 7a: CS wins at low SNR)", minPC, minPB)
		}
	})
}

func TestFig7bHeadlineResult(t *testing.T) {
	s := testSuite(t)
	f := s.Fig7b()
	if !f.HaveBaseline || !f.HaveCS {
		t.Fatalf("missing optima: baseline=%v cs=%v", f.HaveBaseline, f.HaveCS)
	}
	if f.BaselineOpt.Accuracy < f.MinAccuracy || f.CSOpt.Accuracy < f.MinAccuracy {
		t.Fatal("optima violate the accuracy constraint")
	}
	// The paper's headline: CS saves ~3.6×. At this deliberately tiny test
	// scale (12 records quantise accuracy to 8.3 % steps, so the 98 %
	// constraint means "perfect") the measured saving is understated —
	// EXPERIMENTS.md records the at-scale number (~1.6–1.8×). Here only
	// the direction and a loose band are asserted.
	if f.PowerSavingsX < 1.1 || f.PowerSavingsX > 8 {
		t.Fatalf("power saving %.2fx outside the plausible band (paper: 3.6x)", f.PowerSavingsX)
	}
	// Paper scale: baseline ~8.8 µW, CS ~2.44 µW.
	if f.BaselineOpt.TotalPower < 3e-6 || f.BaselineOpt.TotalPower > 20e-6 {
		t.Errorf("baseline optimum power %g outside band", f.BaselineOpt.TotalPower)
	}
	if f.CSOpt.TotalPower < 0.5e-6 || f.CSOpt.TotalPower > 6e-6 {
		t.Errorf("CS optimum power %g outside band", f.CSOpt.TotalPower)
	}
}

func TestFig8SavingsComposition(t *testing.T) {
	s := testSuite(t)
	base, cs, ok := s.Fig8()
	if !ok {
		t.Fatal("no optima")
	}
	// Fig 8 reading: TX and LNA shrink, CS logic appears but is marginal
	// relative to the savings.
	dTX := base.Power[power.CompTransmitter] - cs.Power[power.CompTransmitter]
	dLNA := base.Power[power.CompLNA] - cs.Power[power.CompLNA]
	csLogic := cs.Power[power.CompCSEncoder]
	if dTX <= 0 {
		t.Error("transmitter power should shrink under CS")
	}
	if dLNA < 0 {
		t.Error("LNA power should not grow under CS")
	}
	if csLogic <= 0 {
		t.Error("CS logic power missing")
	}
	if csLogic > dTX+dLNA {
		t.Errorf("CS logic cost %g should be marginal vs savings %g", csLogic, dTX+dLNA)
	}
}

// TestFig9AreaSeparation checks the Fig 9 half of shape criterion (v):
// every CS design costs more capacitor area than every baseline design
// (canonical sweep: 6 074 against 257 C_u,min).
func TestFig9AreaSeparation(t *testing.T) {
	forShapeInputs(t, func(t *testing.T, src figSource) {
		var minCS, maxBase float64
		minCS = 1e18
		for _, p := range src.Fig9() {
			if p.Arch == core.ArchCS && p.AreaCaps < minCS {
				minCS = p.AreaCaps
			}
			if p.Arch == core.ArchBaseline && p.AreaCaps > maxBase {
				maxBase = p.AreaCaps
			}
		}
		if minCS <= maxBase {
			t.Fatalf("every CS design should out-area every baseline design: minCS %g vs maxBase %g",
				minCS, maxBase)
		}
	})
}

// TestFig10ConstraintMonotone checks the Fig 10 half of shape criterion
// (v): the best accuracy never falls as the area cap loosens, and the
// tight caps of 500 and 2 000 C_u,min keep no CS design.
func TestFig10ConstraintMonotone(t *testing.T) {
	forShapeInputs(t, func(t *testing.T, src figSource) {
		fronts := src.Fig10(nil)
		if len(fronts) != len(DefaultAreaCaps) {
			t.Fatalf("front count %d", len(fronts))
		}
		for i := 1; i < len(fronts); i++ {
			if fronts[i].BestAccuracy+1e-12 < fronts[i-1].BestAccuracy {
				t.Fatalf("best accuracy fell from %.4f to %.4f as the cap loosened",
					fronts[i-1].BestAccuracy, fronts[i].BestAccuracy)
			}
		}
		for _, f := range fronts {
			if f.MaxAreaCaps > 2000 {
				continue
			}
			for _, r := range f.Front {
				if r.Point.Arch == core.ArchCS {
					t.Fatalf("CS design %s survived the %.0f cap", r.Point, f.MaxAreaCaps)
				}
			}
		}
	})
}

func TestRenderersProduceOutput(t *testing.T) {
	s := testSuite(t)
	var sb strings.Builder
	RenderFig4(&sb, s.Fig4(8))
	RenderFig7a(&sb, s.Fig7a())
	RenderFig7b(&sb, s.Fig7b())
	if base, cs, ok := s.Fig8(); ok {
		RenderFig8(&sb, base, cs)
	}
	RenderFig9(&sb, s.Fig9())
	RenderFig10(&sb, s.Fig10(nil))
	out := sb.String()
	for _, want := range []string{"Fig 4", "Fig 7a", "Fig 7b", "Fig 8", "Fig 9", "Fig 10", "legend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered output missing %q", want)
		}
	}
	var csv strings.Builder
	if err := CSVFig4(&csv, s.Fig4(8)); err != nil {
		t.Fatal(err)
	}
	if err := CSVResults(&csv, s.SweepResults()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "noise_vrms") || !strings.Contains(csv.String(), "accuracy") {
		t.Fatal("CSV headers missing")
	}
}

func TestVariantsComparison(t *testing.T) {
	s := testSuite(t)
	v := s.Variants(8, 6e-6, 96)
	if len(v.Points) != 4 {
		t.Fatalf("variant count %d", len(v.Points))
	}
	byArch := map[core.Architecture]core.Result{}
	for _, r := range v.Points {
		byArch[r.Point.Arch] = r
	}
	passive := byArch[core.ArchCS].TotalPower
	if passive <= 0 {
		t.Fatal("passive CS unevaluated")
	}
	// Section III ordering: passive cheapest of the CS family.
	if passive >= byArch[core.ArchCSActive].TotalPower {
		t.Error("passive should beat active CS on power")
	}
	if passive >= byArch[core.ArchCSDigital].TotalPower {
		t.Error("passive should beat digital CS on power")
	}
	// Digital CS has no analog array: baseline-sized area.
	if byArch[core.ArchCSDigital].AreaCaps != byArch[core.ArchBaseline].AreaCaps {
		t.Error("digital CS area should equal the baseline's")
	}
	var sb strings.Builder
	RenderVariants(&sb, v)
	if !strings.Contains(sb.String(), "cs-active") || !strings.Contains(sb.String(), "cs-digital") {
		t.Fatal("variant rendering incomplete")
	}
}

func TestFig10OptimumPricing(t *testing.T) {
	s := testSuite(t)
	fronts := s.Fig10(nil)
	// Looser area caps can only cheapen (or keep) the constrained optimum.
	prev := -1.0
	for _, f := range fronts {
		if !f.HaveOptimum {
			continue
		}
		if prev > 0 && f.Optimum.TotalPower > prev+1e-18 {
			t.Fatalf("constrained optimum got more expensive as the cap loosened: %g > %g",
				f.Optimum.TotalPower, prev)
		}
		prev = f.Optimum.TotalPower
	}
	if prev < 0 {
		t.Fatal("no cap admitted an optimum")
	}
}

// TestFig4FollowsScenario: Fig 4 characterises the scenario's own chain.
// Under ecg-telemonitoring every point equals core.EvaluateSine with the
// scenario's evaluator config — the LNA gain and the stimulus set for
// its 1.5 mV input peak, not for EEG.
func TestFig4FollowsScenario(t *testing.T) {
	s := NewSuite(Options{Scenario: "ecg-telemonitoring", Seed: 1, NoiseSteps: 2})
	scn, err := scenario.Lookup("ecg-telemonitoring")
	if err != nil {
		t.Fatal(err)
	}
	cfg := scn.EvaluatorConfig()
	cfg.Tech, cfg.Sys, cfg.Seed = tech.GPDK045(), tech.DefaultSystem(), 1
	for _, p := range s.Fig4(8) {
		want := core.EvaluateSine(cfg, core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: p.NoiseRMS}, 0, 20)
		if p.SNDRdB != want.SNDRdB || p.ENOB != want.ENOB || p.TotalPower != want.TotalPower {
			t.Fatalf("noise %g: Fig4 gives SNDR %g dB, power %g W; the scenario's chain gives %g dB, %g W",
				p.NoiseRMS, p.SNDRdB, p.TotalPower, want.SNDRdB, want.TotalPower)
		}
	}
}
