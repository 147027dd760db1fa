package efficsense_test

import (
	"context"
	"fmt"

	"efficsense"
	"efficsense/internal/units"
)

// ExampleGPDK045 shows the Table III technology constants and one derived
// quantity (the mismatch of an 80 fF hold capacitor).
func ExampleGPDK045() {
	tp := efficsense.GPDK045()
	fmt.Println(units.Format(tp.CLogic, "F"))
	fmt.Println(units.Format(tp.EBit, "J"))
	fmt.Printf("%.2e\n", tp.MismatchSigma(80e-15))
	// Output:
	// 1fF
	// 1nJ
	// 4.46e-13
}

// ExampleDefaultSystem derives the paper's clocking from the Table III
// application constants.
func ExampleDefaultSystem() {
	sys := efficsense.DefaultSystem()
	fmt.Printf("f_sample = %.1f Hz\n", sys.FSample())
	fmt.Printf("f_clk(8 bit) = %.1f Hz\n", sys.FClk(8))
	fmt.Printf("BW_LNA = %.0f Hz\n", sys.LNABandwidth())
	// Output:
	// f_sample = 537.6 Hz
	// f_clk(8 bit) = 4838.4 Hz
	// BW_LNA = 768 Hz
}

// ExampleParetoFront extracts the non-dominated designs from a result
// cloud under the accuracy goal function (paper Step 5).
func ExampleParetoFront() {
	cloud := []efficsense.Result{
		{Point: efficsense.DesignPoint{Arch: efficsense.ArchBaseline, Bits: 8}, Accuracy: 0.99, TotalPower: 8.8e-6},
		{Point: efficsense.DesignPoint{Arch: efficsense.ArchCS, Bits: 8, M: 150}, Accuracy: 0.993, TotalPower: 2.44e-6},
		{Point: efficsense.DesignPoint{Arch: efficsense.ArchBaseline, Bits: 6}, Accuracy: 0.90, TotalPower: 5e-6}, // dominated
	}
	for _, r := range efficsense.ParetoFront(cloud, efficsense.QualityAccuracy) {
		fmt.Printf("%s: %.3f @ %s\n", r.Point.Arch, r.Accuracy, units.Format(r.TotalPower, "W"))
	}
	// Output:
	// cs: 0.993 @ 2.44µW
}

// ExampleOptimum applies the paper's selection rule: minimum power subject
// to the application accuracy constraint.
func ExampleOptimum() {
	cloud := []efficsense.Result{
		{Point: efficsense.DesignPoint{Arch: efficsense.ArchBaseline}, Accuracy: 0.981, TotalPower: 8.8e-6},
		{Point: efficsense.DesignPoint{Arch: efficsense.ArchCS, M: 150}, Accuracy: 0.993, TotalPower: 2.44e-6},
		{Point: efficsense.DesignPoint{Arch: efficsense.ArchCS, M: 75}, Accuracy: 0.93, TotalPower: 1.6e-6},
	}
	best, ok := efficsense.Optimum(cloud, efficsense.QualityAccuracy, 0.98)
	fmt.Println(ok, units.Format(best.TotalPower, "W"))
	// Output:
	// true 2.44µW
}

// bitsEval is a stand-in evaluator whose power grows with the ADC
// resolution.
type bitsEval struct{}

func (bitsEval) Evaluate(p efficsense.DesignPoint) efficsense.Result {
	return efficsense.Result{Point: p, TotalPower: float64(p.Bits) * 1e-6}
}

// ExampleSweep_RunWithHook watches a sweep's progress through the run's
// own hook: one call per completed point, serially, with Done counting
// up to Total.
func ExampleSweep_RunWithHook() {
	sweep, err := efficsense.NewSweep(bitsEval{}, efficsense.WithWorkers(2))
	if err != nil {
		panic(err)
	}
	var pts []efficsense.DesignPoint
	for bits := 6; bits <= 9; bits++ {
		pts = append(pts, efficsense.DesignPoint{Arch: efficsense.ArchBaseline, Bits: bits, LNANoise: 2e-6})
	}
	results, err := sweep.RunWithHook(context.Background(), pts, func(e efficsense.SweepEvent) {
		fmt.Printf("%d/%d\n", e.Done, e.Total)
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(results), "results")
	// Output:
	// 1/4
	// 2/4
	// 3/4
	// 4/4
	// 4 results
}
