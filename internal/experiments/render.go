package experiments

import (
	"fmt"
	"io"

	"efficsense/internal/core"
	"efficsense/internal/power"
	"efficsense/internal/report"
	"efficsense/internal/units"
)

// RenderFig4 writes the Fig 4 sweep as a table plus two scatter panels
// (SNDR and power versus noise floor) mirroring the paper's layout.
func RenderFig4(w io.Writer, pts []Fig4Point) {
	fmt.Fprintln(w, "Fig 4 — LNA input-referred noise sweep (baseline system, sine input)")
	tb := report.NewTable("vn (µVrms)", "SNDR (dB)", "ENOB", "P total", "P LNA", "P TX")
	var xs, sndr, pw []float64
	for _, p := range pts {
		tb.AddRow(
			fmt.Sprintf("%.2f", p.NoiseRMS*1e6),
			fmt.Sprintf("%.1f", p.SNDRdB),
			fmt.Sprintf("%.2f", p.ENOB),
			units.Format(p.TotalPower, "W"),
			units.Format(p.Breakdown[power.CompLNA], "W"),
			units.Format(p.Breakdown[power.CompTransmitter], "W"),
		)
		xs = append(xs, p.NoiseRMS*1e6)
		sndr = append(sndr, p.SNDRdB)
		pw = append(pw, p.TotalPower*1e6)
	}
	tb.Render(w)
	fmt.Fprintln(w)
	sc := report.Scatter{Title: "SNDR vs noise floor", XLabel: "vn (µVrms)", YLabel: "SNDR (dB)", LogX: true, Height: 12}
	sc.Add("baseline", 'o', xs, sndr)
	sc.Render(w)
	fmt.Fprintln(w)
	sp := report.Scatter{Title: "Total power vs noise floor", XLabel: "vn (µVrms)", YLabel: "P (µW)", LogX: true, LogY: true, Height: 12}
	sp.Add("baseline", 'o', xs, pw)
	sp.Render(w)
	if len(pts) > 0 {
		fmt.Fprintln(w)
		RenderBreakdown(w, "Power distribution at the lowest noise floor", pts[0].Breakdown)
	}
}

// RenderBreakdown writes one power breakdown as a bar chart.
func RenderBreakdown(w io.Writer, title string, b power.Breakdown) {
	comps := b.Components()
	labels := make([]string, len(comps))
	values := make([]float64, len(comps))
	for i, c := range comps {
		labels[i] = string(c)
		values[i] = b[c]
	}
	report.Bar(w, title, labels, values, func(v float64) string { return units.Format(v, "W") })
}

func frontSeries(rs []core.Result, q func(core.Result) float64) (x, y []float64) {
	for _, r := range rs {
		x = append(x, r.TotalPower*1e6)
		y = append(y, q(r))
	}
	return x, y
}

// RenderFig7a writes the SNR-goal Pareto fronts.
func RenderFig7a(w io.Writer, f Fronts) {
	fmt.Fprintln(w, "Fig 7a — Pareto fronts, SNR vs power")
	sc := report.Scatter{XLabel: "P (µW)", YLabel: "SNR (dB)", LogX: true, Height: 16}
	bx, by := frontSeries(f.Baseline, func(r core.Result) float64 { return r.MeanSNRdB })
	cx, cy := frontSeries(f.CS, func(r core.Result) float64 { return r.MeanSNRdB })
	sc.Add("baseline front", 'o', bx, by)
	sc.Add("cs front", 'x', cx, cy)
	sc.Render(w)
	fmt.Fprintln(w)
	tb := report.NewTable("front", "point", "SNR (dB)", "power")
	for _, r := range f.Baseline {
		tb.AddRow("baseline", r.Point.String(), fmt.Sprintf("%.1f", r.MeanSNRdB), units.Format(r.TotalPower, "W"))
	}
	for _, r := range f.CS {
		tb.AddRow("cs", r.Point.String(), fmt.Sprintf("%.1f", r.MeanSNRdB), units.Format(r.TotalPower, "W"))
	}
	tb.Render(w)
}

// RenderFig7b writes the accuracy-goal fronts and the headline optima.
func RenderFig7b(w io.Writer, f Fig7b) {
	fmt.Fprintln(w, "Fig 7b — Pareto fronts, detection accuracy vs power")
	sc := report.Scatter{XLabel: "P (µW)", YLabel: "accuracy", LogX: true, Height: 16}
	bx, by := frontSeries(f.Baseline, func(r core.Result) float64 { return r.Accuracy })
	cx, cy := frontSeries(f.CS, func(r core.Result) float64 { return r.Accuracy })
	sc.Add("baseline front", 'o', bx, by)
	sc.Add("cs front", 'x', cx, cy)
	sc.Render(w)
	fmt.Fprintln(w)
	if f.HaveBaseline {
		fmt.Fprintf(w, "baseline optimum (accuracy >= %.2f): %s, accuracy %.3f, power %s\n",
			f.MinAccuracy, f.BaselineOpt.Point, f.BaselineOpt.Accuracy,
			units.Format(f.BaselineOpt.TotalPower, "W"))
	} else {
		fmt.Fprintf(w, "baseline: no configuration met accuracy >= %.2f\n", f.MinAccuracy)
	}
	if f.HaveCS {
		fmt.Fprintf(w, "cs optimum       (accuracy >= %.2f): %s, accuracy %.3f, power %s\n",
			f.MinAccuracy, f.CSOpt.Point, f.CSOpt.Accuracy,
			units.Format(f.CSOpt.TotalPower, "W"))
	} else {
		fmt.Fprintf(w, "cs: no configuration met accuracy >= %.2f\n", f.MinAccuracy)
	}
	if f.PowerSavingsX > 0 {
		fmt.Fprintf(w, "power saving of the CS system: %.2fx (paper: 3.6x)\n", f.PowerSavingsX)
	}
	if f.MetricsDiverge {
		fmt.Fprintln(w, "note: SNR and accuracy goal functions select different optima (paper Step 5)")
	}
}

// RenderFig8 writes the two optimal-point breakdowns side by side.
func RenderFig8(w io.Writer, baseline, cs core.Result) {
	fmt.Fprintln(w, "Fig 8 — power distribution of the optimal design points")
	fmt.Fprintf(w, "\nbaseline optimum: %s (total %s)\n", baseline.Point, units.Format(baseline.TotalPower, "W"))
	RenderBreakdown(w, "", baseline.Power)
	fmt.Fprintf(w, "\ncs optimum: %s (total %s)\n", cs.Point, units.Format(cs.TotalPower, "W"))
	RenderBreakdown(w, "", cs.Power)
	// The paper's reading: the CS savings come from the transmitter and
	// the LNA, at a marginal digital cost.
	dTX := baseline.Power[power.CompTransmitter] - cs.Power[power.CompTransmitter]
	dLNA := baseline.Power[power.CompLNA] - cs.Power[power.CompLNA]
	fmt.Fprintf(w, "\nsavings: transmitter %s, LNA %s; CS logic cost %s\n",
		units.Format(dTX, "W"), units.Format(dLNA, "W"),
		units.Format(cs.Power[power.CompCSEncoder], "W"))
}

// RenderFig9 writes the accuracy-vs-area cloud.
func RenderFig9(w io.Writer, pts []Fig9Point) {
	fmt.Fprintln(w, "Fig 9 — accuracy vs total capacitance (multiples of Cu,min)")
	sc := report.Scatter{XLabel: "area (Cu,min)", YLabel: "accuracy", LogX: true, Height: 16}
	var bx, by, cx, cy []float64
	for _, p := range pts {
		if p.Arch == core.ArchBaseline {
			bx = append(bx, p.AreaCaps)
			by = append(by, p.Accuracy)
		} else {
			cx = append(cx, p.AreaCaps)
			cy = append(cy, p.Accuracy)
		}
	}
	sc.Add("baseline", 'o', bx, by)
	sc.Add("cs", 'x', cx, cy)
	sc.Render(w)
}

// RenderFig10 writes the area-constrained fronts.
func RenderFig10(w io.Writer, fronts []Fig10Front) {
	fmt.Fprintln(w, "Fig 10 — accuracy vs power under area constraints")
	sc := report.Scatter{XLabel: "P (µW)", YLabel: "accuracy", LogX: true, Height: 16}
	markers := []rune{'1', '2', '3', '4', '5', '6'}
	tb := report.NewTable("max area (Cu,min)", "best accuracy", "min power @ constraint", "optimal design", "front points")
	for i, f := range fronts {
		x, y := frontSeries(f.Front, func(r core.Result) float64 { return r.Accuracy })
		m := markers[i%len(markers)]
		sc.Add(fmt.Sprintf("area <= %.0f", f.MaxAreaCaps), m, x, y)
		optPower, optName := "—", "—"
		if f.HaveOptimum {
			optPower = units.Format(f.Optimum.TotalPower, "W")
			optName = f.Optimum.Point.String()
		}
		tb.AddRow(fmt.Sprintf("%.0f", f.MaxAreaCaps), fmt.Sprintf("%.3f", f.BestAccuracy),
			optPower, optName, len(f.Front))
	}
	sc.Render(w)
	fmt.Fprintln(w)
	tb.Render(w)
}

// CSVFig4 emits the Fig 4 sweep as CSV rows.
func CSVFig4(w io.Writer, pts []Fig4Point) error {
	headers := []string{"noise_vrms", "sndr_db", "enob", "total_w",
		"lna_w", "sh_w", "comparator_w", "sar_logic_w", "dac_w", "tx_w"}
	rows := make([][]interface{}, len(pts))
	for i, p := range pts {
		rows[i] = []interface{}{
			p.NoiseRMS, p.SNDRdB, p.ENOB, p.TotalPower,
			p.Breakdown[power.CompLNA], p.Breakdown[power.CompSampleHold],
			p.Breakdown[power.CompComparator], p.Breakdown[power.CompSARLogic],
			p.Breakdown[power.CompDAC], p.Breakdown[power.CompTransmitter],
		}
	}
	return report.CSV(w, headers, rows)
}

// ResultHeaders are the columns of the sweep-result tabulations
// (CSVResults, NDJSONResults, the serving layer's SSE payloads).
var ResultHeaders = []string{"arch", "bits", "noise_vrms", "m", "chold_f",
	"snr_db", "accuracy", "total_w", "area_caps"}

// ResultRow renders one result as a ResultHeaders-ordered row.
func ResultRow(r core.Result) []interface{} {
	return []interface{}{
		r.Point.Arch.String(), r.Point.Bits, r.Point.LNANoise,
		r.Point.M, r.Point.CHold,
		r.MeanSNRdB, r.Accuracy, r.TotalPower, r.AreaCaps,
	}
}

func resultRows(rs []core.Result) [][]interface{} {
	rows := make([][]interface{}, len(rs))
	for i, r := range rs {
		rows[i] = ResultRow(r)
	}
	return rows
}

// CSVResults emits a result cloud as CSV rows (used for Figs 7, 9, 10).
func CSVResults(w io.Writer, rs []core.Result) error {
	return report.CSV(w, ResultHeaders, resultRows(rs))
}

// NDJSONResults emits a result cloud as NDJSON — one JSON object per
// line with the CSVResults columns — so sweep results stream line by
// line through HTTP responses and log pipelines. A degraded point (a
// result carrying an error: evaluator failure, recovered panic,
// injected fault) gains an extra "err" field, so partial clouds are
// self-describing row by row; sound rows omit it.
func NDJSONResults(w io.Writer, rs []core.Result) error {
	headers := append(append(make([]string, 0, len(ResultHeaders)+1), ResultHeaders...), "err")
	rows := make([][]interface{}, len(rs))
	for i, r := range rs {
		rows[i] = ResultRow(r)
		if r.Err != nil {
			rows[i] = append(rows[i], r.Err.Error())
		}
	}
	return report.NDJSON(w, headers, rows)
}
