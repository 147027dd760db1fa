// Command efficsense regenerates every table and figure of the paper's
// evaluation section from the reproduction library, and exposes the
// pathfinding framework for ad-hoc design-point studies.
//
// Usage:
//
//	efficsense <subcommand> [flags]
//
// Subcommands:
//
//	tables   print Table II (power models) and Table III (parameters)
//	dataset  summarise the synthesized EEG dataset
//	point    evaluate a single design point
//	fig4     LNA noise sweep: SNDR + power + breakdown
//	fig7a    Pareto fronts, SNR vs power
//	fig7b    Pareto fronts, accuracy vs power (+ headline optima)
//	fig8     power breakdown of the two optimal designs
//	fig9     accuracy vs capacitor area
//	fig10    area-constrained Pareto fronts
//	sweep    dump the raw design-space sweep as CSV
//	search   budget-capped goal query ("max-snr@power<=5e-6") over the space
//	all      run every figure in sequence
//
// Common flags (suite subcommands): -records, -seed, -workers,
// -noise-steps, -epochs, -min-accuracy, -csv, -progress, -trace.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"efficsense/internal/classify"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/eeg"
	"efficsense/internal/experiments"
	"efficsense/internal/report"
	"efficsense/internal/scenario"
	"efficsense/internal/search"
	"efficsense/internal/tech"
	"efficsense/internal/units"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "tables":
		err = cmdTables(args)
	case "dataset":
		err = cmdDataset(args)
	case "point":
		err = cmdPoint(args)
	case "fig4":
		err = cmdFig4(args)
	case "fig7a", "fig7b", "fig8", "fig9", "fig10", "sweep", "all":
		err = cmdSuite(cmd, args)
	case "search":
		err = cmdSearch(args)
	case "scenarios":
		err = cmdScenarios(args)
	case "variants":
		err = cmdVariants(args)
	case "refine":
		err = cmdRefine(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "efficsense: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "efficsense %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `efficsense — architectural pathfinding for energy-constrained sensing

  efficsense tables                     Table II & III
  efficsense dataset  [-records N]      EEG dataset summary
  efficsense point    -arch A -bits N -noise V [-m M]
  efficsense fig4     [-bits N] [-csv F]
  efficsense fig7a    [suite flags]
  efficsense fig7b    [suite flags]
  efficsense fig8     [suite flags]
  efficsense fig9     [suite flags]
  efficsense fig10    [-caps 500,2000,8000,32000] [suite flags]
  efficsense sweep    -csv F [suite flags]
  efficsense search   -q QUERY [-budget N] [-probe-records N] [-csv F] [suite flags]
  efficsense variants [-bits N] [-noise V] [-m M] [suite flags]
  efficsense refine   -arch A -bits N [-m M] [-min-accuracy A] [suite flags]
  efficsense scenarios                  list the registered workload scenarios
  efficsense all      [suite flags]

suite flags: -scenario NAME (workload; default eeg-epilepsy)
             -records N (default 40; paper uses 500) -seed S -workers W
             -noise-steps N -epochs E -min-accuracy A -csv F
             -progress (rich progress + engine metrics) -trace F (JSONL per-point trace)
`)
}

// suiteFlags registers the shared suite options on a FlagSet.
func suiteFlags(fs *flag.FlagSet) *experiments.Options {
	opts := &experiments.Options{}
	fs.StringVar(&opts.Scenario, "scenario", "",
		"workload scenario (empty = "+scenario.DefaultName+"; `efficsense scenarios` lists the registry)")
	fs.Int64Var(&opts.Seed, "seed", 1, "root seed for every stochastic element")
	fs.IntVar(&opts.Records, "records", 40, "evaluation records (paper: 500)")
	fs.IntVar(&opts.TrainRecords, "train-records", 120, "detector training records")
	fs.IntVar(&opts.NoiseSteps, "noise-steps", 8, "LNA-noise grid resolution")
	fs.IntVar(&opts.Workers, "workers", 0, "sweep workers (0 = GOMAXPROCS)")
	fs.IntVar(&opts.Epochs, "epochs", 150, "detector training epochs")
	fs.Float64Var(&opts.MinAccuracy, "min-accuracy", 0.98, "application accuracy constraint")
	return opts
}

// newSuite wires progress reporting and the optional JSONL trace sink
// into a suite through the one hook of its sweep, Options.OnEvent (see
// sweepHook). The returned closer flushes the trace file (call it after
// the figures render).
func newSuite(opts *experiments.Options, rich bool, tracePath string) (*experiments.Suite, func() error, error) {
	closer := func() error { return nil }
	var trace io.Writer
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, nil, fmt.Errorf("opening trace sink: %w", err)
		}
		trace = f
		closer = f.Close
	}
	var suite *experiments.Suite
	opts.OnEvent = sweepHook(os.Stderr, rich, func() dse.Snapshot { return suite.SweepMetrics() }, trace)
	suite = experiments.NewSuite(*opts)
	return suite, closer, nil
}

// sweepHook renders a sweep run's events. With rich=false it prints a
// minimal "sweep d/t" counter on progress; with rich=true each line adds
// the run's throughput and ETA, timed by the run's own clock from its
// first event, and the mean per-point time and cache hits of metrics
// (the engine's cumulative counters). With trace set it also writes one
// JSONL line per point (see traceLine). The engine calls the hook
// serially, so it needs no lock of its own.
func sweepHook(progress io.Writer, rich bool, metrics func() dse.Snapshot, trace io.Writer) func(dse.Event) {
	var first time.Time
	return func(ev dse.Event) {
		if rich {
			if first.IsZero() {
				first = time.Now()
			}
			// The points completed since the clock started, over the time
			// since: the first event only starts the clock.
			var rate float64
			var eta time.Duration
			if elapsed := time.Since(first); ev.Done > 1 && elapsed > 0 {
				rate = float64(ev.Done-1) / elapsed.Seconds()
				eta = time.Duration(float64(ev.Total-ev.Done) / rate * float64(time.Second))
			}
			m := metrics()
			fmt.Fprintf(progress, "\rsweep %d/%d  %.1f pt/s  %s/pt  %d cached  eta %s   ",
				ev.Done, ev.Total, rate, m.MeanEval.Round(time.Millisecond),
				m.CacheHits, eta.Round(time.Second))
		} else {
			fmt.Fprintf(progress, "\rsweep %d/%d", ev.Done, ev.Total)
		}
		if ev.Done == ev.Total {
			fmt.Fprintln(progress)
		}
		if trace != nil {
			writeTraceLine(trace, ev)
		}
	}
}

// traceLine is one line of the -trace file.
type traceLine struct {
	Index      int     `json:"index"`
	Point      string  `json:"point"`
	Cached     bool    `json:"cached"`
	DurationMS float64 `json:"duration_ms"`
	Done       int     `json:"done"`
	Total      int     `json:"total"`
	Err        string  `json:"err,omitempty"`
}

// writeTraceLine writes ev to w as one JSON object and a newline.
func writeTraceLine(w io.Writer, ev dse.Event) {
	tl := traceLine{
		Index:      ev.Index,
		Point:      ev.Point.String(),
		Cached:     ev.Cached,
		DurationMS: float64(ev.Duration) / float64(time.Millisecond),
		Done:       ev.Done,
		Total:      ev.Total,
	}
	if ev.Result.Err != nil {
		tl.Err = ev.Result.Err.Error()
	}
	line, err := json.Marshal(tl)
	if err != nil {
		return
	}
	_, _ = w.Write(append(line, '\n')) // best effort: a failed write never stops the sweep
}

// printSweepSummary reports the engine counters after a rich-progress run.
func printSweepSummary(suite *experiments.Suite) {
	m := suite.SweepMetrics()
	fmt.Fprintf(os.Stderr,
		"sweep summary: %d evaluated, %d cache hits, %d panics, mean %s/point\n",
		m.Evaluated, m.CacheHits, m.Panics, m.MeanEval.Round(time.Millisecond))
}

func writeCSV(path string, write func(f *os.File) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func cmdTables(args []string) error {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("Table II — power models of the building blocks")
	t2 := report.NewTable("circuit", "model", "reference")
	t2.AddRow("LNA", "Vdd·max(2π·GBW·Cload/(gm/Id), Vref·fclk·Cload, (NEF/vn)²·2π·4kT·BW·VT)", "[16]")
	t2.AddRow("Sample & Hold", "Vref·fclk·12kT·2^(2N)/VFS²", "[14]")
	t2.AddRow("Comparator", "2N·ln2·(fclk−fs)·Cload·VFS·Veff", "[14]")
	t2.AddRow("SAR logic", "0.4·(2N+1)·Clogic·Vdd²·(fclk−fs)", "[17]")
	t2.AddRow("DAC", "2^N·fclk·Cu/(N+1)·{(5/6−2^−N−2^−2N/3)·Vref² − Vin²/2 − 2^−N·Vin·Vref}", "[15]")
	t2.AddRow("Transmitter", "fclk/(N+1)·N·Ebit", "[4],[12]")
	t2.AddRow("CS encoder logic", "(⌈log2 NΦ⌉+1)·NΦ·8·Clogic·Vdd²·fclk", "[17]")
	t2.Render(os.Stdout)

	fmt.Println("\nTable III — technology parameters (gpdk045 extraction)")
	tp := tech.GPDK045()
	t3 := report.NewTable("parameter", "symbol", "value")
	t3.AddRow("min logic capacitance", "Clogic", units.Format(tp.CLogic, "F"))
	t3.AddRow("transconductance efficiency", "gm/Id", fmt.Sprintf("%g /V", tp.GmOverId))
	t3.AddRow("capacitor density", "/", fmt.Sprintf("%.3f fF/µm²", tp.CapDensity*1e15))
	t3.AddRow("min unit capacitor", "Cu,min", units.Format(tp.CUnitMin, "F"))
	t3.AddRow("cap mismatch coefficient", "Cpk", fmt.Sprintf("%g /µm²", tp.CPk))
	t3.AddRow("switch leakage", "Ileak", units.Format(tp.ILeak, "A"))
	t3.AddRow("transmit energy per bit", "Ebit", units.Format(tp.EBit, "J"))
	t3.AddRow("thermal voltage", "VT", units.Format(tp.VT, "V"))
	t3.Render(os.Stdout)

	fmt.Println("\nTable III — design parameters")
	sys := tech.DefaultSystem()
	t4 := report.NewTable("parameter", "symbol", "value")
	t4.AddRow("input bandwidth", "BWin", fmt.Sprintf("%g Hz", sys.BWInput))
	t4.AddRow("measurements / frame", "M, NΦ", "75-150-192, 384")
	t4.AddRow("LNA noise sweep", "vn", "1 - 20 µVrms")
	t4.AddRow("ADC resolution", "N", "6 - 8 bit")
	t4.AddRow("supply", "Vdd", fmt.Sprintf("%g V", sys.VDD))
	t4.AddRow("sample rate", "fsample", fmt.Sprintf("%.1f Hz (2.1·BWin)", sys.FSample()))
	t4.AddRow("SAR clock", "fclk", "(N+1)·fsample")
	t4.AddRow("full scale / reference", "VFS, Vref", fmt.Sprintf("%g V", sys.VFS))
	t4.AddRow("LNA bandwidth", "BWLNA", fmt.Sprintf("%g Hz (3·BWin)", sys.LNABandwidth()))
	t4.Render(os.Stdout)
	return nil
}

func cmdDataset(args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ExitOnError)
	records := fs.Int("records", 40, "record count")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ds := eeg.Synthesize(eeg.DefaultConfig(*seed, *records))
	counts := ds.CountByClass()
	fmt.Printf("Bonn-substitute EEG dataset: %d records @ %.0f Hz (upsampled from %.2f Hz)\n",
		len(ds.Records), ds.Rate, eeg.NativeRate)
	fmt.Printf("  interictal %d, ictal %d, %.1f s per record (%d samples)\n",
		counts[eeg.Interictal], counts[eeg.Ictal],
		float64(len(ds.Records[0].Samples))/ds.Rate, len(ds.Records[0].Samples))
	// Quick detector sanity check mirrors the paper's ~99 % clean regime.
	train, test := ds.Split(0.25)
	det := classify.TrainDetector(train, classify.DetectorConfig{Seed: *seed,
		Train: classify.TrainOptions{Epochs: 120}})
	conf := det.EvaluateDataset(test)
	fmt.Printf("  clean detector accuracy on held-out records: %.3f (sens %.3f, spec %.3f)\n",
		conf.Accuracy(), conf.Sensitivity(), conf.Specificity())
	return nil
}

func cmdPoint(args []string) error {
	fs := flag.NewFlagSet("point", flag.ExitOnError)
	scnName := fs.String("scenario", "", "workload scenario (empty = "+scenario.DefaultName+")")
	arch := fs.String("arch", "baseline", "architecture (scoped to the scenario's set)")
	bits := fs.Int("bits", 8, "ADC resolution")
	noise := fs.Float64("noise", 5e-6, "LNA input-referred noise (V rms)")
	m := fs.Int("m", 150, "CS measurements per frame")
	records := fs.Int("records", 20, "evaluation records")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scn, err := scenario.Lookup(*scnName)
	if err != nil {
		return err
	}
	a, err := scn.ParseArch(*arch)
	if err != nil {
		return err
	}
	suite := experiments.NewSuite(experiments.Options{
		Scenario: scn.Name, Seed: *seed, Records: *records})
	p := core.DesignPoint{Arch: a, Bits: *bits, LNANoise: *noise}
	if a != core.ArchBaseline {
		p.M = *m
	}
	r := suite.Engine().Evaluate(p)
	fmt.Println(dse.Describe(r))
	experiments.RenderBreakdown(os.Stdout, "power breakdown", r.Power)
	return nil
}

// cmdSearch answers one goal-directed query over the Table III lattice
// under a hard evaluation budget, instead of sweeping it exhaustively.
func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	opts := suiteFlags(fs)
	query := fs.String("q", "",
		`goal query: goal *( "@" constraint ), e.g. "max-snr@power<=5e-6" or "min-power@accuracy>=0.98@area<=500"`)
	budget := fs.Int("budget", 0, "evaluation budget (0 = a tenth of the space)")
	probeRecords := fs.Int("probe-records", 0,
		"record count of a cheap probe fidelity for early pruning (0 = every probe at full fidelity)")
	csv := fs.String("csv", "", "write the discovered front as CSV to this path")
	progress := fs.Bool("progress", false, "per-round progress on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *query == "" {
		return fmt.Errorf(`search requires -q (e.g. -q "max-snr@power<=5e-6")`)
	}
	spec, err := search.ParseQuery(*query)
	if err != nil {
		return err
	}
	spec.Seed = opts.Seed
	scn, err := scenario.Lookup(opts.Scenario)
	if err != nil {
		return err
	}
	space := scn.Space(opts.NoiseSteps)
	size := space.Size()
	spec.MaxEvaluations = *budget
	if spec.MaxEvaluations <= 0 {
		spec.MaxEvaluations = max(size/10, 1)
	}

	suite := experiments.NewSuite(*opts)
	var fids []search.Fidelity
	if *probeRecords > 0 && *probeRecords != suite.Options().Records {
		po := *opts
		po.Records = *probeRecords
		fids = append(fids, search.Fidelity{Name: "probe", Eval: experiments.NewSuite(po).Engine()})
	}
	fids = append(fids, search.Fidelity{Name: "full", Eval: suite.Engine()})

	cfg := search.Config{Space: space, Spec: spec, Fidelities: fids}
	if *progress {
		cfg.OnProgress = func(p search.Progress) {
			fmt.Fprintf(os.Stderr, "\rsearch %d/%d @%s  front %d  hv %.3g   ",
				p.Evaluations, p.Budget, p.RungName, p.FrontSize, p.Hypervolume)
		}
	}
	out, err := search.Run(context.Background(), cfg)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}

	fmt.Printf("search %s: %d evaluations of a %d-point space (budget %d, %.1f%% of exhaustive)\n",
		spec.Query(), out.Evaluations, size, out.Budget, 100*float64(out.Evaluations)/float64(size))
	if out.Partial {
		reason := "budget exhausted before convergence"
		if out.Errors > 0 {
			reason = fmt.Sprintf("%d degraded rows", out.Errors)
		}
		fmt.Printf("  PARTIAL: %s; the front is a lower bound\n", reason)
	}
	fmt.Printf("  front: %d designs (hypervolume %.4g)\n", len(out.Front), out.Hypervolume)
	t := report.NewTable("design", "snr", "accuracy", "power", "area")
	for _, r := range out.Front {
		t.AddRow(r.Point.String(), fmt.Sprintf("%.1f dB", r.MeanSNRdB),
			fmt.Sprintf("%.3f", r.Accuracy), units.Format(r.TotalPower, "W"),
			fmt.Sprintf("%.0f", r.AreaCaps))
	}
	t.Render(os.Stdout)
	if out.HaveBest {
		fmt.Printf("\nanswer: %s\n", dse.Describe(out.Best))
		experiments.RenderBreakdown(os.Stdout, "power breakdown", out.Best.Power)
	} else {
		fmt.Println("\nno design in the explored region satisfies the constraints")
	}
	return writeCSV(*csv, func(f *os.File) error {
		return experiments.CSVResults(f, out.Front)
	})
}

// cmdScenarios lists the registered workloads: what -scenario (and the
// daemon's options.scenario field) may select, and what each evaluates.
func cmdScenarios(args []string) error {
	fs := flag.NewFlagSet("scenarios", flag.ExitOnError)
	noiseSteps := fs.Int("noise-steps", 8, "noise resolution used to size each default space")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t := report.NewTable("name", "architectures", "space", "recon", "description")
	for _, sc := range scenario.All() {
		name := sc.Name
		if name == scenario.DefaultName {
			name += " (default)"
		}
		t.AddRow(name,
			strings.Join(sc.ArchNames(), ","),
			fmt.Sprintf("%d points", sc.Space(*noiseSteps).Size()),
			sc.ReconMethod.String(),
			sc.Description)
	}
	t.Render(os.Stdout)
	return nil
}

func cmdVariants(args []string) error {
	fs := flag.NewFlagSet("variants", flag.ExitOnError)
	opts := suiteFlags(fs)
	bits := fs.Int("bits", 8, "ADC resolution")
	noise := fs.Float64("noise", 6e-6, "LNA noise floor (V rms)")
	m := fs.Int("m", 150, "CS measurements per frame")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite := experiments.NewSuite(*opts)
	experiments.RenderVariants(os.Stdout, suite.Variants(*bits, *noise, *m))
	return nil
}

func cmdRefine(args []string) error {
	fs := flag.NewFlagSet("refine", flag.ExitOnError)
	opts := suiteFlags(fs)
	arch := fs.String("arch", "cs", "architecture (scoped to the scenario's set)")
	bits := fs.Int("bits", 8, "ADC resolution")
	m := fs.Int("m", 150, "CS measurements per frame")
	iters := fs.Int("iters", 6, "bisection evaluations")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scn, err := scenario.Lookup(opts.Scenario)
	if err != nil {
		return err
	}
	a, err := scn.ParseArch(*arch)
	if err != nil {
		return err
	}
	p := core.DesignPoint{Arch: a, Bits: *bits}
	if a != core.ArchBaseline {
		p.M = *m
	}
	suite := experiments.NewSuite(*opts)
	best, ok := dse.BisectNoiseFloor(suite.Engine(), p, dse.QualityAccuracy,
		opts.MinAccuracy, 1e-6, 20e-6, *iters)
	if !ok {
		fmt.Printf("no %s design meets accuracy >= %.2f even at vn = 1 µVrms\n",
			*arch, opts.MinAccuracy)
		return nil
	}
	fmt.Printf("refined optimum: %s\n", dse.Describe(best))
	experiments.RenderBreakdown(os.Stdout, "power breakdown", best.Power)
	return nil
}

func cmdFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	opts := suiteFlags(fs)
	bits := fs.Int("bits", 8, "ADC resolution for the sweep")
	csv := fs.String("csv", "", "write the sweep as CSV to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite := experiments.NewSuite(*opts)
	pts := suite.Fig4(*bits)
	experiments.RenderFig4(os.Stdout, pts)
	return writeCSV(*csv, func(f *os.File) error { return experiments.CSVFig4(f, pts) })
}

// figSource abstracts a live suite and a loaded sweep for the figure
// subcommands.
type figSource interface {
	Fig7a() experiments.Fronts
	Fig7b() experiments.Fig7b
	Fig9() []experiments.Fig9Point
	Fig10(caps []float64) []experiments.Fig10Front
}

func cmdSuite(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	opts := suiteFlags(fs)
	csv := fs.String("csv", "", "write the underlying sweep as CSV to this path")
	from := fs.String("from", "", "re-render from a sweep CSV written earlier (skips re-evaluation; fig7a/7b/9/10 only)")
	capsFlag := fs.String("caps", "", "fig10 area caps, comma separated (Cu,min multiples)")
	progress := fs.Bool("progress", false, "rich progress: throughput, per-point time, cache hits, ETA")
	trace := fs.String("trace", "", "write a JSONL per-point sweep trace to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var source figSource
	var suite *experiments.Suite
	if *from != "" {
		f, err := os.Open(*from)
		if err != nil {
			return err
		}
		rs, err := experiments.LoadResults(f)
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "loaded %d sweep results from %s\n", len(rs), *from)
		source = experiments.NewFigsFromResults(rs, opts.MinAccuracy)
	} else {
		var closeTrace func() error
		var err error
		suite, closeTrace, err = newSuite(opts, *progress, *trace)
		if err != nil {
			return err
		}
		defer func() {
			if err := closeTrace(); err == nil && *trace != "" {
				fmt.Fprintf(os.Stderr, "wrote %s\n", *trace)
			}
			if *progress {
				printSweepSummary(suite)
			}
		}()
		source = suite
	}
	var caps []float64
	if *capsFlag != "" {
		for _, part := range strings.Split(*capsFlag, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("bad -caps entry %q: %w", part, err)
			}
			caps = append(caps, v)
		}
	}
	run := func(name string) error {
		switch name {
		case "fig7a":
			experiments.RenderFig7a(os.Stdout, source.Fig7a())
		case "fig7b":
			experiments.RenderFig7b(os.Stdout, source.Fig7b())
		case "fig8":
			if suite == nil {
				return fmt.Errorf("fig8 needs the full power breakdowns; run without -from")
			}
			if base, cs, ok := suite.Fig8(); ok {
				experiments.RenderFig8(os.Stdout, base, cs)
			} else {
				fmt.Println("fig8: no optima met the accuracy constraint; relax -min-accuracy")
			}
		case "fig9":
			experiments.RenderFig9(os.Stdout, source.Fig9())
		case "fig10":
			experiments.RenderFig10(os.Stdout, source.Fig10(caps))
		}
		return nil
	}
	switch cmd {
	case "sweep":
		if *csv == "" {
			return fmt.Errorf("sweep requires -csv")
		}
		if suite == nil {
			return fmt.Errorf("sweep re-evaluates; run without -from")
		}
		suite.SweepResults()
	case "all":
		if suite == nil {
			return fmt.Errorf("all re-evaluates; run without -from")
		}
		experiments.RenderFig4(os.Stdout, suite.Fig4(8))
		fmt.Println()
		for _, name := range []string{"fig7a", "fig7b", "fig8", "fig9", "fig10"} {
			if err := run(name); err != nil {
				return err
			}
			fmt.Println()
		}
	default:
		if err := run(cmd); err != nil {
			return err
		}
	}
	if suite == nil {
		return nil
	}
	return writeCSV(*csv, func(f *os.File) error {
		return experiments.CSVResults(f, suite.SweepResults())
	})
}
