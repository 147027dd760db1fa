// Command bench is the EffiCSense benchmark: it runs one workload — a cold
// design-space sweep, warm single-point evaluation over HTTP, or the
// paper's goal-directed search — measures it end to end, checks its
// outputs against committed digests, and with -trace 1 breaks the time
// down layer by layer. Run it from the repository root through
// bench/run.sh, which builds it from source:
//
//	bash bench/run.sh --workload sweep-eeg --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh run -seed 1          # every workload, one child process each
//	bash bench/run.sh trace -seed 1        # the traced per-layer breakdown
//	bash bench/run.sh compare base.json new.json
//
// The last line of a workload run is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// declares the same lists (benchmark_test.go keeps them in step).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. points_per_s is the median rate over a run's
// sweeps or searches, or over the closed loop's whole seconds, so one slow
// stretch of a run does not move it. Operation latencies are recorded in the
// detail line but not gated: on the closed loop the median is fixed by
// the throughput (2 clients / round trip), and a search's time moves
// with the number of evaluations its seed's landscape needs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"points_per_s", "points/s"},
	{"peak_rss_mb", "MB"},
}

// chainStages are the spans the replay records around each public chain
// call, in evaluation order.
var chainStages = []string{
	"chain.build", "chain.lna", "chain.digitize", "chain.encode",
	"chain.finish", "quality.snr", "metric.score",
}

// perLayer are the metrics a traced run reports. A workload that never
// enters a layer reports 0 for it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"setup.synth_s", "s"},
		{"setup.metric_build_s", "s"},
		{"setup.evaluator_prep_s", "s"},
	}
	for _, s := range chainStages {
		defs = append(defs, metricDef{s + "_ms", "ms"})
	}
	for _, s := range chainStages {
		defs = append(defs, metricDef{s + "_share", "ratio"})
	}
	return append(defs, []metricDef{
		{"stages.coverage", "ratio"},
		{"chain.front_end_reuse", "ratio"},
		{"dse.batches", "count"},
		{"dse.points_per_batch", "points"},
		{"dse.evaluated", "count"},
		{"dse.cache_hits", "count"},
		{"dse.evaluator_busy_share", "ratio"},
		{"runtime.alloc_mb_per_point", "MB"},
		{"runtime.allocs_per_point", "count"},
		{"runtime.gc_cpu_share", "ratio"},
		{"serve.handler_us", "us"},
		{"wire.decode_us", "us"},
		{"wire.encode_us", "us"},
		{"serve.manager_evaluate_us", "us"},
		{"serve.engine_resolve_us", "us"},
		{"dse.run_one_us", "us"},
		{"cache.get_us", "us"},
		{"wire.transport_us", "us"},
		{"search.rounds", "count"},
		{"search.points_per_round", "points"},
		{"search.strategy_self_s", "s"},
		{"search.eval_busy_s", "s"},
		{"serve.search_job_overhead_s", "s"},
		{"trace.overhead", "ratio"},
	}...)
}()

// workload is one benchmark input set. Why each exists is recorded in
// BENCHMARK.json and README.md: the sweeps load the evaluation layers
// (OMP and the detector on EEG, block-OMP on ECG) and leave serve idle,
// evaluate-warm loads serve, the wire and the cache hit path and
// evaluates nothing, and search-eeg drives evaluation in the small
// propose/observe rounds of the paper's Fig 7b query.
type workload struct {
	name string
	run  func(c *runCtx) error
}

var workloads = []workload{
	{"sweep-eeg", sweepEEG},
	{"sweep-ecg", sweepECG},
	{"evaluate-warm", evaluateWarm},
	{"search-eeg", searchEEG},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Every set-up is repeated setupReps times and reported as the median;
// every timed operation runs at least minOps times. runSeconds is how long
// a run measures unless told otherwise, BENCHMARK.json's run_seconds.
const (
	setupReps  = 3
	minOps     = 3
	runSeconds = 20
)

// runCtx carries one workload run: its inputs and what it measured.
type runCtx struct {
	seed    int64
	seconds float64
	tr      *tracer // non-nil for a traced run

	setups    []float64 // seconds per set-up
	ops       []float64 // milliseconds per measured sweep or search; the closed loop keeps its own sample
	rates     []float64 // design points per second of each operation or window
	attempted int
	failed    int
	digest    string
	problems  []string
	extra     map[string]float64 // informational figures, never gated
	layers    map[string]float64 // per-layer metrics of a traced run
}

func (c *runCtx) problemf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// agree records d as the run's output digest, or a problem when an
// earlier repetition produced a different one.
func (c *runCtx) agree(what, d string) {
	if c.digest == "" {
		c.digest = d
		return
	}
	if d != c.digest {
		c.problemf("%s: digest %.12s differs from the first repetition's %.12s", what, d, c.digest)
	}
}

// repeat runs op at least n times and until seconds have passed.
func repeat(n int, seconds float64, op func() error) error {
	start := time.Now()
	for i := 0; i < n || time.Since(start).Seconds() < seconds; i++ {
		if err := op(); err != nil {
			return err
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line printed before the result: what the run subcommand
// records beyond the metrics.
type detail struct {
	Meta     meta                 `json:"meta"`
	Digest   string               `json:"digest"`
	Golden   string               `json:"golden"` // match, mismatch, or none for a seed without a digest
	Problems []string             `json:"problems,omitempty"`
	Samples  map[string][]float64 `json:"samples"`
	Extra    map[string]float64   `json:"extra,omitempty"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(runSets(os.Args[2:], false))
		case "trace":
			os.Exit(runSets(os.Args[2:], true))
		case "compare":
			os.Exit(compare(os.Args[2:]))
		case "golden":
			os.Exit(writeGolden(os.Args[2:]))
		}
	}
	os.Exit(runWorkload(os.Args[1:]))
}

// runWorkload is one measured run of one workload, the form
// BENCHMARK.json's command is run in.
func runWorkload(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", runSeconds, "how long to measure")
	traced := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	g, err := golden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	c := &runCtx{seed: *seed, seconds: *seconds, extra: map[string]float64{}, layers: map[string]float64{}}
	if *traced == 1 {
		c.tr = newTracer()
	}
	m := collectMeta(*seed, *seconds)
	if err := w.run(c); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}

	d := detail{Meta: m, Digest: c.digest, Golden: "none", Problems: c.problems, Extra: c.extra,
		Samples: map[string][]float64{"setup_s": c.setups}}
	if len(c.ops) > 0 {
		d.Samples["op_ms"] = c.ops
		c.extra["ops"] = float64(len(c.ops))
		c.extra["op_p50_ms"] = median(c.ops)
	}
	c.extra["error_rate"] = float64(c.failed) / float64(max(c.attempted, 1))
	if want, ok := g[w.name][fmt.Sprint(*seed)]; ok {
		d.Golden = "match"
		if want != c.digest {
			d.Golden = "mismatch"
		}
	}
	res := result{
		Correct:   len(c.problems) == 0 && d.Golden != "mismatch" && c.failed == 0 && c.digest != "",
		Attempted: max(c.attempted, 1),
		Failed:    c.failed,
		Metrics:   map[string]metric{},
	}
	if c.tr == nil {
		values := map[string]float64{
			"setup_s":      median(c.setups),
			"points_per_s": median(c.rates),
			"peak_rss_mb":  peakRSSMB(),
		}
		for _, def := range endToEnd {
			res.Metrics[def.name] = metric{values[def.name], def.unit}
		}
	} else {
		for _, def := range perLayer {
			res.Metrics[def.name] = metric{c.layers[def.name], def.unit}
		}
		path := filepath.Join("bench", "out", "trace-"+w.name+".json")
		if err := c.tr.write(path, w.name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
		}
	}
	for _, p := range c.problems {
		fmt.Fprintln(os.Stderr, "bench: INCORRECT:", p)
	}
	if d.Golden == "mismatch" {
		fmt.Fprintf(os.Stderr, "bench: INCORRECT: digest %s does not match the committed one for seed %d\n", c.digest, *seed)
	}
	dl, err := json.Marshal(d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: detail line:", err)
		return 1
	}
	rl, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: result line:", err) // a NaN or infinite metric
		return 1
	}
	fmt.Printf("%s\n%s\n", dl, rl)
	return 0
}

// lastJSONLines splits a child's standard output into its detail and
// result lines.
func lastJSONLines(out []byte) (detail, result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var d detail
	var r result
	if len(lines) < 2 {
		return d, r, fmt.Errorf("expected a detail and a result line, got %d lines", len(lines))
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &d); err != nil {
		return d, r, fmt.Errorf("detail line: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return d, r, fmt.Errorf("result line: %w", err)
	}
	return d, r, nil
}
