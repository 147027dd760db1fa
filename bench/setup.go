package main

import (
	"runtime"
	"time"

	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/scenario"
	"efficsense/internal/tech"
)

// The workloads' suite options. The EEG detector trains on 40 records
// for 50 epochs instead of the CLI's 120 and 150, and every workload
// evaluates 8 records: at the defaults one EEG set-up takes about 9 s
// and one sweep about 5 s on a 2-core machine, which would not leave
// room for repeated set-ups and several timed operations per run.
func eegOptions(seed int64) experiments.Options {
	return experiments.Options{Scenario: "eeg-epilepsy", Seed: seed, Records: 8, TrainRecords: 40, Epochs: 50}
}

func ecgOptions(seed int64) experiments.Options {
	return experiments.Options{Scenario: "ecg-telemonitoring", Seed: seed, Records: 8}
}

// built is what one suite construction yields, as the workloads use it.
type built struct {
	opts experiments.Options // defaults applied
	scn  *scenario.Scenario
	ev   *core.Evaluator
	cfg  core.Config // the evaluator's configuration; set by buildTraced, which the replay needs
}

// points is the scenario's default design space (96 points for both
// registered scenarios).
func (b built) points() []core.DesignPoint { return b.scn.Space(b.opts.NoiseSteps).Points() }

// buildSuite is the sweep path's suite construction, as the CLI's
// figure commands run it.
func buildSuite(opts experiments.Options) built {
	s := experiments.NewSuite(opts)
	ev := s.Evaluator()
	return built{opts: s.Options(), scn: s.Scenario(), ev: ev}
}

// buildTraced repeats experiments.Suite's construction one layer call at
// a time, in the order Suite.init makes them, with a span around each.
func buildTraced(tr *tracer, opts experiments.Options) (built, error) {
	opts = experiments.NewSuite(opts).Options()
	scn, err := scenario.Lookup(opts.Scenario)
	if err != nil {
		return built{}, err
	}
	root := tr.start(tr.newTrace(), 0, "setup")
	s := tr.start(root.TraceID, root.SpanID, "setup.metric_build")
	var m core.Metric
	if scn.NewMetric != nil {
		m = scn.NewMetric(scenario.MetricConfig{
			Seed: opts.Seed, TrainRecords: opts.TrainRecords,
			WindowSeconds: opts.WindowSeconds, Epochs: opts.Epochs,
		})
	}
	tr.end(s)
	s = tr.start(root.TraceID, root.SpanID, "setup.synth")
	ds := scn.Synthesize(opts.Seed, opts.Records)
	tr.end(s)
	s = tr.start(root.TraceID, root.SpanID, "setup.evaluator_prep")
	cfg := scn.EvaluatorConfig()
	cfg.Tech = tech.GPDK045()
	cfg.Sys = tech.DefaultSystem()
	cfg.Dataset = ds
	cfg.Metric = m
	cfg.WindowSeconds = opts.WindowSeconds
	cfg.Seed = opts.Seed
	ev, err := core.NewEvaluator(cfg)
	tr.end(s)
	tr.end(root)
	return built{opts: opts, scn: scn, ev: ev, cfg: cfg}, err
}

// tracedSetups runs the traced construction setupReps times, reports the
// median time of each layer and returns the last build.
func (c *runCtx) tracedSetups(opts experiments.Options) (built, error) {
	var b built
	for i := 0; i < setupReps; i++ {
		var err error
		if b, err = buildTraced(c.tr, opts); err != nil {
			return b, err
		}
	}
	for _, name := range []string{"setup.synth", "setup.metric_build", "setup.evaluator_prep"} {
		c.layers[name+"_s"] = median(c.tr.seconds(name))
	}
	return b, nil
}

// chainLayers turns the replay's stage spans into self time per
// evaluated point, each stage's share of the stage total, the share of
// the replay's busy time the stages cover, and how many point-records
// each front-end simulation served.
func (c *runCtx) chainLayers(rep *replay) {
	points := float64(rep.points.Load())
	if points == 0 {
		return
	}
	ns := c.tr.sums()
	stages := 0.0
	for _, s := range chainStages {
		stages += ns[s]
	}
	for _, s := range chainStages {
		c.layers[s+"_ms"] = ns[s] / 1e6 / points
		if stages > 0 {
			c.layers[s+"_share"] = ns[s] / stages
		}
	}
	if ns["dse.batch"] > 0 {
		c.layers["stages.coverage"] = stages / ns["dse.batch"]
	}
	if fe := rep.frontEnds.Load(); fe > 0 {
		c.layers["chain.front_end_reuse"] = points * float64(len(rep.grids)) / float64(fe)
	}
}

// dseLayers reports one operation's engine counters.
func (c *runCtx) dseLayers(s dse.Snapshot) {
	c.layers["dse.batches"] = float64(s.Batches)
	if s.Batches > 0 {
		c.layers["dse.points_per_batch"] = float64(s.BatchPoints) / float64(s.Batches)
	}
	c.layers["dse.evaluated"] = float64(s.Evaluated)
	c.layers["dse.cache_hits"] = float64(s.CacheHits)
}

// busyShare is evaluator busy time over the CPU time the workers had:
// GOMAXPROCS (the engine's default worker count) times wall time.
func busyShare(busyNS float64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return busyNS / (float64(runtime.GOMAXPROCS(0)) * float64(wall))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
