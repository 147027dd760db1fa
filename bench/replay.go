package main

import (
	"context"
	"sync"
	"sync/atomic"

	"efficsense/internal/chain"
	"efficsense/internal/core"
	"efficsense/internal/dsp"
	"efficsense/internal/eeg"
	"efficsense/internal/power"
)

// replay is the traced stand-in for *core.Evaluator. It re-executes
// core.Evaluator.EvaluateBatch from outside the core package, one public
// chain call at a time, and records a span around each call, so the
// stages of one evaluation can be timed without instrumenting the
// program. It implements Evaluate, EvaluateBatch and Fingerprint, so the
// sweep engine dispatches to it exactly as it does to the evaluator.
//
// The replay must stay bit-identical to the evaluator it mirrors
// (replay_test.go pins that, and every traced run compares digests);
// otherwise the trace would describe a different program.
type replay struct {
	ev     *core.Evaluator // fingerprint, and the path for architectures the replay does not mirror
	cfg    core.Config     // the evaluator's configuration, defaults applied
	metric core.Metric
	common chain.Common
	grids  [][]float64
	refs   [][]float64
	labels []eeg.Class

	scratch sync.Pool // *replayScratch, one per concurrent batch
	tr      *tracer
	op      atomic.Pointer[span] // the span batches are recorded under

	points    atomic.Int64 // design points evaluated
	frontEnds atomic.Int64 // AmplifySession + EncodeSession calls
}

type replayScratch struct {
	sess *chain.EvalSession
	rows [][]float64
}

func (sc *replayScratch) row(i int) []float64 {
	for len(sc.rows) <= i {
		sc.rows = append(sc.rows, nil)
	}
	return sc.rows[i]
}

// newReplay mirrors core.NewEvaluator: cfg is the configuration ev was
// built from.
func newReplay(cfg core.Config, ev *core.Evaluator, tr *tracer) *replay {
	if cfg.NPhi <= 0 {
		cfg.NPhi = 384
	}
	if cfg.Sparsity <= 0 {
		cfg.Sparsity = 2
	}
	if cfg.SimOversample < 2 {
		cfg.SimOversample = 4
	}
	if cfg.Metric == nil && cfg.Detector != nil {
		cfg.Metric = core.DetectorMetric{Detector: cfg.Detector}
	}
	r := &replay{
		ev:     ev,
		cfg:    cfg,
		metric: cfg.Metric,
		common: chain.Common{
			Tech:          cfg.Tech,
			Sys:           cfg.Sys,
			InputPeak:     cfg.InputPeak,
			SimOversample: cfg.SimOversample,
			Seed:          cfg.Seed,
		},
		tr: tr,
	}
	r.scratch.New = func() any {
		return &replayScratch{sess: chain.NewEvalSession(cfg.Seed)}
	}
	gridRate := r.common.GridRate()
	for _, rec := range cfg.Dataset.Records {
		grid := dsp.Resample(rec.Samples, rec.Rate, gridRate)
		r.grids = append(r.grids, grid)
		r.refs = append(r.refs, chain.ReferenceGrid(r.common, grid))
		r.labels = append(r.labels, rec.Label)
	}
	return r
}

// under makes later batches record their spans as children of s.
func (r *replay) under(s span) { r.op.Store(&s) }

// Fingerprint is the mirrored evaluator's, so the engine's cache keys
// are the ones the untraced program uses.
func (r *replay) Fingerprint() string { return r.ev.Fingerprint() }

// Evaluate is a batch of one, as in core.
func (r *replay) Evaluate(p core.DesignPoint) core.Result {
	return r.EvaluateBatch(context.Background(), []core.DesignPoint{p})[0]
}

// stageLog buffers one batch's stage spans, so recording them takes the
// tracer's lock once per batch.
type stageLog struct {
	tr     *tracer
	parent span
	t0     int64
	spans  []span
}

func (l *stageLog) begin() { l.t0 = l.tr.now() }

func (l *stageLog) done(name string) {
	s := l.tr.span(l.parent.TraceID, l.parent.SpanID, name, l.t0)
	s.EndNS = l.tr.now()
	l.spans = append(l.spans, s)
}

// EvaluateBatch mirrors core.Evaluator.EvaluateBatch.
func (r *replay) EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result {
	var parent span
	if p := r.op.Load(); p != nil {
		parent = *p
	}
	batch := r.tr.start(parent.TraceID, parent.SpanID, "dse.batch")
	l := &stageLog{tr: r.tr, parent: batch}
	out := make([]core.Result, len(pts))
	sc := r.scratch.Get().(*replayScratch)
	var order []core.DesignPoint
	groups := map[core.DesignPoint][]int{}
	for i, p := range pts {
		k := p.GroupKey()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		idxs := groups[k]
		if err := ctx.Err(); err != nil {
			for _, i := range idxs {
				out[i] = core.Result{Point: pts[i], Err: err}
			}
			continue
		}
		switch k.Arch {
		case core.ArchBaseline:
			r.baselineGroup(l, sc, pts, idxs, out)
		case core.ArchCS:
			r.csGroup(l, sc, pts, idxs, out)
		default:
			// The digital and active CS variants have no session form; the
			// benchmark's spaces never contain them.
			for _, i := range idxs {
				out[i] = r.ev.Evaluate(pts[i])
			}
		}
	}
	r.scratch.Put(sc)
	r.points.Add(int64(len(pts)))
	r.tr.add(l.spans...)
	r.tr.end(batch)
	return out
}

type accum struct {
	res    core.Result
	snrSum float64
	rate   float64
	waves  [][]float64
}

func (r *replay) newAccums(pts []core.DesignPoint, idxs []int) ([]*accum, int) {
	rowsPer := 1
	if r.metric != nil {
		rowsPer = len(r.grids)
	}
	accs := make([]*accum, len(idxs))
	for j, i := range idxs {
		a := &accum{res: core.Result{Point: pts[i], Power: power.Breakdown{}}}
		if r.metric != nil {
			a.waves = make([][]float64, len(r.grids))
		}
		accs[j] = a
	}
	return accs, rowsPer
}

// add is core's per-record accumulation: refer the output to electrode
// scale, score SNR against the reference, sum the power breakdown.
func (r *replay) add(a *accum, ri int, o chain.Output) {
	a.rate = o.Rate
	if o.Gain > 0 {
		for j := range o.Samples {
			o.Samples[j] /= o.Gain
		}
	}
	if a.waves != nil {
		a.waves[ri] = o.Samples
	}
	n := len(o.Samples)
	ref := r.refs[ri]
	if len(ref) < n {
		n = len(ref)
	}
	a.snrSum += dsp.SNRVersusReference(ref[:n], o.Samples[:n])
	for c, v := range o.Power {
		a.res.Power[c] += v
	}
	a.res.AreaCaps = o.AreaCaps
}

func (r *replay) finish(l *stageLog, accs []*accum, idxs []int, out []core.Result) {
	nRec := float64(len(r.grids))
	for j, a := range accs {
		res := a.res
		for c := range res.Power {
			res.Power[c] /= nRec
		}
		res.TotalPower = res.Power.Total()
		res.MeanSNRdB = a.snrSum / nRec
		if r.metric != nil {
			win := 0
			if r.cfg.WindowSeconds > 0 {
				win = int(r.cfg.WindowSeconds * a.rate)
			}
			l.begin()
			res.Accuracy, res.Confusion = r.metric.Score(core.MetricContext{
				Waves: a.waves, Refs: r.refs, Rate: a.rate, Labels: r.labels, WindowSamples: win,
			})
			l.done("metric.score")
		}
		out[idxs[j]] = res
	}
}

func (r *replay) baselineGroup(l *stageLog, sc *replayScratch, pts []core.DesignPoint, idxs []int, out []core.Result) {
	l.begin()
	chains := make([]*chain.Baseline, len(idxs))
	for j, i := range idxs {
		common := r.common
		common.Bits = pts[i].Bits
		common.LNANoise = pts[i].LNANoise
		chains[j] = chain.NewBaseline(common)
	}
	l.done("chain.build")
	accs, rowsPer := r.newAccums(pts, idxs)
	for ri, grid := range r.grids {
		l.begin()
		amplified := chains[0].AmplifySession(sc.sess, grid)
		l.done("chain.lna")
		r.frontEnds.Add(1)
		for j, c := range chains {
			slot := j*rowsPer + ri%rowsPer
			l.begin()
			o := c.DigitizeSession(sc.sess, amplified, sc.row(slot))
			l.done("chain.digitize")
			sc.rows[slot] = o.Samples
			l.begin()
			r.add(accs[j], ri, o)
			l.done("quality.snr")
		}
	}
	r.finish(l, accs, idxs, out)
}

func (r *replay) csGroup(l *stageLog, sc *replayScratch, pts []core.DesignPoint, idxs []int, out []core.Result) {
	l.begin()
	chains := make([]*chain.CSChain, len(idxs))
	for j, i := range idxs {
		common := r.common
		common.Bits = pts[i].Bits
		common.LNANoise = pts[i].LNANoise
		chains[j] = chain.NewCS(chain.CSConfig{
			Common:      common,
			M:           pts[i].M,
			NPhi:        r.cfg.NPhi,
			Sparsity:    r.cfg.Sparsity,
			CHold:       pts[i].CHold,
			ReconMethod: r.cfg.ReconMethod,
		})
	}
	l.done("chain.build")
	accs, rowsPer := r.newAccums(pts, idxs)
	for ri, grid := range r.grids {
		l.begin()
		y := chains[0].EncodeSession(sc.sess, grid)
		l.done("chain.encode")
		r.frontEnds.Add(1)
		for j, c := range chains {
			slot := j*rowsPer + ri%rowsPer
			l.begin()
			o := c.FinishSession(sc.sess, y, sc.row(slot))
			l.done("chain.finish")
			sc.rows[slot] = o.Samples
			l.begin()
			r.add(accs[j], ri, o)
			l.done("quality.snr")
		}
	}
	r.finish(l, accs, idxs, out)
}
