package core

import (
	"context"

	"efficsense/internal/chain"
	"efficsense/internal/dsp"
	"efficsense/internal/power"
)

// evalScratch is the per-worker reusable state of the batch path: the
// chain evaluation session (noise banks and waveform buffers) plus the
// retained output rows the detector scores at the end of each point.
type evalScratch struct {
	sess *chain.EvalSession
	rows [][]float64
}

func (sc *evalScratch) row(i int) []float64 {
	for len(sc.rows) <= i {
		sc.rows = append(sc.rows, nil)
	}
	return sc.rows[i]
}

// pointAccum accumulates one design point's per-record outputs into the
// figures of interest.
type pointAccum struct {
	res    Result
	snrSum float64
	rate   float64
	waves  [][]float64 // retained for the quality metric; nil without one
}

func (a *pointAccum) add(e *Evaluator, ri int, o chain.Output) {
	a.rate = o.Rate
	// Refer the output back to electrode scale for the detector (the
	// chain gain is a known design value, not information).
	if o.Gain > 0 {
		for j := range o.Samples {
			o.Samples[j] /= o.Gain
		}
	}
	if a.waves != nil {
		a.waves[ri] = o.Samples
	}
	n := len(o.Samples)
	ref := e.refs[ri]
	if len(ref) < n {
		n = len(ref)
	}
	a.snrSum += dsp.SNRVersusReference(ref[:n], o.Samples[:n])
	for c, v := range o.Power {
		a.res.Power[c] += v
	}
	a.res.AreaCaps = o.AreaCaps
}

// EvaluateBatch scores a batch of design points over every record and
// returns one Result per point, in input order. Results are bit-identical
// to calling Evaluate per point; the batch form exists so work that is
// invariant across points — the amplified waveform of a noise level, the
// encoded measurements of a CS geometry, the session noise banks and
// scratch buffers — is paid for once per group instead of once per point.
//
// Points sharing (Arch, LNANoise, M, CHold) are grouped internally; input
// order is otherwise irrelevant. A cancelled ctx marks the not-yet-
// evaluated points with Err = ctx.Err() (the PR 5 degradation contract:
// per-point error rows, never a lost batch). Safe for concurrent use.
func (e *Evaluator) EvaluateBatch(ctx context.Context, pts []DesignPoint) []Result {
	out := make([]Result, len(pts))
	if len(pts) == 0 {
		return out
	}
	sc := e.scratch.Get().(*evalScratch)
	defer e.scratch.Put(sc)
	var order []DesignPoint
	groups := map[DesignPoint][]int{}
	for i, p := range pts {
		// Points in a group differ only in ADC resolution (see
		// DesignPoint.GroupKey), so they share every record's amplified or
		// encoded waveform.
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
				out[i] = Result{Point: pts[i], Err: err}
			}
			continue
		}
		e.evalGroup(sc, pts, idxs, out)
	}
	return out
}

// newAccums prepares one accumulator per group member. Only the quality
// metric needs every record's waveform at once; without a metric a
// single output row per point is reused across records.
func (e *Evaluator) newAccums(pts []DesignPoint, idxs []int) ([]*pointAccum, int) {
	rowsPer := 1
	if e.metric != nil {
		rowsPer = len(e.grids)
	}
	accs := make([]*pointAccum, len(idxs))
	for j, i := range idxs {
		a := &pointAccum{res: Result{Point: pts[i], Power: power.Breakdown{}}}
		if e.metric != nil {
			a.waves = make([][]float64, len(e.grids))
		}
		accs[j] = a
	}
	return accs, rowsPer
}

func (e *Evaluator) finishAccums(accs []*pointAccum, idxs []int, out []Result) {
	nRec := float64(len(e.grids))
	for j, a := range accs {
		res := a.res
		for c := range res.Power {
			res.Power[c] /= nRec
		}
		res.TotalPower = res.Power.Total()
		res.MeanSNRdB = a.snrSum / nRec
		if e.metric != nil {
			win := 0
			if e.cfg.WindowSeconds > 0 {
				win = int(e.cfg.WindowSeconds * a.rate)
			}
			res.Accuracy, res.Confusion = e.metric.Score(MetricContext{
				Waves: a.waves, Refs: e.refs, Rate: a.rate, Labels: e.labels, WindowSamples: win,
			})
		}
		out[idxs[j]] = res
	}
}

// evalGroup evaluates the points pts[idxs] of one GroupKey group. They
// differ only in ADC resolution, which no chain's front half depends on,
// so the lead's front half serves every member on each record; each
// member's back half runs its own stateful converter.
func (e *Evaluator) evalGroup(sc *evalScratch, pts []DesignPoint, idxs []int, out []Result) {
	var front frontHalf
	backs := make([]backHalf, len(idxs))
	for j, i := range idxs {
		f, b := newHalves(e.cfg, pts[i])
		if j == 0 {
			front = f
		}
		backs[j] = b
	}
	accs, rowsPer := e.newAccums(pts, idxs)
	for ri, grid := range e.grids {
		shared := front(sc.sess, grid)
		for j, back := range backs {
			slot := j*rowsPer + ri%rowsPer
			o := back(sc.sess, shared, sc.row(slot))
			sc.rows[slot] = o.Samples
			accs[j].add(e, ri, o)
		}
	}
	e.finishAccums(accs, idxs, out)
}
