package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
)

// sweepEEG and sweepECG time cold sweeps of the scenario's default
// 96-point space, the way the CLI's figure commands run them. The EEG
// sweep's time goes mostly to OMP reconstruction and the seizure
// detector; the ECG sweep's to block-OMP, with a nearly free quality
// gate and no detector to train. Neither touches serve.
func sweepEEG(c *runCtx) error { return sweepWorkload(c, eegOptions(c.seed)) }

func sweepECG(c *runCtx) error { return sweepWorkload(c, ecgOptions(c.seed)) }

// sweep runs one cold sweep: a fresh engine with a fresh cache over ev.
func sweep(ev dse.PointEvaluator, pts []core.DesignPoint) ([]core.Result, *dse.Sweep, time.Duration, error) {
	sw, err := dse.NewSweep(ev, dse.WithCache(dse.NewMemoryCache()))
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	rs, err := sw.Run(context.Background(), pts)
	return rs, sw, time.Since(start), err
}

// checkSweep counts a sweep's points and error rows and requires its
// rows to match every earlier sweep's.
func (c *runCtx) checkSweep(what string, rs []core.Result, want int) {
	c.attempted += want
	if len(rs) != want {
		c.problemf("%s returned %d rows for %d points", what, len(rs), want)
	}
	for _, r := range rs {
		if r.Err != nil {
			c.failed++
		}
	}
	c.agree(what, digestRows(resultRows(rs)))
}

// spotCheck evaluates two seed-chosen points alone, outside the engine:
// batching and caching must not change a row.
func (c *runCtx) spotCheck(ev *core.Evaluator, pts []core.DesignPoint, rs []core.Result) {
	rng := rand.New(rand.NewSource(c.seed))
	for k := 0; k < 2; k++ {
		i := rng.Intn(len(pts))
		if rowOf(ev.Evaluate(pts[i])).String() != rowOf(rs[i]).String() {
			c.problemf("point %s evaluated alone differs from its sweep row", pts[i])
		}
	}
}

func sweepWorkload(c *runCtx, opts experiments.Options) error {
	var b built
	if c.tr == nil {
		// An ECG set-up takes about 0.15 s, short enough for scheduling
		// jitter to show; repeating it for a second steadies its median.
		_ = repeat(setupReps, 1, func() error {
			start := time.Now()
			b = buildSuite(opts)
			c.setups = append(c.setups, time.Since(start).Seconds())
			return nil
		})
	} else {
		var err error
		if b, err = c.tracedSetups(opts); err != nil {
			return err
		}
	}
	pts := b.points()
	// The untimed warm-up builds the process-wide CS plans and scratch
	// pools; its rows are the reference every later sweep must reproduce.
	rs, _, _, err := sweep(b.ev, pts)
	if err != nil {
		return err
	}
	c.checkSweep("warm-up sweep", rs, len(pts))
	c.spotCheck(b.ev, pts, rs)
	if c.tr != nil {
		return c.traceSweeps(b, pts)
	}
	return repeat(minOps, c.seconds, func() error {
		rs, _, d, err := sweep(b.ev, pts)
		if err != nil {
			return err
		}
		c.checkSweep("timed sweep", rs, len(pts))
		c.ops = append(c.ops, ms(d))
		c.rates = append(c.rates, float64(len(pts))/d.Seconds())
		return nil
	})
}

// traceSweeps splits the run in two halves: untraced sweeps, which give
// the runtime counters and the throughput the trace overhead is judged
// against, then the same sweeps through the replay, which give the
// per-stage spans.
func (c *runCtx) traceSweeps(b built, pts []core.DesignPoint) error {
	half := c.seconds / 2
	var plain time.Duration
	plainSweeps := 0
	before := readRuntime()
	err := repeat(2, half, func() error {
		rs, _, d, err := sweep(b.ev, pts)
		if err != nil {
			return err
		}
		c.checkSweep("untraced sweep", rs, len(pts))
		plain += d
		plainSweeps++
		return nil
	})
	if err != nil {
		return err
	}
	c.runtimeLayers(before, readRuntime(), plainSweeps*len(pts))

	rep := newReplay(b.cfg, b.ev, c.tr)
	var traced time.Duration
	tracedSweeps := 0
	var last dse.Snapshot
	err = repeat(2, half, func() error {
		root := c.tr.start(c.tr.newTrace(), 0, "sweep")
		rep.under(root)
		rs, sw, d, err := sweep(rep, pts)
		c.tr.end(root)
		if err != nil {
			return err
		}
		c.checkSweep(fmt.Sprintf("traced sweep %d", tracedSweeps+1), rs, len(pts))
		traced += d
		tracedSweeps++
		last = sw.Metrics()
		return nil
	})
	if err != nil {
		return err
	}
	c.chainLayers(rep)
	c.dseLayers(last)
	ns := c.tr.sums()
	c.layers["dse.evaluator_busy_share"] = busyShare(ns["dse.batch"], traced)
	c.layers["trace.overhead"] = 1 - (float64(tracedSweeps)/traced.Seconds())/(float64(plainSweeps)/plain.Seconds())
	return nil
}
