package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/search"
	"efficsense/internal/serve"
)

// The paper's Fig 7b question — the least power at ≥ 98 % accuracy —
// asked of the 384-point space (32 noise steps) with a budget of 96
// evaluations.
const (
	searchQuery      = "min-power@accuracy>=0.98"
	searchBudget     = 96
	searchNoiseSteps = 32
)

var searchBody = []byte(fmt.Sprintf(`{"query":%q,"max_evaluations":%d,"space":{"noise_steps":%d}}`,
	searchQuery, searchBudget, searchNoiseSteps))

// searchEEG answers the query over HTTP, each repetition on a fresh
// stack so the search starts from a cold cache. Its evaluations arrive
// in small propose/observe rounds rather than 16-point sweep chunks.
func searchEEG(c *runCtx) error {
	opts := eegOptions(c.seed)
	if c.tr != nil {
		return c.traceSearch(opts)
	}
	return repeat(minOps, c.seconds, func() error {
		st, setup, err := startPrimed(opts)
		if err != nil {
			return err
		}
		d, js, err := searchOnce(st)
		st.stop()
		if err != nil {
			return err
		}
		c.setups = append(c.setups, setup)
		c.ops = append(c.ops, ms(d))
		c.rates = append(c.rates, float64(c.checkSearch(js))/d.Seconds())
		return nil
	})
}

// searchOnce submits the query and follows its event stream to the done
// event; the search time runs from the POST to that event.
func searchOnce(st *stack) (time.Duration, serve.JobStatus, error) {
	var js serve.JobStatus
	start := time.Now()
	code, body, err := st.post("/v1/search", searchBody)
	if err != nil {
		return 0, js, err
	}
	if code != http.StatusAccepted {
		return 0, js, fmt.Errorf("POST /v1/search: HTTP %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &js); err != nil {
		return 0, js, fmt.Errorf("search submission reply: %w", err)
	}
	resp, err := st.client.Get(st.base + js.EventsURL)
	if err != nil {
		return 0, js, err
	}
	done := false
	sc := bufio.NewScanner(resp.Body)
	for !done && sc.Scan() {
		done = sc.Text() == "event: done"
	}
	d := time.Since(start)
	_, _ = io.Copy(io.Discard, resp.Body) // the stream closes after the done event
	resp.Body.Close()
	if !done {
		return 0, js, fmt.Errorf("search %s: event stream ended before the done event", js.ID)
	}
	code, body, err = st.get(js.StatusURL)
	if err != nil {
		return 0, js, err
	}
	if code != http.StatusOK {
		return 0, js, fmt.Errorf("GET %s: HTTP %d: %s", js.StatusURL, code, body)
	}
	if err := json.Unmarshal(body, &js); err != nil {
		return 0, js, fmt.Errorf("search status: %w", err)
	}
	return d, js, nil
}

// checkSearch counts a search that did not complete cleanly as failed and
// requires every answer to match the first; it returns the evaluations
// the search spent.
func (c *runCtx) checkSearch(js serve.JobStatus) int {
	c.attempted++
	so := js.Search
	if js.State != string(serve.StateCompleted) || so == nil || so.Partial || so.Errors > 0 {
		c.failed++
		c.problemf("search %s ended %s (outcome %+v)", js.ID, js.State, so)
		return 0
	}
	var best *row
	if so.Best != nil {
		r := rowOfJSON(*so.Best)
		best = &r
	}
	front := make([]row, len(so.Front))
	for i, r := range so.Front {
		front[i] = rowOfJSON(r)
	}
	c.agree("search "+js.ID, digestSearch(so.Evaluations, best, front))
	return so.Evaluations
}

// checkOutcome is checkSearch for a search.Run called directly.
func (c *runCtx) checkOutcome(what string, out search.Outcome, err error) {
	c.attempted++
	if err != nil || out.Partial || out.Errors > 0 {
		c.failed++
		c.problemf("%s: partial %v, %d errors, err %v", what, out.Partial, out.Errors, err)
		return
	}
	var best *row
	if out.HaveBest {
		r := rowOf(out.Best)
		best = &r
	}
	c.agree(what, digestSearch(out.Evaluations, best, resultRows(out.Front)))
}

// timedEval is the engine a traced search drives, with a span around
// each round's evaluation; the replay records its batches under it.
type timedEval struct {
	sw   *dse.Sweep
	rep  *replay
	tr   *tracer
	root span
}

func (t *timedEval) EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result {
	s := t.tr.start(t.root.TraceID, t.root.SpanID, "search.eval")
	t.rep.under(s)
	rs := t.sw.EvaluateBatch(ctx, pts)
	t.tr.end(s)
	return rs
}

// traceSearch answers the query three ways: over HTTP (the job's total
// time), by calling search.Run directly on the evaluator (the same search
// without the job layer), and directly through the replay with a span
// per round and per stage. The job overhead is the first time minus the
// second; the trace overhead compares the second and the third.
func (c *runCtx) traceSearch(opts experiments.Options) error {
	b, err := c.tracedSetups(opts)
	if err != nil {
		return err
	}
	st, _, err := startPrimed(opts)
	if err != nil {
		return err
	}
	httpTime, js, err := searchOnce(st)
	st.stop()
	if err != nil {
		return err
	}
	c.checkSearch(js)

	spec, err := search.ParseQuery(searchQuery)
	if err != nil {
		return err
	}
	spec.MaxEvaluations = searchBudget
	space := b.scn.Space(b.opts.NoiseSteps)
	space.LNANoise = b.scn.Space(searchNoiseSteps).LNANoise
	ctx := context.Background()

	sw, err := dse.NewSweep(b.ev, dse.WithCache(dse.NewMemoryCache()))
	if err != nil {
		return err
	}
	before := readRuntime()
	start := time.Now()
	out, err := search.Run(ctx, search.Config{Space: space, Spec: spec, Fidelities: []search.Fidelity{{Name: "full", Eval: sw}}})
	plain := time.Since(start)
	c.runtimeLayers(before, readRuntime(), out.Evaluations)
	c.checkOutcome("direct search", out, err)

	rep := newReplay(b.cfg, b.ev, c.tr)
	swT, err := dse.NewSweep(rep, dse.WithCache(dse.NewMemoryCache()))
	if err != nil {
		return err
	}
	root := c.tr.start(c.tr.newTrace(), 0, "search")
	rounds := 0
	start = time.Now()
	out, err = search.Run(ctx, search.Config{
		Space: space, Spec: spec,
		Fidelities: []search.Fidelity{{Name: "full", Eval: &timedEval{sw: swT, rep: rep, tr: c.tr, root: root}}},
		OnProgress: func(search.Progress) { rounds++ },
	})
	traced := time.Since(start)
	c.tr.end(root)
	c.checkOutcome("traced search", out, err)

	c.chainLayers(rep)
	c.dseLayers(swT.Metrics())
	ns := c.tr.sums()
	c.layers["search.rounds"] = float64(rounds)
	if rounds > 0 {
		c.layers["search.points_per_round"] = float64(out.Evaluations) / float64(rounds)
	}
	c.layers["search.eval_busy_s"] = ns["search.eval"] / 1e9
	c.layers["search.strategy_self_s"] = traced.Seconds() - ns["search.eval"]/1e9
	c.layers["serve.search_job_overhead_s"] = httpTime.Seconds() - plain.Seconds()
	c.layers["dse.evaluator_busy_share"] = busyShare(ns["dse.batch"], traced)
	c.layers["trace.overhead"] = 1 - plain.Seconds()/traced.Seconds()
	return nil
}
