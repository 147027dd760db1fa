package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"efficsense/internal/core"
	"efficsense/internal/experiments"
	"efficsense/internal/scenario"
	"efficsense/internal/serve"
)

// warmSet is the evaluate-warm request mix: one single-point body per
// default design point, the exact reply each must get, and the
// seed-shuffled order the clients rotate through.
type warmSet struct {
	pts     []core.DesignPoint
	bodies  [][]byte
	expect  [][]byte
	replies []serve.ResultJSON
	order   []int
}

// evaluateWarm measures design tools calling /v1/evaluate and waiting
// for each reply: a closed loop of 2 clients on 2 keep-alive connections
// against a cache filled beforehand, so every request is a hit and the
// time goes to serve, the JSON wire and the engine's hit path, never to
// chain or cs.
func evaluateWarm(c *runCtx) error {
	opts := eegOptions(c.seed)
	var st *stack
	if c.tr == nil {
		for i := 0; i < setupReps; i++ {
			if st != nil {
				st.stop()
			}
			s, setup, err := startPrimed(opts)
			if err != nil {
				return err
			}
			st = s
			c.setups = append(c.setups, setup)
		}
	} else {
		if _, err := c.tracedSetups(opts); err != nil {
			return err
		}
		s, _, err := startPrimed(opts)
		if err != nil {
			return err
		}
		st = s
	}
	defer st.stop()
	opts = experiments.NewSuite(opts).Options()
	w, err := c.fillWarm(st, opts)
	if err != nil {
		return err
	}
	// An untimed second of the loop opens the connections and grows the
	// heap to its steady size before anything is measured.
	warmup := closedLoop(st, w, 1, nil)
	c.attempted += warmup.n
	c.failed += warmup.failed
	if c.tr != nil {
		return c.traceWarm(st, w, opts)
	}
	run := closedLoop(st, w, c.seconds, nil)
	c.rates = run.rates
	c.attempted += run.n
	c.failed += run.failed
	c.extra["ops"] = float64(run.n)
	c.extra["op_p50_ms"] = median(run.lat)
	c.extra["op_p99_ms"] = percentile(run.lat, 99)
	c.extra["op_p999_ms"] = percentile(run.lat, 99.9)
	c.extra["samples_beyond_p999"] = float64(beyond(run.lat, 99.9))
	return nil
}

// fillWarm evaluates the default space in one untimed batch request,
// then asks for every point once more and keeps each reply: it must be a
// cache hit carrying the batch row's exact values. The digest covers
// these warm rows.
func (c *runCtx) fillWarm(st *stack, opts experiments.Options) (*warmSet, error) {
	scn, err := scenario.Lookup(opts.Scenario)
	if err != nil {
		return nil, err
	}
	pts := built{opts: opts, scn: scn}.points()
	specs := make([]serve.PointSpec, len(pts))
	for i, p := range pts {
		specs[i] = serve.PointSpec{Arch: p.Arch.String(), Bits: p.Bits, LNANoise: p.LNANoise, M: p.M, CHold: p.CHold}
	}
	fill, err := json.Marshal(struct {
		Points []serve.PointSpec `json:"points"`
	}{specs})
	if err != nil {
		return nil, err
	}
	code, body, err := st.post("/v1/evaluate", fill)
	if err != nil {
		return nil, err
	}
	var batch serve.EvaluateBatchResponse
	if code != http.StatusOK {
		return nil, fmt.Errorf("fill request: HTTP %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		return nil, fmt.Errorf("fill reply: %w", err)
	}
	c.attempted += len(pts)
	if batch.Count != len(pts) || batch.Errors > 0 || batch.Partial {
		c.failed += max(batch.Errors, 1)
		return nil, fmt.Errorf("fill reply: %d rows, %d errors, partial %v", batch.Count, batch.Errors, batch.Partial)
	}

	w := &warmSet{pts: pts, order: rand.New(rand.NewSource(c.seed)).Perm(len(pts))}
	warm := make([]row, len(pts))
	for i, spec := range specs {
		b, err := json.Marshal(struct {
			Point serve.PointSpec `json:"point"`
		}{spec})
		if err != nil {
			return nil, err
		}
		code, reply, err := st.post("/v1/evaluate", b)
		if err != nil {
			return nil, err
		}
		var rj serve.ResultJSON
		if code != http.StatusOK || json.Unmarshal(reply, &rj) != nil {
			return nil, fmt.Errorf("warm request for %s: HTTP %d: %s", pts[i], code, reply)
		}
		warm[i] = rowOfJSON(rj)
		if !rj.Cached || warm[i].String() != rowOfJSON(batch.Results[i]).String() {
			c.problemf("warm reply for %s (cached %v) differs from its fill row", pts[i], rj.Cached)
		}
		w.bodies = append(w.bodies, b)
		w.expect = append(w.expect, reply)
		w.replies = append(w.replies, rj)
	}
	c.agree("warm rows", digestRows(warm))
	return w, nil
}

// loopRun is what one closed loop measured.
type loopRun struct {
	n      int       // requests sent
	lat    []float64 // round trips in milliseconds, a uniform sample of at most clients × keptPerClient
	rates  []float64 // replies completed in each whole second of the loop
	failed int       // an error, a non-200 reply, or a body other than the expected one
	wall   time.Duration
}

// keptPerClient bounds the round trips a client keeps, so the sample's
// memory is allocated before the timed loop and peak_rss_mb does not grow
// with throughput. 2 × 2¹⁵ samples leave about 65 beyond the p99.9.
const keptPerClient = 1 << 15

// closedLoop runs the clients for seconds: each sends its next request
// when the previous reply has arrived, starting half the rotation apart.
// With tr set, every request is also recorded as a span.
func closedLoop(st *stack, w *warmSet, seconds float64, tr *tracer) loopRun {
	var (
		mu     sync.Mutex
		run    = loopRun{lat: make([]float64, 0, clients*keptPerClient)}
		counts []int // replies completed per second since start
		wg     sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			local := make([]float64, 0, keptPerClient)
			rng := rand.New(rand.NewSource(int64(k)))
			sent := 0
			var done []int
			bad := 0
			for n := k * len(w.order) / clients; time.Now().Before(deadline); n++ {
				i := w.order[n%len(w.order)]
				var s span
				if tr != nil {
					s = tr.start(tr.newTrace(), 0, "evaluate.request")
				}
				t0 := time.Now()
				code, body, err := st.post("/v1/evaluate", w.bodies[i])
				rt := ms(time.Since(t0))
				// Reservoir sampling: every request so far is kept with
				// the same probability.
				if sent < keptPerClient {
					local = append(local, rt)
				} else if j := rng.Intn(sent + 1); j < keptPerClient {
					local[j] = rt
				}
				sent++
				sec := int(time.Since(start) / time.Second)
				for len(done) <= sec {
					done = append(done, 0)
				}
				done[sec]++
				if tr != nil {
					tr.end(s)
				}
				if err != nil || code != http.StatusOK || !bytes.Equal(body, w.expect[i]) {
					bad++
				}
			}
			mu.Lock()
			run.n += sent
			run.lat = append(run.lat, local...)
			run.failed += bad
			for len(counts) < len(done) {
				counts = append(counts, 0)
			}
			for i, n := range done {
				counts[i] += n
			}
			mu.Unlock()
		}(k)
	}
	wg.Wait()
	run.wall = time.Since(start)
	// Only seconds that ended by the deadline are whole; a loop shorter
	// than a second reports its overall rate.
	for i := 0; i < min(int(seconds), len(counts)); i++ {
		run.rates = append(run.rates, float64(counts[i]))
	}
	if len(run.rates) == 0 && run.n > 0 {
		run.rates = []float64{float64(run.n) / run.wall.Seconds()}
	}
	return run
}

// traceWarm splits the run in two closed-loop halves, untraced then with
// a span per request, reads the engine's counters across the untraced
// half, and peels the request path layer by layer.
func (c *runCtx) traceWarm(st *stack, w *warmSet, opts experiments.Options) error {
	eng, err := st.se.Engine(opts)
	if err != nil {
		return err
	}
	half := c.seconds / 2
	before, s0 := readRuntime(), eng.Metrics()
	plain := closedLoop(st, w, half, nil)
	s1 := eng.Metrics()
	c.runtimeLayers(before, readRuntime(), plain.n)
	traced := closedLoop(st, w, half, c.tr)
	c.attempted += plain.n + traced.n
	c.failed += plain.failed + traced.failed
	if plain.n == 0 || traced.n == 0 {
		return fmt.Errorf("closed loop completed no requests")
	}

	// Engine counters per request over the untraced half.
	n := float64(plain.n)
	c.layers["dse.batches"] = float64(s1.Batches-s0.Batches) / n
	if b := s1.Batches - s0.Batches; b > 0 {
		c.layers["dse.points_per_batch"] = float64(s1.BatchPoints-s0.BatchPoints) / float64(b)
	}
	c.layers["dse.evaluated"] = float64(s1.Evaluated-s0.Evaluated) / n
	c.layers["dse.cache_hits"] = float64(s1.CacheHits-s0.CacheHits) / n
	c.layers["dse.evaluator_busy_share"] = busyShare(
		float64(s1.MeanEval)*float64(s1.Evaluated)-float64(s0.MeanEval)*float64(s0.Evaluated),
		plain.wall)
	c.layers["trace.overhead"] = 1 - (float64(traced.n)/traced.wall.Seconds())/(n/plain.wall.Seconds())

	handler, err := c.peel(st, w, opts)
	if err != nil {
		return err
	}
	c.layers["wire.transport_us"] = median(plain.lat)*1e3 - handler
	return nil
}
