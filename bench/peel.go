package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/serve"
)

// peelPasses is how many times each layer is called per warm request.
const peelPasses = 10

// peel times the warm request path one layer at a time, in process and
// over the same requests the clients send: the server's handler (through
// httptest), the strict request decode, the indented reply encode,
// Manager.Evaluate, the engine resolution, a one-point engine run and
// the cache lookup. A layer's self time is its median minus the medians
// of the layers it calls. It returns the handler's median, which the
// client round trip is compared against.
func (c *runCtx) peel(st *stack, w *warmSet, opts experiments.Options) (float64, error) {
	eng, err := st.se.Engine(opts)
	if err != nil {
		return 0, err
	}
	sw, ok := eng.(*dse.Sweep)
	if !ok {
		return 0, fmt.Errorf("engine is a %T, not a *dse.Sweep", eng)
	}
	keys := make([]string, len(w.pts))
	for i, p := range w.pts {
		keys[i] = sw.EvaluatorID() + "/" + p.Key()
	}
	ctx := context.Background()
	us := map[string][]float64{}
	var trace uint64
	timed := func(name string, call func() bool) {
		s := c.tr.start(trace, 0, name)
		ok := call()
		s = c.tr.end(s)
		us[name] = append(us[name], float64(s.dur())/1e3)
		c.attempted++
		if !ok {
			c.failed++
		}
	}
	noHook := func(dse.Event) {}
	for pass := 0; pass < peelPasses; pass++ {
		for i, p := range w.pts {
			trace = c.tr.newTrace()
			req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(w.bodies[i]))
			rec := httptest.NewRecorder()
			timed("serve.handler", func() bool {
				st.h.ServeHTTP(rec, req)
				return rec.Code == http.StatusOK && bytes.Equal(rec.Body.Bytes(), w.expect[i])
			})
			timed("wire.decode", func() bool { return decodeStrict(w.bodies[i]) == nil })
			timed("wire.encode", func() bool {
				enc := json.NewEncoder(io.Discard)
				enc.SetIndent("", "  ")
				return enc.Encode(w.replies[i]) == nil
			})
			timed("serve.manager_evaluate", func() bool {
				_, cached, err := st.mgr.Evaluate(ctx, nil, p, 0)
				return err == nil && cached
			})
			timed("serve.engine_resolve", func() bool {
				_, err := st.se.Engine(opts)
				return err == nil
			})
			timed("dse.run_one", func() bool {
				rs, err := sw.RunWithHook(ctx, []core.DesignPoint{p}, noHook)
				return err == nil && len(rs) == 1 && rs[0].Err == nil
			})
			timed("cache.get", func() bool {
				_, hit := st.se.Cache().Get(keys[i])
				return hit
			})
		}
	}
	p50 := func(name string) float64 { return median(us[name]) }
	c.layers["cache.get_us"] = p50("cache.get")
	c.layers["dse.run_one_us"] = p50("dse.run_one") - p50("cache.get")
	c.layers["serve.engine_resolve_us"] = p50("serve.engine_resolve")
	c.layers["serve.manager_evaluate_us"] = p50("serve.manager_evaluate") - p50("dse.run_one") - p50("serve.engine_resolve")
	c.layers["wire.decode_us"] = p50("wire.decode")
	c.layers["wire.encode_us"] = p50("wire.encode")
	c.layers["serve.handler_us"] = p50("serve.handler") - p50("wire.decode") - p50("wire.encode") - p50("serve.manager_evaluate")
	return p50("serve.handler"), nil
}

// decodeStrict decodes a request body the way the server does: unknown
// fields and trailing data are errors.
func decodeStrict(body []byte) error {
	var req serve.EvaluateRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after the request")
	}
	return nil
}
