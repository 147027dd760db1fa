package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/scenario"
)

// newBenchServer wires the full middleware + handler stack (request-ID
// assignment, latency histograms, status counters) over an instant
// evaluator, so the benchmarks price the serving path itself.
func newBenchServer(b *testing.B) *Server {
	b.Helper()
	eval := &slowEval{}
	store := cache.New(1024)
	eng, err := dse.NewSweep(eval,
		dse.WithCache(store), dse.WithWorkers(2), dse.WithEvaluatorID("bench-eval"))
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := NewManager(ManagerConfig{
		Engines: func(opts experiments.Options) (Engine, error) { return eng, nil },
		Cache:   store,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return NewServer(mgr, nil)
}

// BenchmarkHealthz prices the fixed per-request overhead: middleware,
// histogram observation, counters, JSON encoding.
func BenchmarkHealthz(b *testing.B) {
	srv := newBenchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("GET", "/healthz", nil))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// BenchmarkEvaluateWarm prices a warm single-point /v1/evaluate through
// the production stack: it fills the store with the ECG default space
// in one batch request, then sends the space's points one body at a
// time through Server.ServeHTTP on a recorder, every one a cache hit.
func BenchmarkEvaluateWarm(b *testing.B) {
	srv := newProductionServer(b)
	scn, err := scenario.Lookup("ecg-telemonitoring")
	if err != nil {
		b.Fatal(err)
	}
	pts := scn.Space(0).Points()
	specs := make([]PointSpec, len(pts))
	for i, p := range pts {
		specs[i] = pointSpecOf(p)
	}
	fill, err := json.Marshal(EvaluateRequest{Points: specs})
	if err != nil {
		b.Fatal(err)
	}
	postTo(b, srv, fill)
	bodies := make([][]byte, len(specs))
	for i, spec := range specs {
		if bodies[i], err = json.Marshal(EvaluateRequest{Point: spec}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest("POST", "/v1/evaluate", bytes.NewReader(bodies[i%len(bodies)])))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}
