package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
)

// infEval scores every point with an infinite SNR, as dsp.ratioDB does
// for a record whose error power is exactly zero.
type infEval struct{ slowEval }

func (e *infEval) Evaluate(p core.DesignPoint) core.Result {
	r := e.slowEval.Evaluate(p)
	r.MeanSNRdB = math.Inf(1)
	return r
}

// TestEvaluateNonFiniteAnswers500: a reply encoding/json cannot render
// (a non-finite float) answers 500 with the v1 error envelope on both
// arms of /v1/evaluate and through writeJSON, never a 200 with an
// empty body.
func TestEvaluateNonFiniteAnswers500(t *testing.T) {
	eng, err := dse.NewSweep(&infEval{}, dse.WithCache(cache.New(16)), dse.WithEvaluatorID("inf-eval"))
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(ManagerConfig{Engines: func(experiments.Options) (Engine, error) { return eng, nil }})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr, nil))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
		ts.Close()
	})

	for _, body := range []string{
		`{"point":{"arch":"baseline","bits":8,"lna_noise":1e-6}}`,
		`{"points":[{"arch":"baseline","bits":8,"lna_noise":1e-6},{"arch":"baseline","bits":6,"lna_noise":1e-6}]}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/evaluate", body)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500", body, resp.StatusCode)
		}
		if d := decodeErrorEnvelope(t, resp); d.Code != CodeInternal || !strings.Contains(d.Message, "+Inf") {
			t.Errorf("%s: envelope %+v, want code %q naming +Inf", body, d, CodeInternal)
		}
	}

	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, ResultJSON{SNRdB: math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("writeJSON of +Inf: status %d, want 500", rec.Code)
	}
	if d := decodeErrorEnvelope(t, rec.Result()); d.Code != CodeInternal {
		t.Errorf("writeJSON of +Inf: envelope %+v", d)
	}
}

// TestEvaluateCountsOneHitOrMissPerRequest pins the accounting of the
// single-point path: a cold request adds exactly one miss to the store
// and one evaluation to the engine, a warm one exactly one hit to each,
// and every request one evaluation to the manager. A
// cold request whose deadline expires answers 504 but still caches its
// row.
func TestEvaluateCountsOneHitOrMissPerRequest(t *testing.T) {
	store := cache.New(64)
	ts, mgr, _ := newTestServerWithCache(t, 20*time.Millisecond, ManagerConfig{}, store)
	eng, err := mgr.cfg.Engines(mgr.cfg.Defaults)
	if err != nil {
		t.Fatal(err)
	}
	body := func(bits int) string {
		return fmt.Sprintf(`{"point":{"arch":"baseline","bits":%d,"lna_noise":1e-6}}`, bits)
	}
	post := func(b string, want int, cached bool) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/evaluate", b)
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", b, resp.StatusCode, want)
		}
		if want != http.StatusOK {
			return
		}
		var rj ResultJSON
		if err := json.NewDecoder(resp.Body).Decode(&rj); err != nil {
			t.Fatal(err)
		}
		if rj.Cached != cached {
			t.Fatalf("%s: cached %v, want %v", b, rj.Cached, cached)
		}
	}
	type counts struct{ hits, misses, evaluated, engineHits, evaluations int64 }
	read := func() counts {
		st, snap := store.Stats(), eng.Metrics()
		return counts{st.Hits, st.Misses, snap.Evaluated, snap.CacheHits, mgr.Counters().Evaluations}
	}
	step := func(what string, do func(), want counts) {
		t.Helper()
		before := read()
		do()
		after := read()
		got := counts{after.hits - before.hits, after.misses - before.misses,
			after.evaluated - before.evaluated, after.engineHits - before.engineHits,
			after.evaluations - before.evaluations}
		if got != want {
			t.Fatalf("%s: counted %+v, want %+v", what, got, want)
		}
	}
	const n = 4
	cold, warm := counts{0, 1, 1, 0, 1}, counts{1, 0, 0, 1, 1}
	for bits := 4; bits < 4+n; bits++ {
		step("cold request", func() { post(body(bits), http.StatusOK, false) }, cold)
	}
	for bits := 4; bits < 4+n; bits++ {
		step("warm request", func() { post(body(bits), http.StatusOK, true) }, warm)
	}

	late := `{"point":{"arch":"baseline","bits":12,"lna_noise":1e-6},"timeout_ms":1}`
	step("cold request past its deadline", func() { post(late, http.StatusGatewayTimeout, false) }, cold)
	step("its repeat", func() { post(late, http.StatusOK, true) }, warm)
}

// newProductionServer starts the production stack: SuiteEngines over a
// one-record ECG suite (no detector to train) behind the full
// middleware.
func newProductionServer(tb testing.TB) *Server {
	tb.Helper()
	se := NewSuiteEngines(0)
	mgr, err := NewManager(ManagerConfig{
		Defaults: experiments.Options{Scenario: "ecg-telemonitoring", Seed: 1, Records: 1},
		Engines:  se.Engine,
		Cache:    se.Cache(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	})
	return NewServer(mgr, nil)
}

// postTo sends body to /v1/evaluate through srv on a recorder.
func postTo(tb testing.TB, srv *Server, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		tb.Fatalf("POST /v1/evaluate %s: status %d: %s", body, w.Code, w.Body)
	}
	return w
}

// replyWriter is a reusable ResponseWriter, so an allocation count sees
// only the server's own allocations.
type replyWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *replyWriter) Header() http.Header         { return w.h }
func (w *replyWriter) WriteHeader(code int)        { w.code = code }
func (w *replyWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

func (w *replyWriter) reset() {
	clear(w.h)
	w.code = http.StatusOK
	w.body.Reset()
}

// raceBuild reports a -race build. There sync.Pool drops a share of
// what is put back and the runtime allocates once more per request, so
// a warm request averages 24.5 allocations instead of 23.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestEvaluateWarmRequestAllocs bounds a warm single-point request
// through the production stack (middleware, strict decode,
// SuiteEngines, the engine's hit path, the reply appender) at its 23
// heap allocations (the path it replaced, a one-point run under a
// deadline timer rendered through encoding/json, made 74). Building a
// suite to resolve the engine (+1), formatting its key (+2), arming a
// deadline timer (+4), reading and stamping a second request identity
// (+3), starting a one-point run or rendering through encoding/json
// each exceeds the bound.
func TestEvaluateWarmRequestAllocs(t *testing.T) {
	srv := newProductionServer(t)
	body := []byte(`{"point":{"arch":"baseline","bits":8,"lna_noise":6e-6}}`)
	postTo(t, srv, body)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/evaluate", rd)
	w := &replyWriter{h: http.Header{}}
	w.body.Grow(4096)
	serve := func() {
		rd.Reset(body)
		w.reset()
		srv.ServeHTTP(w, req)
	}
	serve()
	if w.code != http.StatusOK || !strings.Contains(w.body.String(), `"cached": true`) {
		t.Fatalf("warm request: status %d: %s", w.code, w.body.String())
	}
	bound := 23.0
	if raceBuild() {
		bound = 24
	}
	if avg := testing.AllocsPerRun(200, serve); avg > bound {
		t.Fatalf("a warm request allocates %.0f times, want at most %.0f", avg, bound)
	}
}
