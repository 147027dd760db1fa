package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/dse"
	"efficsense/internal/dsp"
	"efficsense/internal/experiments"
	"efficsense/internal/obs"
)

// logSink is a slog.Handler that records every log line (message, level,
// resolved attributes) so tests can assert what the serving path logged.
type logSink struct {
	mu   sync.Mutex
	recs []sunkRecord
}

type sunkRecord struct {
	msg   string
	level slog.Level
	attrs map[string]string
}

type sinkHandler struct {
	sink *logSink
	base []slog.Attr
}

func (h sinkHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h sinkHandler) Handle(_ context.Context, r slog.Record) error {
	attrs := make(map[string]string, r.NumAttrs()+len(h.base))
	for _, a := range h.base {
		attrs[a.Key] = a.Value.String()
	}
	r.Attrs(func(a slog.Attr) bool {
		attrs[a.Key] = a.Value.String()
		return true
	})
	h.sink.mu.Lock()
	defer h.sink.mu.Unlock()
	h.sink.recs = append(h.sink.recs, sunkRecord{msg: r.Message, level: r.Level, attrs: attrs})
	return nil
}

func (h sinkHandler) WithAttrs(as []slog.Attr) slog.Handler {
	base := append(append([]slog.Attr{}, h.base...), as...)
	return sinkHandler{sink: h.sink, base: base}
}

func (h sinkHandler) WithGroup(string) slog.Handler { return h }

// find returns the first record with the given message whose attributes
// include all of want, polling briefly: lifecycle records are written by
// job goroutines and may land just after the status API turns terminal.
func (s *logSink) find(t *testing.T, msg string, want map[string]string) sunkRecord {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
	scan:
		for _, r := range s.recs {
			if r.msg != msg {
				continue
			}
			for k, v := range want {
				if r.attrs[k] != v {
					continue scan
				}
			}
			s.mu.Unlock()
			return r
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("no %q record with attrs %v", msg, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// newLoggedServer is newTestServer with a log sink wired into both the
// HTTP layer and the job manager, so request and lifecycle records can
// be asserted together.
func newLoggedServer(t *testing.T, delay time.Duration, cfg ManagerConfig) (*httptest.Server, *Manager, *logSink) {
	t.Helper()
	sink := &logSink{}
	logger := slog.New(sinkHandler{sink: sink})
	eval := &slowEval{delay: delay}
	store := cache.New(128)
	eng, err := dse.NewSweep(eval,
		dse.WithCache(store), dse.WithWorkers(2), dse.WithEvaluatorID("test-eval"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engines = func(opts experiments.Options) (Engine, error) { return eng, nil }
	cfg.Cache = store
	cfg.Log = logger
	mgr, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr, logger))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
		ts.Close()
	})
	return ts, mgr, sink
}

// decodeErrorEnvelope parses the v1 error body and fails on anything
// that is not exactly {"error": {"code", "message"}}.
func decodeErrorEnvelope(t *testing.T, resp *http.Response) ErrorDetail {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env errorJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("error body is not the v1 envelope: %v\n%s", err, raw)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error envelope missing code or message: %s", raw)
	}
	return env.Error
}

// TestErrorContract drives every stateless error path through the full
// stack and pins the triple the v1 contract promises: HTTP status,
// machine-readable code, and the caller's X-Request-ID echoed back.
func TestErrorContract(t *testing.T) {
	ts, _, _ := newLoggedServer(t, 20*time.Millisecond, ManagerConfig{})
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 ErrorCode
	}{
		{"negative timeout", "POST", "/v1/evaluate",
			`{"point":{"arch":"baseline","bits":8,"lna_noise":1e-6},"timeout_ms":-5}`,
			400, CodeBadRequest},
		{"trailing garbage", "POST", "/v1/evaluate",
			`{"point":{"arch":"baseline","bits":8,"lna_noise":1e-6}} trailing`,
			400, CodeBadRequest},
		{"second JSON value", "POST", "/v1/evaluate",
			`{"point":{"arch":"baseline","bits":8,"lna_noise":1e-6}}{"x":1}`,
			400, CodeBadRequest},
		{"unknown field", "POST", "/v1/evaluate", `{"pont":{}}`, 400, CodeBadRequest},
		{"bad architecture", "POST", "/v1/sweeps",
			`{"space":{"architectures":["warp"]}}`, 400, CodeBadRequest},
		{"unknown job status", "GET", "/v1/sweeps/sweep-404", "", 404, CodeNotFound},
		{"unknown job results", "GET", "/v1/sweeps/sweep-404/results", "", 404, CodeNotFound},
		{"unknown job cancel", "DELETE", "/v1/sweeps/sweep-404", "", 404, CodeNotFound},
		{"bad state filter", "GET", "/v1/sweeps?state=bogus", "", 400, CodeBadRequest},
		{"deadline", "POST", "/v1/evaluate",
			`{"point":{"arch":"baseline","bits":9,"lna_noise":3e-6},"timeout_ms":1}`,
			504, CodeDeadline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			const rid = "err-contract-rid"
			req.Header.Set("X-Request-ID", rid)
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.wantStatus {
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, raw)
			}
			if got := resp.Header.Get("X-Request-ID"); got != rid {
				t.Errorf("X-Request-ID echo: got %q, want %q", got, rid)
			}
			detail := decodeErrorEnvelope(t, resp)
			if detail.Code != tc.wantCode {
				t.Errorf("error code %q, want %q (message %q)", detail.Code, tc.wantCode, detail.Message)
			}
		})
	}
}

// TestErrorContractStatefulCodes covers the codes that need the server
// in a particular state: conflict (results of a running job), saturated
// (all slots busy) and shutting_down (draining).
func TestErrorContractStatefulCodes(t *testing.T) {
	ts, mgr, _ := newLoggedServer(t, 30*time.Millisecond, ManagerConfig{MaxConcurrentJobs: 1})

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	if st.ID == "" {
		t.Fatal("submit returned no job id")
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("results of running job: %d, want 409", resp.StatusCode)
	}
	if d := decodeErrorEnvelope(t, resp); d.Code != CodeConflict {
		t.Errorf("conflict code %q", d.Code)
	}

	resp = postJSON(t, ts.URL+"/v1/sweeps", smallSweep)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit with full slots: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if d := decodeErrorEnvelope(t, resp); d.Code != CodeSaturated {
		t.Errorf("saturated code %q", d.Code)
	}

	drained := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
		close(drained)
	}()
	for !mgr.Draining() {
		time.Sleep(time.Millisecond)
	}
	resp = postJSON(t, ts.URL+"/v1/sweeps", smallSweep)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	// A draining daemon is usually restarting: the 503 must tell the
	// client when retrying is worthwhile, exactly like the 429s do.
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("503 while draining carries Retry-After %q, want a positive integer",
			resp.Header.Get("Retry-After"))
	}
	if d := decodeErrorEnvelope(t, resp); d.Code != CodeShuttingDown {
		t.Errorf("shutting_down code %q", d.Code)
	}
	<-drained
}

// TestRequestIDPropagation is the end-to-end request-ID check: a
// caller-supplied X-Request-ID is echoed on the response, stored on the
// job (status + listing), and stamped on every HTTP and job lifecycle
// log record the request produced.
func TestRequestIDPropagation(t *testing.T) {
	ts, _, sink := newLoggedServer(t, 0, ManagerConfig{})

	const rid = "client-rid-42"
	req, err := http.NewRequest("POST", ts.URL+"/v1/sweeps", strings.NewReader(smallSweep))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", rid)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Fatalf("X-Request-ID echo: got %q, want %q", got, rid)
	}
	st := decodeStatus(t, resp)
	if st.RequestID != rid {
		t.Fatalf("submit status request_id %q, want %q", st.RequestID, rid)
	}

	st = waitTerminal(t, ts.URL, st.ID)
	if st.RequestID != rid {
		t.Fatalf("terminal status request_id %q, want %q", st.RequestID, rid)
	}

	// The listing row carries the same request_id.
	lresp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list JobListJSON
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if list.Count != 1 || len(list.Jobs) != 1 {
		t.Fatalf("listing: %+v", list)
	}
	if list.Jobs[0].ID != st.ID || list.Jobs[0].RequestID != rid {
		t.Fatalf("listing row: %+v", list.Jobs[0])
	}

	// Every log record of the request and the job lifecycle carries it.
	want := map[string]string{"request_id": rid}
	sink.find(t, "http request", want)
	accepted := sink.find(t, "sweep accepted", want)
	if accepted.attrs["job_id"] != st.ID {
		t.Errorf("sweep accepted job_id %q, want %q", accepted.attrs["job_id"], st.ID)
	}
	sink.find(t, "sweep started", want)
	finished := sink.find(t, "sweep finished", want)
	if finished.attrs["state"] != string(StateCompleted) {
		t.Errorf("sweep finished state %q", finished.attrs["state"])
	}

	// An unsafe caller ID (embedded whitespace) is replaced with a fresh
	// valid one rather than reflected.
	req, err = http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "two words")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if got == "two words" || !obs.ValidRequestID(got) {
		t.Fatalf("invalid caller ID handling: echoed %q", got)
	}
}

// TestMetricsHistogramExposition checks the two new histogram families
// appear in /metrics with the Prometheus shape: per-endpoint le-labelled
// buckets, a +Inf bucket, and _sum/_count series.
func TestMetricsHistogramExposition(t *testing.T) {
	ts, _, _ := newLoggedServer(t, 0, ManagerConfig{})

	// One timed request and one real evaluation so both families have data.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/evaluate", `{"point":{"arch":"baseline","bits":8,"lna_noise":1e-6}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d", resp.StatusCode)
	}
	resp.Body.Close()

	exp := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		"# TYPE efficsense_http_request_duration_seconds histogram",
		`efficsense_http_request_duration_seconds_bucket{endpoint="GET /healthz",le="0.001"}`,
		`efficsense_http_request_duration_seconds_bucket{endpoint="GET /healthz",le="+Inf"}`,
		`efficsense_http_request_duration_seconds_bucket{endpoint="POST /v1/evaluate",le="+Inf"}`,
		`efficsense_http_request_duration_seconds_sum{endpoint="GET /healthz"}`,
		`efficsense_http_request_duration_seconds_count{endpoint="GET /healthz"}`,
		"# TYPE efficsense_eval_duration_seconds histogram",
		`efficsense_eval_duration_seconds_bucket{le="0.0001"}`,
		`efficsense_eval_duration_seconds_bucket{le="+Inf"}`,
		"efficsense_eval_duration_seconds_sum",
		"efficsense_eval_duration_seconds_count",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if n := metricValue(t, exp, "efficsense_eval_duration_seconds_count"); n < 1 {
		t.Errorf("eval histogram count %g after a real evaluation", n)
	}

	// The healthz bucket counts are cumulative: +Inf carries at least one
	// observation and every bucket line parses as an integer.
	var infCount float64
	for _, line := range strings.Split(exp, "\n") {
		if strings.HasPrefix(line, `efficsense_http_request_duration_seconds_bucket{endpoint="GET /healthz",le="+Inf"} `) {
			if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%f", &infCount); err != nil {
				t.Fatalf("unparsable bucket line %q", line)
			}
		}
	}
	if infCount < 1 {
		t.Errorf("healthz +Inf bucket %g, want >= 1", infCount)
	}
}

// TestWireSurfaceSeriesAndStatusKeys pins what an unarmed server
// exposes after one sweep and one /v1/evaluate: the /metrics families
// (their # TYPE lines, in order) and the keys of a finished sweep
// status's metrics block. A series or key that comes or goes changes a
// list here.
func TestWireSurfaceSeriesAndStatusKeys(t *testing.T) {
	ts, _, _ := newTestServer(t, 0, ManagerConfig{})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	waitTerminal(t, ts.URL, st.ID)
	resp := postJSON(t, ts.URL+"/v1/evaluate", `{"point":{"arch":"baseline","bits":8,"lna_noise":1e-6}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d", resp.StatusCode)
	}
	resp.Body.Close()

	var types []string
	for _, line := range strings.Split(fetchMetrics(t, ts.URL), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	wantTypes := []string{
		"efficsense_uptime_seconds gauge",
		"efficsense_http_requests_total counter",
		"efficsense_http_request_duration_seconds histogram",
		"efficsense_eval_duration_seconds histogram",
		"efficsense_jobs_submitted_total counter",
		"efficsense_jobs_rejected_total counter",
		"efficsense_jobs_completed_total counter",
		"efficsense_jobs_cancelled_total counter",
		"efficsense_jobs_failed_total counter",
		"efficsense_jobs_running gauge",
		"efficsense_jobs_tracked gauge",
		"efficsense_evaluate_requests_total counter",
		"efficsense_sse_streams_active gauge",
		"efficsense_search_jobs_submitted_total counter",
		"efficsense_search_jobs_completed_total counter",
		"efficsense_search_jobs_cancelled_total counter",
		"efficsense_search_jobs_failed_total counter",
		"efficsense_search_evaluations_total counter",
		"efficsense_search_front_size gauge",
		"efficsense_search_budget_remaining gauge",
		"efficsense_engine_evaluations_total counter",
		"efficsense_engine_cache_hits_total counter",
		"efficsense_engine_dedup_total counter",
		"efficsense_engine_panics_total counter",
		"efficsense_engine_mean_eval_seconds gauge",
		"efficsense_engine_batches_total counter",
		"efficsense_engine_batch_points_total counter",
		"efficsense_batch_size_points histogram",
		"efficsense_batch_duration_seconds histogram",
		"efficsense_wal_replayed_jobs_total counter",
		"efficsense_wal_resumed_jobs_total counter",
		"efficsense_wal_replayed_rows_total counter",
		"efficsense_wal_discarded_rows_total counter",
		"efficsense_wal_appends_total counter",
		"efficsense_wal_fsyncs_total counter",
		"efficsense_wal_dropped_records_total counter",
		"efficsense_wal_size_bytes gauge",
		"efficsense_cache_entries gauge",
		"efficsense_cache_capacity gauge",
		"efficsense_cache_hits_total counter",
		"efficsense_cache_misses_total counter",
		"efficsense_cache_evictions_total counter",
		"efficsense_cache_singleflight_shared_total counter",
		"efficsense_cache_flight_panics_total counter",
	}
	if !slices.Equal(types, wantTypes) {
		t.Errorf("/metrics families:\n%s\nwant:\n%s", strings.Join(types, "\n"), strings.Join(wantTypes, "\n"))
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		State   string                     `json:"state"`
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.State != string(StateCompleted) {
		t.Fatalf("sweep state %q", status.State)
	}
	var keys []string
	for k := range status.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	wantKeys := []string{
		"cache_hits", "deduped", "eta_ms", "evaluated", "mean_eval_ms", "p50_eval_ms", "p90_eval_ms", "p99_eval_ms", "panics", "throughput_pts_per_s",
	}
	if !slices.Equal(keys, wantKeys) {
		t.Errorf("status metrics keys %q, want %q", keys, wantKeys)
	}
}

// TestStatusReportsEvalQuantiles checks GET /v1/sweeps/{id} surfaces
// the engine's p50/p90/p99 evaluation-duration quantiles once the sweep
// has scored real points.
func TestStatusReportsEvalQuantiles(t *testing.T) {
	ts, _, _ := newLoggedServer(t, 3*time.Millisecond, ManagerConfig{})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	st = waitTerminal(t, ts.URL, st.ID)
	if st.State != string(StateCompleted) {
		t.Fatalf("sweep state %q", st.State)
	}
	if st.Metrics == nil {
		t.Fatal("terminal status has no metrics")
	}
	m := st.Metrics
	if m.P50EvalMS <= 0 || m.P90EvalMS < m.P50EvalMS || m.P99EvalMS < m.P90EvalMS {
		t.Fatalf("quantiles not ordered/positive: p50=%g p90=%g p99=%g",
			m.P50EvalMS, m.P90EvalMS, m.P99EvalMS)
	}
	// The evaluator sleeps 3ms per point; the quantile interpolates
	// within its bucket, so the estimate may undershoot but never below
	// the containing (2.5ms, 5ms] bucket's lower edge.
	if m.P50EvalMS < 2.5 {
		t.Errorf("p50 %gms below the containing bucket's 2.5ms lower edge", m.P50EvalMS)
	}
}

// TestJobListingAndStateFilter covers GET /v1/sweeps: newest-first
// ordering, the state filter, and an empty filter result.
func TestJobListingAndStateFilter(t *testing.T) {
	ts, _, _ := newLoggedServer(t, 0, ManagerConfig{})

	first := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	waitTerminal(t, ts.URL, first.ID)
	second := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	waitTerminal(t, ts.URL, second.ID)

	fetch := func(query string) JobListJSON {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/sweeps" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list%s status %d", query, resp.StatusCode)
		}
		var list JobListJSON
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		return list
	}

	list := fetch("")
	if list.Count != 2 || len(list.Jobs) != 2 {
		t.Fatalf("full listing: %+v", list)
	}
	if list.Jobs[0].ID != second.ID || list.Jobs[1].ID != first.ID {
		t.Fatalf("listing not newest-first: %s then %s", list.Jobs[0].ID, list.Jobs[1].ID)
	}
	for _, row := range list.Jobs {
		if row.State != string(StateCompleted) || row.StatusURL == "" {
			t.Fatalf("listing row: %+v", row)
		}
	}

	if got := fetch("?state=completed"); got.Count != 2 {
		t.Fatalf("state=completed count %d", got.Count)
	}
	if got := fetch("?state=running"); got.Count != 0 || got.Jobs == nil {
		t.Fatalf("state=running: %+v (jobs must be [] not null)", got)
	}
}

// TestOpsHandlerAndPublicIsolation checks the debug surface: the ops
// handler serves pprof/expvar/build info, and none of it is mounted on
// the public API server.
func TestOpsHandlerAndPublicIsolation(t *testing.T) {
	ops := httptest.NewServer(NewOpsHandler())
	defer ops.Close()

	for _, path := range []string{"/", "/debug/pprof/", "/debug/vars", "/debug/build"} {
		resp, err := http.Get(ops.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("ops %s: status %d", path, resp.StatusCode)
		}
		if len(body) == 0 {
			t.Errorf("ops %s: empty body", path)
		}
	}

	resp, err := http.Get(ops.URL + "/debug/build")
	if err != nil {
		t.Fatal(err)
	}
	var bi struct {
		Kernels string `json:"kernels"`
	}
	err = json.NewDecoder(resp.Body).Decode(&bi)
	resp.Body.Close()
	if err != nil || bi.Kernels != dsp.Kernels() {
		t.Errorf("build info kernels %q (%v), want %q", bi.Kernels, err, dsp.Kernels())
	}

	resp, err = http.Get(ops.URL + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("goroutine profile: status %d body %q…", resp.StatusCode, firstN(string(body), 60))
	}

	ts, _, _ := newLoggedServer(t, 0, ManagerConfig{})
	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/debug/build"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("public %s: status %d, want 404 (debug surface leaked)", path, resp.StatusCode)
		}
	}
}

func firstN(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}
