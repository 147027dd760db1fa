package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
)

// slowEval is a deterministic stand-in for the real evaluator: fast,
// tunable latency, every design point admissible for the fronts. It
// is also where the chaos tests inject faults: fails is the number of
// calls still to fail with errInjected (each call spends one, so it
// goes negative once spent), and panicOn, when set, picks the points
// whose evaluation panics.
type slowEval struct {
	delay   time.Duration
	calls   atomic.Int64
	fails   atomic.Int64
	panicOn func(core.DesignPoint) bool
}

// errInjected is the error the fakes' scheduled faults carry.
var errInjected = errors.New("injected fault")

func (e *slowEval) Evaluate(p core.DesignPoint) core.Result {
	e.calls.Add(1)
	if e.panicOn != nil && e.panicOn(p) {
		panic(fmt.Sprintf("injected panic at %s", p))
	}
	if e.fails.Add(-1) >= 0 {
		return core.Result{Point: p, Err: errInjected}
	}
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	return core.Result{
		Point:      p,
		MeanSNRdB:  3 * float64(p.Bits),
		Accuracy:   0.99,
		TotalPower: p.LNANoise * 1e3 * float64(p.Bits),
		AreaCaps:   float64(64 * p.Bits),
	}
}

// newTestServer wires a real dse.Sweep over slowEval behind the full
// HTTP stack, memoising through a store of the daemon's default bound,
// so the tests exercise exactly the production cache path and no test
// sweep evicts a row. Every option set resolves to the same engine, so
// the warm cache behaviour is production's.
func newTestServer(t *testing.T, delay time.Duration, cfg ManagerConfig) (*httptest.Server, *Manager, *slowEval) {
	t.Helper()
	return newTestServerWithCache(t, delay, cfg, cache.New(DefaultCacheEntries))
}

// newTestServerWithCache is newTestServer with the memoisation store
// chosen by the caller (a tiny capacity, say, to force evictions).
func newTestServerWithCache(t *testing.T, delay time.Duration, cfg ManagerConfig, store *cache.LRU) (*httptest.Server, *Manager, *slowEval) {
	t.Helper()
	eval := &slowEval{delay: delay}
	eng, err := dse.NewSweep(eval,
		dse.WithCache(store), dse.WithWorkers(2), dse.WithEvaluatorID("test-eval"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engines = func(opts experiments.Options) (Engine, error) { return eng, nil }
	cfg.Cache = store
	ts, mgr := startServer(t, cfg)
	return ts, mgr, eval
}

// startServer serves a Manager built from cfg over HTTP for the rest of
// the test; cleanup shuts the manager down, then the server.
func startServer(t *testing.T, cfg ManagerConfig) (*httptest.Server, *Manager) {
	t.Helper()
	mgr, err := NewManager(cfg)
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
	return ts, mgr
}

// metricValue extracts the value of an unlabelled metric from a
// Prometheus text exposition.
func metricValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: unparsable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s absent from exposition:\n%s", name, exposition)
	return 0
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls the status endpoint until the job finishes.
func waitTerminal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeStatus(t, resp)
		if JobState(st.State).Terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return JobStatus{}
}

type sseEvent struct {
	id   int
	name string
	data map[string]interface{}
}

// readSSE consumes an SSE stream to EOF (the server closes terminal
// streams itself) and parses the frames.
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	return readSSEN(t, body, -1)
}

// readSSEN is readSSE that stops reading after n events (n < 0: at
// EOF). A client that closes the body then has dropped its stream.
func readSSEN(t *testing.T, body io.Reader, n int) []sseEvent {
	t.Helper()
	var (
		out []sseEvent
		cur sseEvent
	)
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.name != "" || cur.data != nil {
				out = append(out, cur)
				if len(out) == n {
					return out
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = map[string]interface{}{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// smallSweep is 2 bits × 3 noise points of baseline = 6 design points.
const smallSweep = `{"space":{"architectures":["baseline"],"bits":[4,6],"noise_steps":3}}`

// TestSweepLifecycleAndWarmCache is the acceptance e2e: submit a sweep,
// watch monotonic SSE progress, poll to completion, fetch the fronts,
// then run the identical sweep again and observe it complete warm via
// the shared cache, with the hits visible in /metrics.
func TestSweepLifecycleAndWarmCache(t *testing.T) {
	ts, _, eval := newTestServer(t, time.Millisecond, ManagerConfig{})

	resp := postJSON(t, ts.URL+"/v1/sweeps", smallSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/sweeps/") {
		t.Fatalf("Location %q", loc)
	}
	st := decodeStatus(t, resp)
	if st.ID == "" || st.Progress.Total != 6 {
		t.Fatalf("submit body: %+v", st)
	}

	// Stream events to EOF; the server ends the stream once terminal.
	evResp, err := http.Get(ts.URL + st.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	if ct := evResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	events := readSSE(t, evResp.Body)
	evResp.Body.Close()

	var (
		lastDone float64
		points   int
		sawDone  bool
	)
	for _, ev := range events {
		switch ev.name {
		case "point":
			points++
			done := ev.data["done"].(float64)
			if done <= lastDone {
				t.Fatalf("SSE progress not monotonic: %v after %v", done, lastDone)
			}
			lastDone = done
		case "done":
			sawDone = true
			if ev.data["state"] != "completed" || ev.data["partial"] != false {
				t.Fatalf("done event: %v", ev.data)
			}
		}
	}
	if points != 6 || lastDone != 6 || !sawDone {
		t.Fatalf("events: %d point events, lastDone %v, done=%v", points, lastDone, sawDone)
	}
	for i, ev := range events {
		if ev.id != i+1 {
			t.Fatalf("SSE ids not sequential: %d at index %d", ev.id, i)
		}
	}

	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != string(StateCompleted) || final.Result == nil {
		t.Fatalf("final status: %+v", final)
	}
	if final.Result.Partial || final.Result.Points != 6 || len(final.Result.Fronts["snr"].Baseline) == 0 {
		t.Fatalf("outcome: %+v", final.Result)
	}
	if final.Result.Optima["baseline"] == nil {
		t.Fatal("no baseline optimum")
	}

	// The result cloud streams as NDJSON, one line per point.
	rResp, err := http.Get(ts.URL + final.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rResp.Body)
	rResp.Body.Close()
	if lines := bytes.Count(body, []byte("\n")); lines != 6 {
		t.Fatalf("results NDJSON lines %d:\n%s", lines, body)
	}

	// Second identical sweep: every point served from the shared cache.
	calls := eval.calls.Load()
	resp2 := postJSON(t, ts.URL+"/v1/sweeps", smallSweep)
	st2 := decodeStatus(t, resp2)
	final2 := waitTerminal(t, ts.URL, st2.ID)
	if final2.State != string(StateCompleted) {
		t.Fatalf("second sweep state %s", final2.State)
	}
	if eval.calls.Load() != calls {
		t.Fatalf("warm sweep re-evaluated: %d calls, want %d", eval.calls.Load(), calls)
	}
	if final2.Metrics == nil || final2.Metrics.CacheHits < 6 {
		t.Fatalf("engine metrics after warm sweep: %+v", final2.Metrics)
	}

	// The hits are visible in the Prometheus exposition.
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mResp.Body)
	mResp.Body.Close()
	for _, want := range []string{
		"efficsense_engine_cache_hits_total 6",
		"efficsense_cache_hits_total 6",
		"efficsense_jobs_completed_total 2",
		"efficsense_cache_entries 6",
		"efficsense_cache_capacity 65536",
		"efficsense_cache_evictions_total 0",
		`efficsense_http_requests_total{code="202"} 2`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestEvaluateCacheBoundAndEvictions drives a stream of distinct
// /v1/evaluate requests past the cache's entry cap and checks the bound
// is a hard invariant — occupancy never exceeds capacity, however many
// distinct points flow through — while the evictions that enforce it
// surface in the Prometheus exposition.
func TestEvaluateCacheBoundAndEvictions(t *testing.T) {
	store := cache.New(4)
	ts, _, eval := newTestServerWithCache(t, 0, ManagerConfig{}, store)

	const distinct = 10
	for i := 0; i < distinct; i++ {
		body := fmt.Sprintf(`{"point":{"arch":"baseline","bits":8,"lna_noise":%g}}`, float64(i+1)*1e-6)
		resp := postJSON(t, ts.URL+"/v1/evaluate", body)
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("evaluate %d status %d: %s", i, resp.StatusCode, raw)
		}
		resp.Body.Close()
		if n := store.Len(); n > store.Cap() {
			t.Fatalf("after %d distinct points the cache holds %d entries, above its cap %d",
				i+1, n, store.Cap())
		}
	}
	if got := eval.calls.Load(); got != distinct {
		t.Fatalf("distinct points must all evaluate: %d calls, want %d", got, distinct)
	}
	// 10 inserts into 4 slots: at least 6 must have been evicted (the
	// exact count depends on how the keys shard, never the bound).
	if st := store.Stats(); st.Evictions < distinct-4 {
		t.Fatalf("evictions %d, want >= %d (stats %+v)", st.Evictions, distinct-4, st)
	}

	metrics := fetchMetrics(t, ts.URL)
	if !strings.Contains(metrics, "efficsense_cache_capacity 4") {
		t.Errorf("/metrics missing capacity gauge:\n%s", metrics)
	}
	if ev := metricValue(t, metrics, "efficsense_cache_evictions_total"); ev < distinct-4 {
		t.Errorf("exposed evictions %g, want >= %d", ev, distinct-4)
	}
	if entries := metricValue(t, metrics, "efficsense_cache_entries"); entries > 4 {
		t.Errorf("exposed occupancy %g above cap 4", entries)
	}
}

// TestConcurrentIdenticalSweepsSingleflight is the de-duplication
// acceptance test: K identical sweeps racing through one engine incur
// exactly one underlying evaluation per design point — every other
// request settles from the cache or by joining the in-flight
// computation — and the split shows up in /metrics.
func TestConcurrentIdenticalSweepsSingleflight(t *testing.T) {
	const k = 3
	ts, mgr, eval := newTestServer(t, 20*time.Millisecond, ManagerConfig{MaxConcurrentJobs: k})

	ids := make(chan string, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(smallSweep))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit status %d", resp.StatusCode)
				return
			}
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids <- st.ID
		}()
	}
	wg.Wait()
	close(ids)
	if t.Failed() {
		t.FailNow()
	}
	for id := range ids {
		if st := waitTerminal(t, ts.URL, id); st.State != string(StateCompleted) {
			t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		}
	}

	if got := eval.calls.Load(); got != 6 {
		t.Fatalf("6 distinct points across %d identical sweeps cost %d evaluations, want exactly 6", k, got)
	}
	c := mgr.Counters()
	if c.EngineCacheHits+c.EngineDeduped != (k-1)*6 {
		t.Fatalf("hits %d + deduped %d, want %d together",
			c.EngineCacheHits, c.EngineDeduped, (k-1)*6)
	}

	metrics := fetchMetrics(t, ts.URL)
	hits := metricValue(t, metrics, "efficsense_engine_cache_hits_total")
	dedup := metricValue(t, metrics, "efficsense_engine_dedup_total")
	if hits+dedup != (k-1)*6 {
		t.Errorf("exposed hits %g + dedup %g, want %d together", hits, dedup, (k-1)*6)
	}
}

// TestSSEResumesFromLastEventID reconnects mid-stream and checks the
// buffer replays exactly the missed suffix.
func TestSSEResumesFromLastEventID(t *testing.T) {
	ts, _, _ := newTestServer(t, time.Millisecond, ManagerConfig{})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	waitTerminal(t, ts.URL, st.ID)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+st.EventsURL, nil)
	req.Header.Set("Last-Event-ID", "3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	// Full stream is state + 6 points + done = 8 events; after id 3 we
	// get 5, starting at id 4.
	if len(events) != 5 || events[0].id != 4 || events[len(events)-1].name != "done" {
		t.Fatalf("resume replay: %d events, first id %d", len(events), events[0].id)
	}
}

// TestCancelStopsJobPromptly covers the DELETE path: the job stops well
// before the full sweep would finish and reports partial results.
func TestCancelStopsJobPromptly(t *testing.T) {
	ts, _, _ := newTestServer(t, 30*time.Millisecond, ManagerConfig{})
	// 3 bits × 8 noise = 24 points × 30ms / 2 workers ≈ 360ms of work.
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))

	// Wait until at least one point completed so cancellation is mid-run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur := decodeStatus(t, resp); cur.Progress.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	resp.Body.Close()

	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != string(StateCancelled) {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	if final.Result == nil || !final.Result.Partial {
		t.Fatalf("cancelled job should carry a partial outcome: %+v", final.Result)
	}
	if final.Result.Points == 0 || final.Result.Points >= final.Result.Total {
		t.Fatalf("partial points %d of %d", final.Result.Points, final.Result.Total)
	}
	// Cancelling a finished job is a harmless no-op.
	resp2, err := http.DefaultClient.Do(req.Clone(context.Background()))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("re-cancel status %d", resp2.StatusCode)
	}
	resp2.Body.Close()
}

// noiseGateEval evaluates like slowEval but blocks the points whose
// LNANoise is gateNoise until its gate closes: a job over such a point
// holds its slot for exactly as long as a test needs.
type noiseGateEval struct {
	slowEval
	gate      chan struct{}
	gateNoise float64
}

func (e *noiseGateEval) Evaluate(p core.DesignPoint) core.Result {
	if p.LNANoise == e.gateNoise {
		<-e.gate
	}
	return e.slowEval.Evaluate(p)
}

// TestSaturationReturns429 holds the single job slot with a gated sweep
// and checks the backpressure contract: a sweep or a search submitted
// meanwhile answers 429 saturated with a Retry-After hint, while a
// /v1/evaluate of another point — the priority lane, which never takes
// a slot — answers 200. Once the slot frees, a submission is accepted.
func TestSaturationReturns429(t *testing.T) {
	eval := &noiseGateEval{gate: make(chan struct{}), gateNoise: 99}
	release := sync.OnceFunc(func() { close(eval.gate) })
	defer release()
	ts, mgr := newDurableServer(t, nil, eval, ManagerConfig{MaxConcurrentJobs: 1})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4],"lna_noise":[99]}}`))

	for i, sub := range []struct{ path, body string }{
		{"/v1/sweeps", smallSweep},
		{"/v1/search", smallSearch},
	} {
		resp := postJSON(t, ts.URL+sub.path, sub.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated %s status %d", sub.path, resp.StatusCode)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("Retry-After %q", resp.Header.Get("Retry-After"))
		}
		if d := decodeErrorEnvelope(t, resp); d.Code != CodeSaturated {
			t.Fatalf("saturated %s code %q", sub.path, d.Code)
		}
		if got := mgr.Counters().Rejected; got != int64(i+1) {
			t.Fatalf("rejected counter %d, want %d", got, i+1)
		}
	}

	resp := postJSON(t, ts.URL+"/v1/evaluate", `{"point":{"arch":"baseline","bits":8,"lna_noise":1e-6}}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate while every slot is busy: status %d, want 200", resp.StatusCode)
	}
	if job, err := mgr.Job(st.ID); err != nil || job.State().Terminal() {
		t.Fatalf("the gated sweep no longer holds its slot (%v)", err)
	}

	release()
	if fin := waitTerminal(t, ts.URL, st.ID); fin.State != string(StateCompleted) {
		t.Fatalf("gated sweep: %+v", fin)
	}
	resp = postJSON(t, ts.URL+"/v1/sweeps", smallSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission after the slot freed: status %d", resp.StatusCode)
	}
	waitTerminal(t, ts.URL, decodeStatus(t, resp).ID)
}

// TestEvaluateSyncAndWarm covers the synchronous endpoint: validation,
// the cached flag on a repeat, and the deadline → 504 mapping.
func TestEvaluateSyncAndWarm(t *testing.T) {
	ts, _, _ := newTestServer(t, 20*time.Millisecond, ManagerConfig{})
	body := `{"point":{"arch":"cs","bits":8,"lna_noise":2e-6,"m":100}}`

	resp := postJSON(t, ts.URL+"/v1/evaluate", body)
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("evaluate status %d: %s", resp.StatusCode, raw)
	}
	var rj ResultJSON
	if err := json.NewDecoder(resp.Body).Decode(&rj); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rj.SNRdB != 24 || rj.Cached {
		t.Fatalf("first evaluation: %+v", rj)
	}

	resp = postJSON(t, ts.URL+"/v1/evaluate", body)
	var rj2 ResultJSON
	if err := json.NewDecoder(resp.Body).Decode(&rj2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !rj2.Cached || rj2.SNRdB != rj.SNRdB {
		t.Fatalf("repeat evaluation should be cached: %+v", rj2)
	}

	// An impossible deadline maps to 504 (the point is cold: different bits).
	resp = postJSON(t, ts.URL+"/v1/evaluate",
		`{"point":{"arch":"cs","bits":9,"lna_noise":2e-6,"m":100},"timeout_ms":1}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline status %d", resp.StatusCode)
	}
}

// TestRequestValidation walks the 400/404/409 edges.
func TestRequestValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, 0, ManagerConfig{MaxSweepPoints: 5})
	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/evaluate", `{"point":{"arch":"warp","bits":8,"lna_noise":1e-6}}`, 400},
		{"POST", "/v1/evaluate", `{"point":{"arch":"cs","bits":0,"lna_noise":1e-6}}`, 400},
		{"POST", "/v1/evaluate", `{"point":{"arch":"cs","bits":8,"lna_noise":1e-6}}`, 400}, // missing m
		{"POST", "/v1/evaluate", `{"pont":{}}`, 400},                                       // unknown field
		{"POST", "/v1/sweeps", `{"space":{"architectures":["warp"]}}`, 400},
		{"POST", "/v1/sweeps", smallSweep, 400}, // 6 points > MaxSweepPoints 5
		{"GET", "/v1/sweeps/sweep-99", "", 404},
		{"GET", "/v1/sweeps/sweep-99/events", "", 404},
		{"GET", "/v1/sweeps/sweep-99/results", "", 404},
		{"DELETE", "/v1/sweeps/sweep-99", "", 404},
	}
	for _, c := range cases {
		req, _ := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if c.body != "" {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.want {
			raw, _ := io.ReadAll(resp.Body)
			t.Errorf("%s %s → %d, want %d (%s)", c.method, c.path, resp.StatusCode, c.want, raw)
		}
		resp.Body.Close()
	}
}

// TestResultsConflictWhileRunning: the NDJSON stream is only available
// once the job is terminal.
func TestResultsConflictWhileRunning(t *testing.T) {
	ts, mgr, _ := newTestServer(t, 30*time.Millisecond, ManagerConfig{})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
	resp, err := http.Get(ts.URL + st.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("results of a running job: %d, want 409", resp.StatusCode)
	}
	if _, err := mgr.Cancel(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, ts.URL, st.ID)
}

// getStatus reads a job's status from its status URL.
func getStatus(t *testing.T, base string, st JobStatus) JobStatus {
	t.Helper()
	resp, err := http.Get(base + st.StatusURL)
	if err != nil {
		t.Fatal(err)
	}
	return decodeStatus(t, resp)
}

// twoPointBatch is a batch /v1/evaluate body of two points no sweep in
// these tests covers, so it runs on the shared engine.
const twoPointBatch = `{"points":[{"arch":"baseline","bits":9,"lna_noise":1e-6},
	{"arch":"baseline","bits":10,"lna_noise":1e-6}]}`

// TestFinishedJobWindowHoldsStill: a finished sweep's
// throughput_pts_per_s is its points over its own run time and its
// eta_ms is 0, and both read the same 300 ms later and after a batch
// /v1/evaluate on the same engine.
func TestFinishedJobWindowHoldsStill(t *testing.T) {
	ts, _, _ := newTestServer(t, 2*time.Millisecond, ManagerConfig{})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
	final := waitTerminal(t, ts.URL, st.ID)
	m := final.Metrics
	if final.State != string(StateCompleted) || m == nil || final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatalf("finished sweep status: %+v", final)
	}
	want := float64(final.Progress.Done) / final.FinishedAt.Sub(*final.StartedAt).Seconds()
	if math.Abs(m.Throughput-want) > 1e-3*want || m.ETAMS != 0 {
		t.Fatalf("finished sweep: throughput %g (want %g from its own run), eta %g ms (want 0)",
			m.Throughput, want, m.ETAMS)
	}
	time.Sleep(300 * time.Millisecond)
	if got := getStatus(t, ts.URL, st).Metrics; got.Throughput != m.Throughput || got.ETAMS != m.ETAMS {
		t.Fatalf("300 ms later: throughput %g, eta %g ms; want %g, %g", got.Throughput, got.ETAMS, m.Throughput, m.ETAMS)
	}
	if br := decodeBatch(t, postJSON(t, ts.URL+"/v1/evaluate", twoPointBatch)); br.Count != 2 || br.Errors != 0 {
		t.Fatalf("batch evaluation: %+v", br)
	}
	if got := getStatus(t, ts.URL, st).Metrics; got.Throughput != m.Throughput || got.ETAMS != m.ETAMS {
		t.Fatalf("after a batch evaluation: throughput %g, eta %g ms; want %g, %g", got.Throughput, got.ETAMS, m.Throughput, m.ETAMS)
	}
}

// TestRunningJobETAIsItsOwn: while a sweep runs and a batch evaluation
// hits its engine, its eta_ms is its own remaining points at its own
// rate, so throughput × ETA is the points it has left.
func TestRunningJobETAIsItsOwn(t *testing.T) {
	ts, _, _ := newTestServer(t, 50*time.Millisecond, ManagerConfig{})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
	t.Cleanup(func() {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+st.StatusURL, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	})
	for deadline := time.Now().Add(5 * time.Second); getStatus(t, ts.URL, st).Progress.Done == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no point of the sweep completed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if br := decodeBatch(t, postJSON(t, ts.URL+"/v1/evaluate", twoPointBatch)); br.Count != 2 || br.Errors != 0 {
		t.Fatalf("batch evaluation: %+v", br)
	}
	cur := getStatus(t, ts.URL, st)
	m, left := cur.Metrics, float64(cur.Progress.Total-cur.Progress.Done)
	if cur.State != string(StateRunning) || m == nil || left <= 0 {
		t.Fatalf("sweep no longer running mid-test: %+v", cur)
	}
	if m.ETAMS <= 0 || math.Abs(m.Throughput*m.ETAMS/1e3-left) > 1e-6*left {
		t.Fatalf("running sweep: throughput %g × eta %g ms ≠ its %g points left", m.Throughput, m.ETAMS, left)
	}
}

// TestShutdownDrainsAndRejects: draining flips /healthz, rejects new
// work, and a shutdown deadline cancels in-flight jobs into the
// cancelled state.
func TestShutdownDrainsAndRejects(t *testing.T) {
	ts, mgr, _ := newTestServer(t, 30*time.Millisecond, ManagerConfig{})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("impatient shutdown returned %v", err)
	}
	job, err := mgr.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s := job.State(); s != StateCancelled {
		t.Fatalf("job state after shutdown: %s", s)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d", resp.StatusCode)
	}
	var h healthJSON
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Fatalf("healthz status %q", h.Status)
	}
	if _, err := mgr.Submit(context.Background(), SweepRequest{}); err != ErrShuttingDown {
		t.Fatalf("submit while draining: %v", err)
	}
	if _, _, err := mgr.Evaluate(context.Background(), nil, core.DesignPoint{}, 0); err != ErrShuttingDown {
		t.Fatalf("evaluate while draining: %v", err)
	}
}

// TestJobTTLEviction: finished jobs disappear after the TTL.
func TestJobTTLEviction(t *testing.T) {
	ts, mgr, _ := newTestServer(t, 0, ManagerConfig{JobTTL: 50 * time.Millisecond})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	waitTerminal(t, ts.URL, st.ID)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := mgr.Job(st.ID); err == ErrNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job status %d, want 404", resp.StatusCode)
	}
}

// TestOptionsKeyCanonicalises pins the dedup key the warm cache depends
// on: explicit defaults and implied defaults must collide, and sinks
// must not matter.
func TestOptionsKeyCanonicalises(t *testing.T) {
	implied := experiments.NewSuite(experiments.Options{Seed: 1}).Options()
	explicit := experiments.NewSuite(experiments.Options{
		Seed: 1, Records: 40, NoiseSteps: 8, MinAccuracy: 0.98,
		OnEvent: func(dse.Event) {},
	}).Options()
	if optionsKey(implied) != optionsKey(explicit) {
		t.Fatalf("defaulted option sets diverge: %q vs %q", optionsKey(implied), optionsKey(explicit))
	}
	other := experiments.NewSuite(experiments.Options{Seed: 2}).Options()
	if optionsKey(implied) == optionsKey(other) {
		t.Fatal("distinct seeds collide")
	}
}

// TestSuiteEnginesShareByOptions pins the engine-identity contract the
// warm cache depends on (resolving an engine trains its tiny suite).
func TestSuiteEnginesShareByOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two (tiny) detectors")
	}
	tiny := experiments.Options{Seed: 1, Records: 1, TrainRecords: 4, NoiseSteps: 1, Epochs: 1}
	se := NewSuiteEngines(0)
	a, err := se.Engine(tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := se.Engine(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("equal options should resolve to the same engine")
	}
	tiny.Seed = 2
	c, err := se.Engine(tiny)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("distinct options should resolve to distinct engines")
	}
	if se.Suites() != 2 {
		t.Fatalf("suite count %d", se.Suites())
	}
}

// TestServeRealSuite drives one tiny sweep through a real training
// suite, end to end — the integration path the fakes bypass.
func TestServeRealSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a (tiny) detector")
	}
	engines := NewSuiteEngines(0)
	mgr, err := NewManager(ManagerConfig{
		// MinAccuracy is loosened: a 2-epoch detector on 2 records cannot
		// clear the paper's 98 % constraint, and this test is about the
		// serving path, not detection quality.
		Defaults: experiments.Options{Seed: 7, Records: 2, TrainRecords: 6, NoiseSteps: 2, Epochs: 2, MinAccuracy: 0.01},
		Engines:  engines.Engine,
		Cache:    engines.Cache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr, nil))
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	}()

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline","cs"],"bits":[6],"noise_steps":2,"m":[75]}}`))
	deadline := time.Now().Add(2 * time.Minute)
	var final JobStatus
	for {
		resp, err := http.Get(ts.URL + "/v1/sweeps/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		final = decodeStatus(t, resp)
		if JobState(final.State).Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("real-suite sweep did not finish")
		}
		time.Sleep(100 * time.Millisecond)
	}
	if final.State != string(StateCompleted) {
		t.Fatalf("real-suite sweep %s: %s", final.State, final.Error)
	}
	if final.Result == nil || final.Result.Points != 4 {
		t.Fatalf("real-suite outcome: %+v", final.Result)
	}
	if final.Result.Optima["baseline"] == nil {
		t.Fatal("real-suite sweep found no baseline optimum")
	}
	// A result has a real power breakdown (the fakes have none).
	front := final.Result.Fronts["snr"]
	if len(front.Baseline) == 0 || len(front.Baseline[0].PowerW) == 0 {
		t.Fatalf("front missing power breakdown: %+v", front.Baseline)
	}
}
