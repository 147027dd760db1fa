package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
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

// This file is the chaos acceptance suite: faults driven through the
// full HTTP stack (submit → SSE → status → results → /metrics),
// asserting the resilience contract end to end. The faults come from
// the fakes behind the stack, never from production code: an evaluator
// that fails its next K calls or panics on chosen points, a batch
// evaluator that fails a call whole, an EngineFunc that panics, and a
// client that drops its event stream.

// streamDropping collects a job's whole event stream through a client
// that drops its connection after every n events and reconnects with
// Last-Event-ID. It returns the events and the connections it took.
func streamDropping(t *testing.T, url string, n int) (evs []sseEvent, conns int) {
	t.Helper()
	for len(evs) == 0 || evs[len(evs)-1].name != "done" {
		if conns++; conns > 50 {
			t.Fatal("stream never completed across 50 reconnects")
		}
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		if len(evs) > 0 {
			req.Header.Set("Last-Event-ID", fmt.Sprint(evs[len(evs)-1].id))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, readSSEN(t, resp.Body, n)...)
		resp.Body.Close()
	}
	return evs, conns
}

// TestChaosDegradedSweepCompletesPartial fails a budget of evaluator
// calls and checks graceful degradation through every surface: the job
// still completes, the status JSON and the terminal SSE event carry
// partial: true with the degraded count, the NDJSON cloud has per-point
// error rows, and — because degraded results are never cached — a rerun
// against the healed evaluator re-evaluates exactly the failed points.
func TestChaosDegradedSweepCompletesPartial(t *testing.T) {
	const budget = 2
	ts, _, eval := newTestServer(t, time.Millisecond, ManagerConfig{})
	eval.fails.Store(budget)

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	evResp, err := http.Get(ts.URL + st.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, evResp.Body)
	evResp.Body.Close()

	var done *sseEvent
	errRows := 0
	for i, ev := range events {
		switch ev.name {
		case "point":
			if s, _ := ev.data["err"].(string); s != "" {
				errRows++
				if !strings.Contains(s, "injected fault") {
					t.Fatalf("degraded point carries the wrong error: %q", s)
				}
			}
		case "done":
			done = &events[i]
		}
	}
	if errRows != budget {
		t.Fatalf("%d degraded point events, want %d", errRows, budget)
	}
	if done == nil {
		t.Fatal("no done event")
	}
	if done.data["state"] != "completed" || done.data["partial"] != true || done.data["errors"] != float64(budget) {
		t.Fatalf("done event: %v", done.data)
	}

	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != string(StateCompleted) {
		t.Fatalf("degraded sweep state %s, want completed", final.State)
	}
	if final.Result == nil || !final.Result.Partial ||
		final.Result.Points != 6 || final.Result.Errors != budget {
		t.Fatalf("outcome: %+v", final.Result)
	}
	// The fronts are computed over the sound points only, and still exist.
	if len(final.Result.Fronts["snr"].Baseline) == 0 {
		t.Fatal("degraded sweep lost its front entirely")
	}

	rResp, err := http.Get(ts.URL + final.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rResp.Body)
	rResp.Body.Close()
	if lines := strings.Count(string(body), "\n"); lines != 6 {
		t.Fatalf("results NDJSON lines %d, want 6", lines)
	}
	if got := strings.Count(string(body), `"err":"`); got != budget {
		t.Fatalf("results NDJSON error rows %d, want %d:\n%s", got, budget, body)
	}

	// Every point reached the evaluator once; the failed ones were not
	// cached, so the healed rerun evaluates exactly those again.
	if got := eval.calls.Load(); got != 6 {
		t.Fatalf("evaluator calls %d, want 6", got)
	}
	st2 := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	final2 := waitTerminal(t, ts.URL, st2.ID)
	if final2.State != string(StateCompleted) || final2.Result.Partial || final2.Result.Errors != 0 {
		t.Fatalf("healed rerun: %+v", final2.Result)
	}
	if got := eval.calls.Load(); got != 6+budget {
		t.Fatalf("healed rerun should evaluate only the %d failed points: %d calls, want %d", budget, got, 6+budget)
	}
}

// TestChaosEvaluatorPanicsKeepCacheBoundedOverHTTP drives a sweep whose
// evaluator panics on a third of its points through a 4-entry cache,
// and checks the bound is undisturbed, the panics degrade points instead
// of killing the daemon, and the accounting agrees to the unit: the
// engine recovers every panic per point, so none escapes into a cache
// flight.
func TestChaosEvaluatorPanicsKeepCacheBoundedOverHTTP(t *testing.T) {
	const panicking = 8 // the 5-bit points
	store := cache.New(4)
	ts, mgr, eval := newTestServerWithCache(t, 0, ManagerConfig{}, store)
	eval.panicOn = func(p core.DesignPoint) bool { return p.Bits == 5 }

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != string(StateCompleted) {
		t.Fatalf("state %s: %s", final.State, final.Error)
	}
	if final.Result.Errors != panicking {
		t.Fatalf("degraded points %d, want the %d panicking points", final.Result.Errors, panicking)
	}
	if !final.Result.Partial || final.Result.Points != 24 {
		t.Fatalf("outcome: %+v", final.Result)
	}
	if n := store.Len(); n > store.Cap() {
		t.Fatalf("cache holds %d entries above its cap %d under evaluator panics", n, store.Cap())
	}
	c := mgr.Counters()
	if c.EnginePanics != panicking || c.CacheFlightPanics != 0 {
		t.Fatalf("engine panics %d, flight panics %d, want %d and 0",
			c.EnginePanics, c.CacheFlightPanics, panicking)
	}
	metrics := fetchMetrics(t, ts.URL)
	if got := metricValue(t, metrics, "efficsense_cache_flight_panics_total"); got != 0 {
		t.Errorf("exposed flight panics %g, want 0", got)
	}
	if got := metricValue(t, metrics, "efficsense_engine_panics_total"); got != panicking {
		t.Errorf("exposed engine panics %g, want %d", got, panicking)
	}
}

// TestChaosJobPanicFailsOneJobNotTheDaemon resolves the first job's
// engine through an EngineFunc that panics: the job must land in failed
// with a descriptive error and a terminal SSE event, and the daemon
// must keep serving — the very next submission runs clean.
func TestChaosJobPanicFailsOneJobNotTheDaemon(t *testing.T) {
	eng, err := dse.NewSweep(&slowEval{},
		dse.WithCache(cache.New(DefaultCacheEntries)), dse.WithWorkers(2), dse.WithEvaluatorID("test-eval"))
	if err != nil {
		t.Fatal(err)
	}
	var resolutions atomic.Int64
	ts, mgr := startServer(t, ManagerConfig{Engines: func(experiments.Options) (Engine, error) {
		if resolutions.Add(1) == 1 {
			panic("injected engine panic")
		}
		return eng, nil
	}})

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != string(StateFailed) {
		t.Fatalf("state %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "panicked") {
		t.Fatalf("error %q does not say the job panicked", final.Error)
	}
	// The stream of a failed job still terminates with a done event.
	evResp, err := http.Get(ts.URL + st.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, evResp.Body)
	evResp.Body.Close()
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("failed job's stream did not end in done: %+v", events)
	}
	if last := events[len(events)-1]; last.data["state"] != "failed" || last.data["partial"] != true {
		t.Fatalf("failed job's done event: %v", last.data)
	}
	if c := mgr.Counters(); c.Failed != 1 {
		t.Fatalf("failed counter %d, want 1", c.Failed)
	}

	st2 := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	final2 := waitTerminal(t, ts.URL, st2.ID)
	if final2.State != string(StateCompleted) || final2.Result.Partial {
		t.Fatalf("daemon did not survive the job panic: %+v", final2)
	}
}

// TestChaosSSEResumeDeliversExactlyOnce is the resume-under-failure
// acceptance test: the client drops its stream after every five events
// and reconnects with Last-Event-ID each time, and across every
// connection the event sequence must arrive exactly once — no gaps, no
// duplicates — while evaluator faults degrade points concurrently.
func TestChaosSSEResumeDeliversExactlyOnce(t *testing.T) {
	const total, failing, perConn = 24, 4, 5
	ts, _, eval := newTestServer(t, 5*time.Millisecond, ManagerConfig{})
	eval.fails.Store(failing)

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
	collected, conns := streamDropping(t, ts.URL+st.EventsURL, perConn)
	// Each connection but the last was dropped after perConn events.
	if want := (len(collected) + perConn - 1) / perConn; conns != want || conns < 2 {
		t.Fatalf("%d connections for %d events at %d each, want %d", conns, len(collected), perConn, want)
	}

	// Exactly-once: ids are the contiguous sequence 1..n with one done.
	points, errRows, dones := 0, 0, 0
	for i, ev := range collected {
		if ev.id != i+1 {
			t.Fatalf("event %d has id %d: a gap or duplicate across reconnects", i, ev.id)
		}
		switch ev.name {
		case "point":
			points++
			if s, _ := ev.data["err"].(string); s != "" {
				errRows++
			}
		case "done":
			dones++
		}
	}
	if points != total || dones != 1 || errRows != failing {
		t.Fatalf("collected %d point events (%d degraded) and %d done events, want %d (%d) and 1",
			points, errRows, dones, total, failing)
	}
}

// TestChaosDroppedClientReleasesStream: a client that drops its event
// stream mid-job frees the stream at once — the SSE handler returns on
// the disconnect, not when the job ends — and the job runs on to
// completion without it.
func TestChaosDroppedClientReleasesStream(t *testing.T) {
	eval := &gatedEval{limit: 1, gate: make(chan struct{}), blocked: make(chan struct{}, 1)}
	release := sync.OnceFunc(func() { close(eval.gate) })
	defer release()
	ts, _ := newDurableServer(t, nil, eval, ManagerConfig{})

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	resp, err := http.Get(ts.URL + st.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	if evs := readSSEN(t, resp.Body, 1); len(evs) != 1 {
		t.Fatalf("stream ended before its first event: %+v", evs)
	}
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for metricValue(t, fetchMetrics(t, ts.URL), "efficsense_sse_streams_active") != 0 {
		if time.Now().After(deadline) {
			t.Fatal("a dropped client's stream is still active after 5 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := getStatus(t, ts.URL, st); got.State != string(StateRunning) {
		t.Fatalf("job state %s once its stream was released, want running", got.State)
	}

	release()
	if final := waitTerminal(t, ts.URL, st.ID); final.State != string(StateCompleted) {
		t.Fatalf("state %s after the gate opened: %s", final.State, final.Error)
	}
}

// TestChaosBatchFaultDegradesOnlyItsBatch drives a sweep through a
// batch-dispatching engine whose batch evaluator fails its first call
// whole: exactly the points of that batch must degrade into error rows
// — the job completes with partial: true, every other batch is
// untouched, and the daemon keeps serving.
func TestChaosBatchFaultDegradesOnlyItsBatch(t *testing.T) {
	// One worker at the engine's batch size of 16: the 24-point space
	// (8 noise groups × 3 bits) cuts into chunks of 12, 6, 3 and 3
	// (each aims at half the points left, on one worker), so the failed
	// call — the first chunk's — costs exactly 12 points.
	ts, mgr, eval := newBatchTestServer(t, ManagerConfig{}, dse.WithWorkers(1))
	eval.failBatches.Store(1)

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != string(StateCompleted) {
		t.Fatalf("state %s, want completed: %s", final.State, final.Error)
	}
	if !final.Result.Partial || final.Result.Points != 24 || final.Result.Errors != 12 {
		t.Fatalf("one failed batch should cost exactly its 12 points: %+v", final.Result)
	}
	// All four batches reached the evaluator; the failed one evaluated
	// no point.
	if got := eval.batchPoints.Load(); got != 24 {
		t.Fatalf("evaluator saw %d batched points, want 24", got)
	}
	if got := eval.calls.Load(); got != 12 {
		t.Fatalf("evaluator evaluated %d points, want the 12 outside the failed batch", got)
	}
	if c := mgr.Counters(); c.EngineBatches != 4 || c.EngineBatchPoints != 24 {
		t.Fatalf("batch counters: %d batches, %d points", c.EngineBatches, c.EngineBatchPoints)
	}

	// Degraded rows are never cached, so a rerun heals exactly the
	// failed batch.
	st2 := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
	final2 := waitTerminal(t, ts.URL, st2.ID)
	if final2.State != string(StateCompleted) || final2.Result.Partial || final2.Result.Errors != 0 {
		t.Fatalf("healed rerun: %+v", final2.Result)
	}
	if got := eval.calls.Load(); got != 24 {
		t.Fatalf("healed rerun should evaluate only the failed 12: %d calls, want 24", got)
	}
}

// TestChaosBatchEvaluateDegradesRowsNotRequest is the wire-level batch
// degradation test: when the batch evaluator fails its call whole, POST
// /v1/evaluate {"points": [...]} returns 200 with partial: true and
// per-point error rows — never a failed request — and the very next
// batch runs clean.
func TestChaosBatchEvaluateDegradesRowsNotRequest(t *testing.T) {
	ts, _, eval := newBatchTestServer(t, ManagerConfig{})
	eval.failBatches.Store(1)

	// Four points of one ADC-resolution group: a single chunk, a single
	// EvaluateBatch call, so the failed call degrades all four rows.
	body := `{"points":[
		{"arch":"baseline","bits":4,"lna_noise":1e-6},
		{"arch":"baseline","bits":5,"lna_noise":1e-6},
		{"arch":"baseline","bits":6,"lna_noise":1e-6},
		{"arch":"baseline","bits":7,"lna_noise":1e-6}]}`
	br := decodeBatch(t, postJSON(t, ts.URL+"/v1/evaluate", body))
	if !br.Partial || br.Errors != 4 || br.Count != 4 {
		t.Fatalf("faulted batch response: %+v", br)
	}
	for i, row := range br.Results {
		if !strings.Contains(row.Err, "injected fault") {
			t.Fatalf("row %d should carry the injected fault: %+v", i, row)
		}
	}
	if eval.calls.Load() != 0 {
		t.Fatal("the failed batch call evaluated a point")
	}

	// The same batch now evaluates clean, proving the degraded rows were
	// not cached.
	br2 := decodeBatch(t, postJSON(t, ts.URL+"/v1/evaluate", body))
	if br2.Partial || br2.Errors != 0 {
		t.Fatalf("healed batch: %+v", br2)
	}
	if eval.calls.Load() != 4 {
		t.Fatalf("healed batch evaluated %d points, want 4", eval.calls.Load())
	}
}

// TestChaosNoGoroutineLeaks runs a full chaos scenario — evaluator
// panics, a client that drops its stream every few events and resumes —
// then tears the stack down and requires the goroutine count to return
// to its baseline: failures must not strand workers, streams or job
// goroutines.
func TestChaosNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	func() {
		store := cache.New(64)
		eval := &slowEval{delay: 2 * time.Millisecond}
		eval.panicOn = func(p core.DesignPoint) bool { return p.Bits == 6 }
		eng, err := dse.NewSweep(eval,
			dse.WithCache(store), dse.WithWorkers(2), dse.WithEvaluatorID("test-eval"))
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := NewManager(ManagerConfig{
			Engines: func(o experiments.Options) (Engine, error) { return eng, nil },
			Cache:   store,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewServer(mgr, nil))
		defer ts.Close()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = mgr.Shutdown(ctx)
		}()

		st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
			`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
		streamDropping(t, ts.URL+st.EventsURL, 3)
		if final := waitTerminal(t, ts.URL, st.ID); final.State != string(StateCompleted) {
			t.Fatalf("state %s: %s", final.State, final.Error)
		}
	}()

	// Idle keep-alive connections hold client goroutines; drop them, then
	// give stragglers a bounded window to unwind.
	deadline := time.Now().Add(5 * time.Second)
	for {
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosSearchBatchFaultDegradesBudgetExactly drives a search job
// through a batch-dispatching engine whose batch evaluator fails its
// first call whole: the job must still complete — partial, with exactly
// the failed chunk counted as errors, a sound subset front, and the
// evaluation budget accounted to the point. A resubmission then
// converges clean on the full front, riding the cache for the rows that
// survived.
func TestChaosSearchBatchFaultDegradesBudgetExactly(t *testing.T) {
	// Two workers: the strategy's opening proposal (2 groups × 3 noise
	// quantiles = 6 probes) is cut for both workers into three chunks of
	// 2, one per noise quantile, so the failed call degrades exactly 2
	// points and the other 4 keep the search going.
	ts, mgr, eval := newBatchTestServer(t, ManagerConfig{})
	eval.failBatches.Store(1)
	body := `{"query":"max-snr","max_evaluations":16,
		"space":{"architectures":["baseline"],"bits":[4,6],"noise_steps":8}}`

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/search", body))
	final := waitTerminalAt(t, ts.URL+st.StatusURL)
	if final.State != string(StateCompleted) {
		t.Fatalf("state %s, want completed: %s", final.State, final.Error)
	}
	so := final.Search
	if so == nil || !so.Partial || so.Errors != 2 {
		t.Fatalf("faulted search outcome: %+v", so)
	}
	if so.Evaluations+so.BudgetRemaining != so.Budget || so.Budget != 16 {
		t.Fatalf("budget accounting under chaos: %+v", so)
	}
	if c := mgr.Counters(); c.SearchEvaluations != int64(so.Evaluations) {
		t.Fatalf("counter evaluations %d, status says %d", c.SearchEvaluations, so.Evaluations)
	}
	// The front is a sound subset: no error rows, every member on the
	// evaluator's closed form.
	if len(so.Front) == 0 {
		t.Fatalf("degraded search kept no front at all: %+v", so)
	}
	for i, row := range so.Front {
		if row.Err != "" || row.SNRdB != 3*float64(row.Point.Bits) {
			t.Fatalf("front row %d unsound: %+v", i, row)
		}
	}
	rResp, err := http.Get(ts.URL + final.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(rResp.Body)
	rResp.Body.Close()
	if strings.Contains(string(raw), `"err"`) {
		t.Fatalf("results NDJSON leaked error rows:\n%s", raw)
	}

	// Healed rerun: cache warm for the sound rows — the same query now
	// converges clean on the full two-point front.
	st2 := decodeStatus(t, postJSON(t, ts.URL+"/v1/search", body))
	final2 := waitTerminalAt(t, ts.URL+st2.StatusURL)
	if final2.State != string(StateCompleted) || final2.Search == nil {
		t.Fatalf("healed search: %+v", final2)
	}
	so2 := final2.Search
	if so2.Partial || so2.Errors != 0 || len(so2.Front) != 2 {
		t.Fatalf("healed search outcome: %+v", so2)
	}
}
