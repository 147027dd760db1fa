package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/fault"
)

// This file is the chaos acceptance suite: seeded fault schedules driven
// through the full HTTP stack (submit → SSE → status → results →
// /metrics), asserting the resilience contract end to end. Every test
// arms the process-global fault registry, so each one resets it on the
// way out; the serve package's tests run sequentially, which keeps the
// armed window private to the owning test.

// armFault arms one failpoint for the duration of the test.
func armFault(t *testing.T, name string, cfg fault.Config) {
	t.Helper()
	if err := fault.Enable(name, cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
}

// TestChaosDegradedSweepCompletesPartial injects a bounded budget of
// evaluation faults and checks graceful degradation through every
// surface: the job still completes, the status JSON and the terminal SSE
// event carry partial: true with the degraded count, the NDJSON cloud
// has per-point error rows, and — because degraded results are never
// cached — a rerun after disarming heals exactly the failed points.
func TestChaosDegradedSweepCompletesPartial(t *testing.T) {
	const budget = 2
	armFault(t, fault.PointEvaluate, fault.Config{
		Kind: fault.KindError, Probability: 1, MaxInjections: budget, Seed: 3,
	})
	ts, _, eval := newTestServer(t, time.Millisecond, ManagerConfig{})

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

	// Faults were injected before the evaluator ran, so the degraded
	// points cost no evaluation — and, crucially, were not cached.
	if got := eval.calls.Load(); got != 6-budget {
		t.Fatalf("evaluator calls %d, want %d", got, 6-budget)
	}
	fault.Reset()
	st2 := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	final2 := waitTerminal(t, ts.URL, st2.ID)
	if final2.State != string(StateCompleted) || final2.Result.Partial || final2.Result.Errors != 0 {
		t.Fatalf("healed rerun: %+v", final2.Result)
	}
	if got := eval.calls.Load(); got != 6 {
		t.Fatalf("healed rerun re-evaluated sound points: %d calls, want 6", got)
	}
}

// TestChaosFlightPanicsKeepCacheBoundedOverHTTP drives a sweep through a
// tiny cache while the singleflight failpoint panics probabilistically,
// and checks the bound is undisturbed, the panics degrade points instead
// of killing the daemon, and the three layers of accounting — fault
// registry, cache stats, engine metrics — agree to the unit.
func TestChaosFlightPanicsKeepCacheBoundedOverHTTP(t *testing.T) {
	armFault(t, fault.PointFlight, fault.Config{
		Kind: fault.KindPanic, Probability: 0.3, Seed: 7,
	})
	store := cache.New(4)
	ts, mgr, _ := newTestServerWithCache(t, 0, ManagerConfig{}, store)

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != string(StateCompleted) {
		t.Fatalf("state %s: %s", final.State, final.Error)
	}

	injected := fault.Injected(fault.PointFlight)
	if injected == 0 {
		t.Fatal("seed 7 injected nothing; the test exercised no chaos")
	}
	if final.Result.Errors != int(injected) {
		t.Fatalf("degraded points %d, want the injected panic count %d",
			final.Result.Errors, injected)
	}
	if !final.Result.Partial || final.Result.Points != 24 {
		t.Fatalf("outcome: %+v", final.Result)
	}
	if n := store.Len(); n > store.Cap() {
		t.Fatalf("cache holds %d entries above its cap %d under panic injection", n, store.Cap())
	}
	c := mgr.Counters()
	if c.EnginePanics != injected || c.CacheFlightPanics != injected {
		t.Fatalf("engine panics %d, flight panics %d, want both %d",
			c.EnginePanics, c.CacheFlightPanics, injected)
	}
	metrics := fetchMetrics(t, ts.URL)
	if got := metricValue(t, metrics, "efficsense_cache_flight_panics_total"); got != float64(injected) {
		t.Errorf("exposed flight panics %g, want %d", got, injected)
	}
	if got := metricValue(t, metrics, "efficsense_engine_panics_total"); got != float64(injected) {
		t.Errorf("exposed engine panics %g, want %d", got, injected)
	}
}

// TestChaosJobPanicFailsOneJobNotTheDaemon arms the job-lifecycle
// failpoint to panic: the job must land in failed with a descriptive
// error and a terminal SSE event, and the daemon must keep serving —
// the very next submission (failpoint disarmed) runs clean.
func TestChaosJobPanicFailsOneJobNotTheDaemon(t *testing.T) {
	armFault(t, fault.PointJob, fault.Config{
		Kind: fault.KindPanic, Probability: 1, MaxInjections: 1, Seed: 1,
	})
	ts, mgr, _ := newTestServer(t, 0, ManagerConfig{})

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

	fault.Reset()
	st2 := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps", smallSweep))
	final2 := waitTerminal(t, ts.URL, st2.ID)
	if final2.State != string(StateCompleted) || final2.Result.Partial {
		t.Fatalf("daemon did not survive the job panic: %+v", final2)
	}
}

// TestChaosSSEResumeDeliversExactlyOnce is the resume-under-failure
// acceptance test: the SSE flush failpoint severs the stream mid-sweep,
// the client reconnects with Last-Event-ID each time, and across every
// connection the event sequence must arrive exactly once — no gaps, no
// duplicates — while evaluation faults degrade points concurrently.
func TestChaosSSEResumeDeliversExactlyOnce(t *testing.T) {
	if err := fault.Enable(fault.PointSSEFlush, fault.Config{
		Kind: fault.KindError, Probability: 1, MaxInjections: 3, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Enable(fault.PointEvaluate, fault.Config{
		Kind: fault.KindError, Probability: 0.2, Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Reset)
	ts, _, _ := newTestServer(t, 5*time.Millisecond, ManagerConfig{})

	const total = 24
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))

	var (
		collected []sseEvent
		lastID    int
		conns     int
		sawDone   bool
	)
	for !sawDone {
		conns++
		if conns > 50 {
			t.Fatal("stream never completed across 50 reconnects")
		}
		req, _ := http.NewRequest(http.MethodGet, ts.URL+st.EventsURL, nil)
		if lastID > 0 {
			req.Header.Set("Last-Event-ID", fmt.Sprint(lastID))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		evs := readSSE(t, resp.Body)
		resp.Body.Close()
		for _, ev := range evs {
			collected = append(collected, ev)
			lastID = ev.id
			if ev.name == "done" {
				sawDone = true
			}
		}
	}
	// The flush failpoint fired its whole budget: at least as many
	// reconnects as injected drops, plus the final clean connection.
	if conns < 2 {
		t.Fatalf("stream was never severed (%d connection)", conns)
	}
	if inj := fault.Injected(fault.PointSSEFlush); inj != 3 {
		t.Fatalf("flush failpoint injected %d, want its full budget 3", inj)
	}

	// Exactly-once: ids are the contiguous sequence 1..n with one done.
	points, dones := 0, 0
	for i, ev := range collected {
		if ev.id != i+1 {
			t.Fatalf("event %d has id %d: a gap or duplicate across reconnects", i, ev.id)
		}
		switch ev.name {
		case "point":
			points++
		case "done":
			dones++
		}
	}
	if points != total || dones != 1 {
		t.Fatalf("collected %d point events and %d done events, want %d and 1", points, dones, total)
	}
}

// TestChaosBatchFaultDegradesOnlyItsBatch arms the batch failpoint with
// a single injection and drives a sweep through a batch-dispatching
// engine: exactly the points of the faulted batch must degrade into
// error rows — the job completes with partial: true, every other batch
// is untouched, and the daemon keeps serving.
func TestChaosBatchFaultDegradesOnlyItsBatch(t *testing.T) {
	armFault(t, fault.PointBatch, fault.Config{
		Kind: fault.KindError, Probability: 1, MaxInjections: 1, Seed: 11,
	})
	// One worker at the engine's batch size of 16: the 24-point space
	// (8 noise groups × 3 bits) cuts into chunks of 12, 6, 3 and 3
	// (each aims at half the points left, on one worker), so the one
	// injected fault — on the first chunk — costs exactly 12 points.
	ts, mgr, eval := newBatchTestServer(t, ManagerConfig{}, dse.WithWorkers(1))

	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
	final := waitTerminal(t, ts.URL, st.ID)
	if final.State != string(StateCompleted) {
		t.Fatalf("state %s, want completed: %s", final.State, final.Error)
	}
	if !final.Result.Partial || final.Result.Points != 24 || final.Result.Errors != 12 {
		t.Fatalf("one faulted batch should cost exactly its 12 points: %+v", final.Result)
	}
	// The faulted batch never reached the evaluator; the other three did.
	// The engine counters record all four dispatched batches — the
	// faulted one included, just as Evaluated counts failpoint-degraded
	// points.
	if got := eval.batchPoints.Load(); got != 12 {
		t.Fatalf("evaluator saw %d batched points, want 12", got)
	}
	if c := mgr.Counters(); c.EngineBatches != 4 || c.EngineBatchPoints != 24 {
		t.Fatalf("batch counters: %d batches, %d points", c.EngineBatches, c.EngineBatchPoints)
	}

	// Degraded rows are never cached, so a rerun after disarming heals
	// exactly the faulted batch.
	fault.Reset()
	st2 := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
	final2 := waitTerminal(t, ts.URL, st2.ID)
	if final2.State != string(StateCompleted) || final2.Result.Partial || final2.Result.Errors != 0 {
		t.Fatalf("healed rerun: %+v", final2.Result)
	}
	if got := eval.calls.Load(); got != 24 {
		t.Fatalf("healed rerun should evaluate only the faulted 12: %d calls, want 24", got)
	}
}

// TestChaosBatchEvaluateDegradesRowsNotRequest is the wire-level batch
// degradation test: with the batch failpoint armed, POST /v1/evaluate
// {"points": [...]} returns 200 with partial: true and per-point error
// rows — never a failed request — and the very next batch (budget
// exhausted) runs clean.
func TestChaosBatchEvaluateDegradesRowsNotRequest(t *testing.T) {
	armFault(t, fault.PointBatch, fault.Config{
		Kind: fault.KindError, Probability: 1, MaxInjections: 1, Seed: 4,
	})
	ts, _, eval := newBatchTestServer(t, ManagerConfig{})

	// Four points of one ADC-resolution group: a single chunk, a single
	// EvaluateBatch call, so the injection degrades all four rows.
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
		t.Fatal("faulted batch should never reach the evaluator")
	}

	// The budget is spent: the same batch now evaluates clean, proving
	// the degraded rows were not cached.
	br2 := decodeBatch(t, postJSON(t, ts.URL+"/v1/evaluate", body))
	if br2.Partial || br2.Errors != 0 {
		t.Fatalf("post-budget batch: %+v", br2)
	}
	if eval.calls.Load() != 4 {
		t.Fatalf("post-budget batch evaluated %d points, want 4", eval.calls.Load())
	}
}

// TestChaosNoGoroutineLeaks runs a full chaos scenario — evaluation
// faults, severed SSE streams, a resumed client — then tears the stack
// down and requires the goroutine count to return to its baseline:
// injected failures must not strand workers, streams or job goroutines.
func TestChaosNoGoroutineLeaks(t *testing.T) {
	baseline := runtime.NumGoroutine()

	func() {
		defer fault.Reset()
		for name, p := range map[string]float64{fault.PointEvaluate: 0.3, fault.PointSSEFlush: 0.5} {
			if err := fault.Enable(name, fault.Config{Kind: fault.KindError, Probability: p, Seed: 13}); err != nil {
				t.Fatal(err)
			}
		}

		store := cache.New(64)
		eval := &slowEval{delay: 2 * time.Millisecond}
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
		lastID, sawDone := 0, false
		for i := 0; !sawDone && i < 50; i++ {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+st.EventsURL, nil)
			if lastID > 0 {
				req.Header.Set("Last-Event-ID", fmt.Sprint(lastID))
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range readSSE(t, resp.Body) {
				lastID = ev.id
				sawDone = sawDone || ev.name == "done"
			}
			resp.Body.Close()
		}
		if !sawDone {
			t.Fatal("chaos sweep never streamed its done event")
		}
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
// through a batch-dispatching engine with one injected batch fault: the
// job must still complete — partial, with exactly the faulted chunk
// counted as errors, a sound subset front, and the evaluation budget
// accounted to the point. A healed resubmission then converges clean on
// the full front, riding the cache for the rows that survived.
func TestChaosSearchBatchFaultDegradesBudgetExactly(t *testing.T) {
	armFault(t, fault.PointBatch, fault.Config{
		Kind: fault.KindError, Probability: 1, MaxInjections: 1, Seed: 11,
	})
	// Two workers: the strategy's opening proposal (2 groups × 3 noise
	// quantiles = 6 probes) is cut for both workers into three chunks of
	// 2, one per noise quantile, so the single injection degrades
	// exactly 2 points and the other 4 keep the search going.
	ts, mgr, _ := newBatchTestServer(t, ManagerConfig{})
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

	// Healed rerun: budget spent, cache warm for the sound rows — the
	// same query now converges clean on the full two-point front.
	fault.Reset()
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
