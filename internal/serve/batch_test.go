package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
)

// slowBatchEval upgrades slowEval with the batch contract, so the serve
// tests exercise the engines' batch dispatch end to end. failBatches is
// the number of calls still to fail whole, every row an errInjected
// row and no point evaluated (each call spends one).
type slowBatchEval struct {
	slowEval
	batches     atomic.Int64
	batchPoints atomic.Int64
	failBatches atomic.Int64
}

func (e *slowBatchEval) EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result {
	e.batches.Add(1)
	e.batchPoints.Add(int64(len(pts)))
	fail := e.failBatches.Add(-1) >= 0
	out := make([]core.Result, len(pts))
	for i, p := range pts {
		if fail {
			out[i] = core.Result{Point: p, Err: errInjected}
		} else {
			out[i] = e.Evaluate(p)
		}
	}
	return out
}

// newBatchTestServer is newTestServer over a batch-capable evaluator,
// with extra engine options chosen by the test.
func newBatchTestServer(t *testing.T, cfg ManagerConfig, extra ...dse.Option) (*httptest.Server, *Manager, *slowBatchEval) {
	t.Helper()
	eval := &slowBatchEval{}
	opts := append([]dse.Option{
		dse.WithCache(cache.New(DefaultCacheEntries)), dse.WithWorkers(2), dse.WithEvaluatorID("test-eval"),
	}, extra...)
	eng, err := dse.NewSweep(eval, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engines = func(o experiments.Options) (Engine, error) { return eng, nil }
	ts, mgr := startServer(t, cfg)
	return ts, mgr, eval
}

func decodeBatch(t *testing.T, resp *http.Response) EvaluateBatchResponse {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch evaluate status %d: %s", resp.StatusCode, raw)
	}
	var br EvaluateBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	return br
}

// batchBody is 6 points in two ADC-resolution groups (bits vary within
// a shared noise floor), so the engine's group-ordered chunking has
// something to share.
const batchBody = `{"points":[
	{"arch":"baseline","bits":4,"lna_noise":1e-6},
	{"arch":"baseline","bits":5,"lna_noise":1e-6},
	{"arch":"baseline","bits":6,"lna_noise":1e-6},
	{"arch":"baseline","bits":4,"lna_noise":2e-6},
	{"arch":"baseline","bits":5,"lna_noise":2e-6},
	{"arch":"baseline","bits":6,"lna_noise":2e-6}]}`

// TestEvaluateBatchEndToEnd covers the batch arm of POST /v1/evaluate:
// rows come back in input order through the engine's batch dispatch, a
// repeat is served warm, the single-object body keeps working on the
// same endpoint, and the batch counters and histograms surface in
// /metrics.
func TestEvaluateBatchEndToEnd(t *testing.T) {
	ts, _, eval := newBatchTestServer(t, ManagerConfig{})

	br := decodeBatch(t, postJSON(t, ts.URL+"/v1/evaluate", batchBody))
	if br.Count != 6 || br.Partial || br.Errors != 0 || len(br.Results) != 6 {
		t.Fatalf("batch response: %+v", br)
	}
	wantBits := []int{4, 5, 6, 4, 5, 6}
	for i, row := range br.Results {
		if row.Point.Bits != wantBits[i] {
			t.Fatalf("row %d out of input order: %+v", i, row.Point)
		}
		if row.Err != "" || row.Cached {
			t.Fatalf("cold row %d: %+v", i, row)
		}
		if row.SNRdB != 3*float64(row.Point.Bits) {
			t.Fatalf("row %d figures wrong: %+v", i, row)
		}
	}
	if eval.batches.Load() == 0 {
		t.Fatal("batch request bypassed the batch evaluator")
	}
	if got := eval.calls.Load(); got != 6 {
		t.Fatalf("evaluations %d, want 6", got)
	}

	// The identical batch again: every row warm, no new evaluator calls.
	calls, batches := eval.calls.Load(), eval.batches.Load()
	br2 := decodeBatch(t, postJSON(t, ts.URL+"/v1/evaluate", batchBody))
	for i, row := range br2.Results {
		if !row.Cached {
			t.Fatalf("warm row %d not cached: %+v", i, row)
		}
	}
	if eval.calls.Load() != calls || eval.batches.Load() != batches {
		t.Fatalf("warm batch re-evaluated: %d calls %d batches", eval.calls.Load(), eval.batches.Load())
	}

	// The single-object body still works on the same endpoint.
	resp := postJSON(t, ts.URL+"/v1/evaluate", `{"point":{"arch":"baseline","bits":4,"lna_noise":1e-6}}`)
	var rj ResultJSON
	if err := json.NewDecoder(resp.Body).Decode(&rj); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rj.SNRdB != 12 || !rj.Cached {
		t.Fatalf("single-object evaluation: %+v", rj)
	}

	metrics := fetchMetrics(t, ts.URL)
	if got := metricValue(t, metrics, "efficsense_engine_batches_total"); got != float64(eval.batches.Load()) {
		t.Errorf("exposed batches %g, want %d", got, eval.batches.Load())
	}
	if got := metricValue(t, metrics, "efficsense_engine_batch_points_total"); got != float64(eval.batchPoints.Load()) {
		t.Errorf("exposed batch points %g, want %d", got, eval.batchPoints.Load())
	}
	if got := metricValue(t, metrics, "efficsense_batch_size_points_count"); got != float64(eval.batches.Load()) {
		t.Errorf("batch-size histogram count %g, want %d", got, eval.batches.Load())
	}
	if got := metricValue(t, metrics, "efficsense_batch_duration_seconds_count"); got != float64(eval.batches.Load()) {
		t.Errorf("batch-duration histogram count %g, want %d", got, eval.batches.Load())
	}
}

// TestEvaluateBatchHistogramsExistCold pins the zero-layout fallback:
// the batch histograms exist in /metrics from the first scrape, before
// any engine has resolved.
func TestEvaluateBatchHistogramsExistCold(t *testing.T) {
	ts, _, _ := newBatchTestServer(t, ManagerConfig{})
	metrics := fetchMetrics(t, ts.URL)
	for _, name := range []string{
		"efficsense_batch_size_points_count 0",
		"efficsense_batch_duration_seconds_count 0",
		"efficsense_engine_batches_total 0",
	} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing cold series %q", name)
		}
	}
}

// TestEvaluateBatchValidation walks the batch arm's 400 edges.
func TestEvaluateBatchValidation(t *testing.T) {
	ts, _, _ := newBatchTestServer(t, ManagerConfig{MaxSweepPoints: 3})
	cases := []struct {
		name, body, wantIn string
	}{
		{"both point and points",
			`{"point":{"arch":"baseline","bits":4,"lna_noise":1e-6},"points":[{"arch":"baseline","bits":4,"lna_noise":1e-6}]}`,
			"not both"},
		{"empty points", `{"points":[]}`, "empty"},
		{"invalid row", `{"points":[{"arch":"baseline","bits":4,"lna_noise":1e-6},{"arch":"warp","bits":4,"lna_noise":1e-6}]}`,
			"points[1]"},
		{"negative timeout", `{"points":[{"arch":"baseline","bits":4,"lna_noise":1e-6}],"timeout_ms":-1}`,
			"timeout_ms"},
		{"oversize batch", `{"points":[
			{"arch":"baseline","bits":4,"lna_noise":1e-6},
			{"arch":"baseline","bits":5,"lna_noise":1e-6},
			{"arch":"baseline","bits":6,"lna_noise":1e-6},
			{"arch":"baseline","bits":7,"lna_noise":1e-6}]}`,
			"exceeds the limit"},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/evaluate", c.body)
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, raw)
			continue
		}
		if !strings.Contains(string(raw), c.wantIn) {
			t.Errorf("%s: error %s does not mention %q", c.name, raw, c.wantIn)
		}
	}
}

// TestEvaluateRejectsNegativeCHold: a wire point is held to the rule a
// sweep's space is. A negative hold capacitance used to be accepted,
// evaluated with the chain's default capacitor and cached under its own
// key — a wrong row, not an error row. Both forms of the request answer
// 400 naming the field (the batch form naming the index too), and
// nothing is evaluated.
func TestEvaluateRejectsNegativeCHold(t *testing.T) {
	ts, _, eval := newBatchTestServer(t, ManagerConfig{})
	const good = `{"arch":"cs","bits":8,"lna_noise":2e-6,"m":150}`
	const bad = `{"arch":"cs","bits":8,"lna_noise":2e-6,"m":150,"chold":-1e-12}`
	for _, c := range []struct{ name, body, index string }{
		{"point", `{"point":` + bad + `}`, "point:"},
		{"points", `{"points":[` + good + `,` + bad + `]}`, "points[1]:"},
	} {
		resp := postJSON(t, ts.URL+"/v1/evaluate", c.body)
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, raw)
			continue
		}
		if !strings.Contains(string(raw), c.index) || !strings.Contains(string(raw), "CHold") {
			t.Errorf("%s: error %s does not name %q and the CHold field", c.name, raw, c.index)
		}
	}
	if n := eval.calls.Load(); n != 0 {
		t.Fatalf("rejected points reached the evaluator %d times", n)
	}
}

// TestWireRejectsOutOfRangePoints: a resolution the SAR model cannot
// convert at, or more measurements than the evaluators' frame length,
// used to reach the chain and come back as 200 with a recovered panic in
// the row (partial: true in the batch form). Both /v1/evaluate arms and
// a sweep's space now answer 400 naming the field (and the batch index),
// and nothing is evaluated.
func TestWireRejectsOutOfRangePoints(t *testing.T) {
	ts, _, eval := newBatchTestServer(t, ManagerConfig{})
	const good = `{"arch":"cs","bits":8,"lna_noise":6e-6,"m":150}`
	for _, c := range []struct {
		field string
		point string
		space string
	}{
		{"Bits", `{"arch":"cs","bits":25,"lna_noise":6e-6,"m":150}`, `{"architectures":["cs"],"bits":[8,25]}`},
		{"Bits", `{"arch":"baseline","bits":30,"lna_noise":6e-6}`, `{"bits":[30]}`},
		{"m", `{"arch":"cs","bits":8,"lna_noise":6e-6,"m":385}`, `{"architectures":["cs"],"m":[150,385]}`},
		{"m", `{"arch":"cs","bits":8,"lna_noise":6e-6,"m":500}`, `{"m":[500]}`},
	} {
		for _, r := range []struct{ path, body, index string }{
			{"/v1/evaluate", `{"point":` + c.point + `}`, "point:"},
			{"/v1/evaluate", `{"points":[` + good + `,` + c.point + `]}`, "points[1]:"},
			{"/v1/sweeps", `{"space":` + c.space + `}`, c.field},
		} {
			resp := postJSON(t, ts.URL+r.path, r.body)
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (%s)", r.path, r.body, resp.StatusCode, raw)
				continue
			}
			if !strings.Contains(string(raw), r.index) || !strings.Contains(string(raw), c.field) {
				t.Errorf("%s %s: error %s does not name %q and the %s field", r.path, r.body, raw, r.index, c.field)
			}
		}
	}
	if n := eval.calls.Load(); n != 0 {
		t.Fatalf("rejected points reached the evaluator %d times", n)
	}
}

// TestEvaluateBatchDeadlineDegradesRows: a deadline that fires mid-batch
// yields HTTP 200 with error rows for the unfinished points — the batch
// shape degrades, it does not turn into the single-point 504. The
// timing pins the deadline inside the first two evaluations (two
// workers, 80 ms per point, 50 ms budget), so the two points the engine
// never dispatched must come back as deadline rows.
func TestEvaluateBatchDeadlineDegradesRows(t *testing.T) {
	ts, _, _ := newTestServer(t, 80*time.Millisecond, ManagerConfig{})

	body := `{"points":[
		{"arch":"baseline","bits":4,"lna_noise":1e-6},
		{"arch":"baseline","bits":5,"lna_noise":1e-6},
		{"arch":"baseline","bits":6,"lna_noise":1e-6},
		{"arch":"baseline","bits":7,"lna_noise":1e-6}],"timeout_ms":50}`
	br := decodeBatch(t, postJSON(t, ts.URL+"/v1/evaluate", body))
	if !br.Partial || br.Errors == 0 || br.Errors >= br.Count {
		t.Fatalf("deadline batch should degrade some rows and keep others: %+v", br)
	}
	for _, row := range br.Results {
		if row.Err != "" && !strings.Contains(row.Err, "deadline") {
			t.Fatalf("degraded row carries the wrong error: %q", row.Err)
		}
	}
}
