package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// smallSearch asks for the best-SNR design over the smallSweep-shaped
// grid (2 bits × 8 noise points of baseline = 16 designs) with budget
// to spare. Under slowEval's figures (SNR = 3·bits, power rising with
// bits and noise) the true front is two points: each ADC resolution at
// its cheapest noise setting.
const smallSearch = `{"query":"max-snr","max_evaluations":12,
	"space":{"architectures":["baseline"],"bits":[4,6],"noise_steps":8}}`

// waitTerminalAt polls an arbitrary status URL until the job finishes.
func waitTerminalAt(t *testing.T, url string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
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

// TestSearchJobEndToEnd is the search acceptance e2e over the full HTTP
// stack: submit, watch front events stream over SSE, poll to
// completion, check the discovered front and best design against the
// evaluator's closed form, fetch the NDJSON front, find the job in the
// listing, and reconcile the budget accounting across the status JSON,
// the terminal SSE event and /metrics.
func TestSearchJobEndToEnd(t *testing.T) {
	ts, mgr, eval := newTestServer(t, 0, ManagerConfig{})

	resp := postJSON(t, ts.URL+"/v1/search", smallSearch)
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
	}
	loc := resp.Header.Get("Location")
	st := decodeStatus(t, resp)
	if st.Kind != "search" || !strings.HasPrefix(st.ID, "search-") {
		t.Fatalf("submitted job: kind %q id %q", st.Kind, st.ID)
	}
	if st.StatusURL != "/v1/search/"+st.ID || loc != st.StatusURL {
		t.Fatalf("status URL %q, Location %q", st.StatusURL, loc)
	}

	evResp, err := http.Get(ts.URL + st.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, evResp.Body)
	evResp.Body.Close()
	fronts, dones := 0, 0
	var done *sseEvent
	lastEvals := 0.0
	for i, ev := range events {
		switch ev.name {
		case "front":
			fronts++
			evals := ev.data["evaluations"].(float64)
			if evals < lastEvals {
				t.Fatalf("front events regressed: %g after %g", evals, lastEvals)
			}
			lastEvals = evals
			if ev.data["budget"].(float64) != 12 {
				t.Fatalf("front event budget: %v", ev.data)
			}
		case "done":
			dones++
			done = &events[i]
		}
	}
	if fronts == 0 || dones != 1 {
		t.Fatalf("stream had %d front events and %d done events", fronts, dones)
	}
	if done.data["state"] != "completed" || done.data["partial"] != false {
		t.Fatalf("done event: %v", done.data)
	}
	if done.data["evaluations"].(float64)+done.data["budget_remaining"].(float64) != done.data["budget"].(float64) {
		t.Fatalf("done event budget accounting: %v", done.data)
	}

	final := waitTerminalAt(t, ts.URL+st.StatusURL)
	if final.State != string(StateCompleted) || final.Search == nil {
		t.Fatalf("final status: %+v", final)
	}
	so := final.Search
	if so.Partial || so.Errors != 0 {
		t.Fatalf("clean search outcome: %+v", so)
	}
	if so.Evaluations <= 0 || so.Evaluations > so.Budget || so.Evaluations+so.BudgetRemaining != so.Budget {
		t.Fatalf("budget accounting: %+v", so)
	}
	if got := eval.calls.Load(); got > 12 {
		t.Fatalf("evaluator saw %d calls, budget was 12", got)
	}
	// The true front: each ADC resolution at its cheapest noise floor.
	if len(so.Front) != 2 {
		t.Fatalf("front size %d, want 2: %+v", len(so.Front), so.Front)
	}
	for i, row := range so.Front {
		if row.SNRdB != 3*float64(row.Point.Bits) || row.Err != "" {
			t.Fatalf("front row %d off closed form: %+v", i, row)
		}
		if i > 0 && (row.TotalW <= so.Front[i-1].TotalW || row.SNRdB <= so.Front[i-1].SNRdB) {
			t.Fatalf("front not strictly ascending at %d: %+v", i, so.Front)
		}
	}
	if so.Best == nil || so.Best.SNRdB != 18 {
		t.Fatalf("best design should be the 6-bit point: %+v", so.Best)
	}

	rResp, err := http.Get(ts.URL + final.ResultsURL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rResp.Body)
	rResp.Body.Close()
	if rResp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("results content type %q", rResp.Header.Get("Content-Type"))
	}
	if lines := strings.Count(string(body), "\n"); lines != len(so.Front) {
		t.Fatalf("results NDJSON lines %d, want %d:\n%s", lines, len(so.Front), body)
	}

	// The job appears in the shared listing, discriminated by kind.
	lResp, err := http.Get(ts.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list JobListJSON
	if err := json.NewDecoder(lResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lResp.Body.Close()
	foundListed := false
	for _, sum := range list.Jobs {
		if sum.ID == st.ID {
			foundListed = true
			if sum.Kind != "search" || sum.StatusURL != st.StatusURL {
				t.Fatalf("listing row: %+v", sum)
			}
		}
	}
	if !foundListed {
		t.Fatalf("search job missing from GET /v1/sweeps: %+v", list)
	}

	c := mgr.Counters()
	if c.SearchSubmitted != 1 || c.SearchCompleted != 1 || c.SearchEvaluations != int64(so.Evaluations) {
		t.Fatalf("search counters: %+v", c)
	}
	metrics := fetchMetrics(t, ts.URL)
	if got := metricValue(t, metrics, "efficsense_search_jobs_submitted_total"); got != 1 {
		t.Errorf("exposed submitted %g, want 1", got)
	}
	if got := metricValue(t, metrics, "efficsense_search_evaluations_total"); got != float64(so.Evaluations) {
		t.Errorf("exposed evaluations %g, want %d", got, so.Evaluations)
	}
	if got := metricValue(t, metrics, "efficsense_search_front_size"); got != float64(len(so.Front)) {
		t.Errorf("exposed front size %g, want %d", got, len(so.Front))
	}
	if got := metricValue(t, metrics, "efficsense_search_budget_remaining"); got != float64(so.BudgetRemaining) {
		t.Errorf("exposed budget remaining %g, want %d", got, so.BudgetRemaining)
	}
}

// TestSearchDeterminismOverHTTP pins the wire-level determinism
// contract: two identical submissions (same seed, budget, space) return
// byte-identical NDJSON fronts — the second served warm from the shared
// cache, which must not change the answer.
func TestSearchDeterminismOverHTTP(t *testing.T) {
	ts, _, _ := newTestServer(t, 0, ManagerConfig{})
	body := `{"query":"max-snr","max_evaluations":12,"seed":5,
		"space":{"architectures":["baseline"],"bits":[4,6],"noise_steps":8}}`

	fetch := func() string {
		st := decodeStatus(t, postJSON(t, ts.URL+"/v1/search", body))
		final := waitTerminalAt(t, ts.URL+st.StatusURL)
		if final.State != string(StateCompleted) {
			t.Fatalf("state %s: %s", final.State, final.Error)
		}
		resp, err := http.Get(ts.URL + final.ResultsURL)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}
	a, b := fetch(), fetch()
	if a != b {
		t.Fatalf("identical searches returned different fronts:\n%s\nvs\n%s", a, b)
	}
}

// TestSearchMinPowerStructuredFields exercises the structured-field
// request path and the other goal direction: with slowEval's constant
// accuracy, the cheapest design in the space is the answer and the
// accuracy front collapses to that single point.
func TestSearchMinPowerStructuredFields(t *testing.T) {
	ts, _, _ := newTestServer(t, 0, ManagerConfig{})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/search",
		`{"goal":"min-power","min_quality":0.9,"max_evaluations":12,
		  "space":{"architectures":["baseline"],"bits":[4,6],"noise_steps":8}}`))
	final := waitTerminalAt(t, ts.URL+st.StatusURL)
	if final.State != string(StateCompleted) || final.Search == nil {
		t.Fatalf("final: %+v", final)
	}
	so := final.Search
	if so.Query != "min-power@accuracy>=0.9" {
		t.Fatalf("canonical query %q", so.Query)
	}
	if so.Best == nil {
		t.Fatalf("no feasible design: %+v", so)
	}
	// Cheapest point of the grid: 4 bits at the 1 µV noise floor.
	if so.Best.Point.Bits != 4 || so.Best.Point.LNANoise != 1e-6 {
		t.Fatalf("best design: %+v", so.Best)
	}
	if want := so.Best.Point.LNANoise * 1e3 * 4; so.Best.TotalW != want {
		t.Fatalf("best power %g, want %g", so.Best.TotalW, want)
	}
}

// TestSearchCancelKeepsPartialFront: DELETE mid-run lands the job in
// cancelled with the partial front intact and the budget accounted.
func TestSearchCancelKeepsPartialFront(t *testing.T) {
	ts, _, _ := newTestServer(t, 30*time.Millisecond, ManagerConfig{})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/search",
		`{"query":"max-snr","max_evaluations":16,
		  "space":{"architectures":["baseline"],"bits":[4,6],"noise_steps":8}}`))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+st.StatusURL, nil)
	dResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dResp.Body.Close()
	if dResp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", dResp.StatusCode)
	}

	final := waitTerminalAt(t, ts.URL+st.StatusURL)
	if final.State != string(StateCancelled) {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	if final.Search == nil || !final.Search.Partial {
		t.Fatalf("cancelled search outcome: %+v", final.Search)
	}
	if so := final.Search; so.Evaluations+so.BudgetRemaining != so.Budget {
		t.Fatalf("budget accounting after cancel: %+v", so)
	}
}

// TestJobRoutesAnswerOnlyForTheirKind: a job answers only under the
// prefix its status_url names. Status, events, results and DELETE of a
// search under /v1/sweeps/, and of a sweep under /v1/search/, are 404
// not_found in the usual envelope, and the wrong-prefix DELETE cancels
// nothing: both jobs, still running when it arrives, complete.
func TestJobRoutesAnswerOnlyForTheirKind(t *testing.T) {
	ts, _, _ := newTestServer(t, 20*time.Millisecond, ManagerConfig{})
	sweep := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[4,5,6],"noise_steps":8}}`))
	search := decodeStatus(t, postJSON(t, ts.URL+"/v1/search", smallSearch))

	for _, wrong := range []string{"/v1/search/" + sweep.ID, "/v1/sweeps/" + search.ID} {
		for _, c := range []struct{ method, suffix string }{
			{http.MethodGet, ""}, {http.MethodGet, "/events"},
			{http.MethodGet, "/results"}, {http.MethodDelete, ""},
		} {
			req, _ := http.NewRequest(c.method, ts.URL+wrong+c.suffix, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusNotFound {
				resp.Body.Close()
				t.Fatalf("%s %s%s: status %d, want 404", c.method, wrong, c.suffix, resp.StatusCode)
			}
			if e := decodeErrorEnvelope(t, resp); e.Code != CodeNotFound {
				t.Fatalf("%s %s%s: code %q, want %q", c.method, wrong, c.suffix, e.Code, CodeNotFound)
			}
		}
	}
	for _, st := range []JobStatus{sweep, search} {
		if final := waitTerminalAt(t, ts.URL+st.StatusURL); final.State != string(StateCompleted) {
			t.Fatalf("%s ended %s after wrong-prefix requests, want completed", st.ID, final.State)
		}
	}
}

// TestSearchValidation walks the 400 edges of POST /v1/search and the
// 404 of an unknown search ID.
func TestSearchValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, 0, ManagerConfig{})
	cases := []struct {
		name, body, wantIn string
	}{
		{"query and structured goal", `{"query":"max-accuracy","goal":"min-power"}`, "mutually exclusive"},
		{"unknown goal", `{"query":"best-accuracy"}`, "unknown goal"},
		{"min-power without floor", `{"goal":"min-power"}`, "must be positive"},
		{"min_quality on a max goal", `{"goal":"max-accuracy","min_quality":0.9}`, "min_quality"},
		{"metric on a max goal", `{"goal":"max-snr","metric":"accuracy"}`, "metric"},
		{"budget above the cap", `{"query":"max-accuracy","max_evaluations":999999}`, "exceeds the limit"},
		{"negative probe records", `{"query":"max-accuracy","probe_records":-1}`, "probe_records"},
		{"bad space", `{"query":"max-accuracy","space":{"architectures":["warp"]}}`, "warp"},
		{"unknown field", `{"quarry":"max-accuracy"}`, "quarry"},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/search", c.body)
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

	resp, err := http.Get(ts.URL + "/v1/search/search-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown search id: status %d, want 404", resp.StatusCode)
	}
}

// TestSearchBudgetDefaultsSmallSpaces pins the default-budget clamp on
// degenerate spaces: a request without max_evaluations defaults to a
// tenth of its space, which rounds to zero for spaces under ten points —
// the clamp keeps it at one evaluation minimum, so tiny spaces are
// accepted and searched instead of failing spec validation. The budget
// accounting must still reconcile at every size.
func TestSearchBudgetDefaultsSmallSpaces(t *testing.T) {
	ts, _, _ := newTestServer(t, 0, ManagerConfig{})

	cases := []struct {
		name       string
		space      string // size = |bits| x |lna_noise|
		size       int
		wantBudget int
	}{
		{"single point", `{"architectures":["baseline"],"bits":[4],"lna_noise":[1.0]}`, 1, 1},
		{"two points", `{"architectures":["baseline"],"bits":[4,6],"lna_noise":[1.0]}`, 2, 1},
		{"nine points", `{"architectures":["baseline"],"bits":[4,6,8],"lna_noise":[1.0,2.0,3.0]}`, 9, 1},
		{"just past the clamp", `{"architectures":["baseline"],"bits":[4,6],"lna_noise":[1.0,2.0,3.0,4.0,5.0]}`, 10, 1},
		{"a tenth rounds down", `{"architectures":["baseline"],"bits":[4,6,8,10,12],"lna_noise":[1.0,2.0,3.0,4.0,5.0]}`, 25, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/search", `{"query":"max-snr","space":`+c.space+`}`)
			if resp.StatusCode != http.StatusAccepted {
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				t.Fatalf("submit status %d: %s", resp.StatusCode, raw)
			}
			st := decodeStatus(t, resp)
			final := waitTerminalAt(t, ts.URL+st.StatusURL)
			if final.State != string(StateCompleted) || final.Search == nil {
				t.Fatalf("final status: %+v", final)
			}
			so := final.Search
			if so.Budget != c.wantBudget {
				t.Fatalf("space of %d points defaulted to budget %d, want %d",
					c.size, so.Budget, c.wantBudget)
			}
			if so.Evaluations < 1 || so.Evaluations+so.BudgetRemaining != so.Budget {
				t.Fatalf("budget accounting: %+v", so)
			}
			if len(so.Front) == 0 {
				t.Fatalf("degenerate space produced an empty front: %+v", so)
			}
		})
	}
}
