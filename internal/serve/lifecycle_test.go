package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"efficsense/internal/wal"
)

// restartSearch is the search the journal tests run: the best-SNR
// design over 2 bits × 8 noise points of baseline with a budget of 12,
// the same query smallSearch sends over the wire.
func restartSearch() SearchRequest {
	return SearchRequest{
		Query: "max-snr", MaxEvaluations: 12,
		Space: &SpaceSpec{Architectures: []string{"baseline"}, Bits: []int{4, 6}, NoiseSteps: 8},
	}
}

// copyJournal copies the journal file of dir into a fresh directory and
// reopens it there: the journal appends without buffering, so the copy
// of a live journal is its SIGKILL disk image.
func copyJournal(t *testing.T, dir string) (*wal.Log, []wal.Record) {
	t.Helper()
	image, err := os.ReadFile(filepath.Join(dir, wal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	if err := os.WriteFile(filepath.Join(dirB, wal.FileName), image, 0o644); err != nil {
		t.Fatal(err)
	}
	walB, recs, err := wal.Open(dirB)
	if err != nil {
		t.Fatal(err)
	}
	return walB, recs
}

// TestWALRestoresFinishedSearch: a finished search survives a clean
// shutdown, which compacts the journal, and a restart that replays it.
// The restored job answers exactly as the original did — the status
// search block and progress, the NDJSON front byte for byte — without a
// single evaluation, and is counted as replayed history.
func TestWALRestoresFinishedSearch(t *testing.T) {
	dirA := t.TempDir()
	walA, _, err := wal.Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	srvA, mgrA := newDurableServer(t, walA, &slowEval{}, ManagerConfig{})
	job, err := mgrA.SubmitSearch(context.Background(), restartSearch())
	if err != nil {
		t.Fatal(err)
	}
	statusURL := "/v1/search/" + job.ID
	before := waitTerminalAt(t, srvA.URL+statusURL)
	if before.State != string(StateCompleted) || before.Search == nil {
		t.Fatalf("original search: %+v", before)
	}
	frontBefore := fetchNDJSON(t, srvA.URL, statusURL)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mgrA.Shutdown(ctx); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}
	walB, recs := copyJournal(t, dirA)

	evalB := &slowEval{}
	srvB, mgrB := newDurableServer(t, walB, evalB, ManagerConfig{})
	if err := mgrB.Recover(recs); err != nil {
		t.Fatal(err)
	}
	after := waitTerminalAt(t, srvB.URL+statusURL)
	if after.State != before.State || after.Kind != "search" {
		t.Fatalf("restored search: state %q kind %q, want %q search", after.State, after.Kind, before.State)
	}
	if !reflect.DeepEqual(after.Search, before.Search) {
		t.Fatalf("restored search block differs:\nafter:  %+v\nbefore: %+v", after.Search, before.Search)
	}
	if after.Progress != before.Progress {
		t.Fatalf("restored progress %+v, want %+v", after.Progress, before.Progress)
	}
	if got := fetchNDJSON(t, srvB.URL, statusURL); !bytes.Equal(got, frontBefore) {
		t.Fatalf("restored front differs:\nafter:\n%s\nbefore:\n%s", got, frontBefore)
	}
	if got := evalB.calls.Load(); got != 0 {
		t.Fatalf("restoring finished history ran %d evaluations, want 0", got)
	}
	if v := metricValue(t, fetchMetrics(t, srvB.URL), "efficsense_wal_replayed_jobs_total"); v != 1 {
		t.Fatalf("efficsense_wal_replayed_jobs_total = %g, want 1", v)
	}
}

// TestChaosRestartRerunsMidSearch: a search killed mid-run (its
// evaluator blocked after three points, the journal copied as the
// SIGKILL image) restarts under its own ID on a new manager, finishes
// completed, and answers exactly as an uninterrupted run: the same
// front, best design, evaluation count and budget.
func TestChaosRestartRerunsMidSearch(t *testing.T) {
	const evaluated = 3
	dirA := t.TempDir()
	walA, _, err := wal.Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	evalA := &gatedEval{limit: evaluated, gate: make(chan struct{}), blocked: make(chan struct{}, 1)}
	_, mgrA := newDurableServer(t, walA, evalA, ManagerConfig{MaxConcurrentJobs: 1})
	// Registered after the manager's own cleanup, so it runs first and
	// the "crashed" manager can drain.
	t.Cleanup(func() { close(evalA.gate) })
	jobA, err := mgrA.SubmitSearch(context.Background(), restartSearch())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-evalA.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("evaluator never reached the gate")
	}
	walB, recs := copyJournal(t, dirA)
	if len(recs) != 1 { // a search journals its job record and, at the end, its state
		t.Fatalf("journal image held %d records, want the job record alone", len(recs))
	}

	_, ref := newDurableServerAs(t, nil, &slowEval{}, "test-eval", ManagerConfig{})
	refJob, err := ref.SubmitSearch(context.Background(), restartSearch())
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); !refJob.State().Terminal(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("reference search never finished")
		}
	}
	want := refJob.Status().Search

	srvB, mgrB := newDurableServer(t, walB, &slowEval{}, ManagerConfig{MaxConcurrentJobs: 1})
	if err := mgrB.Recover(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := mgrB.Job(jobA.ID); err != nil {
		t.Fatalf("restarted search %s not tracked: %v", jobA.ID, err)
	}
	st := waitTerminalAt(t, srvB.URL+"/v1/search/"+jobA.ID)
	if st.State != string(StateCompleted) || st.Search == nil {
		t.Fatalf("restarted search: %+v", st)
	}
	got := st.Search
	if !reflect.DeepEqual(got.Front, want.Front) || !reflect.DeepEqual(got.Best, want.Best) ||
		got.Evaluations != want.Evaluations || got.Budget != want.Budget {
		t.Fatalf("restarted search outcome differs from an uninterrupted run:\ngot:  %+v\nwant: %+v", got, want)
	}
	if v := metricValue(t, fetchMetrics(t, srvB.URL), "efficsense_wal_resumed_jobs_total"); v != 1 {
		t.Fatalf("efficsense_wal_resumed_jobs_total = %g, want 1", v)
	}
}

// attrKeys lists a log record's attribute keys, sorted.
func attrKeys(r sunkRecord) []string {
	keys := make([]string, 0, len(r.attrs))
	for k := range r.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSearchLifecycleLogs pins the search job's lifecycle records: the
// messages, the attributes each carries, and the job_id and request_id
// on every one.
func TestSearchLifecycleLogs(t *testing.T) {
	ts, _, sink := newLoggedServer(t, 0, ManagerConfig{})
	const rid = "search-rid-7"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/search", strings.NewReader(smallSearch))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	st := decodeStatus(t, resp)
	final := waitTerminalAt(t, ts.URL+st.StatusURL)
	if final.State != string(StateCompleted) || final.Search == nil {
		t.Fatalf("search: %+v", final)
	}
	so := final.Search
	ids := map[string]string{"job_id": st.ID, "request_id": rid}
	for _, c := range []struct {
		msg  string
		want map[string]string
		keys []string
	}{
		{"search accepted",
			map[string]string{"query": "max-snr", "budget": "12", "space": "16", "tenant": DefaultTenant},
			[]string{"budget", "job_id", "query", "request_id", "space", "tenant"}},
		{"search started",
			map[string]string{"query": "max-snr", "budget": "12"},
			[]string{"budget", "job_id", "query", "request_id"}},
		{"search finished",
			map[string]string{"state": "completed", "budget": "12",
				"evaluations": strconv.Itoa(so.Evaluations), "front": strconv.Itoa(len(so.Front))},
			[]string{"budget", "elapsed", "evaluations", "front", "job_id", "request_id", "state"}},
	} {
		want := map[string]string{}
		for k, v := range ids {
			want[k] = v
		}
		for k, v := range c.want {
			want[k] = v
		}
		r := sink.find(t, c.msg, want)
		if got := attrKeys(r); !slices.Equal(got, c.keys) {
			t.Errorf("%q carries attributes %v, want %v", c.msg, got, c.keys)
		}
		if r.level != slog.LevelInfo {
			t.Errorf("%q logged at %v, want INFO", c.msg, r.level)
		}
	}
}

// jsonKeys lists the keys of a flat JSON object in the order they
// appear.
func jsonKeys(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("event data %s is not an object", data)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// doneEvent waits for the job's terminal "done" event and returns its
// payload.
func doneEvent(t *testing.T, j *Job) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	after := 0
	for {
		evs, more := j.WaitEvents(ctx, after)
		for _, ev := range evs {
			if ev.Name == "done" {
				return ev.Data
			}
		}
		after += len(evs)
		if !more {
			t.Fatalf("job %s ended its stream without a done event", j.ID)
		}
	}
}

// TestDoneEventKeys pins the keys, in order, of the terminal "done"
// event of both job kinds.
func TestDoneEventKeys(t *testing.T) {
	_, mgr, _ := newTestServer(t, 0, ManagerConfig{})
	var sweep SweepRequest
	if err := json.Unmarshal([]byte(smallSweep), &sweep); err != nil {
		t.Fatal(err)
	}
	sj, err := mgr.Submit(context.Background(), sweep)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jsonKeys(t, doneEvent(t, sj)), []string{"state", "scenario", "done", "total",
		"partial", "errors", "error", "eval_p50_ms", "eval_p90_ms", "eval_p99_ms"}; !slices.Equal(got, want) {
		t.Errorf("sweep done event keys %v, want %v", got, want)
	}
	qj, err := mgr.SubmitSearch(context.Background(), restartSearch())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jsonKeys(t, doneEvent(t, qj)), []string{"state", "scenario", "evaluations", "budget",
		"budget_remaining", "front_size", "partial", "errors", "error"}; !slices.Equal(got, want) {
		t.Errorf("search done event keys %v, want %v", got, want)
	}
}

// TestSearchCancelLogsItsKind: cancelling a search logs "search cancel
// requested" with the cancelling request's ID, like every other
// lifecycle record of the job naming its kind.
func TestSearchCancelLogsItsKind(t *testing.T) {
	ts, _, sink := newLoggedServer(t, 30*time.Millisecond, ManagerConfig{})
	st := decodeStatus(t, postJSON(t, ts.URL+"/v1/search", smallSearch))
	req, err := http.NewRequest(http.MethodDelete, ts.URL+st.StatusURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "cancel-rid-3")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final := waitTerminalAt(t, ts.URL+st.StatusURL); final.State != string(StateCancelled) {
		t.Fatalf("state %s, want cancelled", final.State)
	}
	sink.find(t, "search cancel requested",
		map[string]string{"job_id": st.ID, "cancelled_by_request_id": "cancel-rid-3"})
}
