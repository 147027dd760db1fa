package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/wal"
)

// newDurableServer wires a Manager over its own engine, cache and WAL —
// the daemon's -wal-dir topology. The caller drives Recover itself (the
// replayed records are under test); cleanup shuts the manager down,
// which compacts and closes the journal.
func newDurableServer(t *testing.T, walLog *wal.Log, eval dse.PointEvaluator, cfg ManagerConfig) (*httptest.Server, *Manager) {
	t.Helper()
	return newDurableServerAs(t, walLog, eval, "test-eval", cfg)
}

// newDurableServerAs is newDurableServer with the engine's evaluator
// fingerprint chosen by the caller.
func newDurableServerAs(t *testing.T, walLog *wal.Log, eval dse.PointEvaluator, evalID string, cfg ManagerConfig) (*httptest.Server, *Manager) {
	t.Helper()
	store := cache.New(256)
	eng, err := dse.NewSweep(eval,
		dse.WithCache(store), dse.WithWorkers(1), dse.WithEvaluatorID(evalID))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engines = func(opts experiments.Options) (Engine, error) { return eng, nil }
	cfg.Cache = store
	cfg.WAL = walLog
	return startServer(t, cfg)
}

// gatedEval evaluates like slowEval but blocks from call limit+1 on
// until its gate closes, signalling blocked once — the deterministic
// stand-in for "the process was killed after k points".
type gatedEval struct {
	calls   atomic.Int64
	limit   int64
	gate    chan struct{}
	blocked chan struct{}
}

func (e *gatedEval) Evaluate(p core.DesignPoint) core.Result {
	if e.calls.Add(1) > e.limit {
		select {
		case e.blocked <- struct{}{}:
		default:
		}
		<-e.gate
	}
	return (&slowEval{}).Evaluate(p)
}

// fetchNDJSON downloads a finished job's results stream.
func fetchNDJSON(t *testing.T, base, statusURL string) []byte {
	t.Helper()
	resp, err := http.Get(base + statusURL + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// restartSweep is the six-point sweep the kill-and-restart tests crash
// after three journaled rows.
func restartSweep() SweepRequest {
	return SweepRequest{Space: &SpaceSpec{
		Architectures: []string{"baseline"}, Bits: []int{4, 6}, NoiseSteps: 3,
	}}
}

// crashMidSweep runs req on a journaling manager (evaluator fingerprint
// "test-eval") whose evaluator blocks from point journaled+1 on, waits
// until the first journaled rows are in the journal, and returns a
// byte-for-byte copy of it — the WAL uses unbuffered appends, so the
// copy IS the SIGKILL disk image — reopened in a fresh directory, with
// the job's ID. The blocked manager is released at cleanup.
func crashMidSweep(t *testing.T, req SweepRequest, journaled int) (*wal.Log, []wal.Record, string) {
	t.Helper()
	dirA := t.TempDir()
	walA, recsA, err := wal.Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	if len(recsA) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recsA))
	}
	evalA := &gatedEval{limit: int64(journaled), gate: make(chan struct{}), blocked: make(chan struct{}, 1)}
	_, mgrA := newDurableServer(t, walA, evalA, ManagerConfig{MaxConcurrentJobs: 1})
	// Registered after the manager's own cleanup, so it runs first and
	// the "crashed" manager can drain.
	t.Cleanup(func() { close(evalA.gate) })

	jobA, err := mgrA.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-evalA.blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("evaluator never reached the gate")
	}
	// The worker is blocked inside point journaled+1; wait until the
	// completion hooks (which append the row records) of the first
	// `journaled` points have all run before snapshotting the journal.
	deadline := time.Now().Add(10 * time.Second)
	for jobA.Status().Progress.Done < journaled {
		if time.Now().After(deadline) {
			t.Fatalf("only %d rows journaled before the crash point", jobA.Status().Progress.Done)
		}
		time.Sleep(time.Millisecond)
	}
	snapshot, err := os.ReadFile(filepath.Join(dirA, wal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	if err := os.WriteFile(filepath.Join(dirB, wal.FileName), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	walB, recsB, err := wal.Open(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(recsB) != 1+journaled { // the job record plus its rows
		t.Fatalf("journal snapshot held %d records, want %d", len(recsB), 1+journaled)
	}
	return walB, recsB, jobA.ID
}

// referenceNDJSON runs req uninterrupted, with no journal, on an engine
// over eval with fingerprint evalID, and returns its results stream.
func referenceNDJSON(t *testing.T, req SweepRequest, eval dse.PointEvaluator, evalID string) []byte {
	t.Helper()
	_, mgr := newDurableServerAs(t, nil, eval, evalID, ManagerConfig{})
	job, err := mgr.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); !job.State().Terminal(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("reference sweep never finished")
		}
	}
	var ref bytes.Buffer
	if err := experiments.NDJSONResults(&ref, job.Results()); err != nil {
		t.Fatal(err)
	}
	return ref.Bytes()
}

// TestChaosRestartResumesMidSweep is the durability acceptance test: a
// sweep is killed after three of six points, a new manager over the
// copied journal resumes it, evaluates only the complement, and the
// finished result stream is bit-identical to an uninterrupted run's.
// The replay is accounted in /metrics.
func TestChaosRestartResumesMidSweep(t *testing.T) {
	const totalPoints, journaled = 6, 3
	walB, recsB, id := crashMidSweep(t, restartSweep(), journaled)
	ref := referenceNDJSON(t, restartSweep(), &slowEval{}, "test-eval")

	evalB := &slowEval{}
	srvB, mgrB := newDurableServer(t, walB, evalB, ManagerConfig{MaxConcurrentJobs: 1})
	if err := mgrB.Recover(recsB); err != nil {
		t.Fatal(err)
	}
	resumed, err := mgrB.Job(id)
	if err != nil {
		t.Fatalf("resumed job %s not tracked: %v", id, err)
	}
	stB := waitTerminal(t, srvB.URL, resumed.ID)
	if stB.State != string(StateCompleted) {
		t.Fatalf("resumed job state %q: %+v", stB.State, stB)
	}
	if stB.Progress.Done != totalPoints || stB.Progress.Total != totalPoints {
		t.Fatalf("resumed progress %d/%d, want %d/%d",
			stB.Progress.Done, stB.Progress.Total, totalPoints, totalPoints)
	}

	// The journaled rows were restored, never re-evaluated.
	if got := evalB.calls.Load(); got != totalPoints-journaled {
		t.Fatalf("restarted evaluator ran %d points, want %d (the complement)",
			got, totalPoints-journaled)
	}

	// Bit-identical to the uninterrupted run.
	if got := fetchNDJSON(t, srvB.URL, "/v1/sweeps/"+resumed.ID); !bytes.Equal(got, ref) {
		t.Fatalf("resumed results differ from the uninterrupted run:\nresumed:\n%s\nreference:\n%s", got, ref)
	}

	// The replay is accounted in /metrics.
	metrics := fetchMetrics(t, srvB.URL)
	if v := metricValue(t, metrics, "efficsense_wal_resumed_jobs_total"); v != 1 {
		t.Fatalf("efficsense_wal_resumed_jobs_total = %g, want 1", v)
	}
	if v := metricValue(t, metrics, "efficsense_wal_replayed_rows_total"); v != journaled {
		t.Fatalf("efficsense_wal_replayed_rows_total = %g, want %d", v, journaled)
	}
	if v := metricValue(t, metrics, "efficsense_wal_appends_total"); v < totalPoints-journaled {
		t.Fatalf("efficsense_wal_appends_total = %g, want at least the fresh rows", v)
	}
}

// upgradedEval stands for the evaluator after an upgrade that changes
// results: slowEval with a different accuracy.
type upgradedEval struct{ slowEval }

func (e *upgradedEval) Evaluate(p core.DesignPoint) core.Result {
	r := e.slowEval.Evaluate(p)
	r.Accuracy = 0.97
	return r
}

// TestChaosRestartUnderNewEvaluator: the sweep killed after three of six
// journaled rows restarts under an engine with another evaluator
// fingerprint (an upgrade that changes results). The journaled rows must
// not join the new ones: the whole sweep is evaluated again, the result
// stream is bit-identical to an uninterrupted run of the new evaluator,
// and the discard is logged and counted.
func TestChaosRestartUnderNewEvaluator(t *testing.T) {
	const totalPoints, journaled = 6, 3
	walB, recsB, id := crashMidSweep(t, restartSweep(), journaled)
	ref := referenceNDJSON(t, restartSweep(), &upgradedEval{}, "test-eval-v2")

	sink := &logSink{}
	evalB := &upgradedEval{}
	srvB, mgrB := newDurableServerAs(t, walB, evalB, "test-eval-v2",
		ManagerConfig{MaxConcurrentJobs: 1, Log: slog.New(sinkHandler{sink: sink})})
	if err := mgrB.Recover(recsB); err != nil {
		t.Fatal(err)
	}
	stB := waitTerminal(t, srvB.URL, id)
	if stB.State != string(StateCompleted) || stB.Progress.Done != totalPoints {
		t.Fatalf("resumed job: %+v", stB)
	}
	if got := evalB.calls.Load(); got != totalPoints {
		t.Fatalf("restarted evaluator ran %d points, want all %d", got, totalPoints)
	}
	if got := fetchNDJSON(t, srvB.URL, "/v1/sweeps/"+id); !bytes.Equal(got, ref) {
		t.Fatalf("resumed results differ from the new evaluator's run:\nresumed:\n%s\nreference:\n%s", got, ref)
	}

	metrics := fetchMetrics(t, srvB.URL)
	for name, want := range map[string]float64{
		"efficsense_wal_resumed_jobs_total":   1,
		"efficsense_wal_replayed_rows_total":  0,
		"efficsense_wal_discarded_rows_total": journaled,
	} {
		if v := metricValue(t, metrics, name); v != want {
			t.Errorf("%s = %g, want %g", name, v, want)
		}
	}
	if r := sink.find(t, "wal: re-evaluating a resumed sweep", map[string]string{"job_id": id}); r.level != slog.LevelWarn {
		t.Errorf("discard logged at level %v, want WARN", r.level)
	}
}

// TestWALReplayRowsWithoutFingerprint: rows journaled without an
// evaluator fingerprint (a journal older than the field) cannot prove
// which evaluator computed them, so the resumed sweep evaluates every
// point.
func TestWALReplayRowsWithoutFingerprint(t *testing.T) {
	pts := twoPoints(t)
	eval := &slowEval{}
	dir := t.TempDir()
	journalLines(t, dir,
		encodeRecord(t, walKindJob, sweepJobRecord("sweep-1")),
		encodeRecord(t, walKindRow, walRowRecord{Job: "sweep-1", I: 0, Result: walResultOf(eval.Evaluate(pts[0]))}),
		encodeRecord(t, walKindRow, walRowRecord{Job: "sweep-1", I: 1, Result: walResultOf(eval.Evaluate(pts[1]))}))
	eval.calls.Store(0)
	walLog, recs, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, mgr := newDurableServer(t, walLog, eval, ManagerConfig{})
	if err := mgr.Recover(recs); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, srv.URL, "sweep-1"); st.State != string(StateCompleted) || st.Progress.Done != 2 {
		t.Fatalf("resumed job: %+v", st)
	}
	if got := eval.calls.Load(); got != 2 {
		t.Fatalf("evaluator ran %d points, want 2 (no journaled row kept)", got)
	}
	if v := metricValue(t, fetchMetrics(t, srv.URL), "efficsense_wal_discarded_rows_total"); v != 2 {
		t.Fatalf("efficsense_wal_discarded_rows_total = %g, want 2", v)
	}
}

// journalLines hand-writes a journal file from encoded records (plus
// optional raw tail bytes), bypassing the Log — the way to fabricate
// crash artefacts and future-version records.
func journalLines(t *testing.T, dir string, lines ...[]byte) {
	t.Helper()
	journal := bytes.Join(lines, nil)
	if err := os.WriteFile(filepath.Join(dir, wal.FileName), journal, 0o644); err != nil {
		t.Fatal(err)
	}
}

func encodeRecord(t *testing.T, kind string, payload interface{}) []byte {
	t.Helper()
	line, err := wal.Encode(kind, payload)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// twoPointSpace is a 2-design-point sweep space whose points (and their
// journal rows) the corner tests construct by hand.
var twoPointSpace = &SpaceSpec{
	Architectures: []string{"baseline"}, Bits: []int{4, 6}, LNANoise: []float64{1.0},
}

func twoPoints(t *testing.T) []core.DesignPoint {
	t.Helper()
	space, err := twoPointSpace.space(experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pts := space.Points()
	if len(pts) != 2 {
		t.Fatalf("fixture space has %d points, want 2", len(pts))
	}
	return pts
}

func sweepJobRecord(id string) walJobRecord {
	return walJobRecord{
		ID: id, Kind: jobKindSweep,
		Created: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC),
		Sweep:   &SweepRequest{Space: twoPointSpace},
	}
}

// TestWALRecoversFleetJobIDs: a journal written by a daemon that ran in
// fleet mode names its jobs "<kind>-<node>-<seq>". Such a sweep still
// resumes under its journaled ID from its journaled rows, and the next
// submission's sequence number continues past the journaled one.
func TestWALRecoversFleetJobIDs(t *testing.T) {
	pts := twoPoints(t)
	eval := &slowEval{}
	const id = "sweep-node-a-3"
	dir := t.TempDir()
	journalLines(t, dir,
		encodeRecord(t, walKindJob, sweepJobRecord(id)),
		encodeRecord(t, walKindRow, walRowRecord{Job: id, I: 0, Engine: "test-eval", Result: walResultOf(eval.Evaluate(pts[0]))}),
		encodeRecord(t, walKindRow, walRowRecord{Job: id, I: 1, Engine: "test-eval", Result: walResultOf(eval.Evaluate(pts[1]))}))
	eval.calls.Store(0)
	walLog, recs, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, mgr := newDurableServer(t, walLog, eval, ManagerConfig{})
	if err := mgr.Recover(recs); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, srv.URL, id); st.State != string(StateCompleted) || st.Progress.Done != 2 {
		t.Fatalf("resumed fleet job: %+v", st)
	}
	if got := eval.calls.Load(); got != 0 {
		t.Fatalf("evaluator ran %d points, want 0 (both rows journaled)", got)
	}
	resp := postJSON(t, srv.URL+"/v1/sweeps", smallSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submission: status %d", resp.StatusCode)
	}
	if got := decodeStatus(t, resp).ID; got != "sweep-4" {
		t.Fatalf("post-recovery job ID %q, want sweep-4 (sequence past %s)", got, id)
	}
}

// TestWALReplayTruncatedTail: a journal whose final line was torn
// mid-append (the crash signature) resumes the job from the rows that
// survived; the torn row is simply re-evaluated.
func TestWALReplayTruncatedTail(t *testing.T) {
	pts := twoPoints(t)
	eval := &slowEval{}
	row0 := encodeRecord(t, walKindRow,
		walRowRecord{Job: "sweep-1", I: 0, Engine: "test-eval", Result: walResultOf(eval.Evaluate(pts[0]))})
	row1 := encodeRecord(t, walKindRow,
		walRowRecord{Job: "sweep-1", I: 1, Engine: "test-eval", Result: walResultOf(eval.Evaluate(pts[1]))})
	eval.calls.Store(0)

	dir := t.TempDir()
	journalLines(t, dir,
		encodeRecord(t, walKindJob, sweepJobRecord("sweep-1")),
		row0,
		row1[:len(row1)/2]) // torn mid-append: no newline, half a record
	walLog, recs, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("open replayed %d records, want 2 (torn tail dropped)", len(recs))
	}
	if st := walLog.Stats(); st.Dropped != 1 {
		t.Fatalf("open dropped %d records, want 1", st.Dropped)
	}

	srv, mgr := newDurableServer(t, walLog, eval, ManagerConfig{})
	if err := mgr.Recover(recs); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, srv.URL, "sweep-1")
	if st.State != string(StateCompleted) || st.Progress.Done != 2 {
		t.Fatalf("resumed job: %+v", st)
	}
	if got := eval.calls.Load(); got != 1 {
		t.Fatalf("evaluator ran %d points, want 1 (only the torn row)", got)
	}
	if v := metricValue(t, fetchMetrics(t, srv.URL), "efficsense_wal_dropped_records_total"); v != 1 {
		t.Fatalf("efficsense_wal_dropped_records_total = %g, want 1", v)
	}
}

// TestWALReplayUnknownKinds: records and jobs of kinds this binary does
// not know — a journal written by a future version — are skipped with a
// warning, never a startup failure, and the known jobs around them
// still replay.
func TestWALReplayUnknownKinds(t *testing.T) {
	dir := t.TempDir()
	futureJob := walJobRecord{ID: "quantum-7", Kind: "quantum",
		Created: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)}
	journalLines(t, dir,
		encodeRecord(t, "telemetry", map[string]int{"v": 2}), // unknown record kind
		encodeRecord(t, walKindJob, futureJob),               // unknown job kind
		encodeRecord(t, walKindJob, sweepJobRecord("sweep-3")),
	)
	walLog, recs, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("open replayed %d records, want 3", len(recs))
	}

	eval := &slowEval{}
	srv, mgr := newDurableServer(t, walLog, eval, ManagerConfig{})
	if err := mgr.Recover(recs); err != nil {
		t.Fatalf("recovery must skip unknown kinds, not fail: %v", err)
	}
	if _, err := mgr.Job("quantum-7"); err == nil {
		t.Fatal("job of unknown kind was tracked")
	}
	st := waitTerminal(t, srv.URL, "sweep-3")
	if st.State != string(StateCompleted) {
		t.Fatalf("known job after unknown records: %+v", st)
	}
	// The daemon keeps serving: new submissions still work, with IDs
	// bumped past every replayed one — including the skipped future-kind
	// job, whose ID a newer version may still be using.
	resp := postJSON(t, srv.URL+"/v1/sweeps", smallSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submission: status %d", resp.StatusCode)
	}
	if id := decodeStatus(t, resp).ID; id != "sweep-8" {
		t.Fatalf("post-recovery job ID %q, want sweep-8 (sequence past quantum-7)", id)
	}
}

// TestWALReplayIdempotent: replaying a doubled journal (every record
// twice — the shape of an interrupted compaction retry) yields one job
// table, not two, and terminal history replays without touching the
// evaluator.
func TestWALReplayIdempotent(t *testing.T) {
	pts := twoPoints(t)
	ref := &slowEval{}
	lines := [][]byte{
		encodeRecord(t, walKindJob, sweepJobRecord("sweep-1")),
		encodeRecord(t, walKindRow,
			walRowRecord{Job: "sweep-1", I: 0, Result: walResultOf(ref.Evaluate(pts[0]))}),
		encodeRecord(t, walKindRow,
			walRowRecord{Job: "sweep-1", I: 1, Result: walResultOf(ref.Evaluate(pts[1]))}),
		encodeRecord(t, walKindState, walStateRecord{Job: "sweep-1", State: string(StateCompleted)}),
	}
	dir := t.TempDir()
	journalLines(t, dir, append(append([][]byte{}, lines...), lines...)...)
	walLog, recs, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2*len(lines) {
		t.Fatalf("open replayed %d records, want %d", len(recs), 2*len(lines))
	}

	eval := &slowEval{}
	srv, mgr := newDurableServer(t, walLog, eval, ManagerConfig{})
	if err := mgr.Recover(recs); err != nil {
		t.Fatal(err)
	}
	jobs := mgr.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("doubled journal produced %d jobs, want 1", len(jobs))
	}
	st := waitTerminal(t, srv.URL, "sweep-1")
	if st.State != string(StateCompleted) || st.Progress.Done != 2 {
		t.Fatalf("replayed history: %+v", st)
	}
	if got := eval.calls.Load(); got != 0 {
		t.Fatalf("terminal history replay ran %d evaluations, want 0", got)
	}
	// The history is fully queryable: the results stream renders the
	// journaled rows, identical to what the original run produced.
	var want bytes.Buffer
	if err := experiments.NDJSONResults(&want, []core.Result{
		ref.Evaluate(pts[0]), ref.Evaluate(pts[1])}); err != nil {
		t.Fatal(err)
	}
	if got := fetchNDJSON(t, srv.URL, "/v1/sweeps/sweep-1"); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("replayed results differ:\n%s\nwant:\n%s", got, want.Bytes())
	}
	if v := metricValue(t, fetchMetrics(t, srv.URL), "efficsense_wal_replayed_jobs_total"); v != 1 {
		t.Fatalf("efficsense_wal_replayed_jobs_total = %g, want 1", v)
	}
}

// olderJournal is a journal written by the journal code of the release
// that still shaped traffic per tenant (3b15672), under a policy with a
// submission rate: sweep-1, submitted with X-API-Key team-a, finished;
// sweep-2, submitted without a key, was killed after three of its six
// rows. Each job record carries a "tenant" key, and each submission's
// "tenant" record (its bucket levels) precedes its job record.
const olderJournal = `{"k":"tenant","d":{"tenant":"team-a","submit":{"tokens":3,"last":"2026-10-19T21:02:21.231925433Z"},"eval":{"tokens":1,"last":"0001-01-01T00:00:00Z"}},"c":2570009888}
{"k":"job","d":{"id":"sweep-1","kind":"sweep","tenant":"team-a","request_id":"d9410a85669038fc","created":"2026-10-19T21:02:21.23202768Z","sweep":{"space":{"architectures":["baseline"],"bits":[4,6],"lna_noise":[1]}}},"c":3625242429}
{"k":"row","d":{"job":"sweep-1","i":0,"engine":"test-eval","r":{"p":{"arch":"baseline","bits":4,"noise":1},"snr":12,"acc":0.99,"total_w":4000,"area":256}},"c":3638756774}
{"k":"row","d":{"job":"sweep-1","i":1,"engine":"test-eval","r":{"p":{"arch":"baseline","bits":6,"noise":1},"snr":18,"acc":0.99,"total_w":6000,"area":384}},"c":1132114972}
{"k":"state","d":{"job":"sweep-1","state":"completed"},"c":1737463639}
{"k":"tenant","d":{"tenant":"default","submit":{"tokens":3,"last":"2026-10-19T21:02:21.239009899Z"},"eval":{"tokens":1,"last":"0001-01-01T00:00:00Z"}},"c":1758475669}
{"k":"job","d":{"id":"sweep-2","kind":"sweep","tenant":"default","request_id":"2784a01df8f622ed","created":"2026-10-19T21:02:21.239033733Z","sweep":{"space":{"architectures":["baseline"],"bits":[4,6],"noise_steps":3}}},"c":361359651}
{"k":"row","d":{"job":"sweep-2","i":0,"engine":"test-eval","r":{"p":{"arch":"baseline","bits":4,"noise":0.000001},"snr":12,"acc":0.99,"total_w":0.004,"area":256}},"c":1693240615}
{"k":"row","d":{"job":"sweep-2","i":1,"engine":"test-eval","r":{"p":{"arch":"baseline","bits":4,"noise":0.000004472135954999579},"snr":12,"acc":0.99,"total_w":0.017888543819998316,"area":256}},"c":3851486488}
{"k":"row","d":{"job":"sweep-2","i":2,"engine":"test-eval","r":{"p":{"arch":"baseline","bits":4,"noise":0.00002},"snr":12,"acc":0.99,"total_w":0.08,"area":256}},"c":1687932717}
`

// olderOutcome and olderResults are what that release reported for
// sweep-1: the result block of its status and its results stream.
const (
	olderOutcome = `{"partial":false,"points":2,"total":2,"errors":0,"fronts":{"accuracy":{"baseline":[{"point":{"arch":"baseline","bits":4,"lna_noise":1},"snr_db":12,"accuracy":0.99,"total_w":4000,"area_caps":256}],"cs":[]},"snr":{"baseline":[{"point":{"arch":"baseline","bits":4,"lna_noise":1},"snr_db":12,"accuracy":0.99,"total_w":4000,"area_caps":256},{"point":{"arch":"baseline","bits":6,"lna_noise":1},"snr_db":18,"accuracy":0.99,"total_w":6000,"area_caps":384}],"cs":[]}},"optima":{"baseline":{"point":{"arch":"baseline","bits":4,"lna_noise":1},"snr_db":12,"accuracy":0.99,"total_w":4000,"area_caps":256},"cs":null},"min_accuracy":0.98}`
	olderResults = `{"arch":"baseline","bits":4,"noise_vrms":1,"m":0,"chold_f":0,"snr_db":12,"accuracy":0.99,"total_w":4000,"area_caps":256}
{"arch":"baseline","bits":6,"noise_vrms":1,"m":0,"chold_f":0,"snr_db":18,"accuracy":0.99,"total_w":6000,"area_caps":384}
`
)

// TestChaosRestartReplaysOlderJournal: a journal the previous release
// wrote, tenant records and keys included, replays without a warning.
// The finished sweep comes back as history with that release's outcome
// and rows, the killed one resumes from its three journaled rows and
// finishes bit-identical to an uninterrupted run, and the compaction at
// shutdown drops what this version no longer writes.
func TestChaosRestartReplaysOlderJournal(t *testing.T) {
	dir := t.TempDir()
	journalLines(t, dir, []byte(olderJournal))
	walLog, recs, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 || walLog.Stats().Dropped != 0 {
		t.Fatalf("open replayed %d records and dropped %d, want 10 and 0", len(recs), walLog.Stats().Dropped)
	}
	ref := referenceNDJSON(t, restartSweep(), &slowEval{}, "test-eval")

	sink := &logSink{}
	eval := &slowEval{}
	srv, mgr := newDurableServer(t, walLog, eval, ManagerConfig{Log: slog.New(sinkHandler{sink: sink})})
	if err := mgr.Recover(recs); err != nil {
		t.Fatal(err)
	}

	done := waitTerminal(t, srv.URL, "sweep-1")
	outcome, err := json.Marshal(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != string(StateCompleted) || string(outcome) != olderOutcome {
		t.Fatalf("replayed sweep-1: state %q, outcome\n%s\nwant\n%s", done.State, outcome, olderOutcome)
	}
	if got := fetchNDJSON(t, srv.URL, "/v1/sweeps/sweep-1"); string(got) != olderResults {
		t.Fatalf("replayed sweep-1 results:\n%s\nwant:\n%s", got, olderResults)
	}

	resumed := waitTerminal(t, srv.URL, "sweep-2")
	if resumed.State != string(StateCompleted) || resumed.Progress.Done != 6 {
		t.Fatalf("resumed sweep-2: %+v", resumed)
	}
	if got := eval.calls.Load(); got != 3 {
		t.Fatalf("evaluator ran %d points, want 3 (the complement)", got)
	}
	if got := fetchNDJSON(t, srv.URL, "/v1/sweeps/sweep-2"); !bytes.Equal(got, ref) {
		t.Fatalf("resumed results differ from the uninterrupted run:\nresumed:\n%s\nreference:\n%s", got, ref)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	for _, r := range sink.recs {
		if r.level >= slog.LevelWarn {
			t.Errorf("recovery logged %v %q %v", r.level, r.msg, r.attrs)
		}
	}
	sink.mu.Unlock()

	compacted, err := os.ReadFile(filepath.Join(dir, wal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(compacted, []byte(`"tenant"`)) {
		t.Fatalf("compacted journal still names a tenant:\n%s", compacted)
	}
	kinds := map[string]int{}
	for _, line := range bytes.SplitAfter(compacted, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		rec, err := wal.Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		kinds[rec.Kind]++
	}
	if want := map[string]int{walKindJob: 2, walKindRow: 8, walKindState: 2}; !maps.Equal(kinds, want) {
		t.Fatalf("compacted journal holds %v records, want %v", kinds, want)
	}
}

// evaluateOnAccept is a slog.Handler that, on the "sweep accepted"
// record, runs a Manager.Evaluate from another goroutine and waits up
// to two seconds for it to return, reporting whether it did.
type evaluateOnAccept struct {
	mgr      *Manager
	returned chan bool
}

func (h *evaluateOnAccept) Enabled(context.Context, slog.Level) bool { return true }
func (h *evaluateOnAccept) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *evaluateOnAccept) WithGroup(string) slog.Handler            { return h }

func (h *evaluateOnAccept) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "sweep accepted" {
		return nil
	}
	evaluated := make(chan struct{})
	go func() {
		defer close(evaluated)
		p := core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: 1e-6}
		_, _, _ = h.mgr.Evaluate(context.Background(), nil, p, 0)
	}()
	select {
	case <-evaluated:
		h.returned <- true
	case <-time.After(2 * time.Second):
		h.returned <- false
	}
	return nil
}

// TestEvaluateRunsWhileAcceptJournals: a submission journals its job
// record (an fsync) and logs its "accepted" line outside the manager
// lock, so a synchronous evaluation never waits behind either.
func TestEvaluateRunsWhileAcceptJournals(t *testing.T) {
	walLog, _, err := wal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := &evaluateOnAccept{returned: make(chan bool, 1)}
	srv, mgr := newDurableServer(t, walLog, &slowEval{}, ManagerConfig{Log: slog.New(h)})
	h.mgr = mgr
	job, err := mgr.Submit(context.Background(), restartSweep())
	if err != nil {
		t.Fatal(err)
	}
	if !<-h.returned {
		t.Fatal("Manager.Evaluate blocked while a submission journaled and logged its acceptance")
	}
	if st := waitTerminal(t, srv.URL, job.ID); st.State != string(StateCompleted) {
		t.Fatalf("sweep: %+v", st)
	}
}
