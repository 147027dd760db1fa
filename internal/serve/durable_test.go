package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
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
		ID: id, Kind: jobKindSweep, Tenant: DefaultTenant,
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

// TestChaosTenantBucketSurvivesRestart pins the PR 8 follow-on fix: a
// tenant's token-bucket levels are journaled, so a crash-restart cannot
// refill an exhausted bucket and hand the tenant a fresh burst.
func TestChaosTenantBucketSurvivesRestart(t *testing.T) {
	const sweep = `{"space":{"architectures":["baseline"],"bits":[4],"noise_steps":1}}`
	tenancy := TenantPolicy{Default: TenantLimits{
		// Refill is negligible on test timescales: the burst is the
		// whole budget.
		SubmitRate:  0.0001,
		SubmitBurst: 2,
	}}

	dirA := t.TempDir()
	walA, _, err := wal.Open(dirA)
	if err != nil {
		t.Fatal(err)
	}
	srvA, mgrA := newDurableServer(t, walA, &slowEval{}, ManagerConfig{Tenancy: tenancy})

	// Spend the whole burst, then confirm the bucket is empty.
	for i := 0; i < 2; i++ {
		resp := postJSON(t, srvA.URL+"/v1/sweeps", sweep)
		st := decodeStatus(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d rejected: %d", i+1, resp.StatusCode)
		}
		waitTerminal(t, srvA.URL, st.ID)
	}
	if _, err := mgrA.Submit(context.Background(), SweepRequest{}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third submission before restart: %v, want ErrRateLimited", err)
	}

	// SIGKILL disk image, restart, recover.
	snapshot, err := os.ReadFile(filepath.Join(dirA, wal.FileName))
	if err != nil {
		t.Fatal(err)
	}
	dirB := t.TempDir()
	if err := os.WriteFile(filepath.Join(dirB, wal.FileName), snapshot, 0o644); err != nil {
		t.Fatal(err)
	}
	walB, recs, err := wal.Open(dirB)
	if err != nil {
		t.Fatal(err)
	}
	srvB, mgrB := newDurableServer(t, walB, &slowEval{}, ManagerConfig{Tenancy: tenancy})
	if err := mgrB.Recover(recs); err != nil {
		t.Fatal(err)
	}

	// The exhausted bucket survived the restart: still rate-limited.
	if _, err := mgrB.Submit(context.Background(), SweepRequest{}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("submission after restart: %v, want ErrRateLimited (bucket state lost)", err)
	}
	resp := postJSON(t, srvB.URL+"/v1/sweeps", sweep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP submission after restart: %d, want 429", resp.StatusCode)
	}

	// Control: an unrelated fresh deployment (no journal) does get its
	// burst — the limit above came from the restored levels, not the
	// policy alone.
	srvC, _ := newDurableServer(t, nil, &slowEval{}, ManagerConfig{Tenancy: tenancy})
	resp = postJSON(t, srvC.URL+"/v1/sweeps", sweep)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh deployment first submission: %d, want 202", resp.StatusCode)
	}
}
