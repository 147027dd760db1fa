package serve

// Durable jobs: the Manager's write-ahead journal. When ManagerConfig.WAL
// is set, every accepted job appends a "job" record (fsynced — a job the
// client was told about must survive a power cut), every completed
// design-point evaluation appends a "row" record (unsynced: losing the
// tail re-evaluates exactly the tail), and every terminal transition
// appends an fsynced "state" record. Recover replays a journal produced
// by a previous process: terminal jobs come back as queryable history,
// and a sweep that was mid-flight when the process died resumes from its
// last journaled row — the journaled rows are never re-evaluated, and the
// resumed result cloud is bit-identical to an uninterrupted run
// (encoding/json round-trips float64 exactly).
//
// Forward compatibility: a record kind or a job kind this binary does not
// know (written by a future version) is skipped with a warning, never a
// startup failure. Journals written by earlier versions replay too: the
// record kind and the job-record key they carry that this version no
// longer writes are skipped silently, and the first compaction drops
// them.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"time"

	"efficsense/internal/core"
	"efficsense/internal/power"
	"efficsense/internal/wal"
)

// WAL record kinds (the wal.Record Kind discriminator).
const (
	walKindJob   = "job"
	walKindRow   = "row"
	walKindState = "state"
	// walKindTenant named the token-bucket records of retired tenancy.
	walKindTenant = "tenant"
)

// walPoint is the journal form of a core.DesignPoint.
type walPoint struct {
	Arch     string  `json:"arch"`
	Bits     int     `json:"bits"`
	LNANoise float64 `json:"noise"`
	M        int     `json:"m,omitempty"`
	CHold    float64 `json:"chold,omitempty"`
}

// walResult is the journal form of a core.Result: every field the NDJSON
// results stream and the outcome distillation read, so a replayed row is
// indistinguishable from a freshly evaluated one.
type walResult struct {
	Point    walPoint           `json:"p"`
	SNRdB    float64            `json:"snr"`
	Accuracy float64            `json:"acc"`
	TP       int                `json:"tp,omitempty"`
	TN       int                `json:"tn,omitempty"`
	FP       int                `json:"fp,omitempty"`
	FN       int                `json:"fn,omitempty"`
	Power    map[string]float64 `json:"pw,omitempty"`
	TotalW   float64            `json:"total_w"`
	AreaCaps float64            `json:"area"`
	Err      string             `json:"err,omitempty"`
}

func walResultOf(r core.Result) walResult {
	out := walResult{
		Point: walPoint{Arch: r.Point.Arch.String(), Bits: r.Point.Bits,
			LNANoise: r.Point.LNANoise, M: r.Point.M, CHold: r.Point.CHold},
		SNRdB: r.MeanSNRdB, Accuracy: r.Accuracy,
		TP: r.Confusion.TP, TN: r.Confusion.TN,
		FP: r.Confusion.FP, FN: r.Confusion.FN,
		TotalW: r.TotalPower, AreaCaps: r.AreaCaps,
	}
	if len(r.Power) > 0 {
		out.Power = make(map[string]float64, len(r.Power))
		for c, w := range r.Power {
			out.Power[string(c)] = w
		}
	}
	if r.Err != nil {
		out.Err = r.Err.Error()
	}
	return out
}

func (w walResult) result() core.Result {
	arch, err := parseArch(w.Point.Arch)
	if err != nil {
		arch = core.ArchBaseline
	}
	r := core.Result{
		Point: core.DesignPoint{Arch: arch, Bits: w.Point.Bits,
			LNANoise: w.Point.LNANoise, M: w.Point.M, CHold: w.Point.CHold},
		MeanSNRdB: w.SNRdB, Accuracy: w.Accuracy,
		TotalPower: w.TotalW, AreaCaps: w.AreaCaps,
	}
	r.Confusion.TP, r.Confusion.TN = w.TP, w.TN
	r.Confusion.FP, r.Confusion.FN = w.FP, w.FN
	if len(w.Power) > 0 {
		r.Power = make(power.Breakdown, len(w.Power))
		for c, v := range w.Power {
			r.Power[power.Component(c)] = v
		}
	}
	if w.Err != "" {
		r.Err = errors.New(w.Err)
	}
	return r
}

// walJobRecord journals one accepted job: its identity plus the original
// wire request, so recovery re-derives options, space and points through
// exactly the submission pipeline.
type walJobRecord struct {
	ID        string         `json:"id"`
	Kind      string         `json:"kind"`
	RequestID string         `json:"request_id,omitempty"`
	Created   time.Time      `json:"created"`
	Sweep     *SweepRequest  `json:"sweep,omitempty"`
	Search    *SearchRequest `json:"search,omitempty"`
}

// walRowRecord journals one completed evaluation, keyed by the job and
// the point's index in the job's original point order, with the
// fingerprint of the evaluator that computed it.
type walRowRecord struct {
	Job    string    `json:"job"`
	I      int       `json:"i"`
	Engine string    `json:"engine,omitempty"`
	Result walResult `json:"r"`
}

// walStateRecord journals a terminal transition. Sweep results live in
// their row records; a search job's outcome and front travel here (the
// driver's evaluations are not row-journaled — a search interrupted
// mid-flight re-runs from scratch, deterministically).
type walStateRecord struct {
	Job    string         `json:"job"`
	State  string         `json:"state"`
	Error  string         `json:"error,omitempty"`
	Search *SearchOutcome `json:"search,omitempty"`
	Front  []walResult    `json:"front,omitempty"`
}

// walWarn logs a durability problem; the journal is an enhancement, so
// journal failures degrade to log lines, never failed jobs.
func (m *Manager) walWarn(msg string, err error, attrs ...slog.Attr) {
	if m.cfg.Log == nil {
		return
	}
	base := append([]slog.Attr{slog.String("error", err.Error())}, attrs...)
	m.cfg.Log.LogAttrs(context.Background(), slog.LevelWarn, msg, base...)
}

// journalJob appends (and fsyncs) the job-accepted record: rec, which
// carries the job's wire request, stamped with the job's identity. It
// runs before the job starts, outside the manager lock; the job's spec
// fields are immutable from here on.
func (m *Manager) journalJob(job *Job, rec walJobRecord) {
	if m.cfg.WAL == nil {
		return
	}
	rec.ID, rec.Kind = job.ID, job.kind
	rec.RequestID, rec.Created = job.requestID, job.created
	job.walJob = &rec
	if err := m.cfg.WAL.AppendSync(walKindJob, rec); err != nil {
		m.walWarn("wal: journaling job", err, slog.String("job_id", job.ID))
	}
}

// journalRow appends one completed evaluation (no fsync: the row rate is
// the sweep rate, and a lost tail only re-evaluates that tail).
func (m *Manager) journalRow(job *Job, i int, r core.Result) {
	if m.cfg.WAL == nil || job.kind != jobKindSweep {
		return
	}
	rec := walRowRecord{Job: job.ID, I: i, Engine: job.engineID, Result: walResultOf(r)}
	if err := m.cfg.WAL.Append(walKindRow, rec); err != nil {
		m.walWarn("wal: journaling row", err, slog.String("job_id", job.ID))
	}
}

// journalFinish appends (and fsyncs) the terminal-state record.
func (m *Manager) journalFinish(job *Job) {
	if m.cfg.WAL == nil {
		return
	}
	job.mu.Lock()
	rec := job.stateRecordLocked()
	job.mu.Unlock()
	if err := m.cfg.WAL.AppendSync(walKindState, rec); err != nil {
		m.walWarn("wal: journaling terminal state", err, slog.String("job_id", job.ID))
	}
}

// stateRecordLocked is the job's terminal-state record; a search's
// carries its outcome and front. Callers hold j.mu.
func (j *Job) stateRecordLocked() walStateRecord {
	rec := walStateRecord{Job: j.ID, State: string(j.state)}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	if j.kind == jobKindSearch {
		rec.Search = j.searchOut
		rec.Front = make([]walResult, len(j.results))
		for i, r := range j.results {
			rec.Front[i] = walResultOf(r)
		}
	}
	return rec
}

// compactWAL rewrites the journal as a snapshot of the still-tracked
// jobs — the clean-shutdown snapshot+truncate. Rows are reconstructed
// from each sweep's result cloud (points are unique within a space, so
// a result maps back to its original index); evicted jobs leave the
// journal entirely. Called after the drain, so every tracked job is
// terminal and quiescent. Jobs are ordered by ID, so the snapshot is
// deterministic.
func (m *Manager) compactWAL() error {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })

	var records []wal.Record
	add := func(kind string, payload interface{}) error {
		line, err := wal.Encode(kind, payload)
		if err != nil {
			return err
		}
		rec, err := wal.Decode(line)
		if err != nil {
			return err
		}
		records = append(records, rec)
		return nil
	}
	for _, j := range jobs {
		j.mu.Lock()
		jobRec, terminal := j.walJob, j.state.Terminal()
		results, engineID := j.results, j.engineID
		st := j.stateRecordLocked()
		j.mu.Unlock()
		if jobRec == nil || !terminal {
			continue // journalling was off for this job, or it never drained
		}
		if err := add(walKindJob, jobRec); err != nil {
			return err
		}
		if j.kind == jobKindSweep {
			idx := make(map[core.DesignPoint]int, j.total)
			for i, p := range j.space.Points() {
				idx[p] = i
			}
			for _, r := range results {
				if i, ok := idx[r.Point]; ok {
					if err := add(walKindRow, walRowRecord{Job: j.ID, I: i, Engine: engineID, Result: walResultOf(r)}); err != nil {
						return err
					}
				}
			}
		}
		if err := add(walKindState, st); err != nil {
			return err
		}
	}
	return m.cfg.WAL.Compact(records)
}

// Recover replays a journal produced by a previous process (the records
// wal.Open returned for the Manager's configured log). Terminal jobs are
// restored as queryable history with their results and outcomes;
// in-flight sweeps are re-enqueued with their journaled rows attached,
// so dispatch evaluates only the complement; in-flight searches re-run
// from scratch (the driver is deterministic). Records of unknown kinds
// and jobs of unknown kinds — both the signature of a journal written by
// a newer version — are skipped with a warning, never a startup failure.
// Replaying the same journal twice (doubled records) is idempotent: jobs
// key by ID, rows by (job, index), last record wins.
func (m *Manager) Recover(records []wal.Record) error {
	type jobEntry struct {
		rec  walJobRecord
		rows map[int]walRowRecord
		st   *walStateRecord
	}
	byID := make(map[string]*jobEntry)
	var order []string
	for _, rec := range records {
		switch rec.Kind {
		case walKindJob:
			var jr walJobRecord
			if err := json.Unmarshal(rec.Data, &jr); err != nil || jr.ID == "" {
				m.walWarn("wal: skipping malformed job record", errOrDefault(err))
				continue
			}
			if e, ok := byID[jr.ID]; ok {
				e.rec = jr // doubled journal: last record wins, one job table
				continue
			}
			byID[jr.ID] = &jobEntry{rec: jr, rows: make(map[int]walRowRecord)}
			order = append(order, jr.ID)
		case walKindRow:
			var rr walRowRecord
			if err := json.Unmarshal(rec.Data, &rr); err != nil {
				m.walWarn("wal: skipping malformed row record", errOrDefault(err))
				continue
			}
			if e, ok := byID[rr.Job]; ok {
				e.rows[rr.I] = rr
			}
		case walKindState:
			var sr walStateRecord
			if err := json.Unmarshal(rec.Data, &sr); err != nil {
				m.walWarn("wal: skipping malformed state record", errOrDefault(err))
				continue
			}
			if e, ok := byID[sr.Job]; ok {
				st := sr
				e.st = &st
			}
		case walKindTenant:
			// An older version's record of state this one does not keep.
		default:
			m.walWarn("wal: skipping record of unknown kind",
				fmt.Errorf("kind %q (written by a newer version?)", rec.Kind))
		}
	}
	for _, id := range order {
		e := byID[id]
		m.bumpSeq(id)
		if e.rec.Kind != jobKindSweep && e.rec.Kind != jobKindSearch {
			// A job kind from a future version: skip it, keep starting.
			m.walWarn("wal: skipping job of unknown kind",
				fmt.Errorf("kind %q (written by a newer version?)", e.rec.Kind),
				slog.String("job_id", id))
			continue
		}
		if err := m.recoverJob(e.rec, e.rows, e.st); err != nil {
			m.walWarn("wal: skipping unrecoverable "+e.rec.Kind+" job", err,
				slog.String("job_id", id))
		}
	}
	return nil
}

func errOrDefault(err error) error {
	if err == nil {
		return errors.New("incomplete record")
	}
	return err
}

// bumpSeq keeps new job IDs from colliding with replayed ones.
func (m *Manager) bumpSeq(id string) {
	dash := strings.LastIndexByte(id, '-')
	if dash < 0 {
		return
	}
	n, err := strconv.ParseInt(id[dash+1:], 10, 64)
	if err != nil {
		return
	}
	m.mu.Lock()
	if n > m.seq {
		m.seq = n
	}
	m.mu.Unlock()
}

// recoverJob rebuilds one journaled job through its kind's derivation,
// the one Submit or SubmitSearch used, under its journaled identity.
// A terminal job becomes queryable history: a sweep's outcome is
// distilled from its journaled rows in index order exactly as finish
// distilled it, a search's outcome and front come back as journaled. An
// in-flight job re-enqueues: a sweep with its journaled rows attached,
// so only the complement is evaluated (checkReplayed decides, once the
// engine is resolved, whether the rows may be kept), a search from
// scratch — search.Run is deterministic, and its evaluations flow
// through the shared memoisation cache anyway.
func (m *Manager) recoverJob(rec walJobRecord, journaled map[int]walRowRecord, st *walStateRecord) error {
	var job *Job
	var err error
	if rec.Kind == jobKindSearch {
		var req SearchRequest
		if rec.Search != nil {
			req = *rec.Search
		}
		job, err = m.searchJob(req)
	} else {
		var req SweepRequest
		if rec.Sweep != nil {
			req = *rec.Sweep
		}
		job, err = m.sweepJob(req)
	}
	if err != nil {
		return err
	}
	job.ID, job.requestID = rec.ID, rec.RequestID
	job.created = rec.Created
	job.walJob = &rec
	var rows map[int]core.Result
	var rowsEngine string
	if job.kind == jobKindSweep {
		rows, rowsEngine = restoreRows(journaled, job.total)
	}

	if st != nil && JobState(st.State).Terminal() {
		job.state = JobState(st.State)
		if st.Error != "" {
			job.err = errors.New(st.Error)
		}
		attrs := []slog.Attr{slog.String("state", st.State)}
		if job.kind == jobKindSearch {
			job.searchOut = st.Search
			job.results = make([]core.Result, len(st.Front))
			for i, w := range st.Front {
				job.results[i] = w.result()
			}
			if st.Search != nil {
				job.done, job.total = st.Search.Evaluations, st.Search.Budget
			}
		} else {
			results := make([]core.Result, 0, len(rows))
			for i := 0; i < job.total; i++ { // index order, as the sweep ran
				if r, ok := rows[i]; ok {
					results = append(results, r)
				}
			}
			job.engineID = rowsEngine
			job.settleSweepLocked(results)
			job.done = len(results)
			m.walReplayedRows.Add(int64(len(results)))
			attrs = append(attrs, slog.Int("rows", len(results)))
		}
		job.appendEventLocked("state", []byte(fmt.Sprintf(`{"state":%q,"replayed":true}`, job.state)))
		m.mu.Lock()
		m.jobs[job.ID] = job
		m.mu.Unlock()
		m.scheduleEvict(job)
		m.walReplayedJobs.Add(1)
		m.logJob(job, job.kind+" replayed from wal", attrs...)
		return nil
	}

	if len(rows) > 0 {
		job.replayed, job.replayedEngine = rows, rowsEngine
	}
	// The log line is built before the enqueue: from there on the job
	// goroutine owns the progress window.
	msg, attrs := "sweep resumed from wal", []slog.Attr{
		slog.Int("replayed_rows", len(rows)), slog.Int("points", job.total)}
	if job.kind == jobKindSearch {
		msg, attrs = "search restarted from wal", []slog.Attr{slog.Int("budget", job.spec.MaxEvaluations)}
	}
	m.mu.Lock()
	m.jobs[job.ID] = job
	m.wg.Add(1)
	m.waiting = append(m.waiting, job)
	m.startLocked()
	m.mu.Unlock()
	m.walResumedJobs.Add(1)
	m.logJob(job, msg, attrs...)
	return nil
}

// restoreRows decodes a sweep's journaled rows inside its space of
// total points, with the evaluator fingerprint they were all computed
// under ("" when the journal names none, or several).
func restoreRows(journaled map[int]walRowRecord, total int) (map[int]core.Result, string) {
	rows := make(map[int]core.Result, len(journaled))
	engineID, first := "", true
	for i, rr := range journaled {
		if i < 0 || i >= total {
			continue
		}
		rows[i] = rr.Result.result()
		if first {
			engineID, first = rr.Engine, false
		} else if rr.Engine != engineID {
			engineID = "" // rows from more than one evaluator
		}
	}
	return rows, engineID
}

// checkReplayed runs once a resumed sweep's engine is resolved: the
// journaled rows are kept (and counted as restored) only when they were
// all computed under the engine's evaluator fingerprint. Otherwise —
// an upgrade that changes results, a journal without fingerprints, an
// engine without one — merging them with fresh rows would mix two
// evaluation functions in one result cloud, so they are dropped with a
// warning and the whole sweep is evaluated.
func (m *Manager) checkReplayed(job *Job) {
	n := len(job.replayed)
	if n == 0 {
		return
	}
	if job.replayedEngine != "" && job.replayedEngine == job.engineID {
		m.walReplayedRows.Add(int64(n))
		return
	}
	m.walDiscardedRows.Add(int64(n))
	m.walWarn("wal: re-evaluating a resumed sweep",
		fmt.Errorf("its %d journaled rows were computed under evaluator %q, the engine is %q",
			n, job.replayedEngine, job.engineID),
		slog.String("job_id", job.ID))
	job.replayed = nil
}
