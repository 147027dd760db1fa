package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/obs"
	"efficsense/internal/report"
	"efficsense/internal/scenario"
	"efficsense/internal/search"
	"efficsense/internal/wal"
)

// JobState is the lifecycle of an asynchronous job.
type JobState string

const (
	// StatePending: submitted, slot held, evaluator not yet ready.
	StatePending JobState = "pending"
	// StateRunning: the engine is evaluating points.
	StateRunning JobState = "running"
	// StateCompleted: every point evaluated; the outcome is final.
	StateCompleted JobState = "completed"
	// StateCancelled: stopped by DELETE; the outcome holds the partial
	// results completed before cancellation.
	StateCancelled JobState = "cancelled"
	// StateFailed: the suite could not be built or the run errored.
	StateFailed JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateCompleted || s == StateCancelled || s == StateFailed
}

// Scenario resolves the workload a request's options select, with the
// server defaults applied — the handler-side counterpart of the
// admission paths, used to scope point parsing before evaluation.
func (m *Manager) Scenario(spec *OptionsSpec) (*scenario.Scenario, error) {
	opts := spec.apply(m.cfg.Defaults)
	return scenario.Lookup(opts.Scenario)
}

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrSaturated: every job slot is busy (429 + Retry-After).
	ErrSaturated = errors.New("serve: all job slots are busy")
	// ErrShuttingDown: the manager is draining (503).
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrNotFound: unknown job ID (404).
	ErrNotFound = errors.New("serve: no such job")
	// ErrBadRequest wraps spec validation failures (400).
	ErrBadRequest = errors.New("serve: invalid request")
)

// ManagerConfig sizes a job Manager. The zero value of every field picks
// a sensible default except Engines, which is required.
type ManagerConfig struct {
	// Defaults are the base suite options; request options override them
	// field by field.
	Defaults experiments.Options
	// Engines resolves option sets to sweep engines
	// ((*SuiteEngines).Engine in production).
	Engines EngineFunc
	// Cache, if set, is reported under /metrics (pass the SuiteEngines
	// shared cache): occupancy, capacity, hits and misses, evictions and
	// singleflight shares.
	Cache *cache.LRU
	// MaxConcurrentJobs bounds simultaneously running jobs, sweeps and
	// searches alike (default 2). Submissions beyond it are rejected with
	// ErrSaturated — the caller retries after Retry-After — rather than
	// queued, so a burst cannot build unbounded state.
	MaxConcurrentJobs int
	// JobTTL is how long finished jobs stay queryable (default 15m).
	JobTTL time.Duration
	// MaxSweepPoints rejects spaces bigger than this (default 100000).
	MaxSweepPoints int
	// MaxSearchEvaluations caps a search job's evaluation budget
	// (default 20000): requests asking for more are rejected, and a
	// request without a budget defaults to a tenth of its space,
	// clamped to this.
	MaxSearchEvaluations int
	// EvalTimeout caps the synchronous /v1/evaluate deadline (default 2m).
	EvalTimeout time.Duration
	// Log receives structured job lifecycle records (accepted, started,
	// finished, cancel requested), each carrying job_id and the
	// submitting request's request_id so a slow sweep correlates back to
	// the call that created it. nil disables lifecycle logging.
	Log *slog.Logger
	// WAL, when set, makes jobs durable: specs and completed result rows
	// are journaled (fsync on job-state transitions), Recover replays
	// terminal jobs as history and resumes in-flight sweeps from their
	// last journaled row, and Shutdown compacts the journal. The Manager
	// owns the log once passed: Shutdown closes it.
	WAL *wal.Log
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.MaxConcurrentJobs <= 0 {
		c.MaxConcurrentJobs = 2
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 100000
	}
	if c.MaxSearchEvaluations <= 0 {
		c.MaxSearchEvaluations = 20000
	}
	if c.EvalTimeout <= 0 {
		c.EvalTimeout = 2 * time.Minute
	}
	return c
}

// Manager owns the server's jobs, sweeps and searches alike: it admits
// each into one bounded pool of job slots (or rejects it when every
// slot is busy), runs it against the shared engine layer, buffers its
// events for SSE replay, journals specs and rows to the WAL (when
// configured), evicts finished jobs after a TTL and drains cleanly on
// shutdown.
type Manager struct {
	cfg ManagerConfig

	mu      sync.Mutex
	jobs    map[string]*Job
	engines map[Engine]struct{}
	seq     int64
	closed  bool
	wg      sync.WaitGroup
	// Admission: the count of occupied job slots, the jobs waiting for
	// one in arrival order (only in-flight jobs resumed by Recover ever
	// wait), and the TTL-eviction timers (stopped on Shutdown so a
	// drained manager leaks no timers into embedders or tests).
	running int
	waiting []*Job
	timers  map[string]*time.Timer
	// Durability counters (efficsense_wal_* series): jobs replayed as
	// history, sweeps resumed mid-flight, rows restored from the journal
	// instead of re-evaluated, and journaled rows re-evaluated because a
	// resumed sweep's engine has a different fingerprint.
	walReplayedJobs  atomic.Int64
	walResumedJobs   atomic.Int64
	walReplayedRows  atomic.Int64
	walDiscardedRows atomic.Int64

	rejected, evaluations atomic.Int64
	// Lifecycle counters per job kind, the total evaluation spend of
	// every search run, and two live gauges tracking the most recent
	// search round (front size, unspent budget).
	sweeps, searches              jobCounters
	searchEvaluations             atomic.Int64
	searchFrontSize, searchBudget atomic.Int64
}

// jobCounters is one job kind's lifecycle accounting.
type jobCounters struct {
	submitted, completed, cancelled, failed atomic.Int64
}

// kindCounters returns the lifecycle accounting of a job kind.
func (m *Manager) kindCounters(kind string) *jobCounters {
	if kind == jobKindSearch {
		return &m.searches
	}
	return &m.sweeps
}

// NewManager builds a Manager; cfg.Engines must be set.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Engines == nil {
		return nil, errors.New("serve: ManagerConfig.Engines is required")
	}
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:     cfg,
		jobs:    make(map[string]*Job),
		engines: make(map[Engine]struct{}),
		timers:  make(map[string]*time.Timer),
	}, nil
}

// JobEvent is one buffered job event, ready for SSE framing: ID is the
// per-job monotonic sequence number (the SSE id, so Last-Event-ID
// resumption replays exactly the missed suffix), Name the SSE event name
// ("state", "point" or "done") and Data a single-line JSON payload.
type JobEvent struct {
	ID   int
	Name string
	Data []byte
}

// pointEventHeaders are the keys of "point" event payloads: the progress
// window plus the ResultHeaders columns the CSV/NDJSON emitters share.
var pointEventHeaders = func() []string {
	h := []string{"done", "total", "cached", "duration_ms"}
	h = append(h, experiments.ResultHeaders...)
	return append(h, "err")
}()

func pointEventRow(ev dse.Event) []interface{} {
	row := []interface{}{ev.Done, ev.Total, ev.Cached,
		float64(ev.Duration) / float64(time.Millisecond)}
	row = append(row, experiments.ResultRow(ev.Result)...)
	errStr := ""
	if ev.Result.Err != nil {
		errStr = ev.Result.Err.Error()
	}
	return append(row, errStr)
}

// Job kinds: the discriminator picks the URL prefix, the run loop and
// the outcome shape. Immutable after submission.
const (
	jobKindSweep  = "sweep"
	jobKindSearch = "search"
)

// Job is one asynchronous job: an exhaustive sweep or a goal-directed
// search, by kind.
type Job struct {
	ID string
	// requestID is the X-Request-ID of the submitting request, immutable
	// after Submit: status responses and every lifecycle log line carry
	// it, so "which call started this sweep" is always answerable.
	requestID string
	kind      string
	// replayed holds WAL-journaled results by original point index for a
	// resumed sweep, and replayedEngine the evaluator fingerprint they were
	// all computed under ("" when the journal does not name one, or names
	// several). When the job's engine has that fingerprint, those points
	// are never re-evaluated and the engine runs only the complement;
	// otherwise runSweep drops them and evaluates the whole sweep. Set by
	// recovery, read and cleared only by runSweep; nil for fresh jobs.
	replayed       map[int]core.Result
	replayedEngine string
	// walJob is the journaled job record (nil when durability is off),
	// re-emitted verbatim by the clean-shutdown compaction. Immutable
	// after Submit/Recover.
	walJob *walJobRecord

	// opts and space are the job's options and design space. The space
	// is enumerated only where its points are needed: when a sweep runs
	// and when the journal is compacted.
	opts  experiments.Options
	space dse.Space
	// spec is the parsed query of a search job; probeOpts, when set, are
	// the reduced-fidelity engine options of its probe rung (nil = every
	// evaluation runs at full fidelity). Immutable after derivation.
	spec      search.Spec
	probeOpts *experiments.Options
	ctx       context.Context
	cancel    context.CancelFunc

	mu              sync.Mutex
	cond            *sync.Cond
	state           JobState
	cancelRequested bool
	created         time.Time
	started         time.Time
	finished        time.Time
	done, total     int
	events          []JobEvent
	results         []core.Result
	outcome         *SweepOutcome
	searchOut       *SearchOutcome
	err             error
	engine          Engine
	// engineID is the fingerprint of the evaluator behind engine (or, for
	// replayed history, of the journaled rows), journaled with each row.
	engineID string
}

// newJob builds a pending job of the given kind; its derivation fills
// in the kind's fields and admission or recovery its identity.
func newJob(kind string, opts experiments.Options, space dse.Space) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{kind: kind, opts: opts, space: space, ctx: ctx, cancel: cancel, state: StatePending}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// logJob emits one structured lifecycle record for a job, always
// carrying job_id and the submitting request's request_id. Safe without
// the job lock: both fields are immutable after Submit.
func (m *Manager) logJob(j *Job, msg string, attrs ...slog.Attr) {
	if m.cfg.Log == nil {
		return
	}
	base := append([]slog.Attr{
		slog.String("job_id", j.ID),
		slog.String("request_id", j.requestID),
	}, attrs...)
	m.cfg.Log.LogAttrs(context.Background(), slog.LevelInfo, msg, base...)
}

// options applies a request's option overrides to the server defaults
// and canonicalises the scenario name (empty → the default's registered
// name), so engine-key derivation and status rendering see one identity
// however the request spelled it: the first step of every derivation
// and of the synchronous lane.
func (m *Manager) options(spec *OptionsSpec) (experiments.Options, error) {
	opts := spec.apply(m.cfg.Defaults)
	scn, err := scenario.Lookup(opts.Scenario)
	if err != nil {
		return opts, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	opts.Scenario = scn.Name
	return opts, nil
}

// sweepJob derives a sweep job from its request: options, scenario and
// space. Submit and recovery both call it, so a journaled sweep resumes
// as exactly the job its submission built. The space is not enumerated
// here: an oversized request is rejected on its size alone.
func (m *Manager) sweepJob(req SweepRequest) (*Job, error) {
	opts, err := m.options(req.Options)
	if err != nil {
		return nil, err
	}
	space, err := req.Space.space(opts)
	if err != nil {
		return nil, fmt.Errorf("%w: space: %v", ErrBadRequest, err)
	}
	job := newJob(jobKindSweep, opts, space)
	job.total = space.Size()
	return job, nil
}

// admitSpace rejects a space bigger than MaxSweepPoints.
func (m *Manager) admitSpace(points int) error {
	if points > m.cfg.MaxSweepPoints {
		return fmt.Errorf("%w: space enumerates %d points, limit %d",
			ErrBadRequest, points, m.cfg.MaxSweepPoints)
	}
	return nil
}

// Submit validates the request and starts the sweep in a free job slot.
// It never blocks: a submission that finds every slot busy is rejected
// immediately with ErrSaturated. ctx is the submitting request's
// context — its request ID is recorded on the job; the sweep itself
// outlives the request and is NOT cancelled when ctx ends.
func (m *Manager) Submit(ctx context.Context, req SweepRequest) (*Job, error) {
	job, err := m.sweepJob(req)
	if err != nil {
		return nil, err
	}
	if err := m.admitSpace(job.total); err != nil {
		return nil, err
	}
	return m.accept(ctx, job, walJobRecord{Sweep: &req}, slog.Int("points", job.total))
}

// accept admits a validated job of either kind. Under the manager lock
// it runs the drain check, takes a free slot (ErrSaturated when every
// slot is busy or promised to a waiting job) and gives the job its ID
// and its table entry. Outside the lock it journals the job's fsynced
// record (rec carries the wire request recovery re-derives it from) and
// logs the "<kind> accepted" line, and only then starts the job, so no
// row precedes its job record and the caller's reply follows the fsync.
func (m *Manager) accept(ctx context.Context, job *Job, rec walJobRecord, attrs ...slog.Attr) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShuttingDown
	}
	if m.running+len(m.waiting) >= m.cfg.MaxConcurrentJobs {
		m.mu.Unlock()
		m.rejected.Add(1)
		return nil, ErrSaturated
	}
	m.running++
	m.seq++
	job.ID = fmt.Sprintf("%s-%d", job.kind, m.seq) // recovery's bumpSeq parses the suffix
	job.requestID = obs.RequestID(ctx)
	job.created = time.Now()
	m.jobs[job.ID] = job
	m.kindCounters(job.kind).submitted.Add(1)
	m.wg.Add(1)
	m.mu.Unlock()
	m.journalJob(job, rec)
	m.logJob(job, job.kind+" accepted", attrs...)
	go m.runJob(job)
	return job, nil
}

// startLocked starts waiting jobs, oldest first, while slots are free.
// Callers hold m.mu.
func (m *Manager) startLocked() {
	for m.running < m.cfg.MaxConcurrentJobs && len(m.waiting) > 0 {
		job := m.waiting[0]
		m.waiting = m.waiting[1:]
		m.running++
		go m.runJob(job)
	}
}

// release frees a finished job's slot for the oldest waiting job.
func (m *Manager) release() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.running--
	m.startLocked()
}

// runJob owns one job goroutine, in the slot it holds, end to end. It
// resolves the engines (which may train a detector on a cold option
// set), hands the job to its kind's run body — an engine run for a
// sweep, search.Run for a search — and finishes it.
func (m *Manager) runJob(job *Job) {
	defer m.wg.Done()
	defer m.release()
	// A panic anywhere in the job goroutine (engine resolution, a bug in
	// outcome distillation) must degrade this one job to failed, never
	// take the daemon down. finish is idempotence-guarded by the
	// terminal check: a panic after a clean finish is swallowed rather
	// than double-finishing.
	defer func() {
		if r := recover(); r != nil {
			if !job.State().Terminal() {
				m.finish(job, nil, nil, fmt.Errorf("serve: job goroutine panicked: %v", r))
			}
		}
	}()

	var probe Engine
	if job.probeOpts != nil {
		var err error
		if probe, err = m.cfg.Engines(*job.probeOpts); err != nil {
			m.finish(job, nil, nil, fmt.Errorf("probe engine: %w", err))
			return
		}
		m.registerEngine(probe)
	}
	engine, err := m.cfg.Engines(job.opts)
	if err != nil {
		m.finish(job, nil, nil, fmt.Errorf("engine: %w", err))
		return
	}
	m.registerEngine(engine)
	job.mu.Lock()
	job.engine = engine
	job.engineID = engine.EvaluatorID()
	job.mu.Unlock()
	if job.ctx.Err() != nil { // cancelled while the engines were building
		m.finish(job, nil, nil, job.ctx.Err())
		return
	}
	job.setState(StateRunning)
	if job.kind == jobKindSearch {
		out, err := m.runSearch(job, probe, engine)
		m.finish(job, nil, &out, err)
		return
	}
	rs, err := m.runSweep(job, engine)
	m.finish(job, rs, nil, err)
}

// runSweep is a sweep's run body: the engine evaluates the space's
// points, or for a resumed sweep the complement of its journaled rows,
// journaling each completed row and streaming it as a "point" event.
func (m *Manager) runSweep(job *Job, engine Engine) ([]core.Result, error) {
	m.logJob(job, "sweep started", slog.Int("points", job.total))
	m.checkReplayed(job)

	// A resumed sweep evaluates only the complement of its journaled
	// rows: remap maps complement indices back to original point indices
	// so events, journaled rows and the merged result cloud all speak the
	// original space. For fresh jobs remap is nil and the hook is a thin
	// journaling wrapper around onPoint.
	pts := job.space.Points()
	var remap []int
	base := len(job.replayed)
	if base > 0 {
		remap = make([]int, 0, len(pts)-base)
		rest := make([]core.DesignPoint, 0, len(pts)-base)
		for i, p := range pts {
			if _, ok := job.replayed[i]; !ok {
				remap = append(remap, i)
				rest = append(rest, p)
			}
		}
		pts = rest
		// Progress starts at the journaled rows, so a sweep whose every
		// row was journaled still reports them done.
		job.mu.Lock()
		job.done = base
		job.mu.Unlock()
		m.logJob(job, "sweep resumed",
			slog.Int("replayed_rows", base), slog.Int("remaining", len(pts)))
	}
	// got captures results by original index; the hook runs under the
	// engine's completion lock, so no extra synchronisation is needed.
	got := make(map[int]core.Result, len(pts))
	hook := func(ev dse.Event) {
		orig := ev.Index
		if remap != nil && ev.Index >= 0 && ev.Index < len(remap) {
			orig = remap[ev.Index]
		}
		got[orig] = ev.Result
		m.journalRow(job, orig, ev.Result)
		ev.Index = orig
		ev.Done += base
		ev.Total = job.total
		job.onPoint(ev)
	}

	rs, err := engine.RunWithHook(job.ctx, pts, hook)
	if base > 0 {
		rs = mergeResults(job, got)
	}
	return rs, err
}

// mergeResults assembles a resumed job's result cloud — journaled rows
// plus freshly evaluated ones — in original point order, skipping
// indices that never completed (cancellation mid-resume).
func mergeResults(job *Job, got map[int]core.Result) []core.Result {
	out := make([]core.Result, 0, len(job.replayed)+len(got))
	for i := 0; i < job.total; i++ {
		if r, ok := job.replayed[i]; ok {
			out = append(out, r)
		} else if r, ok := got[i]; ok {
			out = append(out, r)
		}
	}
	return out
}

// onPoint is the engine's per-run hook: it runs under the engine's
// completion lock (serial, strictly increasing Done), so it only
// serialises the event and wakes the streams.
func (j *Job) onPoint(ev dse.Event) {
	data, err := report.NDJSONRow(pointEventHeaders, pointEventRow(ev))
	if err != nil {
		data = []byte(`{}`)
	}
	j.mu.Lock()
	j.done, j.total = ev.Done, ev.Total
	j.appendEventLocked("point", data)
	j.mu.Unlock()
}

func (j *Job) appendEventLocked(name string, data []byte) {
	j.events = append(j.events, JobEvent{ID: len(j.events) + 1, Name: name, Data: data})
	j.cond.Broadcast()
}

func (j *Job) setState(s JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
	if s == StateRunning {
		j.started = time.Now()
	}
	j.appendEventLocked("state", []byte(fmt.Sprintf(`{"state":%q}`, s)))
}

// finish ends a job of either kind: it classifies the end state,
// distils the outcome from rs (a sweep's result cloud) or out (a
// search's outcome; nil when the search never ran), then logs, journals
// the terminal state and schedules eviction. A job that degraded points
// along the way (evaluator errors, recovered panics, injected faults)
// still lands in StateCompleted — graceful degradation, never an
// aborted job — with partial: true and the degraded count on its
// outcome and "done" event. A sweep's "done" event carries the engine's
// eval-duration quantiles; a search accounts its budget exactly
// (evaluations + remaining == budget, on the outcome, the gauges and
// the "done" event alike).
func (m *Manager) finish(job *Job, rs []core.Result, out *search.Outcome, err error) {
	if job.kind == jobKindSearch && out == nil {
		out = &search.Outcome{Budget: job.spec.MaxEvaluations}
	}
	attrs := m.finishLocked(job, rs, out, err)
	if out != nil {
		m.searchEvaluations.Add(int64(out.Evaluations))
		m.searchFrontSize.Store(int64(len(out.Front)))
		m.searchBudget.Store(int64(out.Budget - out.Evaluations))
	}
	m.logJob(job, job.kind+" finished", attrs...)
	m.journalFinish(job)
	m.scheduleEvict(job)
}

// scheduleEvict arms (and tracks) the job's TTL-eviction timer. A
// draining manager schedules none: Shutdown stops every tracked timer,
// and a timer armed after that would leak into the embedder.
func (m *Manager) scheduleEvict(job *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	m.timers[job.ID] = time.AfterFunc(m.cfg.JobTTL, func() { m.evict(job.ID) })
}

// finishLocked is finish's under-lock half, returning the attributes of
// the "finished" log line; the deferred unlock keeps the job lock
// released even if outcome distillation panics (the job goroutine's
// recover then degrades the job instead of deadlocking).
func (m *Manager) finishLocked(job *Job, rs []core.Result, out *search.Outcome, err error) []slog.Attr {
	job.mu.Lock()
	defer job.mu.Unlock()
	job.finished = time.Now()
	c := m.kindCounters(job.kind)
	switch {
	case err == nil:
		job.state = StateCompleted
		c.completed.Add(1)
	case job.cancelRequested && errors.Is(err, context.Canceled):
		job.state = StateCancelled
		c.cancelled.Add(1)
	default:
		job.state = StateFailed
		job.err = err
		c.failed.Add(1)
	}
	var errMsg string
	if job.err != nil {
		errMsg = job.err.Error()
	}
	state := string(job.state)
	attrs := []slog.Attr{slog.String("state", state)}
	var (
		headers  []string
		row      []interface{}
		degraded int
	)
	if out != nil {
		job.results = out.Front // /results streams the front as NDJSON rows
		job.done, job.total = out.Evaluations, out.Budget
		partial := out.Partial || job.state != StateCompleted
		job.searchOut = searchOutcomeOf(job.spec, *out, partial)
		degraded = out.Errors
		headers = []string{"state", "scenario", "evaluations", "budget", "budget_remaining",
			"front_size", "partial", "errors", "error"}
		row = []interface{}{state, job.opts.Scenario, out.Evaluations, out.Budget,
			out.Budget - out.Evaluations, len(out.Front), partial, out.Errors, errMsg}
		attrs = append(attrs, slog.Int("evaluations", out.Evaluations),
			slog.Int("budget", out.Budget), slog.Int("front", len(out.Front)))
	} else {
		var partial bool
		degraded, partial = job.settleSweepLocked(rs)
		var p50, p90, p99 float64
		if job.engine != nil { // nil when engine resolution itself failed
			snap := job.engine.Metrics()
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			p50, p90, p99 = ms(snap.P50Eval), ms(snap.P90Eval), ms(snap.P99Eval)
		}
		headers = []string{"state", "scenario", "done", "total", "partial", "errors", "error",
			"eval_p50_ms", "eval_p90_ms", "eval_p99_ms"}
		row = []interface{}{state, job.opts.Scenario, len(rs), job.total, partial, degraded, errMsg, p50, p90, p99}
		attrs = append(attrs, slog.Int("points", len(rs)), slog.Int("total", job.total))
	}
	data, jerr := report.NDJSONRow(headers, row)
	if jerr != nil {
		data = []byte(`{}`)
	}
	job.appendEventLocked("done", data)
	attrs = append(attrs, slog.Duration("elapsed", job.finished.Sub(job.created)))
	if degraded > 0 {
		attrs = append(attrs, slog.Int("degraded", degraded))
	}
	if errMsg != "" {
		attrs = append(attrs, slog.String("error", errMsg))
	}
	return attrs
}

// settleSweepLocked records a sweep's result cloud and distils its
// outcome: partial unless the sweep completed with every point sound,
// and absent for a sweep that ended before any point did. finish and
// the replay of a journaled terminal sweep share it. It returns the
// degraded-point count. Callers hold j.mu.
func (j *Job) settleSweepLocked(rs []core.Result) (errs int, partial bool) {
	for _, r := range rs {
		if r.Err != nil {
			errs++
		}
	}
	j.results = rs
	partial = j.state != StateCompleted || errs > 0
	if len(rs) > 0 || j.state == StateCompleted {
		j.outcome = outcomeOf(rs, j.total, partial, j.opts.MinAccuracy)
	}
	return errs, partial
}

// evict forgets a finished job (jobs cannot leave a terminal state, so
// checking once is enough) and drops its TTL timer.
func (m *Manager) evict(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.timers[id]; ok {
		t.Stop()
		delete(m.timers, id)
	}
	if j, ok := m.jobs[id]; ok && j.State().Terminal() {
		delete(m.jobs, id)
	}
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.jobs[id]; ok {
		return j, nil
	}
	return nil, ErrNotFound
}

// Jobs snapshots every tracked job, newest first not guaranteed.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j)
	}
	return out
}

// Cancel requests cancellation: the engine stops dispatching, in-flight
// points finish, and the job lands in StateCancelled with its partial
// results. Cancelling a finished job is a no-op. ctx identifies the
// cancelling request in the lifecycle log (which may differ from the
// submitting request's ID on the job itself).
func (m *Manager) Cancel(ctx context.Context, id string) (*Job, error) {
	job, err := m.Job(id)
	if err != nil {
		return nil, err
	}
	job.requestCancel()
	m.logJob(job, job.kind+" cancel requested",
		slog.String("cancelled_by_request_id", obs.RequestID(ctx)))
	return job, nil
}

// requestCancel flags a deliberate cancellation (so the job finishes in
// StateCancelled, not StateFailed) and fires the context.
func (j *Job) requestCancel() {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.cancelRequested = true
	}
	j.mu.Unlock()
	j.cancel()
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Results returns the job's (possibly partial) result cloud.
func (j *Job) Results() []core.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.results
}

// Status renders the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	url := j.statusURL()
	st := JobStatus{
		ID:              j.ID,
		Kind:            j.kind,
		Scenario:        j.opts.Scenario,
		State:           string(j.state),
		RequestID:       j.requestID,
		CancelRequested: j.cancelRequested && !j.state.Terminal(),
		CreatedAt:       j.created,
		Progress:        ProgressJSON{Done: j.done, Total: j.total},
		Error:           "",
		Result:          j.outcome,
		Search:          j.searchOut,
		StatusURL:       url,
		EventsURL:       url + "/events",
		ResultsURL:      url + "/results",
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.engine != nil {
		rate, eta := j.windowLocked(time.Now())
		st.Metrics = engineMetricsJSON(j.engine.Metrics(), rate, eta)
	}
	return st
}

// Summary renders the job's listing row (GET /v1/sweeps).
func (j *Job) Summary() JobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobSummary{
		ID:        j.ID,
		Kind:      j.kind,
		Scenario:  j.opts.Scenario,
		State:     string(j.state),
		RequestID: j.requestID,
		CreatedAt: j.created,
		Progress:  ProgressJSON{Done: j.done, Total: j.total},
		StatusURL: j.statusURL(),
	}
}

// statusURL is the job's status path, under its kind's URL prefix.
func (j *Job) statusURL() string {
	if j.kind == jobKindSearch {
		return "/v1/search/" + j.ID
	}
	return "/v1/sweeps/" + j.ID
}

// WaitEvents blocks until events after the given sequence number exist,
// then returns them. more is false when the stream is over: the job is
// terminal and fully replayed, or ctx ended.
func (j *Job) WaitEvents(ctx context.Context, after int) (evs []JobEvent, more bool) {
	stop := context.AfterFunc(ctx, func() {
		// Broadcast under the lock so the wakeup cannot slip between a
		// waiter's ctx check and its cond.Wait (the classic lost wakeup).
		j.mu.Lock()
		defer j.mu.Unlock()
		j.cond.Broadcast()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil, false
		}
		if after < len(j.events) {
			evs = make([]JobEvent, len(j.events)-after)
			copy(evs, j.events[after:])
			return evs, true
		}
		if j.state.Terminal() {
			return nil, false
		}
		j.cond.Wait()
	}
}

// windowLocked is the job's own progress window at now: its points (a
// search's evaluations) per second from its start to now, or to its
// finish once it is terminal, and the time its remaining points take at
// that rate while it runs. Both are zero until a point has completed.
// Callers hold j.mu.
func (j *Job) windowLocked(now time.Time) (rate float64, remaining time.Duration) {
	if j.done == 0 || j.started.IsZero() {
		return 0, 0
	}
	if !j.finished.IsZero() {
		now = j.finished
	}
	elapsed := now.Sub(j.started)
	if elapsed <= 0 {
		return 0, 0
	}
	if j.state == StateRunning && j.total > j.done {
		remaining = time.Duration(float64(elapsed) / float64(j.done) * float64(j.total-j.done))
	}
	return float64(j.done) / elapsed.Seconds(), remaining
}

// estimateRemaining guesses a running job's remaining wall-clock time
// from its own progress window.
func (j *Job) estimateRemaining() (time.Duration, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning || j.done == 0 || j.started.IsZero() {
		return 0, false
	}
	_, remaining := j.windowLocked(time.Now())
	return remaining, true
}

// RetryAfter estimates how soon a rejected submission is worth retrying:
// the smallest remaining-time estimate over the running jobs, clamped to
// [1s, 5m]; 5s when nothing is measurable yet. Job locks nest inside the
// manager lock, so estimateRemaining is safe here.
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	best := time.Duration(math.MaxInt64)
	for _, j := range m.jobs {
		if est, ok := j.estimateRemaining(); ok && est < best {
			best = est
		}
	}
	if best == time.Duration(math.MaxInt64) {
		return 5 * time.Second
	}
	return min(max(best, time.Second), 5*time.Minute)
}

// Evaluate scores one design point synchronously through the shared
// engine layer, honouring ctx and the configured deadline cap. The
// cached flag reports a memoisation hit (or a join of an identical
// in-flight evaluation). Single evaluations bypass the job slots: they
// are the interactive fast path, bounded by EvalTimeout rather than
// queueing. After admission it is one engine call, lookup-or-evaluate:
// a hit is answered from the store before any deadline is armed, and
// the deadline bounds only a miss (see dse.Sweep.EvaluatePoint).
func (m *Manager) Evaluate(ctx context.Context, spec *OptionsSpec, p core.DesignPoint, timeout time.Duration) (core.Result, bool, error) {
	engine, timeout, err := m.evalEngine(spec, 1, timeout)
	if err != nil {
		return core.Result{}, false, err
	}
	return engine.EvaluatePoint(ctx, p, timeout)
}

// evalEngine is the synchronous lane's admission, shared by Evaluate and
// EvaluateBatch: the drain check, the batch size limit and the request
// counter, then the options, the engine and the deadline, capped by
// EvalTimeout.
func (m *Manager) evalEngine(spec *OptionsSpec, points int, timeout time.Duration) (Engine, time.Duration, error) {
	if m.Draining() {
		return nil, 0, ErrShuttingDown
	}
	if max := m.cfg.MaxSweepPoints; points > max {
		return nil, 0, fmt.Errorf("%w: batch of %d points exceeds the limit %d", ErrBadRequest, points, max)
	}
	m.evaluations.Add(int64(points))
	opts, err := m.options(spec)
	if err != nil {
		return nil, 0, err
	}
	engine, err := m.cfg.Engines(opts)
	if err != nil {
		return nil, 0, fmt.Errorf("engine: %w", err)
	}
	m.registerEngine(engine)
	if timeout <= 0 || timeout > m.cfg.EvalTimeout {
		timeout = m.cfg.EvalTimeout
	}
	return engine, timeout, nil
}

// EvaluateBatch scores a batch of design points synchronously through
// the shared engine layer, returning one result per point in input
// order plus a parallel cached-flags slice. Like the sweep path it
// degrades rather than fails: a point that errors (injected fault,
// evaluator panic, deadline expiry mid-batch) comes back as an error
// row with Result.Err set, never as a lost point, and the call itself
// only errors when no rows can be produced at all (draining, engine
// resolution failure, client disconnect).
func (m *Manager) EvaluateBatch(ctx context.Context, spec *OptionsSpec, pts []core.DesignPoint, timeout time.Duration) ([]core.Result, []bool, error) {
	engine, timeout, err := m.evalEngine(spec, len(pts), timeout)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	out := make([]core.Result, len(pts))
	cached := make([]bool, len(pts))
	completed := make([]bool, len(pts))
	rs, err := engine.RunWithHook(ctx, pts, func(ev dse.Event) {
		if ev.Index >= 0 && ev.Index < len(out) {
			out[ev.Index] = ev.Result
			cached[ev.Index] = ev.Cached
			completed[ev.Index] = true
		}
	})
	switch {
	case err == nil:
		return rs, cached, nil
	case errors.Is(err, context.DeadlineExceeded):
		// The deadline fired mid-batch: the points that finished keep
		// their results, the rest become error rows.
		for i := range out {
			if !completed[i] {
				out[i] = core.Result{Point: pts[i], Err: err}
			}
		}
		return out, cached, nil
	default:
		return nil, nil, err
	}
}

func (m *Manager) registerEngine(e Engine) {
	m.mu.Lock()
	m.engines[e] = struct{}{}
	m.mu.Unlock()
}

// Counters is the manager's point-in-time accounting for /metrics and
// /healthz.
type Counters struct {
	Submitted, Rejected  int64
	Completed, Cancelled int64
	Failed, Evaluations  int64
	Running, Tracked     int
	// Search-job accounting: lifecycle counters, the design points
	// dispatched by search drivers (any fidelity rung), and two gauges
	// tracking the most recent search round.
	SearchSubmitted, SearchCompleted int64
	SearchCancelled, SearchFailed    int64
	SearchEvaluations                int64
	SearchFrontSize                  int64
	SearchBudgetRemaining            int64
	EngineEvaluated                  int64
	EngineCacheHits                  int64
	EngineDeduped                    int64
	EnginePanics                     int64
	EngineMeanEval                   time.Duration
	// EngineBatches counts batched evaluator calls across every engine,
	// and EngineBatchPoints the cache-miss points they carried.
	EngineBatches     int64
	EngineBatchPoints int64
	// WAL accounting (zero when durability is off): startup replay
	// (terminal jobs restored as history, in-flight sweeps resumed, rows
	// restored instead of re-evaluated, rows discarded because they were
	// computed under another evaluator) plus the journal's own stats.
	WALReplayedJobs  int64
	WALResumedJobs   int64
	WALReplayedRows  int64
	WALDiscardedRows int64
	WALAppends       int64
	WALFsyncs        int64
	WALDropped       int64
	WALSizeBytes     int64
	// EvalHist is the eval-duration histogram merged across every engine
	// the manager has resolved — the efficsense_eval_duration_seconds
	// exposition.
	EvalHist obs.Snapshot
	// BatchSizeHist (points per batched call) and BatchLatencyHist
	// (seconds per batched call) are the batch-dispatch histograms merged
	// across every engine — the efficsense_batch_size_points and
	// efficsense_batch_duration_seconds expositions.
	BatchSizeHist          obs.Snapshot
	BatchLatencyHist       obs.Snapshot
	CacheEntries           int
	CacheCapacity          int // 0 = unbounded
	CacheHits, CacheMisses int64
	CacheEvictions         int64
	CacheDeduped           int64
	CacheFlightPanics      int64
}

// Counters aggregates the manager's counters and every engine's metrics.
func (m *Manager) Counters() Counters {
	c := Counters{
		Submitted:             m.sweeps.submitted.Load(),
		Rejected:              m.rejected.Load(),
		Completed:             m.sweeps.completed.Load(),
		Cancelled:             m.sweeps.cancelled.Load(),
		Failed:                m.sweeps.failed.Load(),
		Evaluations:           m.evaluations.Load(),
		SearchSubmitted:       m.searches.submitted.Load(),
		SearchCompleted:       m.searches.completed.Load(),
		SearchCancelled:       m.searches.cancelled.Load(),
		SearchFailed:          m.searches.failed.Load(),
		SearchEvaluations:     m.searchEvaluations.Load(),
		SearchFrontSize:       m.searchFrontSize.Load(),
		SearchBudgetRemaining: m.searchBudget.Load(),
		WALReplayedJobs:       m.walReplayedJobs.Load(),
		WALResumedJobs:        m.walResumedJobs.Load(),
		WALReplayedRows:       m.walReplayedRows.Load(),
		WALDiscardedRows:      m.walDiscardedRows.Load(),
	}
	if m.cfg.WAL != nil {
		st := m.cfg.WAL.Stats()
		c.WALAppends, c.WALFsyncs = st.Appends, st.Fsyncs
		c.WALDropped, c.WALSizeBytes = st.Dropped, st.SizeBytes
	}
	m.mu.Lock()
	c.Tracked = len(m.jobs)
	engines := make([]Engine, 0, len(m.engines))
	for e := range m.engines {
		engines = append(engines, e)
	}
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		if s := j.State(); s == StateRunning || s == StatePending {
			c.Running++
		}
	}
	var meanSum time.Duration
	var meanN int64
	for _, e := range engines {
		s := e.Metrics()
		c.EngineEvaluated += s.Evaluated
		c.EngineCacheHits += s.CacheHits
		c.EngineDeduped += s.Deduped
		c.EnginePanics += s.Panics
		c.EngineBatches += s.Batches
		c.EngineBatchPoints += s.BatchPoints
		c.EvalHist.Merge(s.EvalHist)
		c.BatchSizeHist.Merge(s.BatchSizeHist)
		c.BatchLatencyHist.Merge(s.BatchLatencyHist)
		if s.Evaluated > 0 {
			meanSum += time.Duration(int64(s.MeanEval) * s.Evaluated)
			meanN += s.Evaluated
		}
	}
	if meanN > 0 {
		c.EngineMeanEval = meanSum / time.Duration(meanN)
	}
	if m.cfg.Cache != nil {
		st := m.cfg.Cache.Stats()
		c.CacheEntries, c.CacheCapacity = st.Entries, st.Capacity
		c.CacheHits, c.CacheMisses = st.Hits, st.Misses
		c.CacheEvictions, c.CacheDeduped = st.Evictions, st.FlightShared
		c.CacheFlightPanics = st.FlightPanics
	}
	return c
}

// Draining reports whether Shutdown has begun (new work is rejected).
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Shutdown drains the manager: new submissions and evaluations are
// rejected immediately, waiting jobs still start and drain, and
// in-flight jobs get until ctx expires to finish before being
// cancelled. It returns nil on a clean drain and ctx.Err() when jobs
// had to be cancelled; either way every job goroutine has exited by
// return, so the HTTP server can be shut down next (SSE streams of
// finished jobs close themselves). After the drain every TTL-eviction
// timer is stopped — a drained manager leaks no timers — and the WAL,
// if configured, is compacted to a snapshot of the surviving jobs and
// closed.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		for _, j := range m.Jobs() {
			j.requestCancel()
		}
		<-drained
		err = ctx.Err()
	}
	m.mu.Lock()
	for id, t := range m.timers {
		t.Stop()
		delete(m.timers, id)
	}
	m.mu.Unlock()
	if m.cfg.WAL != nil {
		if cerr := m.compactWAL(); cerr != nil && err == nil {
			err = cerr
		}
		if cerr := m.cfg.WAL.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
