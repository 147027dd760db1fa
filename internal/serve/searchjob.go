package serve

// Search jobs: the asynchronous POST /v1/search pipeline. A search job
// goes through the sweep job's lifecycle — admission, weighted-fair
// dispatch, the job goroutine, finish, the journal and recovery, the
// event buffer and SSE replay, TTL eviction, cancellation, drain. What
// is its own is the derivation from its request, the run body
// (internal/search's Run: a budget-bounded propose/observe loop that
// streams "front" events as the Pareto front grows instead of an
// exhaustive sweep) and the outcome shape (a budget-accounted front).

import (
	"context"
	"fmt"
	"log/slog"

	"efficsense/internal/report"
	"efficsense/internal/search"
)

// searchEventHeaders are the keys of "front" event payloads: the budget
// window, the fidelity rung the round ran at, and the front's size and
// hypervolume after it.
var searchEventHeaders = []string{
	"evaluations", "budget", "rung", "rung_name", "front_size", "hypervolume", "improved",
}

// searchJob derives a search job from its request: options, scenario,
// the parsed goal with its seed and budget (a tenth of the space when
// the request names none, capped by MaxSearchEvaluations) and the probe
// rung. SubmitSearch and recovery both call it.
func (m *Manager) searchJob(req SearchRequest) (*Job, error) {
	opts, err := m.options(req.Options)
	if err != nil {
		return nil, err
	}
	spec, err := req.spec()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	space, err := req.Space.space(opts)
	if err != nil {
		return nil, fmt.Errorf("%w: space: %v", ErrBadRequest, err)
	}
	spec.Seed = req.Seed
	spec.MaxEvaluations = req.MaxEvaluations
	if spec.MaxEvaluations <= 0 {
		// The search's reason to exist: a tenth of the exhaustive count.
		spec.MaxEvaluations = min(max(space.Size()/10, 1), m.cfg.MaxSearchEvaluations)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	job := newJob(jobKindSearch, opts, space)
	job.spec = spec
	job.total = spec.MaxEvaluations
	if req.ProbeRecords > 0 && req.ProbeRecords != opts.Records {
		probe := opts
		probe.Records = req.ProbeRecords
		job.probeOpts = &probe
	}
	return job, nil
}

// SubmitSearch validates a goal-directed search request, admits it
// through the tenant's shaping pipeline and enqueues it for
// weighted-fair dispatch. Like Submit it never blocks: a submission the
// tenant may not queue is rejected with an honest Retry-After, and the
// job outlives the submitting request's context.
func (m *Manager) SubmitSearch(ctx context.Context, req SearchRequest) (*Job, error) {
	job, err := m.searchJob(req)
	if err != nil {
		return nil, err
	}
	size := job.space.Size()
	if err := m.admitSpace(size); err != nil {
		return nil, err
	}
	if req.ProbeRecords < 0 {
		return nil, fmt.Errorf("%w: probe_records must be non-negative, got %d",
			ErrBadRequest, req.ProbeRecords)
	}
	if job.spec.MaxEvaluations > m.cfg.MaxSearchEvaluations {
		return nil, fmt.Errorf("%w: max_evaluations %d exceeds the limit %d",
			ErrBadRequest, job.spec.MaxEvaluations, m.cfg.MaxSearchEvaluations)
	}
	return m.accept(ctx, job, walJobRecord{Search: &req},
		slog.String("query", job.spec.Query()),
		slog.Int("budget", job.spec.MaxEvaluations),
		slog.Int("space", size))
}

// runSearch is a search's run body: search.Run's propose/observe rounds
// go through the probe engine (when the job has a probe rung) and the
// full engine, each round streaming a "front" event.
func (m *Manager) runSearch(job *Job, probe, engine Engine) (search.Outcome, error) {
	m.logJob(job, "search started",
		slog.String("query", job.spec.Query()),
		slog.Int("budget", job.spec.MaxEvaluations))
	fids := make([]search.Fidelity, 0, 2)
	if probe != nil {
		fids = append(fids, search.Fidelity{Name: "probe", Eval: probe})
	}
	fids = append(fids, search.Fidelity{Name: "full", Eval: engine})
	return search.Run(job.ctx, search.Config{
		Space:      job.space,
		Spec:       job.spec,
		Fidelities: fids,
		OnProgress: func(p search.Progress) { m.searchProgress(job, p) },
	})
}

// searchProgress is the driver's per-round hook: it serialises one
// "front" SSE event, moves the job's progress window (evaluations spent
// against budget) and refreshes the manager's live gauges. Called
// serially from the driver goroutine.
func (m *Manager) searchProgress(j *Job, p search.Progress) {
	m.searchFrontSize.Store(int64(p.FrontSize))
	m.searchBudget.Store(int64(p.Budget - p.Evaluations))
	data, err := report.NDJSONRow(searchEventHeaders, []interface{}{
		p.Evaluations, p.Budget, p.Rung, p.RungName, p.FrontSize, p.Hypervolume, p.Improved,
	})
	if err != nil {
		data = []byte(`{}`)
	}
	j.mu.Lock()
	j.done, j.total = p.Evaluations, p.Budget
	j.appendEventLocked("front", data)
	j.mu.Unlock()
}
