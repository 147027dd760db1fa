// Package serve exposes the EffiCSense pathfinding framework over HTTP:
// the efficsensed daemon wires a Server (handlers.go) around a job
// Manager (jobs.go) that owns the sweep engines, the shared memoisation
// cache and the asynchronous sweep and search jobs. Everything is
// stdlib net/http; the paper's "framework other designers query"
// becomes a small set of endpoints:
//
//	POST   /v1/evaluate            synchronous single-point evaluation
//	POST   /v1/sweeps              submit an async design-space sweep
//	GET    /v1/sweeps              list tracked jobs (?state= filter)
//	GET    /v1/sweeps/{id}         job status, metrics, fronts, optima
//	GET    /v1/sweeps/{id}/events  SSE stream of engine progress events
//	GET    /v1/sweeps/{id}/results NDJSON stream of the result cloud
//	DELETE /v1/sweeps/{id}         cancel the job (partial results kept)
//	POST   /v1/search              submit an async goal-directed search
//	GET    /v1/search/{id}         search status, front, best design
//	GET    /v1/search/{id}/events  SSE stream of front-update events
//	GET    /v1/search/{id}/results NDJSON stream of the discovered front
//	DELETE /v1/search/{id}         cancel the search (partial front kept)
//	GET    /v1/scenarios           list the registered workload scenarios
//	GET    /healthz, GET /metrics  liveness and Prometheus exposition
//
// Every request that evaluates designs selects a workload through the
// options' "scenario" field (absent = the server default, normally
// eeg-epilepsy); architecture names, the default design space and the
// evaluator identity all resolve against the selected scenario.
//
// Every response carries an X-Request-ID header (echoing the caller's,
// when valid, else freshly assigned); error responses share the v1
// envelope {"error": {"code", "message"}} with machine-readable codes.
//
// This file holds the wire types (requests, responses, conversions).
package serve

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/scenario"
	"efficsense/internal/search"
)

// PointSpec is the wire form of a core.DesignPoint.
type PointSpec struct {
	Arch     string  `json:"arch"`
	Bits     int     `json:"bits"`
	LNANoise float64 `json:"lna_noise"`
	M        int     `json:"m,omitempty"`
	CHold    float64 `json:"chold,omitempty"`
}

// parseArch maps a wire architecture name back to its value without any
// scenario scoping — the names derive from core.Architecture.String, the
// single source of truth. WAL replay uses this (a journaled row must
// round-trip whatever architecture produced it); request paths parse
// through the selected scenario instead, so a workload only accepts the
// architectures it supports.
func parseArch(s string) (core.Architecture, error) {
	return core.ParseArchitecture(s)
}

// DesignPoint validates the spec and converts it. The architecture name
// resolves within the selected scenario's architecture set; a nil
// scenario falls back to the unscoped global parse.
func (p PointSpec) DesignPoint(scn *scenario.Scenario) (core.DesignPoint, error) {
	var arch core.Architecture
	var err error
	if scn != nil {
		arch, err = scn.ParseArch(p.Arch)
	} else {
		arch, err = parseArch(p.Arch)
	}
	if err != nil {
		return core.DesignPoint{}, err
	}
	if p.Bits <= 0 {
		return core.DesignPoint{}, fmt.Errorf("bits must be positive, got %d", p.Bits)
	}
	if p.LNANoise <= 0 {
		return core.DesignPoint{}, fmt.Errorf("lna_noise must be positive, got %g", p.LNANoise)
	}
	dp := core.DesignPoint{Arch: arch, Bits: p.Bits, LNANoise: p.LNANoise}
	one := dse.Space{Architectures: []core.Architecture{arch}, Bits: []int{dp.Bits}, LNANoise: []float64{dp.LNANoise}}
	if arch != core.ArchBaseline {
		if p.M <= 0 {
			return core.DesignPoint{}, fmt.Errorf("%s needs a positive measurement count m, got %d", p.Arch, p.M)
		}
		if err := checkM(p.M); err != nil {
			return core.DesignPoint{}, err
		}
		dp.M, dp.CHold = p.M, p.CHold
		one.M, one.CHold = []int{dp.M}, []float64{dp.CHold}
	}
	// A point is held to the rule a sweep's space is: the one-point grid
	// that enumerates it must validate (this is what rejects a negative
	// chold, which the chain would otherwise replace by its default).
	if err := one.Validate(); err != nil {
		return core.DesignPoint{}, err
	}
	return dp, nil
}

// checkM rejects a measurement count above the frame length N_Φ. The
// daemon's evaluators never set Config.NPhi, so theirs is core's default.
func checkM(m int) error {
	if m > core.DefaultNPhi {
		return fmt.Errorf("m = %d exceeds the frame length N_Φ = %d", m, core.DefaultNPhi)
	}
	return nil
}

func pointSpecOf(p core.DesignPoint) PointSpec {
	return PointSpec{Arch: p.Arch.String(), Bits: p.Bits, LNANoise: p.LNANoise, M: p.M, CHold: p.CHold}
}

// OptionsSpec overrides the server's default suite options field by
// field; absent fields inherit the default. Progress/trace sinks are
// server-owned and not settable over the wire.
type OptionsSpec struct {
	// Scenario names the workload (GET /v1/scenarios lists them); absent
	// or empty selects the server default.
	Scenario      *string  `json:"scenario,omitempty"`
	Seed          *int64   `json:"seed,omitempty"`
	Records       *int     `json:"records,omitempty"`
	TrainRecords  *int     `json:"train_records,omitempty"`
	NoiseSteps    *int     `json:"noise_steps,omitempty"`
	Workers       *int     `json:"workers,omitempty"`
	Epochs        *int     `json:"epochs,omitempty"`
	MinAccuracy   *float64 `json:"min_accuracy,omitempty"`
	WindowSeconds *float64 `json:"window_seconds,omitempty"`
}

func (o *OptionsSpec) apply(base experiments.Options) experiments.Options {
	if o == nil {
		return base
	}
	if o.Scenario != nil {
		base.Scenario = *o.Scenario
	}
	if o.Seed != nil {
		base.Seed = *o.Seed
	}
	if o.Records != nil {
		base.Records = *o.Records
	}
	if o.TrainRecords != nil {
		base.TrainRecords = *o.TrainRecords
	}
	if o.NoiseSteps != nil {
		base.NoiseSteps = *o.NoiseSteps
	}
	if o.Workers != nil {
		base.Workers = *o.Workers
	}
	if o.Epochs != nil {
		base.Epochs = *o.Epochs
	}
	if o.MinAccuracy != nil {
		base.MinAccuracy = *o.MinAccuracy
	}
	if o.WindowSeconds != nil {
		base.WindowSeconds = *o.WindowSeconds
	}
	return base
}

// SpaceSpec selects the design-space grid of a sweep. Absent fields
// inherit the selected scenario's default axes (the paper's Table III
// grid for eeg-epilepsy); lna_noise, when set, wins over noise_steps.
type SpaceSpec struct {
	Architectures []string  `json:"architectures,omitempty"`
	Bits          []int     `json:"bits,omitempty"`
	LNANoise      []float64 `json:"lna_noise,omitempty"`
	NoiseSteps    int       `json:"noise_steps,omitempty"`
	M             []int     `json:"m,omitempty"`
	CHold         []float64 `json:"chold,omitempty"`
}

func (sp *SpaceSpec) space(opts experiments.Options) (dse.Space, error) {
	scn, err := scenario.Lookup(opts.Scenario)
	if err != nil {
		return dse.Space{}, err
	}
	s := scn.Space(opts.NoiseSteps)
	if sp == nil {
		return s, s.Validate()
	}
	if len(sp.Architectures) > 0 {
		s.Architectures = s.Architectures[:0]
		for _, name := range sp.Architectures {
			arch, err := scn.ParseArch(name)
			if err != nil {
				return dse.Space{}, err
			}
			s.Architectures = append(s.Architectures, arch)
		}
	}
	if len(sp.Bits) > 0 {
		s.Bits = sp.Bits
	}
	switch {
	case len(sp.LNANoise) > 0:
		s.LNANoise = sp.LNANoise
	case sp.NoiseSteps > 0:
		// Re-derive the scenario's own noise axis at the requested
		// resolution, not a hard-wired EEG range.
		s.LNANoise = scn.Space(sp.NoiseSteps).LNANoise
	}
	if len(sp.M) > 0 {
		s.M = sp.M
	}
	if len(sp.CHold) > 0 {
		s.CHold = sp.CHold
	}
	for i, m := range s.M {
		if err := checkM(m); err != nil {
			return dse.Space{}, fmt.Errorf("m[%d]: %w", i, err)
		}
	}
	return s, s.Validate()
}

// EvaluateRequest is the POST /v1/evaluate body. Exactly one of Point
// and Points must be set: a single-object body ({"point": ...}) returns
// one ResultJSON, a batch body ({"points": [...]}) returns an
// EvaluateBatchResponse with one row per input point. Batches flow
// through the engines' batch dispatch, so points that can share
// amplification and encoding work actually do.
type EvaluateRequest struct {
	Options   *OptionsSpec `json:"options,omitempty"`
	Point     PointSpec    `json:"point,omitempty"`
	Points    []PointSpec  `json:"points,omitempty"`
	TimeoutMS int          `json:"timeout_ms,omitempty"`
}

// EvaluateBatchResponse is the POST /v1/evaluate response for a batch
// request: one row per input point, in input order. Failures degrade
// per point — an error row with Err set, never a lost point or a failed
// batch — and Partial flags their presence, the same degradation shape
// sweep outcomes use.
type EvaluateBatchResponse struct {
	// Partial is true when at least one row is an error row.
	Partial bool `json:"partial"`
	// Count is the number of rows; Errors the degraded ones.
	Count  int `json:"count"`
	Errors int `json:"errors"`
	// Results holds one row per input point, in input order.
	Results []ResultJSON `json:"results"`
}

// SweepRequest is the POST /v1/sweeps body.
type SweepRequest struct {
	Options *OptionsSpec `json:"options,omitempty"`
	Space   *SpaceSpec   `json:"space,omitempty"`
}

// SearchRequest is the POST /v1/search body. The goal arrives either as
// the compact query grammar ("max-accuracy@power<=3e-6") or as the
// structured fields — never both; the structured path composes into the
// same grammar so one parser validates everything. max_evaluations
// defaults to a tenth of the space (the search's headline ratio),
// capped by the server's MaxSearchEvaluations. probe_records, when
// positive, adds a cheap probe fidelity: early probes evaluate that
// many records per point, and only survivors reach the full engine.
type SearchRequest struct {
	// Query is the goal grammar: goal *( "@" constraint ), e.g.
	// "max-accuracy@power<=3e-6@area<=500" or "min-power@accuracy>=0.98".
	Query string `json:"query,omitempty"`
	// Goal is the structured alternative: "max-accuracy", "max-snr" or
	// "min-power". Metric names a min-power floor's quality function
	// (default "accuracy"); max goals name theirs in the goal itself.
	Goal       string  `json:"goal,omitempty"`
	Metric     string  `json:"metric,omitempty"`
	MaxPowerW  float64 `json:"max_power_w,omitempty"`
	MinQuality float64 `json:"min_quality,omitempty"`
	// MaxAreaCaps, when positive, is the Fig 10 capacitor-area cap.
	MaxAreaCaps float64 `json:"max_area_caps,omitempty"`
	// MaxEvaluations is the hard budget; 0 picks a tenth of the space.
	MaxEvaluations int   `json:"max_evaluations,omitempty"`
	Seed           int64 `json:"seed,omitempty"`
	// ProbeRecords, when positive, evaluates early probes at this
	// record count before promoting survivors to full fidelity.
	ProbeRecords int          `json:"probe_records,omitempty"`
	Options      *OptionsSpec `json:"options,omitempty"`
	Space        *SpaceSpec   `json:"space,omitempty"`
}

// spec parses the request's goal into a search.Spec. The query string
// wins; the structured fields compose into the same grammar so both
// paths share one validator. Budget and seed are attached by
// searchJob, not here.
func (r SearchRequest) spec() (search.Spec, error) {
	structured := r.Goal != "" || r.Metric != "" || r.MaxPowerW != 0 ||
		r.MinQuality != 0 || r.MaxAreaCaps != 0
	if r.Query != "" {
		if structured {
			return search.Spec{}, errors.New("query and the structured goal fields are mutually exclusive")
		}
		return search.ParseQuery(r.Query)
	}
	if r.Goal == "min-power" {
		if r.MaxPowerW != 0 {
			return search.Spec{}, errors.New("max_power_w only bounds max goals; min-power takes min_quality")
		}
	} else {
		if r.Metric != "" {
			return search.Spec{}, errors.New(`metric applies to min-power only; max goals name their metric ("max-accuracy", "max-snr")`)
		}
		if r.MinQuality != 0 {
			return search.Spec{}, errors.New("min_quality only bounds min-power queries")
		}
	}
	return search.ParseQuery(r.composeQuery())
}

// composeQuery renders the structured fields in the query grammar.
func (r SearchRequest) composeQuery() string {
	var b strings.Builder
	b.WriteString(r.Goal)
	if r.Goal == "min-power" {
		metric := r.Metric
		if metric == "" {
			metric = "accuracy"
		}
		fmt.Fprintf(&b, "@%s>=%g", metric, r.MinQuality)
	} else if r.MaxPowerW != 0 {
		fmt.Fprintf(&b, "@power<=%g", r.MaxPowerW)
	}
	if r.MaxAreaCaps != 0 {
		fmt.Fprintf(&b, "@area<=%g", r.MaxAreaCaps)
	}
	return b.String()
}

// ResultJSON is the wire form of a core.Result.
type ResultJSON struct {
	Point    PointSpec          `json:"point"`
	SNRdB    float64            `json:"snr_db"`
	Accuracy float64            `json:"accuracy"`
	TotalW   float64            `json:"total_w"`
	PowerW   map[string]float64 `json:"power_w,omitempty"`
	AreaCaps float64            `json:"area_caps"`
	Cached   bool               `json:"cached,omitempty"`
	Err      string             `json:"err,omitempty"`
}

func resultJSON(r core.Result) ResultJSON {
	out := ResultJSON{
		Point:    pointSpecOf(r.Point),
		SNRdB:    r.MeanSNRdB,
		Accuracy: r.Accuracy,
		TotalW:   r.TotalPower,
		AreaCaps: r.AreaCaps,
	}
	for _, c := range r.Power.Components() {
		if out.PowerW == nil {
			out.PowerW = make(map[string]float64)
		}
		out.PowerW[string(c)] = r.Power[c]
	}
	if r.Err != nil {
		out.Err = r.Err.Error()
	}
	return out
}

func resultsJSON(rs []core.Result) []ResultJSON {
	out := make([]ResultJSON, len(rs))
	for i, r := range rs {
		out[i] = resultJSON(r)
	}
	return out
}

// FrontJSON is one goal function's Pareto fronts.
type FrontJSON struct {
	Baseline []ResultJSON `json:"baseline"`
	CS       []ResultJSON `json:"cs"`
}

// SweepOutcome is the result payload of a finished (or cancelled —
// Partial true) sweep job.
type SweepOutcome struct {
	// Partial marks an incomplete cloud: the job was cancelled, failed
	// mid-run, or completed with degraded points (Errors > 0). The
	// fronts and optima below are computed over the sound results only,
	// so a client must treat them as a lower bound, not the full space.
	Partial bool `json:"partial"`
	// Points counts completed evaluations; Errors the degraded ones.
	Points int `json:"points"`
	Total  int `json:"total"`
	Errors int `json:"errors"`
	// Fronts holds the Pareto fronts per goal function ("snr",
	// "accuracy"); Optima the minimum-power designs meeting the accuracy
	// constraint, per architecture.
	Fronts        map[string]FrontJSON   `json:"fronts"`
	Optima        map[string]*ResultJSON `json:"optima"`
	MinAccuracy   float64                `json:"min_accuracy"`
	PowerSavingsX float64                `json:"power_savings_x,omitempty"`
}

// outcomeOf distils a result cloud into the response payload, reusing
// the experiments-layer front/optimum extraction.
func outcomeOf(rs []core.Result, total int, partial bool, minAccuracy float64) *SweepOutcome {
	figs := experiments.NewFigsFromResults(rs, minAccuracy)
	f7a, f7b := figs.Fig7a(), figs.Fig7b()
	out := &SweepOutcome{
		Partial: partial,
		Points:  len(rs),
		Total:   total,
		Fronts: map[string]FrontJSON{
			"snr":      {Baseline: resultsJSON(f7a.Baseline), CS: resultsJSON(f7a.CS)},
			"accuracy": {Baseline: resultsJSON(f7b.Baseline), CS: resultsJSON(f7b.CS)},
		},
		Optima:        map[string]*ResultJSON{"baseline": nil, "cs": nil},
		MinAccuracy:   f7b.MinAccuracy,
		PowerSavingsX: f7b.PowerSavingsX,
	}
	for _, r := range rs {
		if r.Err != nil {
			out.Errors++
		}
	}
	if f7b.HaveBaseline {
		rj := resultJSON(f7b.BaselineOpt)
		out.Optima["baseline"] = &rj
	}
	if f7b.HaveCS {
		rj := resultJSON(f7b.CSOpt)
		out.Optima["cs"] = &rj
	}
	return out
}

// SearchOutcome is the result payload of a search job, embedded in its
// status response and summarised in the terminal SSE event.
type SearchOutcome struct {
	// Query is the canonical form of the goal the job ran.
	Query string `json:"query"`
	// Partial marks a front that is a lower bound, not the converged
	// answer: the run was cancelled, failed, exhausted its budget with
	// proposals pending, or degraded rows along the way.
	Partial bool `json:"partial"`
	// Evaluations counts every dispatched point at any fidelity rung;
	// Evaluations + BudgetRemaining == Budget always.
	Evaluations     int `json:"evaluations"`
	Budget          int `json:"budget"`
	BudgetRemaining int `json:"budget_remaining"`
	Errors          int `json:"errors"`
	// Hypervolume is the front's dominated area against the run's
	// observed extremes — a progress figure, comparable within a run.
	Hypervolume float64 `json:"hypervolume"`
	// Best answers the query: the feasible front design with the best
	// goal value (nil when nothing feasible was found). Front is the
	// discovered Pareto front, ascending power.
	Best  *ResultJSON  `json:"best,omitempty"`
	Front []ResultJSON `json:"front"`
}

func searchOutcomeOf(spec search.Spec, out search.Outcome, partial bool) *SearchOutcome {
	so := &SearchOutcome{
		Query:           spec.Query(),
		Partial:         partial,
		Evaluations:     out.Evaluations,
		Budget:          out.Budget,
		BudgetRemaining: out.Budget - out.Evaluations,
		Errors:          out.Errors,
		Hypervolume:     out.Hypervolume,
		Front:           resultsJSON(out.Front),
	}
	if out.HaveBest {
		rj := resultJSON(out.Best)
		so.Best = &rj
	}
	return so
}

// EngineMetricsJSON is a job status's metrics block: the cumulative
// counters and eval quantiles of the job's engine (a dse.Snapshot), and
// the job's own throughput and ETA. The quantiles come from the
// engine's fixed-bucket duration histogram, so a slow sweep's tail is
// visible right on its status response instead of only in aggregate
// /metrics. Throughput and ETA come from the job's progress and clock
// alone, so other runs on a shared engine never move them, and they
// hold still once the job ends.
type EngineMetricsJSON struct {
	Evaluated  int64   `json:"evaluated"`
	CacheHits  int64   `json:"cache_hits"`
	Deduped    int64   `json:"deduped"`
	Panics     int64   `json:"panics"`
	MeanEvalMS float64 `json:"mean_eval_ms"`
	P50EvalMS  float64 `json:"p50_eval_ms"`
	P90EvalMS  float64 `json:"p90_eval_ms"`
	P99EvalMS  float64 `json:"p99_eval_ms"`
	Throughput float64 `json:"throughput_pts_per_s"`
	ETAMS      float64 `json:"eta_ms"`
}

func engineMetricsJSON(s dse.Snapshot, throughput float64, eta time.Duration) *EngineMetricsJSON {
	return &EngineMetricsJSON{
		Evaluated:  s.Evaluated,
		CacheHits:  s.CacheHits,
		Deduped:    s.Deduped,
		Panics:     s.Panics,
		MeanEvalMS: float64(s.MeanEval) / float64(time.Millisecond),
		P50EvalMS:  float64(s.P50Eval) / float64(time.Millisecond),
		P90EvalMS:  float64(s.P90Eval) / float64(time.Millisecond),
		P99EvalMS:  float64(s.P99Eval) / float64(time.Millisecond),
		Throughput: throughput,
		ETAMS:      float64(eta) / float64(time.Millisecond),
	}
}

// ProgressJSON is a job's progress window.
type ProgressJSON struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// JobStatus is the GET /v1/sweeps/{id} response (and the body of the
// 202 returned on submission). RequestID is the X-Request-ID of the
// submitting request, so a designer can correlate a job — and every log
// line it produced — back to the call that created it.
type JobStatus struct {
	ID              string             `json:"id"`
	Kind            string             `json:"kind"`
	Scenario        string             `json:"scenario,omitempty"`
	State           string             `json:"state"`
	RequestID       string             `json:"request_id,omitempty"`
	CancelRequested bool               `json:"cancel_requested,omitempty"`
	CreatedAt       time.Time          `json:"created_at"`
	StartedAt       *time.Time         `json:"started_at,omitempty"`
	FinishedAt      *time.Time         `json:"finished_at,omitempty"`
	Progress        ProgressJSON       `json:"progress"`
	Metrics         *EngineMetricsJSON `json:"metrics,omitempty"`
	Error           string             `json:"error,omitempty"`
	Result          *SweepOutcome      `json:"result,omitempty"`
	Search          *SearchOutcome     `json:"search,omitempty"`
	StatusURL       string             `json:"status_url"`
	EventsURL       string             `json:"events_url"`
	ResultsURL      string             `json:"results_url"`
}

// JobSummary is one row of the GET /v1/sweeps listing: enough to find a
// job (and the request that submitted it) without scraping /metrics.
type JobSummary struct {
	ID        string       `json:"id"`
	Kind      string       `json:"kind"`
	Scenario  string       `json:"scenario,omitempty"`
	State     string       `json:"state"`
	RequestID string       `json:"request_id,omitempty"`
	CreatedAt time.Time    `json:"created_at"`
	Progress  ProgressJSON `json:"progress"`
	StatusURL string       `json:"status_url"`
}

// JobListJSON is the GET /v1/sweeps response.
type JobListJSON struct {
	Jobs  []JobSummary `json:"jobs"`
	Count int          `json:"count"`
}

// ScenarioSpaceJSON describes a scenario's default design-space axes, so
// a client can see what an unconstrained sweep would enumerate.
type ScenarioSpaceJSON struct {
	Architectures []string  `json:"architectures"`
	Bits          []int     `json:"bits"`
	LNANoise      []float64 `json:"lna_noise"`
	M             []int     `json:"m"`
	CHold         []float64 `json:"chold"`
}

// ScenarioJSON is one row of the GET /v1/scenarios listing: the name a
// request's options.scenario field selects, what the workload evaluates,
// and the architecture set its point specs accept.
type ScenarioJSON struct {
	Name          string            `json:"name"`
	Description   string            `json:"description"`
	Default       bool              `json:"default,omitempty"`
	Architectures []string          `json:"architectures"`
	InputPeakV    float64           `json:"input_peak_v,omitempty"`
	ReconMethod   string            `json:"recon_method"`
	Space         ScenarioSpaceJSON `json:"space"`
}

// ScenarioListJSON is the GET /v1/scenarios response.
type ScenarioListJSON struct {
	Scenarios []ScenarioJSON `json:"scenarios"`
	Count     int            `json:"count"`
	Default   string         `json:"default"`
}

// scenarioJSON renders one registered scenario; noiseSteps sizes the
// default space's noise axis (the server's default NoiseSteps).
func scenarioJSON(sc *scenario.Scenario, noiseSteps int) ScenarioJSON {
	sp := sc.Space(noiseSteps)
	spaceArchs := make([]string, len(sp.Architectures))
	for i, a := range sp.Architectures {
		spaceArchs[i] = a.String()
	}
	return ScenarioJSON{
		Name:          sc.Name,
		Description:   sc.Description,
		Default:       sc.Name == scenario.DefaultName,
		Architectures: sc.ArchNames(),
		InputPeakV:    sc.InputPeak,
		ReconMethod:   sc.ReconMethod.String(),
		Space: ScenarioSpaceJSON{
			Architectures: spaceArchs,
			Bits:          sp.Bits,
			LNANoise:      sp.LNANoise,
			M:             sp.M,
			CHold:         sp.CHold,
		},
	}
}

// ErrorCode is the machine-readable error taxonomy of the v1 API: the
// code names the failure class (what a client should branch on), the
// accompanying message is for humans and makes no stability promise.
type ErrorCode string

const (
	// CodeBadRequest: the request body or parameters failed validation (400).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeNotFound: no such job — never existed or TTL-evicted (404).
	CodeNotFound ErrorCode = "not_found"
	// CodeConflict: the resource exists but is in the wrong state, e.g.
	// results of a still-running job (409).
	CodeConflict ErrorCode = "conflict"
	// CodeSaturated: every job slot is busy; retry after Retry-After
	// (429).
	CodeSaturated ErrorCode = "saturated"
	// CodeShuttingDown: the daemon is draining and rejects new work (503).
	CodeShuttingDown ErrorCode = "shutting_down"
	// CodeDeadline: the evaluation exceeded its deadline (504).
	CodeDeadline ErrorCode = "deadline"
	// CodeInternal: an unclassified server-side failure (500).
	CodeInternal ErrorCode = "internal"
)

// ErrorDetail is the payload of the v1 error envelope.
type ErrorDetail struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// errorJSON is the uniform v1 error body:
// {"error": {"code": "...", "message": "..."}}.
type errorJSON struct {
	Error ErrorDetail `json:"error"`
}
