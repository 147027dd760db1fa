package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"efficsense/internal/core"
	"efficsense/internal/experiments"
	"efficsense/internal/obs"
	"efficsense/internal/scenario"
)

// Server is the HTTP face of a job Manager.
type Server struct {
	mgr     *Manager
	mux     *http.ServeMux
	log     *slog.Logger
	started time.Time

	reqMu     sync.Mutex
	reqByCode map[int]int64

	// reqDur holds one fixed-bucket latency histogram per registered
	// endpoint pattern, built at construction so the request path never
	// allocates or locks to find its histogram; endpoints keeps the
	// registration order so the /metrics exposition is deterministic.
	reqDur    map[string]*obs.Histogram
	endpoints []string

	sseActive atomic.Int64
}

// NewServer wires the routes around a Manager. logger may be nil for a
// silent server (tests); when set, every request completion and error
// is logged through it with the request's request_id attached.
func NewServer(mgr *Manager, logger *slog.Logger) *Server {
	s := &Server{
		mgr:       mgr,
		mux:       http.NewServeMux(),
		log:       logger,
		started:   time.Now(),
		reqByCode: make(map[int]int64),
		reqDur:    make(map[string]*obs.Histogram),
	}
	s.route("POST /v1/evaluate", s.handleEvaluate)
	s.route("POST /v1/sweeps", handleSubmit(s, mgr.Submit))
	s.route("GET /v1/sweeps", s.handleList)
	s.route("GET /v1/sweeps/{id}", s.handleStatus)
	s.route("GET /v1/sweeps/{id}/events", s.handleEvents)
	s.route("GET /v1/sweeps/{id}/results", s.handleResults)
	s.route("DELETE /v1/sweeps/{id}", s.handleCancel)
	s.route("POST /v1/search", handleSubmit(s, mgr.SubmitSearch))
	s.route("GET /v1/search/{id}", s.handleStatus)
	s.route("GET /v1/search/{id}/events", s.handleEvents)
	s.route("GET /v1/search/{id}/results", s.handleResults)
	s.route("DELETE /v1/search/{id}", s.handleCancel)
	s.route("GET /v1/scenarios", s.handleScenarios)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	return s
}

// route registers a handler under its mux pattern and gives it a
// latency histogram labelled by that pattern. The observation wraps the
// handler alone (mux dispatch and middleware cost stay out), and
// unmatched requests (404/405 straight from the mux) are counted by
// code but not timed — there is no endpoint to attribute them to.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	hist := obs.NewHistogram(obs.DurationBuckets)
	s.reqDur[pattern] = hist
	s.endpoints = append(s.endpoints, pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
	})
}

// ServeHTTP is the request middleware: it assigns or propagates the
// X-Request-ID (a valid caller-supplied ID is echoed and reused, an
// absent or unsafe one is replaced), attaches it to the request context
// for every downstream log line and job record, echoes it on the
// response, and records the status-code counters plus one structured
// completion log line per request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := strings.TrimSpace(r.Header.Get("X-Request-ID"))
	if !obs.ValidRequestID(reqID) {
		reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", reqID)
	r = r.WithContext(obs.WithRequestID(r.Context(), reqID))

	rec := &statusRecorder{ResponseWriter: w}
	start := time.Now()
	s.mux.ServeHTTP(rec, r)
	code := rec.code
	if code == 0 {
		code = http.StatusOK
	}
	s.reqMu.Lock()
	s.reqByCode[code]++
	s.reqMu.Unlock()
	if s.log != nil {
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "http request",
			slog.String("request_id", reqID),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", code),
			slog.Duration("duration", time.Since(start)))
	}
}

// statusRecorder captures the response code for the request counters. It
// forwards Flush so SSE streaming keeps working through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) requestCounts() map[int]int64 {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	out := make(map[int]int64, len(s.reqByCode))
	for k, v := range s.reqByCode {
		out[k] = v
	}
	return out
}

// writeJSON renders v indented and writes it with code. The body is
// rendered before the status goes out, so a value encoding/json refuses
// (a non-finite float) answers 500 with the v1 error envelope instead
// of code with an empty body.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		// An envelope of two strings always encodes.
		_ = enc.Encode(errorJSON{Error: ErrorDetail{Code: CodeInternal, Message: renderFailure(err)}})
	}
	writeBody(w, code, buf.Bytes())
}

// writeBody writes a rendered JSON reply.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body) // a failed write means the client went away
}

// renderFailure is the message of the 500 a reply that cannot be
// rendered becomes.
func renderFailure(err error) string { return "rendering reply: " + err.Error() }

// error writes the v1 error envelope and logs the failure with the
// request's request_id — client errors at INFO (they are the caller's
// problem), server errors at WARN.
func (s *Server) error(w http.ResponseWriter, r *http.Request, status int, code ErrorCode, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	if s.log != nil {
		lvl := slog.LevelInfo
		if status >= 500 {
			lvl = slog.LevelWarn
		}
		s.log.LogAttrs(r.Context(), lvl, "request error",
			slog.String("request_id", obs.RequestID(r.Context())),
			slog.String("code", string(code)),
			slog.Int("status", status),
			slog.String("message", msg))
	}
	writeJSON(w, status, errorJSON{Error: ErrorDetail{Code: code, Message: msg}})
}

// decodeBody strictly decodes a JSON request body: unknown fields are
// rejected so typos fail loudly instead of silently sweeping the wrong
// space, and trailing data after the first JSON value is rejected so a
// concatenated or corrupted body cannot half-parse. An empty body
// decodes to the zero value.
func decodeBody(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		// encoding/json reports an unknown key as `json: unknown field
		// "name"` with no typed error; rewrap it so the envelope names
		// the offending field in the API's own words.
		if field, ok := strings.CutPrefix(err.Error(), "json: unknown field "); ok {
			return fmt.Errorf("unknown field %s in request body", field)
		}
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return errors.New("request body holds more than one JSON value")
	}
	return nil
}

// handleEvaluate scores design points synchronously, bounded by the
// request deadline (timeout_ms, capped by the server's EvalTimeout). A
// single-object body ({"point": ...}) returns one ResultJSON; a batch
// body ({"points": [...]}) flows through the engines' batch dispatch
// and returns an EvaluateBatchResponse with per-point rows.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if err := decodeBody(r, &req); err != nil {
		s.error(w, r, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
		return
	}
	if req.TimeoutMS < 0 {
		s.error(w, r, http.StatusBadRequest, CodeBadRequest,
			"timeout_ms must be non-negative, got %d", req.TimeoutMS)
		return
	}
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	scn, err := s.mgr.Scenario(req.Options)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if req.Points != nil {
		s.evaluateBatch(w, r, req, scn, timeout)
		return
	}
	dp, err := req.Point.DesignPoint(scn)
	if err != nil {
		s.error(w, r, http.StatusBadRequest, CodeBadRequest, "point: %v", err)
		return
	}
	result, cached, err := s.mgr.Evaluate(r.Context(), req.Options, dp, timeout)
	if err != nil {
		s.managerError(w, r, err)
		return
	}
	// 1 KiB holds a row with a full power breakdown in one allocation.
	body, err := appendEvaluateReply(make([]byte, 0, 1024), result, cached)
	if err != nil {
		s.error(w, r, http.StatusInternalServerError, CodeInternal, "%s", renderFailure(err))
		return
	}
	writeBody(w, http.StatusOK, body)
}

// evaluateBatch is handleEvaluate's batch arm. Spec validation is
// all-or-nothing (a malformed point is the caller's bug: 400 naming the
// index); evaluation failures degrade per point into error rows with
// partial: true, the same shape sweep outcomes use.
func (s *Server) evaluateBatch(w http.ResponseWriter, r *http.Request, req EvaluateRequest, scn *scenario.Scenario, timeout time.Duration) {
	if req.Point != (PointSpec{}) {
		s.error(w, r, http.StatusBadRequest, CodeBadRequest,
			"provide either point or points, not both")
		return
	}
	if len(req.Points) == 0 {
		s.error(w, r, http.StatusBadRequest, CodeBadRequest, "points must not be empty")
		return
	}
	pts := make([]core.DesignPoint, len(req.Points))
	for i, ps := range req.Points {
		dp, err := ps.DesignPoint(scn)
		if err != nil {
			s.error(w, r, http.StatusBadRequest, CodeBadRequest, "points[%d]: %v", i, err)
			return
		}
		pts[i] = dp
	}
	rs, cached, err := s.mgr.EvaluateBatch(r.Context(), req.Options, pts, timeout)
	if err != nil {
		s.managerError(w, r, err)
		return
	}
	body, err := appendEvaluateBatchReply(nil, rs, cached)
	if err != nil {
		s.error(w, r, http.StatusInternalServerError, CodeInternal, "%s", renderFailure(err))
		return
	}
	writeBody(w, http.StatusOK, body)
}

// retrySeconds rounds an honest Retry-After up to whole seconds (the
// header's unit), never below 1 — a client that retries instantly would
// just be rejected again.
func retrySeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// managerError maps the Manager's errors onto the wire, for every
// endpoint alike. Every backpressure response — saturated (429) and
// draining (503) — carries an honest Retry-After so clients never
// guess; a request whose client went away gets no reply.
func (s *Server) managerError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrBadRequest):
		s.error(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
	case errors.Is(err, ErrSaturated):
		retry := retrySeconds(s.mgr.RetryAfter())
		w.Header().Set("Retry-After", fmt.Sprint(retry))
		s.error(w, r, http.StatusTooManyRequests, CodeSaturated, "%v (retry after ~%ds)", err, retry)
	case errors.Is(err, ErrShuttingDown):
		// A draining daemon is typically restarting: tell the client when
		// trying again is worthwhile instead of shipping a bare 503.
		w.Header().Set("Retry-After", fmt.Sprint(retrySeconds(drainRetryAfter)))
		s.error(w, r, http.StatusServiceUnavailable, CodeShuttingDown, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		s.error(w, r, http.StatusGatewayTimeout, CodeDeadline, "evaluation exceeded the deadline")
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
	default:
		s.error(w, r, http.StatusInternalServerError, CodeInternal, "%v", err)
	}
}

// drainRetryAfter is the Retry-After a draining daemon advertises: long
// enough for a restart, short enough that clients reconnect promptly.
const drainRetryAfter = 10 * time.Second

// handleSubmit is the handler of an asynchronous job submission — a
// sweep on POST /v1/sweeps, a search on POST /v1/search: it decodes the
// request, hands it to submit and answers 202 + Location with the job's
// status, or the Manager's error (429 + Retry-After when every job slot
// is busy).
func handleSubmit[R any](s *Server, submit func(context.Context, R) (*Job, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if err := decodeBody(r, &req); err != nil {
			s.error(w, r, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
			return
		}
		job, err := submit(r.Context(), req)
		if err != nil {
			s.managerError(w, r, err)
			return
		}
		st := job.Status()
		w.Header().Set("Location", st.StatusURL)
		writeJSON(w, http.StatusAccepted, st)
	}
}

// validStateFilter accepts the JobState names a ?state= filter may use.
func validStateFilter(s string) bool {
	switch JobState(s) {
	case StatePending, StateRunning, StateCompleted, StateCancelled, StateFailed:
		return true
	}
	return false
}

// handleList returns every tracked job (running and TTL-retained
// finished ones), newest first, optionally filtered by ?state= and/or
// ?scenario=. This is the discovery endpoint: clients find their jobs
// here — by the request_id they submitted with — instead of scraping
// /metrics.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	filter := r.URL.Query().Get("state")
	if filter != "" && !validStateFilter(filter) {
		s.error(w, r, http.StatusBadRequest, CodeBadRequest,
			"unknown state %q (want pending, running, completed, cancelled or failed)", filter)
		return
	}
	scnFilter := r.URL.Query().Get("scenario")
	if scnFilter != "" {
		scn, err := scenario.Lookup(scnFilter)
		if err != nil {
			s.error(w, r, http.StatusBadRequest, CodeBadRequest, "%v", err)
			return
		}
		scnFilter = scn.Name
	}
	jobs := s.mgr.Jobs()
	summaries := make([]JobSummary, 0, len(jobs))
	for _, j := range jobs {
		sum := j.Summary()
		if filter != "" && sum.State != filter {
			continue
		}
		if scnFilter != "" && sum.Scenario != scnFilter {
			continue
		}
		summaries = append(summaries, sum)
	}
	sort.Slice(summaries, func(i, k int) bool {
		if !summaries[i].CreatedAt.Equal(summaries[k].CreatedAt) {
			return summaries[i].CreatedAt.After(summaries[k].CreatedAt)
		}
		return summaries[i].ID > summaries[k].ID
	})
	writeJSON(w, http.StatusOK, JobListJSON{Jobs: summaries, Count: len(summaries)})
}

// job resolves the {id} of a job route. A job answers only under its
// own kind's prefix, the one its status_url names: a search's ID under
// /v1/sweeps/, or a sweep's under /v1/search/, is not found.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	job, err := s.mgr.Job(r.PathValue("id"))
	if err == nil && job.kind != routeKind(r) {
		job, err = nil, ErrNotFound
	}
	if err != nil {
		s.error(w, r, http.StatusNotFound, CodeNotFound, "%v", err)
		return nil, false
	}
	return job, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if job, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, job.Status())
	}
}

// handleResults streams the finished (or cancelled) job's result cloud
// as NDJSON, one design point per line — the same rows the CLI's CSV
// emitter writes.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	if !job.State().Terminal() {
		s.error(w, r, http.StatusConflict, CodeConflict,
			"job %s is still %s; results stream after it finishes", job.ID, job.State())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = experiments.NDJSONResults(w, job.Results())
}

// routeKind is the job kind a job route's prefix serves.
func routeKind(r *http.Request) string {
	if strings.HasPrefix(r.URL.Path, "/v1/search/") {
		return jobKindSearch
	}
	return jobKindSweep
}

// handleCancel requests cancellation and reports the (possibly already
// terminal) status. The job is looked up under the route's kind before
// anything is cancelled.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(w, r)
	if !ok {
		return
	}
	if _, err := s.mgr.Cancel(r.Context(), job.ID); err != nil {
		s.error(w, r, http.StatusNotFound, CodeNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

// handleScenarios lists the registered workload scenarios — the names a
// request's options.scenario field may select, each with its
// architecture set and default design space (sized by the server's
// default noise resolution).
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	list := scenario.All()
	out := ScenarioListJSON{
		Scenarios: make([]ScenarioJSON, 0, len(list)),
		Default:   scenario.DefaultName,
	}
	for _, sc := range list {
		out.Scenarios = append(out.Scenarios, scenarioJSON(sc, s.mgr.cfg.Defaults.NoiseSteps))
	}
	out.Count = len(out.Scenarios)
	writeJSON(w, http.StatusOK, out)
}

// healthJSON is the /healthz body.
type healthJSON struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	JobsRunning   int     `json:"jobs_running"`
	JobsTracked   int     `json:"jobs_tracked"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c := s.mgr.Counters()
	h := healthJSON{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		JobsRunning:   c.Running,
		JobsTracked:   c.Tracked,
	}
	code := http.StatusOK
	if s.mgr.Draining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// sortedCodes returns the request-counter keys in ascending order so the
// Prometheus exposition is deterministic.
func sortedCodes(m map[int]int64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
