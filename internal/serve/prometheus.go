package serve

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"efficsense/internal/dse"
	"efficsense/internal/obs"
)

// handleMetrics renders the Prometheus text exposition (format 0.0.4) by
// hand — the server stays stdlib-only. It aggregates three layers: HTTP
// request counters, the job manager's accounting, and the sweep engines'
// own metrics (evaluations, memoisation hits, recovered panics) plus the
// shared cache occupancy.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := s.mgr.Counters()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)

	gauge := func(name, help string, v interface{}) {
		writeMetric(w, name, help, "gauge", v)
	}
	counter := func(name, help string, v interface{}) {
		writeMetric(w, name, help, "counter", v)
	}

	gauge("efficsense_uptime_seconds", "Seconds since the server started.",
		time.Since(s.started).Seconds())

	reqs := s.requestCounts()
	fmt.Fprintf(w, "# HELP efficsense_http_requests_total HTTP requests served, by status code.\n")
	fmt.Fprintf(w, "# TYPE efficsense_http_requests_total counter\n")
	for _, code := range sortedCodes(reqs) {
		fmt.Fprintf(w, "efficsense_http_requests_total{code=%q} %d\n", fmt.Sprint(code), reqs[code])
	}

	fmt.Fprintf(w, "# HELP efficsense_http_request_duration_seconds HTTP request latency, by endpoint pattern.\n")
	fmt.Fprintf(w, "# TYPE efficsense_http_request_duration_seconds histogram\n")
	for _, ep := range s.endpoints {
		s.reqDur[ep].Snapshot().WritePrometheus(w,
			"efficsense_http_request_duration_seconds", fmt.Sprintf("endpoint=%q", ep))
	}

	fmt.Fprintf(w, "# HELP efficsense_eval_duration_seconds Per-point evaluation duration across all engines (cache hits excluded).\n")
	fmt.Fprintf(w, "# TYPE efficsense_eval_duration_seconds histogram\n")
	evalHist := c.EvalHist
	if len(evalHist.Counts) == 0 {
		// No engine resolved yet: render the standard layout at zero so
		// the series exists from the first scrape.
		evalHist = obs.NewHistogram(obs.EvalBuckets).Snapshot()
	}
	evalHist.WritePrometheus(w, "efficsense_eval_duration_seconds", "")

	counter("efficsense_jobs_submitted_total", "Sweep jobs accepted.", c.Submitted)
	counter("efficsense_jobs_rejected_total", "Job submissions rejected for saturation (sweeps and searches).", c.Rejected)
	counter("efficsense_jobs_completed_total", "Sweep jobs that ran to completion.", c.Completed)
	counter("efficsense_jobs_cancelled_total", "Sweep jobs cancelled by clients.", c.Cancelled)
	counter("efficsense_jobs_failed_total", "Sweep jobs that failed.", c.Failed)
	gauge("efficsense_jobs_running", "Jobs currently pending or running (sweeps and searches).", c.Running)
	gauge("efficsense_jobs_tracked", "Jobs retained for status queries (TTL-bounded).", c.Tracked)
	counter("efficsense_evaluate_requests_total", "Design points requested through synchronous evaluation (single and batch).", c.Evaluations)
	gauge("efficsense_sse_streams_active", "Open SSE event streams.", s.sseActive.Load())

	counter("efficsense_search_jobs_submitted_total", "Goal-directed search jobs accepted.", c.SearchSubmitted)
	counter("efficsense_search_jobs_completed_total", "Search jobs that ran to completion.", c.SearchCompleted)
	counter("efficsense_search_jobs_cancelled_total", "Search jobs cancelled by clients.", c.SearchCancelled)
	counter("efficsense_search_jobs_failed_total", "Search jobs that failed.", c.SearchFailed)
	counter("efficsense_search_evaluations_total", "Design points dispatched by search drivers, at any fidelity rung.", c.SearchEvaluations)
	gauge("efficsense_search_front_size", "Pareto-front size after the most recent search round.", c.SearchFrontSize)
	gauge("efficsense_search_budget_remaining", "Unspent evaluation budget after the most recent search round.", c.SearchBudgetRemaining)

	counter("efficsense_engine_evaluations_total", "Design points scored by the evaluators (cache misses).", c.EngineEvaluated)
	counter("efficsense_engine_cache_hits_total", "Design points served from the memoisation cache.", c.EngineCacheHits)
	counter("efficsense_engine_dedup_total", "Design points served by joining an identical in-flight evaluation (singleflight).", c.EngineDeduped)
	counter("efficsense_engine_panics_total", "Evaluator panics recovered into error results.", c.EnginePanics)
	gauge("efficsense_engine_mean_eval_seconds", "Mean wall-clock seconds per real evaluation.", c.EngineMeanEval.Seconds())
	counter("efficsense_engine_batches_total", "Batched evaluator calls dispatched by the engines.", c.EngineBatches)
	counter("efficsense_engine_batch_points_total", "Cache-miss design points carried by batched evaluator calls.", c.EngineBatchPoints)

	fmt.Fprintf(w, "# HELP efficsense_batch_size_points Design points per batched evaluator call.\n")
	fmt.Fprintf(w, "# TYPE efficsense_batch_size_points histogram\n")
	batchSize := c.BatchSizeHist
	if len(batchSize.Counts) == 0 {
		batchSize = obs.NewHistogram(dse.BatchSizeBuckets).Snapshot()
	}
	batchSize.WritePrometheus(w, "efficsense_batch_size_points", "")

	fmt.Fprintf(w, "# HELP efficsense_batch_duration_seconds Wall-clock duration of batched evaluator calls.\n")
	fmt.Fprintf(w, "# TYPE efficsense_batch_duration_seconds histogram\n")
	batchDur := c.BatchLatencyHist
	if len(batchDur.Counts) == 0 {
		batchDur = obs.NewHistogram(obs.EvalBuckets).Snapshot()
	}
	batchDur.WritePrometheus(w, "efficsense_batch_duration_seconds", "")

	// Durability series (all zero when no -wal-dir is configured).
	counter("efficsense_wal_replayed_jobs_total", "Terminal jobs restored from the journal at startup.", c.WALReplayedJobs)
	counter("efficsense_wal_resumed_jobs_total", "In-flight jobs resumed from the journal at startup.", c.WALResumedJobs)
	counter("efficsense_wal_replayed_rows_total", "Result rows restored from the journal instead of re-evaluated.", c.WALReplayedRows)
	counter("efficsense_wal_discarded_rows_total", "Journaled rows of resumed sweeps re-evaluated because they were computed under another evaluator fingerprint.", c.WALDiscardedRows)
	counter("efficsense_wal_appends_total", "Records appended to the journal since it was opened.", c.WALAppends)
	counter("efficsense_wal_fsyncs_total", "Explicit journal fsyncs (job-state transitions).", c.WALFsyncs)
	counter("efficsense_wal_dropped_records_total", "Journal records dropped on open (torn tail, corrupt records).", c.WALDropped)
	gauge("efficsense_wal_size_bytes", "Current journal file size.", c.WALSizeBytes)

	gauge("efficsense_cache_entries", "Entries in the shared memoisation cache.", c.CacheEntries)
	gauge("efficsense_cache_capacity", "Entry bound of the shared memoisation cache (0 = unbounded).", c.CacheCapacity)
	counter("efficsense_cache_hits_total", "Shared cache lookups that hit.", c.CacheHits)
	counter("efficsense_cache_misses_total", "Shared cache lookups that missed.", c.CacheMisses)
	counter("efficsense_cache_evictions_total", "Entries evicted from the shared cache to honour its bound.", c.CacheEvictions)
	counter("efficsense_cache_singleflight_shared_total", "Shared-cache lookups served by joining an identical in-flight evaluation.", c.CacheDeduped)
	counter("efficsense_cache_flight_panics_total", "Singleflight computations that panicked out of the shared cache.", c.CacheFlightPanics)
}

func writeMetric(w io.Writer, name, help, kind string, v interface{}) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	switch n := v.(type) {
	case float64:
		fmt.Fprintf(w, "%s %g\n", name, n)
	default:
		fmt.Fprintf(w, "%s %v\n", name, n)
	}
}
