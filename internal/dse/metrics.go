package dse

import (
	"sync/atomic"
	"time"

	"efficsense/internal/obs"
)

// Metrics is the observability layer of a Sweep: lock-free counters
// updated by the workers, snapshotted on demand. Every figure is
// cumulative across the Sweep's Runs and single-point calls (a second
// constrained query keeps adding to the same hit counts); a run's own
// progress, throughput and ETA belong to whoever owns the run, which
// sees its points complete through RunWithHook.
type Metrics struct {
	evaluated atomic.Int64
	cacheHits atomic.Int64
	deduped   atomic.Int64
	panics    atomic.Int64
	evalNanos atomic.Int64

	batches     atomic.Int64
	batchPoints atomic.Int64

	// evalHist distributes per-point evaluation durations over fixed
	// buckets (obs.EvalBuckets), feeding the Snapshot quantiles and the
	// serving layer's Prometheus histogram. Set once by initHistogram
	// before any worker runs; nil (zero-value Metrics) disables it.
	evalHist *obs.Histogram
	// batchSizeHist and batchHist describe batch dispatch: how many
	// points each EvaluateBatch call carried, and how long it took.
	batchSizeHist *obs.Histogram
	batchHist     *obs.Histogram
}

// BatchSizeBuckets are the batch-size histogram bounds (points per
// EvaluateBatch call): powers of two up to well past DefaultBatchSize.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// initHistogram attaches the eval-duration and batch histograms. NewSweep
// calls it exactly once at construction, before any worker can observe.
func (m *Metrics) initHistogram() {
	m.evalHist = obs.NewHistogram(obs.EvalBuckets)
	m.batchSizeHist = obs.NewHistogram(BatchSizeBuckets)
	m.batchHist = obs.NewHistogram(obs.EvalBuckets)
}

// observeBatch records one batched evaluator call of n points.
func (m *Metrics) observeBatch(n int, d time.Duration) {
	m.batches.Add(1)
	m.batchPoints.Add(int64(n))
	if m.batchSizeHist != nil {
		m.batchSizeHist.Observe(float64(n))
	}
	if m.batchHist != nil {
		m.batchHist.Observe(d.Seconds())
	}
}

func (m *Metrics) observeEval(d time.Duration) {
	m.evaluated.Add(1)
	m.evalNanos.Add(int64(d))
	if m.evalHist != nil {
		m.evalHist.Observe(d.Seconds())
	}
}

// Snapshot is a point-in-time reading of a sweep's Metrics.
type Snapshot struct {
	// Evaluated counts real evaluator calls; CacheHits counts points
	// served from the memoisation cache; Deduped counts points served by
	// joining an identical in-flight evaluation (the store's
	// singleflight); Panics counts evaluations that panicked and
	// were degraded into error-carrying results. All four are cumulative
	// across Runs.
	Evaluated, CacheHits, Deduped, Panics int64
	// Batches counts batched evaluator calls (BatchEvaluator dispatch)
	// and BatchPoints the cache-miss points they carried; cumulative
	// across Runs. Zero on per-point engines.
	Batches, BatchPoints int64
	// MeanEval is the mean per-point evaluation time (cache hits
	// excluded — they cost microseconds).
	MeanEval time.Duration
	// P50Eval, P90Eval, P99Eval are eval-duration quantiles estimated
	// from EvalHist by linear interpolation within its fixed buckets —
	// the tail the mean hides. Zero when no evaluation has happened (or
	// on a zero-value Metrics with no histogram attached).
	P50Eval, P90Eval, P99Eval time.Duration
	// EvalHist is the raw eval-duration histogram snapshot, cumulative
	// across Runs; the serving layer merges these across engines into
	// the efficsense_eval_duration_seconds exposition.
	EvalHist obs.Snapshot
	// BatchSizeHist and BatchLatencyHist are the batch-dispatch
	// histograms (points per batched call; seconds per batched call),
	// feeding the serving layer's efficsense_batch_size_points and
	// efficsense_batch_duration_seconds expositions.
	BatchSizeHist, BatchLatencyHist obs.Snapshot
}

// Snapshot returns a consistent-enough view for progress displays; it
// does not pause the workers.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Evaluated:   m.evaluated.Load(),
		CacheHits:   m.cacheHits.Load(),
		Deduped:     m.deduped.Load(),
		Panics:      m.panics.Load(),
		Batches:     m.batches.Load(),
		BatchPoints: m.batchPoints.Load(),
	}
	if s.Evaluated > 0 {
		s.MeanEval = time.Duration(m.evalNanos.Load() / s.Evaluated)
	}
	if m.evalHist != nil {
		s.EvalHist = m.evalHist.Snapshot()
		s.P50Eval = time.Duration(s.EvalHist.Quantile(0.50) * float64(time.Second))
		s.P90Eval = time.Duration(s.EvalHist.Quantile(0.90) * float64(time.Second))
		s.P99Eval = time.Duration(s.EvalHist.Quantile(0.99) * float64(time.Second))
	}
	if m.batchSizeHist != nil {
		s.BatchSizeHist = m.batchSizeHist.Snapshot()
	}
	if m.batchHist != nil {
		s.BatchLatencyHist = m.batchHist.Snapshot()
	}
	return s
}
