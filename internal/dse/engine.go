package dse

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/fault"
)

// PointEvaluator scores one design point. *core.Evaluator implements it;
// tests and alternative backends can substitute their own.
//
// Evaluate must be safe for concurrent calls on different points.
type PointEvaluator interface {
	Evaluate(core.DesignPoint) core.Result
}

// Fingerprinter is optionally implemented by evaluators (notably
// *core.Evaluator) whose scoring is a pure function of construction-time
// state. The fingerprint becomes part of every cache key, so evaluators
// with equal fingerprints share cached results and evaluators with
// different fingerprints never collide.
type Fingerprinter interface {
	Fingerprint() string
}

// anonEvalID hands out process-unique identities for evaluators that
// carry no fingerprint, so caching stays safe (a shared cache can never
// serve one anonymous evaluator the results of another).
var anonEvalID atomic.Int64

// Event is one structured engine observation: exactly one is delivered
// per completed point to the run's hook (RunWithHook), carrying the
// evaluated result and the run's progress. A caller that wants a
// progress line, a throughput or a trace renders it from these events.
type Event struct {
	// Index is the point's position in the Run's input slice.
	Index int
	// Point is the evaluated design point.
	Point core.DesignPoint
	// Result carries the point's figures of interest; Result.Err is
	// non-nil for degraded (panicked) evaluations.
	Result core.Result
	// Cached reports that the result was served without a fresh
	// evaluation: a memoisation-cache hit, or the shared outcome of an
	// identical in-flight evaluation (singleflight).
	Cached bool
	// Duration is the evaluation time (zero for cache hits).
	Duration time.Duration
	// Done and Total describe the run's progress after this point.
	Done, Total int
}

// Sweep evaluates design points in parallel: the production engine behind
// every figure reproduction. Construct with NewSweep; the zero value is
// not usable.
//
// A Sweep provides, on top of a bare worker pool:
//
//   - cancellation: Run honours its context and returns promptly with the
//     results completed so far;
//   - memoisation: with a cache attached, each (evaluator, point) pair is
//     evaluated once, so repeated constrained queries over the same grid
//     (the Fig 9 area-capped and Fig 10 minimum-accuracy searches over
//     the Fig 7 cloud) cost nothing after the first sweep;
//   - fault tolerance: a panic while evaluating one point is recovered in
//     the worker and degraded into an error-carrying result instead of
//     killing the run, and WithRetry re-attempts transient failures with
//     exponential backoff and jitter before degrading;
//   - observability: cumulative atomic counters and per-point duration
//     histograms (Metrics), and one structured event per completed point
//     delivered to the run's own hook (RunWithHook).
//
// A Sweep may be reused for any number of Runs, concurrent ones
// included; metrics accumulate across them, and each run's hook
// observes only its own run.
type Sweep struct {
	ev     PointEvaluator
	batch  BatchEvaluator // non-nil when ev implements it
	evalID string
	// batchSize is the chunk size of batch dispatch: DefaultBatchSize,
	// lowered only by this package's tests.
	batchSize int
	workers   int
	cache     *cache.LRU
	retry     *retrier
	metrics   Metrics
}

// Option configures a Sweep at construction.
type Option func(*Sweep) error

// WithWorkers bounds parallelism. n = 0 selects GOMAXPROCS; negative n is
// a construction error.
func WithWorkers(n int) Option {
	return func(s *Sweep) error {
		if n < 0 {
			return fmt.Errorf("dse: negative worker count %d", n)
		}
		s.workers = n
		return nil
	}
}

// WithCache attaches a memoisation store (cache.New(0) for an unbounded
// one). Entries are keyed on the evaluator identity plus
// core.DesignPoint.Key, so a single store may be shared between sweeps
// and across evaluator rebuilds (see Fingerprinter). Error-carrying
// results are never cached, and concurrent evaluations of one key
// collapse into one (singleflight). A nil store is a no-op.
func WithCache(c *cache.LRU) Option {
	return func(s *Sweep) error {
		s.cache = c
		return nil
	}
}

// NewMemoryCache returns an empty unbounded store.
//
// Deprecated: use cache.New(0), which it returns.
func NewMemoryCache() *cache.LRU { return cache.New(0) }

// WithEvaluatorID overrides the evaluator identity used in cache keys.
// Use it to share a cache between evaluators the engine cannot prove
// equivalent (no Fingerprint), when the caller knows they are.
func WithEvaluatorID(id string) Option {
	return func(s *Sweep) error {
		if id == "" {
			return errors.New("dse: empty evaluator ID")
		}
		s.evalID = id
		return nil
	}
}

// NewSweep builds a sweep engine over ev. It validates its inputs — a
// nil evaluator or an invalid option is a construction error, not a
// panic at Run time.
func NewSweep(ev PointEvaluator, opts ...Option) (*Sweep, error) {
	if ev == nil {
		return nil, errors.New("dse: sweep requires an evaluator")
	}
	if ce, ok := ev.(*core.Evaluator); ok && ce == nil {
		return nil, errors.New("dse: sweep requires a non-nil evaluator")
	}
	s := &Sweep{ev: ev, batchSize: DefaultBatchSize}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	if s.evalID == "" {
		if f, ok := ev.(Fingerprinter); ok {
			s.evalID = f.Fingerprint()
		} else {
			s.evalID = fmt.Sprintf("anon-ev-%d", anonEvalID.Add(1))
		}
	}
	// The batch-first upgrade: an evaluator that can score several points
	// in one call gets cache misses dispatched in group-ordered chunks.
	s.batch, _ = ev.(BatchEvaluator)
	s.metrics.initHistogram()
	return s, nil
}

// Metrics returns a snapshot of the engine's counters (see Snapshot).
func (s *Sweep) Metrics() Snapshot { return s.metrics.Snapshot() }

// Evaluate scores one point through the engine, so a Sweep is itself a
// PointEvaluator. It is a batch of one: the same cache lookup, panic
// recovery, retry and metrics path EvaluateBatch runs per miss, without
// the batch's slice allocations — which is what keeps a memoised
// (steady-state) Evaluate at zero allocations. Single-point paths (local
// refinement, variant studies, the CLI's `point` subcommand) share the
// sweep cache this way.
func (s *Sweep) Evaluate(p core.DesignPoint) core.Result {
	res, _, _, _ := s.evalPoint(context.Background(), p, time.Time{})
	return res
}

// EvaluatePoint is a serving layer's synchronous one-point call:
// lookup-or-evaluate in one step. A point in the store is answered from
// it at once, with no deadline armed and no run started. Otherwise the
// point is evaluated, or joins an identical evaluation already in
// flight, under a deadline of timeout from the call, armed before the
// evaluation starts. Once that deadline has passed EvaluatePoint
// reports context.DeadlineExceeded; the evaluation still runs to its
// end, and a sound result is still cached. cached reports a hit or a
// join. timeout <= 0 leaves ctx's own deadline in charge.
//
// Like Evaluate it is not a Run: it delivers no Event. The cumulative
// counters count its point as they count a Run's.
func (s *Sweep) EvaluatePoint(ctx context.Context, p core.DesignPoint, timeout time.Duration) (res core.Result, cached bool, err error) {
	if err = ctx.Err(); err != nil {
		return core.Result{}, false, err
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	res, hit, shared, _ := s.evalPoint(ctx, p, deadline)
	if hit {
		return res, true, nil
	}
	if err = ctx.Err(); err != nil {
		return core.Result{}, false, err
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return core.Result{}, false, context.DeadlineExceeded
	}
	return res, shared, nil
}

// EvaluatorID returns the identity under which this sweep's results are
// cached.
func (s *Sweep) EvaluatorID() string { return s.evalID }

// Run evaluates every point and returns results in point order.
//
// Cancellation contract: when ctx is cancelled mid-sweep, Run stops
// dispatching, waits only for the evaluations already in flight (at most
// one point's evaluation time per worker), and returns the completed
// results — still in point order, but possibly fewer than len(points) —
// together with ctx.Err(). A nil error means results has exactly one
// sound-or-degraded entry per input point.
//
// A point whose evaluation panics yields a Result with Err set and the
// run continues; Run itself only returns a non-nil error for context
// cancellation.
func (s *Sweep) Run(ctx context.Context, points []core.DesignPoint) ([]core.Result, error) {
	return s.RunWithHook(ctx, points, nil)
}

// RunWithHook is Run with a per-run event hook, the engine's one
// observation channel: hook receives one Event per completed point of
// this run only, serially — never from two workers at once — with
// strictly increasing Done, ending at Done == Total for a completed run.
// It runs under the run's completion lock, so keep it fast. A serving
// layer multiplexing concurrent sweeps over one shared engine gives
// each job its own event stream this way; the CLI renders its progress
// line and JSONL trace from it. A nil hook is a no-op.
func (s *Sweep) RunWithHook(ctx context.Context, points []core.DesignPoint, hook func(Event)) ([]core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]core.Result, len(points))
	if len(points) == 0 {
		return results, ctx.Err()
	}
	var (
		mu        sync.Mutex // guards results, completed, done and hook calls
		completed = make([]bool, len(points))
		done      int
	)
	complete := func(idx int, res core.Result, cached bool, dur time.Duration) {
		mu.Lock()
		results[idx] = res
		completed[idx] = true
		done++
		if hook != nil {
			hook(Event{
				Index: idx, Point: points[idx], Result: res,
				Cached: cached, Duration: dur,
				Done: done, Total: len(points),
			})
		}
		mu.Unlock()
	}
	s.dispatch(ctx, points, complete)
	if err := ctx.Err(); err != nil {
		partial := make([]core.Result, 0, len(points))
		for i, ok := range completed {
			if ok {
				partial = append(partial, results[i])
			}
		}
		return partial, err
	}
	return results, nil
}

// dispatch is the engine's one dispatcher, shared by RunWithHook and
// EvaluateBatch: it evaluates points on the worker pool and reports
// each finished point through complete, from whichever worker finished
// it. A BatchEvaluator gets its misses in group-ordered chunks of up to
// DefaultBatchSize points cut to fit the worker count (chunkByGroup); an
// evaluator that implements only PointEvaluator, or a lone point, takes
// the per-point path. Once ctx is done
// no further chunk or point is evaluated, so some indices may never be
// completed; callers decide what those become.
func (s *Sweep) dispatch(ctx context.Context, points []core.DesignPoint, complete func(idx int, res core.Result, cached bool, dur time.Duration)) {
	workers := s.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(points))
	if s.batch == nil || len(points) == 1 {
		runPool(ctx, len(points), workers, func(idx int) {
			res, hit, shared, dur := s.evalPoint(ctx, points[idx], time.Time{})
			complete(idx, res, hit || shared, dur)
		})
		return
	}
	chunks := chunkByGroup(points, s.batchSize, workers)
	runPool(ctx, len(chunks), workers, func(c int) {
		s.evalChunk(ctx, points, chunks[c], complete)
	})
}

// runPool runs job(0) … job(n-1) on up to workers goroutines.
// Cancellation stops dispatch, and a worker checks ctx before each job
// it takes, so no job starts after ctx is done; jobs already running
// finish (a batch evaluator degrades its remaining groups on a
// cancelled ctx, so the wait is bounded).
func runPool(ctx context.Context, n, workers int, job func(int)) {
	workers = min(workers, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() == nil {
					job(j)
				}
			}
		}()
	}
dispatch:
	for j := 0; j < n; j++ {
		select {
		case jobs <- j:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
}

// evalPoint serves one point from the cache or the evaluator, recovering
// panics into error-carrying results. The key is built in a pooled
// buffer and handed to the store's Do, which serves a hit off the raw
// bytes — so a memoised point costs zero allocations — and collapses
// concurrent misses on one key into a single evaluation whose result
// every caller shares (counted as Deduped in the metrics). hit and
// shared report which of the two served the point. ctx only bounds
// retry backoff (see WithRetry), narrowed to deadline when that is set;
// an in-flight evaluation always runs to its end.
func (s *Sweep) evalPoint(ctx context.Context, p core.DesignPoint, deadline time.Time) (res core.Result, hit, shared bool, dur time.Duration) {
	if s.cache == nil {
		res, dur = s.evaluateBy(ctx, p, deadline)
		return res, false, false, dur
	}
	kb := keyBufPool.Get().(*keyBuf)
	kb.b = s.appendKey(kb.b[:0], p)
	res, hit, shared = s.cacheDo(kb.b, p, func() core.Result {
		var r core.Result
		r, dur = s.evaluateBy(ctx, p, deadline)
		return r
	})
	keyBufPool.Put(kb)
	switch {
	case hit:
		s.metrics.cacheHits.Add(1)
	case shared:
		s.metrics.deduped.Add(1)
	}
	return res, hit, shared, dur
}

// evaluateBy is one timed miss: the evaluation policy (see evaluate)
// under ctx, with deadline, when set, armed before the evaluation
// starts.
func (s *Sweep) evaluateBy(ctx context.Context, p core.DesignPoint, deadline time.Time) (core.Result, time.Duration) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	start := time.Now()
	res := s.evaluate(ctx, p)
	return res, time.Since(start)
}

// cacheDo guards the store's singleflight with the same no-panic
// contract safeEvaluate gives the evaluator: a panic inside the cache
// layer itself (a bug, or an armed cache/flight failpoint) degrades
// this point instead of killing the worker — and with it the daemon.
func (s *Sweep) cacheDo(key []byte, p core.DesignPoint, fn func() core.Result) (res core.Result, hit, shared bool) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			res = core.Result{Point: p, Err: fmt.Errorf("dse: cache flight for %s panicked: %v", p, r)}
		}
	}()
	return s.cache.Do(key, fn)
}

// safeEvaluate is one guarded evaluator call: the dse/evaluate failpoint
// fires first (errors degrade the point, injected panics land in the
// same recovery as evaluator panics), then the evaluator runs.
func (s *Sweep) safeEvaluate(p core.DesignPoint) (res core.Result) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			res = core.Result{Point: p, Err: fmt.Errorf("dse: evaluating %s panicked: %v", p, r)}
		}
	}()
	if err := fault.Fire(fault.PointEvaluate); err != nil {
		return core.Result{Point: p, Err: err}
	}
	return s.ev.Evaluate(p)
}
