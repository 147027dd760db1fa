package dse

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
)

// fakeEvaluator is a deterministic PointEvaluator for engine tests: no
// EEG synthesis, optional per-point delay, optional panic injection.
type fakeEvaluator struct {
	delay   time.Duration
	panicOn func(core.DesignPoint) bool
	calls   atomic.Int64
}

func (f *fakeEvaluator) Evaluate(p core.DesignPoint) core.Result {
	f.calls.Add(1)
	if f.panicOn != nil && f.panicOn(p) {
		panic(fmt.Sprintf("injected failure at %s", p))
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return core.Result{
		Point:      p,
		MeanSNRdB:  float64(p.Bits),
		Accuracy:   0.99,
		TotalPower: p.LNANoise,
		AreaCaps:   float64(p.M),
	}
}

func fakePoints(n int) []core.DesignPoint {
	pts := make([]core.DesignPoint, n)
	for i := range pts {
		pts[i] = core.DesignPoint{
			Arch: core.ArchCS, Bits: 6 + i%3, LNANoise: float64(i+1) * 1e-6, M: 75 + i,
		}
	}
	return pts
}

func TestNewSweepValidation(t *testing.T) {
	if _, err := NewSweep(nil); err == nil {
		t.Fatal("nil evaluator accepted")
	}
	var nilEval *core.Evaluator
	if _, err := NewSweep(nilEval); err == nil {
		t.Fatal("typed-nil *core.Evaluator accepted")
	}
	if _, err := NewSweep(&fakeEvaluator{}, WithWorkers(-2)); err == nil {
		t.Fatal("negative worker count accepted")
	}
	if _, err := NewSweep(&fakeEvaluator{}, WithEvaluatorID("")); err == nil {
		t.Fatal("empty evaluator ID accepted")
	}
	s, err := NewSweep(&fakeEvaluator{}, WithWorkers(0), WithCache(nil))
	if err != nil {
		t.Fatalf("valid configuration rejected: %v", err)
	}
	if s.EvaluatorID() == "" {
		t.Fatal("missing anonymous evaluator ID")
	}
}

func TestRunEmptyAndNilContext(t *testing.T) {
	s, err := NewSweep(&fakeEvaluator{})
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore SA1012 nil context tolerance is part of the API contract
	rs, err := s.Run(nil, nil)
	if err != nil || len(rs) != 0 {
		t.Fatalf("empty run: %v, %d results", err, len(rs))
	}
}

func TestRunReturnsPointOrder(t *testing.T) {
	fe := &fakeEvaluator{}
	s, err := NewSweep(fe, WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	pts := fakePoints(100)
	rs, err := s.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(pts) {
		t.Fatalf("result count %d", len(rs))
	}
	for i, r := range rs {
		if r.Point != pts[i] {
			t.Fatalf("result %d out of order", i)
		}
	}
	if got := fe.calls.Load(); got != int64(len(pts)) {
		t.Fatalf("evaluator called %d times", got)
	}
}

func TestRunCancellationReturnsPartialResultsPromptly(t *testing.T) {
	const (
		delay   = 20 * time.Millisecond
		nPoints = 64
		workers = 4
	)
	fe := &fakeEvaluator{delay: delay}
	s, err := NewSweep(fe, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * delay)
		cancel()
	}()
	start := time.Now()
	rs, err := s.Run(ctx, fakePoints(nPoints))
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Full run would take nPoints/workers * delay = 320 ms; cancellation
	// must return within one in-flight point of the cancel instant.
	if elapsed > 8*delay {
		t.Fatalf("cancellation took %v, want well under the full sweep time", elapsed)
	}
	if len(rs) == 0 || len(rs) >= nPoints {
		t.Fatalf("partial results %d of %d", len(rs), nPoints)
	}
	for i, r := range rs {
		if r.Err != nil || r.TotalPower <= 0 {
			t.Fatalf("partial result %d incomplete: %+v", i, r)
		}
	}
	// The evaluator was never asked for the undispatched tail.
	if got := fe.calls.Load(); got >= int64(nPoints) {
		t.Fatalf("evaluator saw %d calls after cancellation", got)
	}
}

func TestRunRecoversPanicsWithoutLosingOtherPoints(t *testing.T) {
	bad := func(p core.DesignPoint) bool { return p.M == 80 }
	fe := &fakeEvaluator{panicOn: bad}
	s, err := NewSweep(fe, WithWorkers(4), WithCache(cache.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	pts := fakePoints(20)
	rs, err := s.Run(context.Background(), pts)
	if err != nil {
		t.Fatalf("panicking point must not fail the run: %v", err)
	}
	nBad := 0
	for i, r := range rs {
		if bad(pts[i]) {
			nBad++
			if r.Err == nil {
				t.Fatalf("point %d should carry the panic error", i)
			}
			if r.TotalPower != 0 {
				t.Fatalf("degraded point %d carries data", i)
			}
		} else if r.Err != nil || r.TotalPower <= 0 {
			t.Fatalf("healthy point %d lost: %+v", i, r)
		}
	}
	if nBad != 1 {
		t.Fatalf("expected exactly one injected failure, saw %d", nBad)
	}
	if got := s.Metrics().Panics; got != 1 {
		t.Fatalf("panic counter %d", got)
	}
	// Error results are not cached: a second run retries the bad point.
	before := fe.calls.Load()
	if _, err := s.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if got := fe.calls.Load() - before; got != 1 {
		t.Fatalf("second run re-evaluated %d points, want only the failed one", got)
	}
	// Fronts and optima exclude the degraded result.
	if front := ParetoFront(rs, QualitySNR); len(front) == 0 {
		t.Fatal("front empty")
	} else {
		for _, r := range front {
			if r.Err != nil {
				t.Fatal("error result leaked into the Pareto front")
			}
		}
	}
	if best, ok := Optimum(rs, QualityAccuracy, 0); !ok || best.Err != nil {
		t.Fatal("optimum selection mishandled the degraded result")
	}
}

func TestCacheSharingIsKeyedOnEvaluatorIdentity(t *testing.T) {
	store := cache.New(0)
	pts := fakePoints(10)

	feA, feB := &fakeEvaluator{}, &fakeEvaluator{}
	a, _ := NewSweep(feA, WithCache(store))
	b, _ := NewSweep(feB, WithCache(store))
	if _, err := a.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	// Anonymous evaluators must never share entries.
	if got := feB.calls.Load(); got != int64(len(pts)) {
		t.Fatalf("anonymous evaluators shared cache entries: %d calls", got)
	}

	// Explicit shared identity opts in to reuse.
	feC, feD := &fakeEvaluator{}, &fakeEvaluator{}
	c, _ := NewSweep(feC, WithCache(store), WithEvaluatorID("shared"))
	d, _ := NewSweep(feD, WithCache(store), WithEvaluatorID("shared"))
	if _, err := c.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	rs, err := d.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := feD.calls.Load(); got != 0 {
		t.Fatalf("shared-ID evaluator still evaluated %d points", got)
	}
	if got := d.Metrics().CacheHits; got != int64(len(pts)) {
		t.Fatalf("cache hits %d, want %d", got, len(pts))
	}
	for i, r := range rs {
		if r.Point != pts[i] {
			t.Fatalf("cached result %d out of order", i)
		}
	}
	if st := store.Stats(); st.Hits == 0 || st.Misses == 0 || st.Entries == 0 {
		t.Fatalf("cache accounting broken: %+v", st)
	}
}

func TestProgressIsMonotonicAcrossManyWorkers(t *testing.T) {
	var calls []int
	s, err := NewSweep(&fakeEvaluator{}, WithWorkers(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunWithHook(context.Background(), fakePoints(200), func(ev Event) {
		calls = append(calls, ev.Done) // serial by contract: no lock needed
		if ev.Total != 200 {
			t.Errorf("total = %d", ev.Total)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 200 {
		t.Fatalf("progress calls %d", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress not monotonic at %d: %v...", i, calls[:i+1])
		}
	}
}

func TestMetricsSnapshotFields(t *testing.T) {
	s, err := NewSweep(&fakeEvaluator{delay: time.Millisecond}, WithWorkers(2), WithCache(cache.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	pts := fakePoints(8)
	if _, err := s.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Evaluated != int64(len(pts)) || m.CacheHits != 0 {
		t.Fatalf("evaluated %d, hits %d", m.Evaluated, m.CacheHits)
	}
	if m.MeanEval < time.Millisecond {
		t.Fatalf("mean eval %v", m.MeanEval)
	}
	// Warm re-run: counters accumulate, evaluations do not.
	if _, err := s.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	m = s.Metrics()
	if m.Evaluated != int64(len(pts)) || m.CacheHits != int64(len(pts)) {
		t.Fatalf("after warm run: evaluated %d, hits %d", m.Evaluated, m.CacheHits)
	}
}

// TestMetricsEvalQuantilesAndHistogram checks the Snapshot's histogram
// layer: every real evaluation (and nothing else) lands in EvalHist,
// the quantiles are ordered and bracket the observed durations, and
// cache hits do not pollute the distribution.
func TestMetricsEvalQuantilesAndHistogram(t *testing.T) {
	s, err := NewSweep(&fakeEvaluator{delay: 2 * time.Millisecond},
		WithWorkers(2), WithCache(cache.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	pts := fakePoints(8)
	if _, err := s.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if got := m.EvalHist.Count; got != uint64(len(pts)) {
		t.Fatalf("histogram count %d, want %d", got, len(pts))
	}
	if m.P50Eval <= 0 || m.P50Eval > m.P90Eval || m.P90Eval > m.P99Eval {
		t.Fatalf("quantiles not ordered: p50 %v p90 %v p99 %v", m.P50Eval, m.P90Eval, m.P99Eval)
	}
	// Every evaluation slept 2ms, so every observation lands in a bucket
	// whose span includes 2ms or higher. The quantile interpolates
	// within its bucket (Prometheus histogram_quantile semantics), so
	// the estimate can undershoot the true value but never below the
	// containing bucket's lower edge — 1ms for the (1ms, 2.5ms] bucket.
	if m.P50Eval < time.Millisecond {
		t.Fatalf("p50 %v below the containing bucket's 1ms lower edge", m.P50Eval)
	}
	if m.P99Eval > 10*time.Second {
		t.Fatalf("p99 %v absurdly high for 2ms evaluations", m.P99Eval)
	}
	if m.EvalHist.Sum < (2*time.Millisecond).Seconds()*float64(len(pts)) {
		t.Fatalf("histogram sum %g below the slept total", m.EvalHist.Sum)
	}
	// A warm re-run is all cache hits: the distribution must not move.
	if _, err := s.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	if m2 := s.Metrics(); m2.EvalHist.Count != uint64(len(pts)) {
		t.Fatalf("cache hits polluted the histogram: count %d", m2.EvalHist.Count)
	}
}

func TestEventHooksAreSerialAndCarryResults(t *testing.T) {
	s, err := NewSweep(&fakeEvaluator{}, WithWorkers(8), WithCache(cache.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	pts := fakePoints(40)
	var run []Event
	if _, err := s.RunWithHook(context.Background(), pts, func(ev Event) {
		run = append(run, ev) // serial by contract: no lock needed
	}); err != nil {
		t.Fatal(err)
	}
	if len(run) != len(pts) {
		t.Fatalf("event count %d, want %d", len(run), len(pts))
	}
	for i, ev := range run {
		if ev.Done != i+1 || ev.Total != len(pts) {
			t.Fatalf("event %d progress not monotonic: done %d total %d", i, ev.Done, ev.Total)
		}
		if ev.Point != pts[ev.Index] || ev.Result.Point != pts[ev.Index] {
			t.Fatalf("event %d carries the wrong point", i)
		}
		if ev.Cached || ev.Result.TotalPower <= 0 {
			t.Fatalf("cold event %d malformed: %+v", i, ev)
		}
	}
	// A warm re-run delivers cached events.
	run = nil
	if _, err := s.RunWithHook(context.Background(), pts, func(ev Event) {
		run = append(run, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(run) != len(pts) {
		t.Fatalf("warm event count %d, want %d", len(run), len(pts))
	}
	for i, ev := range run {
		if !ev.Cached || ev.Duration != 0 {
			t.Fatalf("warm event %d not cached: %+v", i, ev)
		}
	}
}

func TestRunWithHookObservesOnlyItsOwnRun(t *testing.T) {
	s, err := NewSweep(&fakeEvaluator{delay: time.Millisecond}, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var a, b atomic.Int64
	var wg sync.WaitGroup
	for i, ctr := range []*atomic.Int64{&a, &b} {
		wg.Add(1)
		go func(n int, ctr *atomic.Int64) {
			defer wg.Done()
			if _, err := s.RunWithHook(context.Background(), fakePoints(8+4*n), func(Event) {
				ctr.Add(1)
			}); err != nil {
				t.Error(err)
			}
		}(i, ctr)
	}
	wg.Wait()
	if a.Load() != 8 || b.Load() != 12 {
		t.Fatalf("per-run hooks leaked across runs: %d, %d", a.Load(), b.Load())
	}
}

func TestSpaceValidate(t *testing.T) {
	good := Space{
		Architectures: []core.Architecture{core.ArchBaseline, core.ArchCS},
		Bits:          []int{6, 8},
		LNANoise:      []float64{1e-6, 5e-6},
		M:             []int{75},
		CHold:         []float64{80e-15},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid space rejected: %v", err)
	}
	if err := PaperSpace(8).Validate(); err != nil {
		t.Fatalf("paper space rejected: %v", err)
	}
	nan := 0.0
	nan /= nan
	for name, s := range map[string]Space{
		"no archs":  {Bits: []int{8}, LNANoise: []float64{1e-6}},
		"no bits":   {Architectures: good.Architectures, LNANoise: []float64{1e-6}},
		"no noise":  {Architectures: good.Architectures, Bits: []int{8}},
		"bad bits":  {Architectures: good.Architectures, Bits: []int{0}, LNANoise: []float64{1e-6}},
		"nan noise": {Architectures: good.Architectures, Bits: []int{8}, LNANoise: []float64{nan}},
		"neg noise": {Architectures: good.Architectures, Bits: []int{8}, LNANoise: []float64{-1e-6}},
		"bad m":     {Architectures: good.Architectures, Bits: []int{8}, LNANoise: []float64{1e-6}, M: []int{-1}},
		"nan chold": {Architectures: good.Architectures, Bits: []int{8}, LNANoise: []float64{1e-6}, CHold: []float64{nan}},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid space accepted", name)
		}
	}
}

func TestSizeMatchesPointsWithoutEnumerating(t *testing.T) {
	// Property: the arithmetic Size always equals len(Points()).
	f := func(nArch, nBits, nNoise, nM, nCh uint8) bool {
		s := Space{}
		for i := 0; i < int(nArch%5); i++ {
			s.Architectures = append(s.Architectures, core.Architecture(i%4))
		}
		for i := 0; i < int(nBits%4); i++ {
			s.Bits = append(s.Bits, 6+i)
		}
		for i := 0; i < int(nNoise%4); i++ {
			s.LNANoise = append(s.LNANoise, float64(i+1)*1e-6)
		}
		for i := 0; i < int(nM%3); i++ {
			s.M = append(s.M, 75*(i+1))
		}
		for i := 0; i < int(nCh%3); i++ {
			s.CHold = append(s.CHold, float64(i+1)*1e-14)
		}
		return s.Size() == len(s.Points())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDesignPointKeyIsInjective(t *testing.T) {
	pts := fakePoints(50)
	pts = append(pts, core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: 1e-6})
	pts = append(pts, core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: 1e-6 + 1e-18})
	seen := map[string]core.DesignPoint{}
	for _, p := range pts {
		k := p.Key()
		if prev, dup := seen[k]; dup && prev != p {
			t.Fatalf("key collision: %v and %v both map to %q", prev, p, k)
		}
		seen[k] = p
	}
}

// TestConcurrentRunsSingleflightOneEvalPerPoint pins the daemon-path
// guarantee: concurrent identical runs over one bounded cache evaluate
// each design point exactly once — late arrivals either hit the cache
// or join the in-flight computation, never recompute. Run under -race
// this doubles as the engine/cache coherence stress.
func TestConcurrentRunsSingleflightOneEvalPerPoint(t *testing.T) {
	const (
		k       = 4
		nPoints = 16
	)
	fe := &fakeEvaluator{delay: 2 * time.Millisecond}
	s, err := NewSweep(fe, WithCache(cache.New(64)), WithWorkers(4), WithEvaluatorID("shared"))
	if err != nil {
		t.Fatal(err)
	}
	pts := fakePoints(nPoints)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs, err := s.Run(context.Background(), pts)
			if err != nil {
				t.Error(err)
				return
			}
			for j, r := range rs {
				if r.Err != nil || r.Point != pts[j] {
					t.Errorf("result %d malformed: %+v", j, r)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := fe.calls.Load(); got != nPoints {
		t.Fatalf("%d concurrent identical runs cost %d evaluations, want exactly %d", k, got, nPoints)
	}
	snap := s.Metrics()
	if snap.CacheHits+snap.Deduped != (k-1)*nPoints {
		t.Fatalf("hits %d + deduped %d, want %d together", snap.CacheHits, snap.Deduped, (k-1)*nPoints)
	}
}

// TestConcurrentSweepsTinyCacheBoundHolds squeezes concurrent sweeps
// through a cache far smaller than the space: a monitor goroutine
// watches occupancy throughout, and the bound must never give.
func TestConcurrentSweepsTinyCacheBoundHolds(t *testing.T) {
	store := cache.New(8)
	fe := &fakeEvaluator{}
	s, err := NewSweep(fe, WithCache(store), WithWorkers(4), WithEvaluatorID("shared"))
	if err != nil {
		t.Fatal(err)
	}
	pts := fakePoints(64)

	stop := make(chan struct{})
	violated := make(chan int, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := store.Len(); n > store.Cap() {
				violated <- n
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Run(context.Background(), pts); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(stop)

	select {
	case n := <-violated:
		t.Fatalf("cache occupancy reached %d, above its cap %d", n, store.Cap())
	default:
	}
	st := store.Stats()
	if st.Entries > st.Capacity {
		t.Fatalf("final occupancy %d over cap %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("64 distinct points through an 8-slot cache must evict")
	}
}

func TestSweepCacheHitSpeedup(t *testing.T) {
	// The acceptance workload: a cold sweep, then a Fig 9/10-style
	// constrained re-query of the same grid through the shared cache. The
	// per-point work is a real (if small) sleep, so the ≥5× bound is far
	// from the observed ~1000× and does not flake under load.
	fe := &fakeEvaluator{delay: 5 * time.Millisecond}
	s, err := NewSweep(fe, WithWorkers(4), WithCache(cache.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	pts := fakePoints(32)
	t0 := time.Now()
	if _, err := s.Run(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(t0)
	t1 := time.Now()
	warm, err := s.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	warmDur := time.Since(t1)
	if fe.calls.Load() != int64(len(pts)) {
		t.Fatalf("warm run re-evaluated: %d calls", fe.calls.Load())
	}
	if got, _ := Optimum(warm, QualityAccuracy, 0.9); got.Err != nil {
		t.Fatal("constrained query over cached results failed")
	}
	if warmDur*5 > cold {
		t.Fatalf("cache speedup %.1fx < 5x (cold %v, warm %v)",
			float64(cold)/float64(warmDur), cold, warmDur)
	}
}

// TestEvaluatePointDeadlineBoundsOnlyMisses pins the serving layer's
// one-point call: a miss runs under the deadline and reports
// context.DeadlineExceeded once it passes, yet caches its row; a hit is
// answered whatever the deadline; and a join of an in-flight evaluation
// is cached.
func TestEvaluatePointDeadlineBoundsOnlyMisses(t *testing.T) {
	ev := &fakeEvaluator{delay: 20 * time.Millisecond}
	s, err := NewSweep(ev, WithCache(cache.New(0)), WithEvaluatorID("point"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: 2e-6}
	if _, _, err := s.EvaluatePoint(ctx, p, time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a 20 ms miss under a 1 ms deadline: err %v, want %v", err, context.DeadlineExceeded)
	}
	r, cached, err := s.EvaluatePoint(ctx, p, time.Nanosecond)
	if err != nil || !cached || r.Point != p {
		t.Fatalf("the expired miss's row is not served as a hit: %+v cached %v err %v", r, cached, err)
	}

	q := core.DesignPoint{Arch: core.ArchBaseline, Bits: 6, LNANoise: 2e-6}
	var wg sync.WaitGroup
	var flags [2]bool
	for i := range flags {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, cached, err := s.EvaluatePoint(ctx, q, time.Minute)
			if err != nil || r.Point != q {
				t.Errorf("concurrent miss: %+v err %v", r, err)
			}
			flags[i] = cached
		}(i)
	}
	wg.Wait()

	m := s.Metrics()
	if got := ev.calls.Load(); got != 2 || m.Evaluated != 2 {
		t.Errorf("evaluator calls %d, engine Evaluated %d, want 2 each", got, m.Evaluated)
	}
	// The two concurrent calls either joined (one cached, Deduped 1) or
	// ran one after the other (the second a hit).
	if flags[0] == flags[1] || m.CacheHits+m.Deduped != 2 {
		t.Errorf("cached flags %v, hits %d, deduped %d: want one of the two served without evaluating",
			flags, m.CacheHits, m.Deduped)
	}
}
