package dse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
)

func legacyBits(v float64) uint64 { return math.Float64bits(v) }

// fakeBatchEvaluator upgrades fakeEvaluator with the BatchEvaluator
// contract; rows, when set, overrides the produced results wholesale
// (wrong-length returns, error rows, a call that fails whole).
type fakeBatchEvaluator struct {
	fakeEvaluator
	batchCalls  atomic.Int64
	batchPoints atomic.Int64
	maxBatch    atomic.Int64
	rows        func(pts []core.DesignPoint) []core.Result
	panicOnCall bool
}

func (f *fakeBatchEvaluator) EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result {
	f.batchCalls.Add(1)
	f.batchPoints.Add(int64(len(pts)))
	for {
		cur := f.maxBatch.Load()
		if int64(len(pts)) <= cur || f.maxBatch.CompareAndSwap(cur, int64(len(pts))) {
			break
		}
	}
	if f.panicOnCall {
		panic("injected batch panic")
	}
	if f.rows != nil {
		return f.rows(pts)
	}
	return f.evaluateEach(pts)
}

// evaluateEach is the fake's sound batch: each point evaluated alone.
func (f *fakeBatchEvaluator) evaluateEach(pts []core.DesignPoint) []core.Result {
	rs := make([]core.Result, len(pts))
	for i, p := range pts {
		rs[i] = f.fakeEvaluator.Evaluate(p)
	}
	return rs
}

// errInjected is the error the fakes' scheduled faults carry.
var errInjected = errors.New("injected fault")

// batchPoints builds n points spread over two GroupKey groups (Bits is
// the only axis that differs within a group).
func batchTestPoints(n int) []core.DesignPoint {
	pts := make([]core.DesignPoint, n)
	for i := range pts {
		pts[i] = core.DesignPoint{
			Arch: core.ArchCS, Bits: 6 + i%3, LNANoise: float64(1+i%2) * 1e-6, M: 100,
		}
	}
	return pts
}

func TestChunkByGroupOrdersAndBounds(t *testing.T) {
	pts := batchTestPoints(12) // two groups of 6, interleaved in input order
	chunks := chunkByGroup(pts, 4, 1)
	var flat []int
	for _, c := range chunks {
		if len(c) == 0 || len(c) > 4 {
			t.Fatalf("chunk size %d outside (0, 4]", len(c))
		}
		flat = append(flat, c...)
	}
	if len(flat) != len(pts) {
		t.Fatalf("chunks cover %d of %d points", len(flat), len(pts))
	}
	seen := make(map[int]bool)
	for _, idx := range flat {
		if seen[idx] {
			t.Fatalf("index %d dispatched twice", idx)
		}
		seen[idx] = true
	}
	// Group-equal points must be adjacent in the flattened order.
	lastGroup := make(map[core.DesignPoint]int)
	for pos, idx := range flat {
		k := pts[idx].GroupKey()
		if last, ok := lastGroup[k]; ok && pos != last+1 {
			t.Fatalf("group %v split: positions %d and %d", k, last, pos)
		}
		lastGroup[k] = pos
	}
}

// groupOrder is the group-ordered flattening chunkByGroup cuts: groups
// in first-seen order, input order within a group.
func groupOrder(pts []core.DesignPoint) []int {
	var order []core.DesignPoint
	groups := make(map[core.DesignPoint][]int)
	for i, p := range pts {
		k := p.GroupKey()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	var flat []int
	for _, k := range order {
		flat = append(flat, groups[k]...)
	}
	return flat
}

// TestChunkByGroupProperties checks the worker-aware cut rule over
// random point sets: an exact cover in group order, chunks within size,
// cuts inside a group only where a chunk is full, full chunks of size
// points wherever the target reaches size (in a batch of more than
// workers × size points, a chunk whose ceil(r/(2·workers)) with r the
// points not yet cut does; in a smaller one, flat slicing when
// ceil(n/workers) == size), and at least two chunks whenever two
// workers could share the work.
func TestChunkByGroupProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(60)
		numGroups := 1 + rng.Intn(min(n, 8))
		size := 1 + rng.Intn(20)
		workers := 1 + rng.Intn(4)
		pts := make([]core.DesignPoint, n)
		for i := range pts {
			pts[i] = core.DesignPoint{
				Arch: core.ArchCS, Bits: 4 + rng.Intn(6), M: 100,
				LNANoise: float64(1+rng.Intn(numGroups)) * 1e-6,
			}
		}
		label := fmt.Sprintf("iter %d (n %d, size %d, workers %d)", iter, n, size, workers)
		chunks := chunkByGroup(pts, size, workers)

		flat := groupOrder(pts)
		var got []int
		for _, c := range chunks {
			if len(c) == 0 || len(c) > size {
				t.Fatalf("%s: chunk of %d points outside (0, %d]", label, len(c), size)
			}
			got = append(got, c...)
		}
		if fmt.Sprint(got) != fmt.Sprint(flat) {
			t.Fatalf("%s: chunks %v are not the group order %v cut up", label, got, flat)
		}

		// A chunk may end inside a group only where it is full, so a
		// group of at most size points that opens a chunk is never split.
		groupSize := make(map[core.DesignPoint]int)
		for _, p := range pts {
			groupSize[p.GroupKey()]++
		}
		off := 0
		for _, c := range chunks {
			first := pts[c[0]].GroupKey()
			opens := off == 0 || pts[flat[off-1]].GroupKey() != first
			off += len(c)
			if off < n && pts[flat[off-1]].GroupKey() == pts[flat[off]].GroupKey() && len(c) != size {
				t.Fatalf("%s: chunk of %d points ends inside a group", label, len(c))
			}
			if gs := groupSize[first]; opens && gs <= size {
				if len(c) < gs {
					t.Fatalf("%s: group of %d points opening a chunk of %d was split", label, gs, len(c))
				}
				for _, idx := range c[:gs] {
					if pts[idx].GroupKey() != first {
						t.Fatalf("%s: group of %d points opening a chunk is not contiguous", label, gs)
					}
				}
			}
		}

		if n > workers*size {
			off = 0
			for _, c := range chunks {
				if r := n - off; (r+2*workers-1)/(2*workers) >= size && len(c) != size {
					t.Fatalf("%s: chunk at %d of %d points, want size %d with %d points left", label, off, len(c), size, r)
				}
				off += len(c)
			}
		} else if (n+workers-1)/workers == size {
			var want [][]int
			for off := 0; off < n; off += size {
				want = append(want, flat[off:min(off+size, n)])
			}
			if fmt.Sprint(chunks) != fmt.Sprint(want) {
				t.Fatalf("%s: target == size should slice flat: %v, want %v", label, chunks, want)
			}
		}
		if len(groupSize) >= 2 && workers >= 2 && len(chunks) < 2 {
			t.Fatalf("%s: %d groups for %d workers in one chunk", label, len(groupSize), workers)
		}
		if len(groupSize) == 1 && n <= size && len(chunks) != 1 {
			t.Fatalf("%s: a single group of %d points was cut into %d chunks", label, n, len(chunks))
		}
	}
}

// TestChunkByGroupShrinksToOneGroup pins the cut of two batches the
// benchmark sends on two workers: a 96-point sweep of 32 three-point
// groups, whose last chunks are one group each, and a 7-point search
// round of groups of 3, 2, 1 and 1 points, which keeps one chunk per
// worker.
func TestChunkByGroupShrinksToOneGroup(t *testing.T) {
	for _, tc := range []struct {
		name   string
		groups []int
		want   []int
	}{
		{"sweep", []int{
			3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
			3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
		}, []int{16, 16, 16, 12, 9, 6, 6, 3, 3, 3, 3, 3}},
		{"search round", []int{3, 2, 1, 1}, []int{3, 4}},
	} {
		var pts []core.DesignPoint
		for g, size := range tc.groups {
			for b := 0; b < size; b++ {
				pts = append(pts, core.DesignPoint{Arch: core.ArchCS, Bits: 6 + b, LNANoise: float64(g+1) * 1e-6, M: 100})
			}
		}
		var got []int
		for _, c := range chunkByGroup(pts, DefaultBatchSize, 2) {
			got = append(got, len(c))
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("%s: chunks of %v points, want %v", tc.name, got, tc.want)
		}
	}
}

// barrierBatchEvaluator records how many EvaluateBatch calls overlap.
// With release set, each call waits until two calls are in flight at
// once (or 10 s pass, which it records as a timeout instead of hanging).
type barrierBatchEvaluator struct {
	fakeEvaluator
	inFlight, maxInFlight atomic.Int64
	release               chan struct{}
	releaseOnce           sync.Once
	timedOut              atomic.Bool
}

func (b *barrierBatchEvaluator) EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result {
	n := b.inFlight.Add(1)
	defer b.inFlight.Add(-1)
	for {
		cur := b.maxInFlight.Load()
		if n <= cur || b.maxInFlight.CompareAndSwap(cur, n) {
			break
		}
	}
	if b.release != nil {
		if n >= 2 {
			b.releaseOnce.Do(func() { close(b.release) })
		}
		select {
		case <-b.release:
		case <-time.After(10 * time.Second):
			b.timedOut.Store(true)
			b.releaseOnce.Do(func() { close(b.release) }) // later calls need not wait too
		}
	}
	rs := make([]core.Result, len(pts))
	for i, p := range pts {
		rs[i] = b.fakeEvaluator.Evaluate(p)
	}
	return rs
}

// TestEvaluateBatchUsesEveryWorker pins the parallel dispatch of
// Sweep.EvaluateBatch: a two-group batch far below workers × batch size
// is cut into two chunks that run at once on two workers, and one worker
// never runs two chunks at once.
func TestEvaluateBatchUsesEveryWorker(t *testing.T) {
	pts := batchTestPoints(6) // two groups of 3
	ev := &barrierBatchEvaluator{release: make(chan struct{})}
	s, err := NewSweep(ev, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	rs := s.EvaluateBatch(context.Background(), pts)
	if ev.timedOut.Load() {
		t.Fatal("EvaluateBatch never had two chunks in flight on two workers")
	}
	for i, r := range rs {
		if r.Err != nil || r.Point != pts[i] {
			t.Fatalf("row %d: %+v", i, r)
		}
	}

	serial := &barrierBatchEvaluator{fakeEvaluator: fakeEvaluator{delay: time.Millisecond}}
	s1, err := NewSweep(serial, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	s1.EvaluateBatch(context.Background(), batchTestPoints(24))
	if got := serial.maxInFlight.Load(); got != 1 {
		t.Fatalf("one worker ran %d chunks at once", got)
	}
}

// TestEvaluateBatchPreCancelled: a batch whose ctx is already done
// degrades every row with context.Canceled and never reaches the
// evaluator, on the batch and the per-point path alike.
func TestEvaluateBatchPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		batch := &fakeBatchEvaluator{}
		perPoint := &fakeEvaluator{}
		for _, ev := range []PointEvaluator{batch, perPoint} {
			s, err := NewSweep(ev, WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			pts := batchTestPoints(12)
			rs := s.EvaluateBatch(ctx, pts)
			for i, r := range rs {
				if !errors.Is(r.Err, context.Canceled) || r.Point != pts[i] {
					t.Fatalf("%T, %d workers, row %d: %+v", ev, workers, i, r)
				}
			}
		}
		if c := batch.batchCalls.Load() + batch.calls.Load() + perPoint.calls.Load(); c != 0 {
			t.Fatalf("%d workers: %d evaluator calls on a cancelled batch", workers, c)
		}
	}
}

// TestRunPrefersBatchDispatch pins the upgrade contract: a sweep over a
// BatchEvaluator dispatches misses in group-ordered multi-point calls,
// the batch metrics see them, and the results match the per-point path.
func TestRunPrefersBatchDispatch(t *testing.T) {
	pts := batchTestPoints(12)
	ev := &fakeBatchEvaluator{}
	s, err := NewSweep(ev, WithCache(cache.New(0)), WithEvaluatorID("batch"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if ev.batchCalls.Load() == 0 || ev.maxBatch.Load() < 2 {
		t.Fatalf("batch evaluator not used in batches: %d calls, max %d points",
			ev.batchCalls.Load(), ev.maxBatch.Load())
	}
	snap := s.Metrics()
	if snap.Batches != ev.batchCalls.Load() || snap.BatchPoints != ev.batchPoints.Load() {
		t.Fatalf("batch metrics %d/%d disagree with evaluator %d/%d",
			snap.Batches, snap.BatchPoints, ev.batchCalls.Load(), ev.batchPoints.Load())
	}
	if snap.BatchSizeHist.Count == 0 || snap.BatchLatencyHist.Count == 0 {
		t.Fatal("batch histograms unobserved")
	}
	perPoint, err := NewSweep(&fakeEvaluator{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := perPoint.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if fmt.Sprintf("%+v", rs[i]) != fmt.Sprintf("%+v", want[i]) {
			t.Fatalf("point %d: batch %+v != per-point %+v", i, rs[i], want[i])
		}
	}
}

// TestSweepEvaluateBatch exercises the Sweep-as-BatchEvaluator surface
// the serving layer uses: per-point results in input order, cache
// participation, and ctx degradation.
func TestSweepEvaluateBatch(t *testing.T) {
	pts := batchTestPoints(8)
	store := cache.New(0)
	ev := &fakeBatchEvaluator{}
	s, err := NewSweep(ev, WithCache(store), WithEvaluatorID("srv"))
	if err != nil {
		t.Fatal(err)
	}
	rs := s.EvaluateBatch(context.Background(), pts)
	if len(rs) != len(pts) {
		t.Fatalf("%d results for %d points", len(rs), len(pts))
	}
	for i, r := range rs {
		if r.Err != nil || r.Point != pts[i] {
			t.Fatalf("row %d: %+v", i, r)
		}
	}
	calls := ev.calls.Load()
	// A second pass is all warm: no further evaluator calls.
	s.EvaluateBatch(context.Background(), pts)
	if got := ev.calls.Load(); got != calls {
		t.Fatalf("warm batch re-evaluated: %d → %d calls", calls, got)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range s.EvaluateBatch(cancelled, batchTestPoints(99)[90:]) {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("row %d of cancelled batch: err %v", i, r.Err)
		}
	}
}

// TestBatchFaultDegradesOnlyItsBatch pins the blast-radius contract of a
// batch-level fault: one batch evaluator call that fails whole degrades
// exactly the points of that batch into error rows; every other batch
// completes clean, and the job as a whole still returns len(points)
// results. The 24 points are two groups of 12, which one worker takes
// as two chunks.
func TestBatchFaultDegradesOnlyItsBatch(t *testing.T) {
	var failed atomic.Bool
	ev := &fakeBatchEvaluator{}
	ev.rows = func(pts []core.DesignPoint) []core.Result {
		if failed.CompareAndSwap(false, true) {
			return batchErrorRows(pts, errInjected)
		}
		return ev.evaluateEach(pts)
	}
	pts := batchTestPoints(24)
	s, err := NewSweep(ev, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(pts) {
		t.Fatalf("%d results for %d points", len(rs), len(pts))
	}
	var degraded int
	for _, r := range rs {
		if r.Err != nil {
			if !errors.Is(r.Err, errInjected) {
				t.Fatalf("unexpected error kind: %v", r.Err)
			}
			degraded++
		}
	}
	if degraded != 12 {
		t.Fatalf("one failed batch degraded %d points, want exactly the batch of 12", degraded)
	}
}

// TestBatchPointFaultDegradesOnlyItsPoint pins per-point error rows on
// the batch path: an error row out of the batch evaluator degrades its
// point alone, every point is counted as evaluated, and the degraded
// rows are never cached, so a rerun against a healed evaluator
// evaluates exactly them.
func TestBatchPointFaultDegradesOnlyItsPoint(t *testing.T) {
	pts := batchTestPoints(6) // two groups of 3: one chunk on one worker
	bad := func(p core.DesignPoint) bool { return p.Bits == 6 }
	const k = 2 // the points with 6 bits
	ev := &fakeBatchEvaluator{}
	ev.rows = func(pts []core.DesignPoint) []core.Result {
		rs := ev.evaluateEach(pts)
		for i, p := range pts {
			if bad(p) {
				rs[i] = core.Result{Point: p, Err: errInjected}
			}
		}
		return rs
	}
	s, err := NewSweep(ev, WithWorkers(1), WithCache(cache.New(0)), WithEvaluatorID("point-fault"))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	var failed []core.DesignPoint
	for i, r := range rs {
		if r.Point != pts[i] {
			t.Fatalf("row %d is %s, want %s", i, r.Point, pts[i])
		}
		if r.Err != nil {
			if !errors.Is(r.Err, errInjected) || !bad(r.Point) {
				t.Fatalf("row %d: unexpected error: %v", i, r.Err)
			}
			failed = append(failed, r.Point)
		}
	}
	if len(failed) != k {
		t.Fatalf("%d rows degraded, want the %d failed", len(failed), k)
	}
	if ev.batchCalls.Load() != 1 || ev.batchPoints.Load() != int64(len(pts)) {
		t.Fatalf("%d batch calls over %d points, want the chunk's %d in one",
			ev.batchCalls.Load(), ev.batchPoints.Load(), len(pts))
	}
	if got := s.Metrics().Evaluated; got != int64(len(pts)) {
		t.Fatalf("Evaluated = %d, want %d", got, len(pts))
	}

	ev.rows = nil
	calls := ev.calls.Load()
	rerun, err := s.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rerun {
		if r.Err != nil {
			t.Fatalf("healed rerun row %d: %v", i, r.Err)
		}
	}
	if got := ev.calls.Load() - calls; got != k {
		t.Fatalf("healed rerun evaluated %d points, want the %d that failed", got, k)
	}
	if got := s.Metrics().CacheHits; got != int64(len(pts)-k) {
		t.Fatalf("healed rerun hit the cache %d times, want %d", got, len(pts)-k)
	}
}

// TestBatchPanicDegradesBatch: a panic inside EvaluateBatch degrades
// that batch's points and is counted, instead of killing the worker.
func TestBatchPanicDegradesBatch(t *testing.T) {
	ev := &fakeBatchEvaluator{panicOnCall: true}
	s, err := NewSweep(ev, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	pts := batchTestPoints(8)
	rs, err := s.Run(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Err == nil {
			t.Fatalf("point %s survived a batch panic", r.Point)
		}
	}
	if s.Metrics().Panics == 0 {
		t.Fatal("batch panic not counted")
	}
}

// TestBatchLengthMismatchDegrades: an evaluator that breaks the
// one-result-per-point contract degrades the batch, never misaligns it.
func TestBatchLengthMismatchDegrades(t *testing.T) {
	ev := &fakeBatchEvaluator{rows: func(pts []core.DesignPoint) []core.Result {
		return make([]core.Result, len(pts)-1)
	}}
	s, err := NewSweep(ev, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.Run(context.Background(), batchTestPoints(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Err == nil {
			t.Fatal("length-breaking batch evaluator not degraded")
		}
	}
}

// TestEvaluateWarmZeroAllocs pins the allocation-lean hot path on both
// shapes of the one store — unbounded (the CLI's) and bounded (the
// daemon's): a warm memoised Evaluate (key build, byte-key cache hit,
// metrics) must not allocate.
func TestEvaluateWarmZeroAllocs(t *testing.T) {
	for _, capacity := range []int{0, 64} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			s, err := NewSweep(&fakeEvaluator{}, WithCache(cache.New(capacity)), WithEvaluatorID("alloc"))
			if err != nil {
				t.Fatal(err)
			}
			p := core.DesignPoint{Arch: core.ArchCS, Bits: 8, LNANoise: 2e-6, M: 100, CHold: 80e-15}
			s.Evaluate(p) // prime
			avg := testing.AllocsPerRun(1000, func() {
				if r := s.Evaluate(p); r.Err != nil {
					t.Fatal(r.Err)
				}
			})
			if avg > 0.1 {
				t.Fatalf("warm Evaluate allocates %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// TestRunOneWarmPointAllocBound bounds the synchronous-evaluate path: a
// one-point RunWithHook that hits the cache pays only for the run's own
// bookkeeping (result slices, the completion closure, one pool worker),
// never for the cache lookup.
func TestRunOneWarmPointAllocBound(t *testing.T) {
	for _, capacity := range []int{0, 64} {
		t.Run(fmt.Sprintf("cap%d", capacity), func(t *testing.T) {
			s, err := NewSweep(&fakeEvaluator{}, WithCache(cache.New(capacity)), WithEvaluatorID("alloc"))
			if err != nil {
				t.Fatal(err)
			}
			pts := []core.DesignPoint{{Arch: core.ArchCS, Bits: 8, LNANoise: 2e-6, M: 100, CHold: 80e-15}}
			ctx := context.Background()
			if _, err := s.Run(ctx, pts); err != nil { // prime
				t.Fatal(err)
			}
			hook := func(ev Event) {
				if !ev.Cached {
					t.Error("primed point missed the cache")
				}
			}
			avg := testing.AllocsPerRun(500, func() {
				if _, err := s.RunWithHook(ctx, pts, hook); err != nil {
					t.Fatal(err)
				}
			})
			if avg > 10 {
				t.Fatalf("warm one-point RunWithHook allocates %.1f allocs/op, want at most 10", avg)
			}
		})
	}
}

// TestAppendKeyMatchesLegacyFormat pins the zero-alloc key builder to
// the historical fmt.Sprintf cache-key format: existing persisted or
// shared caches keep hitting across the upgrade.
func TestAppendKeyMatchesLegacyFormat(t *testing.T) {
	for _, p := range append(batchTestPoints(6), core.DesignPoint{}) {
		legacy := fmt.Sprintf("a%d:n%d:v%016x:m%d:c%016x",
			p.Arch, p.Bits, legacyBits(p.LNANoise), p.M, legacyBits(p.CHold))
		if got := string(p.AppendKey(nil)); got != legacy {
			t.Fatalf("AppendKey %q != legacy key %q", got, legacy)
		}
		if p.Key() != legacy {
			t.Fatalf("Key %q != legacy key %q", p.Key(), legacy)
		}
	}
}
