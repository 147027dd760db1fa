package dse

import (
	"context"
	"fmt"
	"sync"
	"time"

	"efficsense/internal/core"
	"efficsense/internal/fault"
)

// BatchEvaluator is optionally implemented by evaluators that can score
// several design points in one call — the batch-first contract of the
// evaluation redesign. The engine prefers it over per-point Evaluate:
// cache-miss points are dispatched to EvaluateBatch in group-ordered
// chunks, so an evaluator that shares work across points (notably
// *core.Evaluator, which amplifies and encodes each record once per
// GroupKey group) actually receives the points that can share it
// together.
//
// EvaluateBatch must return exactly one Result per input point, in input
// order, with Result.Err set on per-point failures (the degradation
// contract: an error row, never a lost point), and must be safe for
// concurrent calls. Results must be identical to evaluating each point
// alone — batching is a performance contract, not a semantic one.
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result
}

// DefaultBatchSize is the most cache-miss points the engine hands a
// BatchEvaluator in one EvaluateBatch call. Large enough to cover
// several ADC-resolution groups per call (the paper grid has three Bits
// values per group), small enough to keep the worker pool's progress
// granularity and cancellation latency reasonable.
//
// Batched misses trade singleflight de-duplication for work sharing: a
// chunk with two or more misses evaluates them in one EvaluateBatch call
// outside the store's flight table (results are still Put, so
// concurrent identical sweeps can at worst duplicate work, never corrupt
// it). A chunk with a single miss keeps the per-point path and with it
// the exactly-once flight guarantee.
const DefaultBatchSize = 16

// keyBuf is a pooled cache-key buffer: the warm path builds
// "evalID/pointKey" into it and looks the bytes up directly, so a
// memoised Evaluate allocates nothing.
type keyBuf struct{ b []byte }

var keyBufPool = sync.Pool{New: func() any { return &keyBuf{b: make([]byte, 0, 160)} }}

// appendKey builds the cache key for p into dst.
func (s *Sweep) appendKey(dst []byte, p core.DesignPoint) []byte {
	dst = append(dst, s.evalID...)
	dst = append(dst, '/')
	return p.AppendKey(dst)
}

// EvaluateBatch scores a batch of points through the engine — cache
// lookups, batch dispatch to a BatchEvaluator on the worker pool, panic
// recovery, retries and metrics included — returning one result per
// point in input order, so a Sweep is itself a BatchEvaluator. It is
// Run's dispatcher without a hook: it delivers no events. Serving layers
// and search rounds hand their points straight to it and get the
// degradation shape back: per-point error rows, never a lost batch. A
// cancelled ctx degrades the points never evaluated with ctx.Err().
func (s *Sweep) EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result {
	out := make([]core.Result, len(pts))
	if len(pts) == 0 {
		return out
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Workers complete distinct indices, so the writes never overlap.
	done := make([]bool, len(pts))
	s.dispatch(ctx, pts, func(idx int, res core.Result, _ bool, _ time.Duration) {
		out[idx], done[idx] = res, true
	})
	if err := ctx.Err(); err != nil {
		for i, ok := range done {
			if !ok {
				out[i] = core.Result{Point: pts[i], Err: err}
			}
		}
	}
	return out
}

// chunkByGroup orders point indices so points equal under GroupKey are
// adjacent (first-seen group order, input order within a group) and cuts
// the ordering into chunks for workers (≥ 1) workers. Grid enumerations
// interleave the ADC-resolution axis with the others, so without this
// reordering a contiguous chunk would almost never contain the points
// that can share an encoded waveform.
//
// Each chunk aims at target = min(size, ceil(n/workers)) points, so a
// batch smaller than workers × size still reaches every worker. It ends
// at the group boundary nearest target points (the earlier one on a
// tie), and is cut inside a group only where it reaches size points.
// When target == size — a batch of at least workers × size points, or
// any batch on one worker — that is flat slicing into chunks of size. A
// single group of at most size points stays one chunk, so parallelism
// never costs front-end sharing.
func chunkByGroup(pts []core.DesignPoint, size, workers int) [][]int {
	groups := make(map[core.DesignPoint][]int)
	var order []core.DesignPoint
	for i, p := range pts {
		k := p.GroupKey()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	n := len(pts)
	flat := make([]int, 0, n)
	boundary := make([]bool, n+1) // boundary[i]: a group ends before flat[i]
	for _, k := range order {
		flat = append(flat, groups[k]...)
		boundary[len(flat)] = true
	}
	target := min(size, (n+workers-1)/workers)
	var chunks [][]int
	for off := 0; off < n; {
		// Distance to target falls until the first cut at or past it,
		// then only grows: stop there.
		end := off
		for i := off + 1; i <= min(n, off+size); i++ {
			if !boundary[i] && i != off+size {
				continue
			}
			if end == off || abs(i-off-target) < abs(end-off-target) {
				end = i
			}
			if i-off >= target {
				break
			}
		}
		chunks = append(chunks, flat[off:end])
		off = end
	}
	return chunks
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// evalChunk serves one chunk of point indices: cache hits complete
// immediately, a lone miss takes the per-point path (keeping the
// store's singleflight guarantee), and two or more misses go to
// the batch evaluator in one call. Per-point faults — the dse/evaluate
// failpoint, error rows out of the batch — degrade (or retry) that point
// alone; a batch-level fault or panic degrades exactly the points of
// this batch.
func (s *Sweep) evalChunk(ctx context.Context, points []core.DesignPoint, idxs []int, complete func(idx int, res core.Result, cached bool, dur time.Duration)) {
	miss := make([]int, 0, len(idxs))
	if s.cache != nil {
		kb := keyBufPool.Get().(*keyBuf)
		for _, idx := range idxs {
			kb.b = s.appendKey(kb.b[:0], points[idx])
			if r, ok := s.cache.GetBytes(kb.b); ok {
				s.metrics.cacheHits.Add(1)
				complete(idx, r, true, 0)
				continue
			}
			miss = append(miss, idx)
		}
		keyBufPool.Put(kb)
	} else {
		miss = append(miss, idxs...)
	}
	switch len(miss) {
	case 0:
		return
	case 1:
		res, hit, shared, dur := s.evalPoint(ctx, points[miss[0]], time.Time{})
		complete(miss[0], res, hit || shared, dur)
		return
	}
	// The per-point failpoint fires first, exactly as on the per-point
	// path: an injected fault degrades (or retries) its point alone and
	// the survivors still batch together.
	live := miss[:0]
	for _, idx := range miss {
		start := time.Now()
		if err := fault.Fire(fault.PointEvaluate); err != nil {
			s.metrics.observeEval(time.Since(start))
			res := s.retryLoop(ctx, points[idx], core.Result{Point: points[idx], Err: err})
			s.finishMiss(idx, points[idx], res, 0, complete)
			continue
		}
		live = append(live, idx)
	}
	if len(live) == 0 {
		return
	}
	pts := make([]core.DesignPoint, len(live))
	for k, idx := range live {
		pts[k] = points[idx]
	}
	start := time.Now()
	rs := s.evaluateBatchGuarded(ctx, pts)
	dur := time.Since(start)
	s.metrics.observeBatch(len(pts), dur)
	// Per-point duration metrics see each point's share of the batch.
	share := dur / time.Duration(len(pts))
	for k, idx := range live {
		s.metrics.observeEval(share)
		res := rs[k]
		if res.Err != nil {
			res = s.retryLoop(ctx, points[idx], res)
		}
		s.finishMiss(idx, points[idx], res, share, complete)
	}
}

// finishMiss caches a freshly evaluated result (sound ones only — the
// engine never pins errors) and completes its point.
func (s *Sweep) finishMiss(idx int, p core.DesignPoint, res core.Result, dur time.Duration, complete func(idx int, res core.Result, cached bool, dur time.Duration)) {
	if s.cache != nil && res.Err == nil {
		kb := keyBufPool.Get().(*keyBuf)
		kb.b = s.appendKey(kb.b[:0], p)
		s.cache.Put(string(kb.b), res)
		keyBufPool.Put(kb)
	}
	complete(idx, res, false, dur)
}

// evaluateBatchGuarded is one guarded batch evaluator call: the
// dse/evaluate-batch failpoint fires first, a panic anywhere in the
// batch is recovered, and a length-breaking evaluator is degraded — in
// every case into error rows for exactly this batch's points.
func (s *Sweep) evaluateBatchGuarded(ctx context.Context, pts []core.DesignPoint) (rs []core.Result) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.panics.Add(1)
			rs = batchErrorRows(pts, fmt.Errorf("dse: batch evaluation of %d points panicked: %v", len(pts), r))
		}
	}()
	if err := fault.Fire(fault.PointBatch); err != nil {
		return batchErrorRows(pts, fmt.Errorf("dse: batch of %d points: %w", len(pts), err))
	}
	rs = s.batch.EvaluateBatch(ctx, pts)
	if len(rs) != len(pts) {
		return batchErrorRows(pts, fmt.Errorf("dse: batch evaluator returned %d results for %d points", len(rs), len(pts)))
	}
	return rs
}

// batchErrorRows degrades every point of a batch into an error row.
func batchErrorRows(pts []core.DesignPoint, err error) []core.Result {
	rs := make([]core.Result, len(pts))
	for i, p := range pts {
		rs[i] = core.Result{Point: p, Err: err}
	}
	return rs
}
