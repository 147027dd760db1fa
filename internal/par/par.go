// Package par spreads independent, index-addressed work over every core.
// It is the set-up path's fan-out: dataset synthesis, evaluator prep and
// detector-training feature extraction hand it one item per record, and
// resampling one item per block of output samples. Each item writes only
// the result slots its index owns, so the assembled output is the same
// whatever the worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for every i in [0, n) on up to GOMAXPROCS
// goroutines and returns when every call has returned. Calls may run
// concurrently and in any order, so fn must write only to storage owned
// by its index. With one worker (or n < 2) the calls run in ascending
// order on the caller's goroutine. A panic in fn is re-raised on the
// caller's goroutine after the other workers stop taking items.
func For(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[any]
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
					next.Store(int64(n)) // stop handing out items
				}
			}()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
}
