package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"efficsense/internal/core"
)

// TestDoAccountingUnderInjectedPanics is the singleflight audit: with
// every third computation panicking, the Stats invariants must keep
// holding — every Do call is accounted for exactly once
// (hits + misses + shared == calls), every panic is visible in
// FlightPanics, no flight entry sticks around to block future callers,
// and the occupancy bound survives.
func TestDoAccountingUnderInjectedPanics(t *testing.T) {
	const rounds, workers, keys = 40, 8, 5
	c := New(4) // smaller than the key universe, so evictions fire too

	// The schedule is fixed by computation count: the first computation
	// panics, so at least one does.
	var calls, panicked, computed, scheduled atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("k%d", (w+i)%keys)
				calls.Add(1)
				func() {
					defer func() {
						if recover() != nil {
							panicked.Add(1)
						}
					}()
					c.Do([]byte(key), func() core.Result {
						if computed.Add(1)%3 == 1 {
							scheduled.Add(1)
							panic("scheduled flight panic")
						}
						return core.Result{MeanSNRdB: 1}
					})
				}()
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.FlightPanics == 0 {
		t.Fatal("the first computation panicked but Stats.FlightPanics is zero")
	}
	if got := panicked.Load(); st.FlightPanics != got {
		t.Fatalf("FlightPanics %d, but %d Do calls actually panicked", st.FlightPanics, got)
	}
	if want := scheduled.Load(); st.FlightPanics != want {
		t.Fatalf("FlightPanics %d, the schedule panicked %d computations", st.FlightPanics, want)
	}
	// Waiters that joined a panicked flight observe errFlightPanicked and
	// count under FlightShared, so the per-call invariant is exact.
	if total := st.Hits + st.Misses + st.FlightShared; total != calls.Load() {
		t.Fatalf("accounting drift: hits %d + misses %d + shared %d = %d, want %d Do calls",
			st.Hits, st.Misses, st.FlightShared, total, calls.Load())
	}
	if c.Len() > c.Cap() {
		t.Fatalf("bound violated under panics: %d entries, cap %d", c.Len(), c.Cap())
	}

	// No stuck flights: every key computes again.
	for k := 0; k < keys; k++ {
		r, _, _ := c.Do([]byte(fmt.Sprintf("k%d", k)), func() core.Result {
			return core.Result{MeanSNRdB: 2}
		})
		if r.Err != nil {
			t.Fatalf("key k%d still poisoned after the panics: %v", k, r.Err)
		}
	}
}
