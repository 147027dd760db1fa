package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"efficsense/internal/core"
	"efficsense/internal/fault"
)

// TestDoAccountingUnderInjectedPanics is the singleflight audit: with
// the cache/flight failpoint injecting panics, the Stats invariants must
// keep holding — every Do call is accounted for exactly once
// (hits + misses + shared == calls), every panic is visible in
// FlightPanics, no flight entry sticks around to block future callers,
// and the occupancy bound survives.
func TestDoAccountingUnderInjectedPanics(t *testing.T) {
	t.Cleanup(fault.Reset)
	const seed, rounds, workers, keys = 7, 40, 8, 5
	if err := fault.Enable(fault.PointFlight, fault.Config{
		Kind: fault.KindPanic, Probability: 0.3, Seed: seed,
	}); err != nil {
		t.Fatal(err)
	}
	c := New(4) // smaller than the key universe, so evictions fire too

	var calls, panicked atomic64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("k%d", (w+i)%keys)
				calls.add(1)
				func() {
					defer func() {
						if recover() != nil {
							panicked.add(1)
						}
					}()
					c.Do([]byte(key), func() core.Result {
						return core.Result{MeanSNRdB: 1}
					})
				}()
			}
		}(w)
	}
	wg.Wait()

	st := c.Stats()
	if st.FlightPanics == 0 {
		t.Fatal("panic failpoint fired but Stats.FlightPanics is zero")
	}
	if got := panicked.load(); st.FlightPanics != got {
		t.Fatalf("FlightPanics %d, but %d Do calls actually panicked", st.FlightPanics, got)
	}
	if want := fault.Injected(fault.PointFlight); st.FlightPanics != want {
		t.Fatalf("FlightPanics %d, injected schedule says %d", st.FlightPanics, want)
	}
	// Waiters that joined a panicked flight observe errFlightPanicked and
	// count under FlightShared, so the per-call invariant is exact.
	if total := st.Hits + st.Misses + st.FlightShared; total != calls.load() {
		t.Fatalf("accounting drift: hits %d + misses %d + shared %d = %d, want %d Do calls",
			st.Hits, st.Misses, st.FlightShared, total, calls.load())
	}
	if c.Len() > c.Cap() {
		t.Fatalf("bound violated under panics: %d entries, cap %d", c.Len(), c.Cap())
	}

	// No stuck flights: with injection disarmed, every key computes again.
	fault.Reset()
	for k := 0; k < keys; k++ {
		r, _, _ := c.Do([]byte(fmt.Sprintf("k%d", k)), func() core.Result {
			return core.Result{MeanSNRdB: 2}
		})
		if r.Err != nil {
			t.Fatalf("key k%d still poisoned after disarm: %v", k, r.Err)
		}
	}
}

// TestDoErrorInjectionSharedNotStored pins the failpoint's error mode to
// the cache's existing error contract: injected errors reach waiters but
// are never stored, so the next cold call recomputes.
func TestDoErrorInjectionSharedNotStored(t *testing.T) {
	t.Cleanup(fault.Reset)
	if err := fault.Enable(fault.PointFlight, fault.Config{
		Kind: fault.KindError, Probability: 1, MaxInjections: 1,
	}); err != nil {
		t.Fatal(err)
	}
	c := New(8)
	r, hit, shared := c.Do([]byte("k"), func() core.Result { return core.Result{MeanSNRdB: 3} })
	if hit || shared || !errors.Is(r.Err, fault.ErrInjected) {
		t.Fatalf("first call: hit=%v shared=%v err=%v, want cold injected error", hit, shared, r.Err)
	}
	if c.Len() != 0 {
		t.Fatalf("injected error was stored: %d entries", c.Len())
	}
	r, _, _ = c.Do([]byte("k"), func() core.Result { return core.Result{MeanSNRdB: 3} })
	if r.Err != nil || r.MeanSNRdB != 3 {
		t.Fatalf("retry after exhausted injection: %+v", r)
	}
}

// atomic64 is a tiny test counter (avoids importing sync/atomic names
// into assertions).
type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }
