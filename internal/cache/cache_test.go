package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"efficsense/internal/core"
)

func res(power float64) core.Result {
	return core.Result{TotalPower: power}
}

func TestNewRejectsNegativeCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1) did not panic")
		}
	}()
	New(-1)
}

// TestUnboundedNeverEvicts: capacity 0 is the unbounded store — every
// key stays, and the byte-key lookups see what Put stored.
func TestUnboundedNeverEvicts(t *testing.T) {
	c := New(0)
	const n = 500
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("key-%d", i), res(float64(i)))
	}
	if st := c.Stats(); st.Entries != n || st.Capacity != 0 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want %d entries, capacity 0, no evictions", st, n)
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if v, ok := c.GetBytes(key); !ok || v.TotalPower != float64(i) {
			t.Fatalf("GetBytes(%s) = %+v, %v", key, v, ok)
		}
		if v, hit, _ := c.Do(key, func() core.Result { t.Error("recomputed a stored key"); return res(-1) }); !hit || v.TotalPower != float64(i) {
			t.Fatalf("Do(%s) = %+v, hit %v", key, v, hit)
		}
	}
}

// TestWarmLookupsAllocateNothing pins the store's half of the engine's
// allocation-free warm path: a hit off a byte key, through either
// GetBytes or Do, never copies the key.
func TestWarmLookupsAllocateNothing(t *testing.T) {
	for _, capacity := range []int{0, 64} {
		c := New(capacity)
		key := []byte("evaluator-fingerprint/cs/8/2e-06/150/8e-14")
		c.Put(string(key), res(1))
		fn := func() core.Result { return res(2) }
		if n := testing.AllocsPerRun(100, func() {
			c.GetBytes(key)
			c.Do(key, fn)
		}); n != 0 {
			t.Errorf("New(%d): warm lookups allocate %.1f times per run, want 0", capacity, n)
		}
	}
}

func TestGetPutAndPromotion(t *testing.T) {
	c := New(64)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put("a", res(1))
	if v, ok := c.Get("a"); !ok || v.TotalPower != 1 {
		t.Fatalf("Get(a) = %+v, %v", v, ok)
	}
	c.Put("a", res(2)) // refresh in place, no growth
	if v, _ := c.Get("a"); v.TotalPower != 2 {
		t.Fatalf("refresh lost: %+v", v)
	}
	if c.Len() != 1 || c.Cap() != 64 {
		t.Fatalf("len %d cap %d", c.Len(), c.Cap())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestEvictionHonoursCapacity: a capacity-1 cache (one shard by
// construction) keeps only the newest key — the deterministic check
// that insertion evicts least-recently-used, independent of the hash
// seed's shard assignment.
func TestEvictionHonoursCapacity(t *testing.T) {
	c := New(1)
	c.Put("a", res(1))
	c.Put("b", res(2))
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted key still present")
	}
	if v, ok := c.Get("b"); !ok || v.TotalPower != 2 {
		t.Fatalf("newest key lost: %+v, %v", v, ok)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions %d, want 1", st.Evictions)
	}
}

// TestBoundNeverExceeded floods a small cache with distinct keys and
// checks the global occupancy never passes the bound.
func TestBoundNeverExceeded(t *testing.T) {
	const capacity = 8
	c := New(capacity)
	for i := 0; i < 500; i++ {
		c.Put(fmt.Sprintf("key-%d", i), res(float64(i)))
		if n := c.Len(); n > capacity {
			t.Fatalf("occupancy %d exceeds bound %d after %d inserts", n, capacity, i+1)
		}
	}
	st := c.Stats()
	if st.Entries > capacity || st.Capacity != capacity {
		t.Fatalf("stats %+v", st)
	}
	if st.Evictions < 500-capacity {
		t.Fatalf("evictions %d, want >= %d", st.Evictions, 500-capacity)
	}
}

// TestDoComputesOncePerKey: K concurrent Do calls on one cold key run
// the computation exactly once; the other K-1 either share the flight
// or hit the stored entry, and everyone sees the same value.
func TestDoComputesOncePerKey(t *testing.T) {
	c := New(16)
	var computed atomic.Int64
	const K = 16
	var wg sync.WaitGroup
	vals := make([]core.Result, K)
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, _, _ := c.Do([]byte("hot"), func() core.Result {
				computed.Add(1)
				time.Sleep(10 * time.Millisecond)
				return res(42)
			})
			vals[k] = v
		}(k)
	}
	wg.Wait()
	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	for k, v := range vals {
		if v.TotalPower != 42 {
			t.Fatalf("caller %d saw %+v", k, v)
		}
	}
	st := c.Stats()
	// Every caller is exactly one of: the computer (1 miss), a flight
	// joiner, or a post-store hit.
	if st.Misses != 1 || st.Hits+st.FlightShared != K-1 {
		t.Fatalf("stats %+v, want 1 miss and %d hits+shared", st, K-1)
	}
}

// TestDoErrorResultsAreSharedNotStored: an error-carrying result
// reaches the waiters but is not pinned in the cache, so the next cold
// call retries.
func TestDoErrorResultsAreSharedNotStored(t *testing.T) {
	c := New(16)
	bad := core.Result{Err: fmt.Errorf("transient")}
	if v, hit, shared := c.Do([]byte("k"), func() core.Result { return bad }); v.Err == nil || hit || shared {
		t.Fatalf("error compute: %+v hit=%v shared=%v", v, hit, shared)
	}
	if c.Len() != 0 {
		t.Fatalf("error result was stored (len %d)", c.Len())
	}
	if v, hit, _ := c.Do([]byte("k"), func() core.Result { return res(7) }); v.TotalPower != 7 || hit {
		t.Fatalf("retry after error: %+v hit=%v", v, hit)
	}
	if v, hit, _ := c.Do([]byte("k"), func() core.Result { t.Error("recomputed a stored key"); return res(0) }); !hit || v.TotalPower != 7 {
		t.Fatalf("stored result not served: %+v hit=%v", v, hit)
	}
}

// TestDoPanicReleasesWaiters: a panicking computation must not strand
// the goroutines that joined its flight.
func TestDoPanicReleasesWaiters(t *testing.T) {
	c := New(16)
	started := make(chan struct{})
	waited := make(chan core.Result, 1)
	go func() {
		defer func() { recover() }()
		c.Do([]byte("boom"), func() core.Result {
			close(started)
			time.Sleep(20 * time.Millisecond)
			panic("evaluator exploded")
		})
	}()
	<-started
	go func() {
		v, _, _ := c.Do([]byte("boom"), func() core.Result { return res(1) })
		waited <- v
	}()
	select {
	case v := <-waited:
		// Either it joined the doomed flight (error result) or it raced
		// past the cleanup and computed fresh — both are sound; blocking
		// forever is the bug.
		if v.Err == nil && v.TotalPower != 1 {
			t.Fatalf("waiter got %+v", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter stranded by a panicked flight")
	}
	if c.Len() != 0 && c.Len() != 1 {
		t.Fatalf("len %d", c.Len())
	}
}

// TestStressBoundAndCoherenceUnderRace hammers a small cache from many
// goroutines (run under -race in make verify): the bound must hold at
// every observation and every returned value must be coherent with its
// key.
func TestStressBoundAndCoherenceUnderRace(t *testing.T) {
	const (
		capacity = 16
		keys     = 100
		workers  = 8
		rounds   = 200
	)
	c := New(capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w*31 + i*7) % keys
				key := fmt.Sprintf("key-%d", k)
				want := float64(k)
				switch i % 3 {
				case 0:
					if v, _, _ := c.Do([]byte(key), func() core.Result { return res(want) }); v.TotalPower != want {
						t.Errorf("Do(%s) = %v, want %v", key, v.TotalPower, want)
					}
				case 1:
					if v, ok := c.Get(key); ok && v.TotalPower != want {
						t.Errorf("Get(%s) = %v, want %v", key, v.TotalPower, want)
					}
				default:
					c.Put(key, res(want))
				}
				if n := c.Len(); n > capacity {
					t.Errorf("occupancy %d exceeds bound %d", n, capacity)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > capacity {
		t.Fatalf("final occupancy %d exceeds bound %d", st.Entries, capacity)
	}
	if st.Evictions == 0 {
		t.Fatal("stress run over 100 keys and 16 slots never evicted")
	}
}
