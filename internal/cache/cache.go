// Package cache provides the evaluation store every sweep engine
// memoises into: a sharded LRU over design-point results with
// hit/miss/eviction accounting and singleflight de-duplication, so N
// concurrent requests for the same cold key evaluate it exactly once.
//
// One type serves both front-ends. A bounded store (New(n), n > 0)
// holds at most n results, which a long-running daemon needs under
// sustained distinct traffic; an unbounded one (New(0)) is the right
// default for CLI one-shots over finite paper spaces, where a full
// Table III sweep is ~10² results of a few hundred bytes each.
package cache

import (
	"container/list"
	"errors"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"efficsense/internal/core"
)

// defaultShards bounds lock contention: the store is split across up to
// this many independently locked LRU lists.
const defaultShards = 16

// Stats is a point-in-time reading of an LRU's accounting.
type Stats struct {
	// Entries is the current occupancy; Capacity the configured bound
	// (0 = unbounded).
	Entries, Capacity int
	// Hits and Misses count Get/Do lookups against the store. A Do call
	// that joins an in-flight computation counts under FlightShared
	// instead of either.
	Hits, Misses int64
	// Evictions counts entries dropped to honour the bound.
	Evictions int64
	// FlightShared counts Do calls served by joining another caller's
	// in-flight computation (singleflight de-duplication).
	FlightShared int64
	// FlightPanics counts computations that panicked out of Do. Without
	// it a panicking flight is invisible in the accounting: its waiters
	// count under FlightShared yet no completed computation backs them,
	// so sustained panics would read as healthy de-duplication.
	FlightPanics int64
}

// LRU is a sharded in-memory result store, safe for concurrent use.
// When bounded it never holds more than its configured number of
// entries: the capacity is partitioned across the shards, so the global
// occupancy is bounded by construction, not by a background sweeper.
//
// Keys already encode both the design point and the evaluator identity
// (see dse.Sweep), so one store can back any number of sweeps and
// evaluators without cross-contamination. The zero value is not usable;
// construct with New.
type LRU struct {
	seed     maphash.Seed
	shards   []*shard
	capacity int

	hits, misses, evictions, shared, flightPanics atomic.Int64
}

// entry is one cached result; list elements carry *entry values.
type entry struct {
	key string
	val core.Result
}

// call is one in-flight computation; waiters block on done and then
// read val.
type call struct {
	done chan struct{}
	val  core.Result
}

// shard is one independently locked LRU list plus the singleflight
// table for its keys (a key always maps to one shard, so per-shard
// flight tables still de-duplicate globally).
type shard struct {
	mu     sync.Mutex
	cap    int        // 0 = unbounded
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	flight map[string]*call
}

// New builds a store holding at most entries results; entries = 0 makes
// it unbounded. A bounded capacity is split across up to 16 shards
// (fewer when entries is small, so every shard can hold at least one
// entry). A negative capacity is a configuration error, and New panics
// rather than silently degrading.
func New(entries int) *LRU {
	if entries < 0 {
		panic("cache: negative capacity")
	}
	n := defaultShards
	if entries > 0 && entries < n {
		n = entries
	}
	c := &LRU{
		seed:     maphash.MakeSeed(),
		shards:   make([]*shard, n),
		capacity: entries,
	}
	base, rem := entries/n, entries%n
	for i := range c.shards {
		sc := base
		if i < rem {
			sc++
		}
		c.shards[i] = &shard{
			cap:    sc,
			ll:     list.New(),
			items:  make(map[string]*list.Element),
			flight: make(map[string]*call),
		}
	}
	return c
}

// shardOf picks a key's shard from its hash; maphash.String and
// maphash.Bytes agree on equal contents, so string and byte keys land
// on the same shard.
func (c *LRU) shardOf(h uint64) *shard { return c.shards[h%uint64(len(c.shards))] }

// Get returns the cached result for key, if present, promoting it to
// most recently used.
func (c *LRU) Get(key string) (core.Result, bool) {
	sh := c.shardOf(maphash.String(c.seed, key))
	sh.mu.Lock()
	el, ok := sh.items[key]
	return c.lookupLocked(sh, el, ok)
}

// GetBytes is Get for a key built in a caller-owned buffer: the lookup
// reads the bytes in place, so a hit allocates nothing. It does not
// retain key.
func (c *LRU) GetBytes(key []byte) (core.Result, bool) {
	sh := c.shardOf(maphash.Bytes(c.seed, key))
	sh.mu.Lock()
	el, ok := sh.items[string(key)]
	return c.lookupLocked(sh, el, ok)
}

// lookupLocked finishes a lookup under sh.mu: it promotes a found entry,
// counts the hit or miss and releases the lock.
func (c *LRU) lookupLocked(sh *shard, el *list.Element, ok bool) (core.Result, bool) {
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return core.Result{}, false
	}
	sh.ll.MoveToFront(el)
	v := el.Value.(*entry).val
	sh.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Put stores a result under key, evicting the least recently used
// entries of the key's shard beyond its capacity.
func (c *LRU) Put(key string, r core.Result) {
	sh := c.shardOf(maphash.String(c.seed, key))
	sh.mu.Lock()
	c.putLocked(sh, key, r)
	sh.mu.Unlock()
}

// putLocked inserts or refreshes an entry; the caller holds sh.mu.
func (c *LRU) putLocked(sh *shard, key string, r core.Result) {
	if el, ok := sh.items[key]; ok {
		el.Value.(*entry).val = r
		sh.ll.MoveToFront(el)
		return
	}
	sh.items[key] = sh.ll.PushFront(&entry{key: key, val: r})
	for sh.cap > 0 && sh.ll.Len() > sh.cap {
		back := sh.ll.Back()
		sh.ll.Remove(back)
		delete(sh.items, back.Value.(*entry).key)
		c.evictions.Add(1)
	}
}

// errFlightPanicked is what waiters observe when the computation they
// joined panicked out of Do.
var errFlightPanicked = errors.New("cache: in-flight computation panicked")

// Do returns the value for key, computing it with fn on a miss.
// Concurrent Do calls for one key run fn exactly once and share its
// result — hit reports the value was already cached, shared that fn ran
// in another goroutine. Error-carrying results are handed to every
// waiter but never stored, so a transient failure is retried by the
// next cold request instead of being pinned in the cache.
//
// The key is read in place: a hit, and a join of an in-flight
// computation, allocate nothing; only a miss copies it into a string.
// Do does not retain key.
func (c *LRU) Do(key []byte, fn func() core.Result) (r core.Result, hit, shared bool) {
	sh := c.shardOf(maphash.Bytes(c.seed, key))
	sh.mu.Lock()
	if el, ok := sh.items[string(key)]; ok {
		sh.ll.MoveToFront(el)
		v := el.Value.(*entry).val
		sh.mu.Unlock()
		c.hits.Add(1)
		return v, true, false
	}
	if cl, ok := sh.flight[string(key)]; ok {
		sh.mu.Unlock()
		<-cl.done
		c.shared.Add(1)
		return cl.val, false, true
	}
	c.misses.Add(1)
	k := string(key)
	cl := &call{done: make(chan struct{})}
	sh.flight[k] = cl
	sh.mu.Unlock()

	// Even if fn panics (the sweep engine recovers evaluator panics
	// before they reach here, but other callers may not), the flight
	// entry must be released and the waiters woken, or they block
	// forever on a key nobody is computing.
	finished := false
	defer func() {
		if !finished {
			c.flightPanics.Add(1)
			cl.val = core.Result{Err: errFlightPanicked}
			sh.mu.Lock()
			delete(sh.flight, k)
			sh.mu.Unlock()
			close(cl.done)
		}
	}()
	cl.val = fn()
	finished = true

	sh.mu.Lock()
	delete(sh.flight, k)
	if cl.val.Err == nil {
		c.putLocked(sh, k, cl.val)
	}
	sh.mu.Unlock()
	close(cl.done)
	return cl.val, false, false
}

// Len returns the current number of cached results across all shards.
func (c *LRU) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Cap returns the configured entry bound (0 = unbounded).
func (c *LRU) Cap() int { return c.capacity }

// Stats snapshots the cache's accounting.
func (c *LRU) Stats() Stats {
	return Stats{
		Entries:      c.Len(),
		Capacity:     c.capacity,
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Evictions:    c.evictions.Load(),
		FlightShared: c.shared.Load(),
		FlightPanics: c.flightPanics.Load(),
	}
}
