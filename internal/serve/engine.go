package serve

import (
	"context"
	"fmt"
	"sync"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/scenario"
)

// Engine is the slice of the sweep engine the serving layer depends on.
// *dse.Sweep implements it; tests substitute engines over fake
// evaluators.
type Engine interface {
	RunWithHook(ctx context.Context, points []core.DesignPoint, hook func(dse.Event)) ([]core.Result, error)
	Metrics() dse.Snapshot
}

// engineFingerprint returns the evaluator identity behind e (what the
// engine keys its cache on), or "" when e does not expose one.
func engineFingerprint(e Engine) string {
	if f, ok := e.(interface{ EvaluatorID() string }); ok {
		return f.EvaluatorID()
	}
	return ""
}

// EngineFunc resolves the engine serving one option set. Implementations
// must return the same Engine for equal options, so a repeated sweep of
// the same space lands on a warm memoisation cache. Resolution may be
// expensive (the production implementation trains a detector on first
// use of an option set); the Manager calls it from job goroutines, never
// from request handlers that must stay fast.
type EngineFunc func(opts experiments.Options) (Engine, error)

// DefaultCacheEntries bounds the daemon's shared evaluation cache when
// the operator does not pick a capacity. Results are a few hundred
// bytes each, so the default costs tens of megabytes at worst while a
// paper-scale sweep (~10³ points) still fits entirely warm.
const DefaultCacheEntries = 65536

// SuiteEngines is the production EngineFunc: one experiments.Suite per
// distinct option set, every suite sharing a single bounded memoisation
// cache (a sharded LRU with singleflight de-duplication, so the
// daemon's memory stays provably bounded under sustained distinct
// traffic and concurrent identical requests evaluate once). Cache keys
// embed the evaluator fingerprint, so the sharing is safe by
// construction; the payoff is that every request against one option set
// — sweeps, re-sweeps, single-point evaluations — reuses each other's
// evaluations.
type SuiteEngines struct {
	mu     sync.Mutex
	cache  *cache.LRU
	suites map[string]*experiments.Suite
}

// NewSuiteEngines builds an empty provider around a fresh shared
// bounded cache; cacheEntries <= 0 selects DefaultCacheEntries.
func NewSuiteEngines(cacheEntries int) *SuiteEngines {
	if cacheEntries <= 0 {
		cacheEntries = DefaultCacheEntries
	}
	return &SuiteEngines{
		cache:  cache.New(cacheEntries),
		suites: make(map[string]*experiments.Suite),
	}
}

// Cache exposes the shared memoisation store (for /metrics exposition).
func (se *SuiteEngines) Cache() *cache.LRU { return se.cache }

// optionsKey canonicalises an option set: two option sets that build
// equivalent evaluators map to the same key. Sinks (Progress, Trace),
// the cache pointer, the batch size and the retry policy are
// deliberately excluded — they change how points are dispatched, never
// what a point evaluates to, and retry/batch size are server-wide
// defaults (not settable over the wire), so they never split
// otherwise-identical suites.
func optionsKey(o experiments.Options) string {
	// The scenario is part of the evaluator identity: an unset name
	// canonicalises to the default, so "no scenario" and the default
	// scenario share one suite (they are the same workload by contract).
	name := o.Scenario
	if name == "" {
		name = scenario.DefaultName
	}
	return fmt.Sprintf("scn:%s|s%d|r%d|t%d|n%d|w%d|e%d|a%g|win%g",
		name, o.Seed, o.Records, o.TrainRecords, o.NoiseSteps, o.Workers,
		o.Epochs, o.MinAccuracy, o.WindowSeconds)
}

// Engine returns the (possibly shared) engine for opts, building the
// backing suite on first use. The build — detector training, evaluator
// precomputation — happens lazily inside the suite, on the calling
// goroutine's first sweep; a misconfigured option set surfaces as an
// error, not a panic.
func (se *SuiteEngines) Engine(opts experiments.Options) (eng Engine, err error) {
	opts.Progress, opts.Trace = nil, nil
	opts.Cache = se.cache
	suite := experiments.NewSuite(opts)
	key := optionsKey(suite.Options())

	se.mu.Lock()
	if existing, ok := se.suites[key]; ok {
		suite = existing
	} else {
		se.suites[key] = suite
	}
	se.mu.Unlock()

	// The suite's lazy init panics on an invalid configuration; degrade
	// that into an error the job layer can report.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("building evaluation suite: %v", r)
			se.mu.Lock()
			if se.suites[key] == suite {
				delete(se.suites, key)
			}
			se.mu.Unlock()
		}
	}()
	return suite.Engine(), nil
}

// Suites reports how many distinct option sets have been materialised.
func (se *SuiteEngines) Suites() int {
	se.mu.Lock()
	defer se.mu.Unlock()
	return len(se.suites)
}
