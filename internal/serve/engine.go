package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/scenario"
)

// Engine is the slice of the sweep engine the serving layer depends on.
// *dse.Sweep is its one implementation — tests build real sweeps over
// fake evaluators — and it stays an interface so an embedder holding an
// Engine can reach the concrete sweep by type assertion (the benchmark
// does, to time one layer at a time). EvaluatePoint serves
// /v1/evaluate's single points, RunWithHook its batches and every sweep
// job, EvaluateBatch the rounds of a search, and EvaluatorID names
// the evaluator a sweep job's journaled rows were computed under.
type Engine interface {
	EvaluatePoint(ctx context.Context, p core.DesignPoint, timeout time.Duration) (core.Result, bool, error)
	RunWithHook(ctx context.Context, points []core.DesignPoint, hook func(dse.Event)) ([]core.Result, error)
	EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result
	EvaluatorID() string
	Metrics() dse.Snapshot
}

// EngineFunc resolves the engine serving one option set. Implementations
// must return the same Engine for equal options, so a repeated sweep of
// the same space lands on a warm memoisation cache. The first
// resolution of an option set may be expensive (the production
// implementation trains a detector then); the Manager calls it from job
// goroutines and on every /v1/evaluate request, so a repeat must be
// cheap — (*SuiteEngines).Engine answers one with a map lookup.
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
	suites map[suiteKey]*experiments.Suite
}

// NewSuiteEngines builds an empty provider around a fresh shared
// bounded cache; cacheEntries <= 0 selects DefaultCacheEntries.
func NewSuiteEngines(cacheEntries int) *SuiteEngines {
	if cacheEntries <= 0 {
		cacheEntries = DefaultCacheEntries
	}
	return &SuiteEngines{
		cache:  cache.New(cacheEntries),
		suites: make(map[suiteKey]*experiments.Suite),
	}
}

// Cache exposes the shared memoisation store (for /metrics exposition).
func (se *SuiteEngines) Cache() *cache.LRU { return se.cache }

// suiteKey identifies the evaluator an option set builds. Floats are
// kept as their bits, so a NaN option still finds its own suite.
type suiteKey struct {
	scenario                                           string
	seed                                               int64
	records, trainRecords, noiseSteps, workers, epochs int
	minAccuracy, windowSeconds                         uint64
}

// optionsKey canonicalises an option set: two option sets that build
// equivalent evaluators map to the same key. The sweep hook (OnEvent)
// and the cache pointer are deliberately excluded — they change how
// points are observed or stored, never what a point evaluates to, so
// they never split otherwise-identical suites.
func optionsKey(o experiments.Options) suiteKey {
	o = o.WithDefaults()
	// The scenario is part of the evaluator identity: an unset name
	// canonicalises to the default, so "no scenario" and the default
	// scenario share one suite (they are the same workload by contract).
	name := o.Scenario
	if name == "" {
		name = scenario.DefaultName
	}
	return suiteKey{
		scenario: name, seed: o.Seed,
		records: o.Records, trainRecords: o.TrainRecords, noiseSteps: o.NoiseSteps,
		workers: o.Workers, epochs: o.Epochs,
		minAccuracy: math.Float64bits(o.MinAccuracy), windowSeconds: math.Float64bits(o.WindowSeconds),
	}
}

// Engine returns the (possibly shared) engine for opts, building the
// backing suite on first use: detector training and evaluator
// precomputation run on the goroutine of the first call for an option
// set, and a misconfigured option set surfaces as an error, not a
// panic. A repeat costs one map lookup: it builds no suite and formats
// no key.
func (se *SuiteEngines) Engine(opts experiments.Options) (eng Engine, err error) {
	key := optionsKey(opts)
	se.mu.Lock()
	suite, ok := se.suites[key]
	if !ok {
		opts.OnEvent = nil
		opts.Cache = se.cache
		suite = experiments.NewSuite(opts)
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
