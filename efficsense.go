// Package efficsense is a pure-Go reproduction of "EffiCSense: an
// Architectural Pathfinding Framework for Energy-Constrained Sensor
// Applications" (Van Assche, Helsen, Gielen — DATE 2022).
//
// EffiCSense couples behavioural models of a mixed-signal sensor front-end
// (LNA, sample & hold, SAR ADC, passive charge-sharing compressive-sensing
// encoder, transmitter) with analytical power-bound models of the same
// blocks, so a single design-space sweep yields signal quality,
// application accuracy, power and capacitor area simultaneously.
//
// This package is the public facade: it re-exports the library's stable
// surface so downstream users never import internal packages directly.
//
//	suite := efficsense.NewSuite(efficsense.SuiteOptions{Seed: 1, Records: 40})
//	fig7b := suite.Fig7b()
//	fmt.Printf("CS saves %.1fx\n", fig7b.PowerSavingsX)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package efficsense

import (
	"context"

	"efficsense/internal/cache"
	"efficsense/internal/chain"
	"efficsense/internal/classify"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/dsp"
	"efficsense/internal/eeg"
	"efficsense/internal/experiments"
	"efficsense/internal/obs"
	"efficsense/internal/power"
	"efficsense/internal/scenario"
	"efficsense/internal/search"
	"efficsense/internal/tech"
)

// Technology and system parameters (paper Table III).
type (
	// TechParams are the technology constants (C_logic, gm/Id, C_u,min,
	// mismatch, leakage, E_bit, V_T, ...).
	TechParams = tech.Params
	// SystemParams are the application constants (BW_in, V_DD, f_sample
	// ratio, ...).
	SystemParams = tech.System
)

// GPDK045 returns the paper's extracted gpdk045 technology parameters.
func GPDK045() TechParams { return tech.GPDK045() }

// DefaultSystem returns the paper's Table III application constants.
func DefaultSystem() SystemParams { return tech.DefaultSystem() }

// Design-space types (the paper's Fig 1 architectures and Table III axes).
type (
	// Architecture selects the baseline (Fig 1a) or CS (Fig 1b) system.
	Architecture = core.Architecture
	// DesignPoint is one configuration of the search space.
	DesignPoint = core.DesignPoint
	// Result carries SNR, accuracy, power breakdown and area for a point.
	Result = core.Result
	// SineResult is a single-tone characterisation outcome (Fig 4).
	SineResult = core.SineResult
)

// Architecture values: the paper's two systems plus the digital and
// active analog CS variants its Section III compares against.
const (
	ArchBaseline  = core.ArchBaseline
	ArchCS        = core.ArchCS
	ArchCSDigital = core.ArchCSDigital
	ArchCSActive  = core.ArchCSActive
)

// Evaluation framework (paper Fig 2 flow).
type (
	// EvaluatorConfig assembles an Evaluator.
	EvaluatorConfig = core.Config
	// Evaluator scores design points on a dataset.
	Evaluator = core.Evaluator
)

// NewEvaluator builds an evaluator from a config.
func NewEvaluator(cfg EvaluatorConfig) (*Evaluator, error) { return core.NewEvaluator(cfg) }

// EvaluateSine characterises a design point with a sine stimulus (Fig 4).
func EvaluateSine(cfg EvaluatorConfig, p DesignPoint, freq, seconds float64) SineResult {
	return core.EvaluateSine(cfg, p, freq, seconds)
}

// Behavioural chains (Fig 1 wiring) for users who want waveform access.
type (
	// ChainCommon holds the shared chain parameters.
	ChainCommon = chain.Common
	// BaselineChain is the classical acquisition chain.
	BaselineChain = chain.Baseline
	// CSChainConfig parameterises the compressive-sensing chain.
	CSChainConfig = chain.CSConfig
	// CSChain is the analog compressive-sensing chain.
	CSChain = chain.CSChain
	// ChainOutput is a processed waveform with power and area.
	ChainOutput = chain.Output
)

// NewBaselineChain wires the Fig 1a system.
func NewBaselineChain(cfg ChainCommon) *BaselineChain { return chain.NewBaseline(cfg) }

// NewCSChain wires the Fig 1b system.
func NewCSChain(cfg CSChainConfig) *CSChain { return chain.NewCS(cfg) }

// Variant chains (digital and active analog compressive sensing).
type (
	// DigitalCSChain is the Nyquist-ADC + MAC compression variant.
	DigitalCSChain = chain.DigitalCS
	// ActiveCSChain is the OTA-integrator variant.
	ActiveCSChain = chain.ActiveCS
)

// NewDigitalCSChain wires the digital CS variant.
func NewDigitalCSChain(cfg CSChainConfig) *DigitalCSChain { return chain.NewDigitalCS(cfg) }

// NewActiveCSChain wires the active analog CS variant.
func NewActiveCSChain(cfg CSChainConfig) *ActiveCSChain { return chain.NewActiveCS(cfg) }

// ChainReference returns the band-limited ideal acquisition both chains
// are scored against.
func ChainReference(cfg ChainCommon, input []float64, inputRate float64) []float64 {
	return chain.Reference(cfg, input, inputRate)
}

// EEG dataset substrate (paper Step 4).
type (
	// EEGConfig parameterises the Bonn-like synthesiser.
	EEGConfig = eeg.Config
	// EEGDataset is a labelled record collection.
	EEGDataset = eeg.Dataset
	// EEGRecord is one labelled waveform.
	EEGRecord = eeg.Record
	// EEGClass labels a record.
	EEGClass = eeg.Class
)

// EEG class values.
const (
	Interictal = eeg.Interictal
	Ictal      = eeg.Ictal
)

// DefaultEEGConfig returns the tuned synthesiser configuration.
func DefaultEEGConfig(seed int64, records int) EEGConfig { return eeg.DefaultConfig(seed, records) }

// SynthesizeEEG builds a Bonn-like dataset.
func SynthesizeEEG(cfg EEGConfig) *EEGDataset { return eeg.Synthesize(cfg) }

// Seizure detector (substitute for the paper's network [20]).
type (
	// Detector is the trained accuracy metric.
	Detector = classify.Detector
	// DetectorConfig controls training.
	DetectorConfig = classify.DetectorConfig
	// TrainOptions are the optimiser options.
	TrainOptions = classify.TrainOptions
	// Confusion is a binary confusion matrix.
	Confusion = classify.Confusion
)

// TrainDetector fits a detector on a labelled dataset.
func TrainDetector(ds *EEGDataset, cfg DetectorConfig) *Detector {
	return classify.TrainDetector(ds, cfg)
}

// Design-space exploration (paper Fig 7–10 machinery).
type (
	// Space is a rectangular design-space grid.
	Space = dse.Space
	// Sweep is the parallel sweep engine: context-aware cancellation,
	// per-point memoisation, panic recovery and metrics. Construct with
	// NewSweep.
	Sweep = dse.Sweep
	// SweepOption configures a Sweep at construction (WithWorkers,
	// WithCache, WithEvaluatorID). A run is observed through its own
	// hook, (*Sweep).RunWithHook.
	SweepOption = dse.Option
	// PointEvaluator scores one design point (implemented by
	// *Evaluator).
	//
	// Deprecated as a construction target: prefer evaluators that also
	// implement BatchEvaluator (as *Evaluator does) so NewSweep can
	// dispatch cache misses in work-sharing batches. A bare
	// PointEvaluator still works and keeps the historical per-point
	// dispatch.
	PointEvaluator = dse.PointEvaluator
	// BatchEvaluator scores several design points in one call — the
	// batch-first evaluation contract. NewSweep prefers it over
	// per-point Evaluate whenever the evaluator implements it, and a
	// *Sweep is itself a BatchEvaluator, so engines compose.
	BatchEvaluator = dse.BatchEvaluator
	// SweepCache memoises design-point evaluations across sweeps: a
	// sharded store with hit/miss accounting and singleflight
	// de-duplication of concurrent identical evaluations, unbounded
	// (NewMemoryCache, right for one-shot runs) or bounded with LRU
	// eviction (NewLRUCache, right for long-running servers).
	SweepCache = cache.LRU
	// CacheStats is a SweepCache accounting snapshot.
	CacheStats = cache.Stats
	// SweepMetrics is a snapshot of a sweep engine's counters, including
	// the evaluation-duration histogram and its p50/p90/p99 quantiles.
	SweepMetrics = dse.Snapshot
	// EvalHistogram is the fixed-bucket evaluation-duration histogram
	// snapshot carried by SweepMetrics; it renders Prometheus exposition
	// and estimates arbitrary quantiles.
	EvalHistogram = obs.Snapshot
	// SweepEvent is one structured per-point engine observation, delivered
	// to the run's hook ((*Sweep).RunWithHook) with the run's Done/Total.
	SweepEvent = dse.Event
	// Quality is a goal-function selector (paper Step 5).
	Quality = dse.Quality
)

// DefaultBatchSize is the most cache-miss points a Sweep hands a
// BatchEvaluator in one call.
const DefaultBatchSize = dse.DefaultBatchSize

// NewSweep builds a validated sweep engine over an evaluator. When ev
// also implements BatchEvaluator the engine dispatches cache misses in
// group-ordered batches of up to DefaultBatchSize points.
func NewSweep(ev PointEvaluator, opts ...SweepOption) (*Sweep, error) {
	return dse.NewSweep(ev, opts...)
}

// NewMemoryCache returns an empty unbounded memoisation cache,
// shareable between sweeps (keys embed the evaluator identity).
func NewMemoryCache() *SweepCache { return cache.New(0) }

// NewLRUCache returns an empty memoisation cache holding at most
// entries results, evicting the least recently used beyond that;
// entries = 0 makes it unbounded. It panics when entries is negative.
func NewLRUCache(entries int) *SweepCache { return cache.New(entries) }

// Sweep options (see the dse package for semantics).
func WithWorkers(n int) SweepOption         { return dse.WithWorkers(n) }
func WithCache(c *SweepCache) SweepOption   { return dse.WithCache(c) }
func WithEvaluatorID(id string) SweepOption { return dse.WithEvaluatorID(id) }

// PaperSpace returns the Table III search grid.
func PaperSpace(noiseSteps int) Space { return dse.PaperSpace(noiseSteps) }

// ParetoFront extracts the non-dominated (power, quality) subset.
func ParetoFront(results []Result, q Quality) []Result { return dse.ParetoFront(results, q) }

// Optimum returns the minimum-power result meeting a quality floor.
func Optimum(results []Result, q Quality, minQuality float64) (Result, bool) {
	return dse.Optimum(results, q, minQuality)
}

// Goal functions.
var (
	// QualitySNR is the Fig 7a goal function.
	QualitySNR = dse.QualitySNR
	// QualityAccuracy is the Fig 7b goal function.
	QualityAccuracy = dse.QualityAccuracy
)

// Goal-directed search (budget-constrained adaptive exploration; see
// DESIGN.md §12). A *Sweep satisfies SearchEvaluator directly, so the
// search engine inherits caching, batching and panic recovery
// unchanged.
type (
	// SearchGoal selects the objective (SearchMaxQuality paired with a
	// Spec.Metric of "accuracy" or "snr", or SearchMinPower).
	SearchGoal = search.Goal
	// SearchSpec is a parsed, validated query: a goal plus power /
	// quality / area constraints, an evaluation budget and a seed.
	SearchSpec = search.Spec
	// SearchEvaluator is the batch contract the engine drives.
	SearchEvaluator = search.Evaluator
	// SearchFidelity is one rung of the fidelity schedule.
	SearchFidelity = search.Fidelity
	// SearchStrategy proposes batches and observes their results.
	SearchStrategy = search.Strategy
	// SearchConfig assembles a Run.
	SearchConfig = search.Config
	// SearchProgress is the per-batch callback payload.
	SearchProgress = search.Progress
	// SearchOutcome carries the discovered front, the best feasible
	// design, budget accounting and the partial flag.
	SearchOutcome = search.Outcome
	// SearchFront is the incremental Pareto front with hypervolume.
	SearchFront = search.Front
	// HalvingStrategy is the built-in successive-halving strategy.
	HalvingStrategy = search.Halving
)

// Search goal values.
const (
	SearchMaxQuality = search.MaxQuality
	SearchMinPower   = search.MinPower
)

// ParseSearchQuery parses the `goal *( "@" constraint )` grammar, e.g.
// "max-accuracy@power<=3e-6@area<=500".
func ParseSearchQuery(s string) (SearchSpec, error) { return search.ParseQuery(s) }

// NewHalvingStrategy builds the successive-halving strategy over a
// space for a spec; rungs is the number of fidelity rungs in play.
func NewHalvingStrategy(space Space, spec SearchSpec, rungs int) *HalvingStrategy {
	return search.NewHalving(space, spec, rungs)
}

// RunSearch executes a budget-constrained adaptive search.
func RunSearch(ctx context.Context, cfg SearchConfig) (SearchOutcome, error) {
	return search.Run(ctx, cfg)
}

// Power modelling (paper Table II).
type (
	// PowerBreakdown maps components to watts.
	PowerBreakdown = power.Breakdown
	// PowerComponent names a block.
	PowerComponent = power.Component
)

// Experiment reproduction (the paper's evaluation section).
type (
	// Suite owns a full reproduction run.
	Suite = experiments.Suite
	// SuiteOptions configures it.
	SuiteOptions = experiments.Options
	// Fig4Point / Fronts / Fig7bResult / Fig9Point / Fig10Front are the
	// figure payloads.
	Fig4Point   = experiments.Fig4Point
	Fronts      = experiments.Fronts
	Fig7bResult = experiments.Fig7b
	Fig9Point   = experiments.Fig9Point
	Fig10Front  = experiments.Fig10Front
	// VariantsResult compares the four front-end architectures.
	VariantsResult = experiments.VariantsResult
)

// NewSuite builds a reproduction suite.
func NewSuite(opts SuiteOptions) *Suite { return experiments.NewSuite(opts) }

// Workload scenarios (the registry of named applications the framework
// evaluates; SuiteOptions.Scenario selects one by name).
type (
	// Scenario is one registered workload: synthesiser, quality metric,
	// architecture set, default space and evaluator knobs behind a name.
	Scenario = scenario.Scenario
)

// DefaultScenario is the scenario selected when none is named — the
// paper's EEG epilepsy-detection chain.
const DefaultScenario = scenario.DefaultName

// LookupScenario resolves a scenario name ("" selects the default).
func LookupScenario(name string) (*Scenario, error) { return scenario.Lookup(name) }

// Scenarios returns every registered scenario in name order.
func Scenarios() []*Scenario { return scenario.All() }

// SNRVersusReference computes the SNR (dB) of a processed waveform against
// a reference after least-squares gain alignment — the Fig 7a goal
// function applied to a single record.
func SNRVersusReference(ref, out []float64) float64 {
	return dsp.SNRVersusReference(ref, out)
}
