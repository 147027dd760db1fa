// Package search answers goal-directed design-space queries —
// "maximise quality subject to power ≤ B", "minimise power subject to
// quality ≥ Q" — in a fraction of the evaluations an exhaustive
// dse.Sweep spends on the full Table III lattice.
//
// The architecture is a propose/observe loop: a Strategy proposes
// batches of core.DesignPoint, the driver evaluates them through a
// dse.BatchEvaluator-shaped surface (so every probe rides the engines'
// batch dispatch and shared memoisation cache), feeds the results back,
// and maintains an incremental Pareto front. The driver — not the
// strategy — enforces a hard evaluation budget, honours context
// cancellation (returning the partial front built so far), and accounts
// for every dispatched point exactly once.
//
// Determinism contract: given the same Space, Spec (including Seed and
// MaxEvaluations) and evaluator behaviour, Run visits the same points
// in the same order and returns the identical front. The bundled
// strategy contains no map-order or wall-clock dependence; batches are
// evaluated through interfaces that return results in input order.
package search

import (
	"context"
	"errors"
	"fmt"
	"math"

	"efficsense/internal/core"
	"efficsense/internal/dse"
)

// Goal selects the direction of a query.
type Goal int

const (
	// MaxQuality maximises the quality metric subject to an optional
	// power ceiling (Spec.MaxPower).
	MaxQuality Goal = iota
	// MinPower minimises total power subject to a quality floor
	// (Spec.MinQuality).
	MinPower
)

// String renders the goal token the query grammar uses ("max" goals are
// rendered with their metric by Spec.Query).
func (g Goal) String() string {
	if g == MinPower {
		return "min-power"
	}
	return "max-quality"
}

// Spec is one goal-directed query over a design space.
type Spec struct {
	// Goal is the optimisation direction.
	Goal Goal
	// Metric names the quality function: "accuracy" (Fig 7b) or "snr"
	// (Fig 7a).
	Metric string
	// MaxPower is the power ceiling in watts for MaxQuality goals
	// (0 = unconstrained).
	MaxPower float64
	// MinQuality is the quality floor for MinPower goals.
	MinQuality float64
	// MaxAreaCaps, when positive, excludes designs above this capacitor
	// budget (the Fig 10 constraint) from the front and the answer.
	MaxAreaCaps float64
	// MaxEvaluations is the hard evaluation budget the driver enforces:
	// every dispatched point, at any fidelity, consumes one unit.
	MaxEvaluations int
	// Seed makes any stochastic strategy reproducible. The bundled
	// halving strategy is fully deterministic and records the seed
	// without consuming it.
	Seed int64
}

// Quality resolves the spec's metric to its goal function.
func (s Spec) Quality() (dse.Quality, error) {
	switch s.Metric {
	case "accuracy":
		return dse.QualityAccuracy, nil
	case "snr":
		return dse.QualitySNR, nil
	}
	return nil, fmt.Errorf("search: unknown quality metric %q (want accuracy or snr)", s.Metric)
}

// Validate rejects specs the driver cannot run.
func (s Spec) Validate() error {
	if _, err := s.Quality(); err != nil {
		return err
	}
	if s.MaxEvaluations <= 0 {
		return fmt.Errorf("search: max_evaluations must be positive, got %d", s.MaxEvaluations)
	}
	if s.MaxPower < 0 || math.IsNaN(s.MaxPower) {
		return fmt.Errorf("search: max power %g is not a valid ceiling", s.MaxPower)
	}
	if math.IsNaN(s.MinQuality) {
		return errors.New("search: min quality is NaN")
	}
	if s.Goal == MinPower && s.MinQuality <= 0 {
		return errors.New("search: min-power queries need a positive quality floor")
	}
	if s.MaxAreaCaps < 0 || math.IsNaN(s.MaxAreaCaps) {
		return fmt.Errorf("search: area cap %g is not a valid bound", s.MaxAreaCaps)
	}
	return nil
}

// feasible reports whether a sound result satisfies the spec's hard
// constraints for the final answer (the front itself only applies the
// area cap, so a budget-violating front still shows the trade-off).
func (s Spec) feasible(r core.Result, q dse.Quality) bool {
	if s.MaxAreaCaps > 0 && r.AreaCaps > s.MaxAreaCaps {
		return false
	}
	switch s.Goal {
	case MaxQuality:
		return s.MaxPower <= 0 || r.TotalPower <= s.MaxPower
	case MinPower:
		return q(r) >= s.MinQuality
	}
	return false
}

// Evaluator is the batch evaluation surface a search drives. *dse.Sweep
// satisfies it directly, which is the production path: cache hits,
// singleflight and panic recovery all apply to search probes exactly
// as they do to sweep points. The contract is
// dse.BatchEvaluator's: one result per point, in input order, failures
// as error rows, never a short slice.
type Evaluator interface {
	EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result
}

// Fidelity is one rung of the evaluation-fidelity schedule: a cheaper
// evaluator (fewer records or seeds per point) used for early probes,
// ordered cheap → authoritative. Only results from the final rung enter
// the front; earlier rungs exist to discard dominated regions before
// the expensive evaluations run.
type Fidelity struct {
	// Name labels the rung in progress output ("probe", "full").
	Name string
	// Eval evaluates proposals at this rung's fidelity.
	Eval Evaluator
}

// Strategy is the propose/observe loop the driver runs. Calls strictly
// alternate: every Propose is followed by exactly one Observe carrying
// the results of the proposed points in proposal order (the driver may
// have clipped the batch to the remaining budget before evaluating, so
// strategies must treat the Observe slice, not their own bookkeeping,
// as the set of points that actually ran).
type Strategy interface {
	// Propose returns up to n points to evaluate next and the fidelity
	// rung to run them at. An empty batch means the strategy has
	// converged.
	Propose(n int) (pts []core.DesignPoint, rung int)
	// Observe feeds back the evaluated results of the last proposal.
	Observe(rung int, rs []core.Result)
}

// Progress is the driver's per-round progress report, delivered
// serially after each observed batch.
type Progress struct {
	// Evaluations used so far against Budget.
	Evaluations int
	Budget      int
	// Rung is the fidelity index the round ran at; RungName its label.
	Rung     int
	RungName string
	// FrontSize and Hypervolume describe the full-fidelity front after
	// the round; Improved is true when the round changed it.
	FrontSize   int
	Hypervolume float64
	Improved    bool
}

// Config wires one search run.
type Config struct {
	// Space is the grid being searched.
	Space dse.Space
	// Spec is the query, including the budget and seed.
	Spec Spec
	// Fidelities is the evaluation schedule, cheap → authoritative; at
	// least one rung is required and the last is the one front results
	// come from. A single entry means every evaluation runs at full
	// fidelity.
	Fidelities []Fidelity
	// Strategy overrides the bundled adaptive-halving strategy (tests,
	// alternative searchers). nil selects NewHalving.
	Strategy Strategy
	// BatchSize caps points per proposal round (default 16, the sweep
	// engine's batch default): large enough to fill the batch dispatch,
	// small enough that refinement reacts to fresh results.
	BatchSize int
	// OnProgress, when set, receives one Progress per observed round,
	// serially from the driver goroutine.
	OnProgress func(Progress)
}

// Outcome is the result of a search run.
type Outcome struct {
	// Front is the discovered Pareto front over full-fidelity sound
	// results (ascending power, after the spec's area cap). On a
	// cancelled or budget-exhausted run it is the partial front built
	// so far.
	Front []core.Result
	// Best answers the query: the feasible front point with the highest
	// quality (MaxQuality) or the lowest power (MinPower). HaveBest is
	// false when nothing feasible was found.
	Best     core.Result
	HaveBest bool
	// Evaluations counts every point dispatched to any fidelity rung;
	// Budget echoes the spec. Evaluations + remaining == Budget always:
	// the driver clips the last batch rather than overshooting.
	Evaluations int
	Budget      int
	// Errors counts degraded rows (evaluator faults, recovered panics,
	// cancellation mid-batch). Degraded rows consume budget — they were
	// dispatched — but never enter the front.
	Errors int
	// Partial is true when the run did not converge cleanly: the
	// context was cancelled, the budget ran out with proposals pending,
	// or rows degraded. The front is then a sound subset, a lower bound
	// on the true front.
	Partial bool
	// Hypervolume is the front's dominated area against the run's
	// observed extremes — a progress figure, comparable within a run.
	Hypervolume float64
}

// Run executes one goal-directed search. It returns ctx.Err() alongside
// the partial outcome when cancelled; any other error means the
// configuration was invalid and nothing ran.
func Run(ctx context.Context, cfg Config) (Outcome, error) {
	out := Outcome{Budget: cfg.Spec.MaxEvaluations}
	if err := cfg.Spec.Validate(); err != nil {
		return out, err
	}
	if err := cfg.Space.Validate(); err != nil {
		return out, fmt.Errorf("search: %w", err)
	}
	if len(cfg.Fidelities) == 0 {
		return out, errors.New("search: at least one fidelity rung is required")
	}
	for i, f := range cfg.Fidelities {
		if f.Eval == nil {
			return out, fmt.Errorf("search: fidelity %d (%s) has no evaluator", i, f.Name)
		}
	}
	q, _ := cfg.Spec.Quality()
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = dse.DefaultBatchSize
	}
	strat := cfg.Strategy
	if strat == nil {
		strat = NewHalving(cfg.Space, cfg.Spec, len(cfg.Fidelities))
	}

	front := NewFront(q)
	full := len(cfg.Fidelities) - 1
	budget := cfg.Spec.MaxEvaluations
	// Hypervolume reference corner: the worst observed power and quality,
	// frozen as they expand so the figure only grows within a run.
	refPower, refQuality := math.Inf(-1), math.Inf(1)

	converged := false
	for out.Evaluations < budget {
		if ctx.Err() != nil {
			break
		}
		pts, rung := strat.Propose(min(batchSize, budget-out.Evaluations))
		if len(pts) == 0 {
			converged = true
			break
		}
		if rung < 0 || rung >= len(cfg.Fidelities) {
			return out, fmt.Errorf("search: strategy proposed fidelity rung %d of %d", rung, len(cfg.Fidelities))
		}
		if len(pts) > budget-out.Evaluations { // defensive: a strategy that ignores n
			pts = pts[:budget-out.Evaluations]
		}
		rs := cfg.Fidelities[rung].Eval.EvaluateBatch(ctx, pts)
		out.Evaluations += len(pts)
		improved := false
		for _, r := range rs {
			if r.Err != nil {
				out.Errors++
				continue
			}
			if rung == full {
				if r.TotalPower > refPower {
					refPower = r.TotalPower
				}
				if v := q(r); v < refQuality {
					refQuality = v
				}
				if cfg.Spec.MaxAreaCaps > 0 && r.AreaCaps > cfg.Spec.MaxAreaCaps {
					continue
				}
				if front.Add(r) {
					improved = true
				}
			}
		}
		strat.Observe(rung, rs)
		if cfg.OnProgress != nil {
			cfg.OnProgress(Progress{
				Evaluations: out.Evaluations, Budget: budget,
				Rung: rung, RungName: cfg.Fidelities[rung].Name,
				FrontSize: front.Size(), Hypervolume: front.Hypervolume(refPower, refQuality),
				Improved: improved,
			})
		}
	}

	out.Front = front.Results()
	out.Hypervolume = front.Hypervolume(refPower, refQuality)
	out.Partial = out.Errors > 0 || ctx.Err() != nil || !converged
	for _, r := range out.Front {
		if !cfg.Spec.feasible(r, q) {
			continue
		}
		switch cfg.Spec.Goal {
		case MaxQuality:
			if !out.HaveBest || q(r) > q(out.Best) {
				out.Best, out.HaveBest = r, true
			}
		case MinPower:
			if !out.HaveBest || r.TotalPower < out.Best.TotalPower {
				out.Best, out.HaveBest = r, true
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}
