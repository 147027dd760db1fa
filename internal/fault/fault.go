// Package fault is a deterministic, seedable fault-injection registry,
// the test seam of the serving stack: named failpoints that production
// code fires at its hot seams and that tests arm, with Enable, to
// inject an error or a panic at a configured probability. Nothing but a
// test arms them.
//
// The design goals, in order:
//
//   - Zero overhead when disarmed. Fire's fast path is one atomic load
//     and a return — small enough to inline into the caller — so leaving
//     failpoints compiled into hot loops costs nothing in production.
//   - Determinism. Every armed failpoint draws from its own PRNG,
//     derived from its seed and the point's name, and draws happen
//     under the registry lock: for a fixed seed and a fixed number of
//     Fire calls the number of injections is exactly reproducible, no
//     matter how goroutines interleave. A failing chaos test replays
//     from its seed.
//   - Accounting. Every armed point counts its injections (Injected), so
//     a chaos test can assert that the stack's degradation metrics match
//     the injected fault schedule exactly.
//
// The registry is process-global, like the seams it instruments; tests
// that arm failpoints must not run in parallel with each other and
// should disarm with Reset (typically via t.Cleanup).
package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"efficsense/internal/xrand"
)

// Failpoint names wired into the serving stack. The constants live here
// so the vocabulary is greppable in one place; arming an unregistered
// name is not an error (the point simply never fires).
const (
	// PointEvaluate fires before every real evaluator call in the sweep
	// engine (cache hits never reach it). A panic here is recovered by
	// the engine's per-point recovery; an error degrades the point.
	PointEvaluate = "dse/evaluate"
	// PointBatch fires once per batched evaluator call, after the
	// per-point failpoint has filtered the batch and before the batch
	// evaluator runs. An error (or panic) degrades every point of that
	// batch into error-carrying results — and only that batch: the
	// engine's other batches, and the job above them, continue.
	PointBatch = "dse/evaluate-batch"
	// PointFlight fires inside the evaluation cache's singleflight, in the
	// computing goroutine, before the evaluation closure runs. A panic
	// exercises the waiter-release path.
	PointFlight = "cache/flight"
	// PointJob fires in the job goroutine between engine resolution and
	// the sweep itself. An error fails the job; a panic exercises the
	// manager's job-goroutine recovery.
	PointJob = "serve/job"
	// PointSSEFlush fires before each SSE flush. An error drops the
	// stream mid-job (the client reconnects with Last-Event-ID).
	PointSSEFlush = "serve/sse-flush"
)

// Kind selects what an armed failpoint injects when it fires.
type Kind int

const (
	// KindError: Fire returns ErrInjected wrapped with the point name.
	KindError Kind = iota
	// KindPanic: Fire panics with a message naming the point.
	KindPanic
)

// ErrInjected is the sentinel every injected error wraps; tests branch
// on it with errors.Is.
var ErrInjected = errors.New("injected fault")

// Config arms one failpoint.
type Config struct {
	// Kind selects the injected effect.
	Kind Kind
	// Probability in [0, 1] that one Fire call injects; 1 injects on
	// every call.
	Probability float64
	// MaxInjections, when positive, stops injecting after that many
	// faults — the way a test schedules an exact fault count (pair it
	// with Probability 1).
	MaxInjections int64
	// Seed drives the point's private PRNG, derived from it and the
	// point name, so two points armed with one seed draw independently.
	Seed int64
}

func (c Config) validate(name string) error {
	if name == "" {
		return errors.New("fault: empty failpoint name")
	}
	if c.Probability < 0 || c.Probability > 1 {
		return fmt.Errorf("fault: %s: probability %g outside [0, 1]", name, c.Probability)
	}
	if c.MaxInjections < 0 {
		return fmt.Errorf("fault: %s: negative injection bound %d", name, c.MaxInjections)
	}
	return nil
}

// point is one armed failpoint.
type point struct {
	cfg      Config
	rng      *xrand.Source
	injected int64
}

var (
	// armed gates the fast path: true while at least one failpoint is
	// enabled. Checked on every Fire with a single atomic load.
	armed atomic.Bool

	mu     sync.Mutex
	points = make(map[string]*point)
)

// Fire consults the failpoint name and performs the armed injection, if
// any: it returns a non-nil error (wrapping ErrInjected) for an error
// injection and panics for a panic injection. Disarmed — the production
// steady state — it costs one atomic load and returns nil.
func Fire(name string) error {
	if !armed.Load() {
		return nil
	}
	return fire(name)
}

// fire is the armed slow path, kept out of Fire so the fast path stays
// within the inlining budget.
func fire(name string) error {
	mu.Lock()
	p := points[name]
	if p == nil {
		mu.Unlock()
		return nil
	}
	inject := p.cfg.Probability >= 1 || p.rng.Float64() < p.cfg.Probability
	if inject && p.cfg.MaxInjections > 0 && p.injected >= p.cfg.MaxInjections {
		inject = false
	}
	if inject {
		p.injected++
	}
	kind := p.cfg.Kind
	mu.Unlock()
	if !inject {
		return nil
	}
	if kind == KindPanic {
		panic(fmt.Sprintf("fault: injected panic at %s", name))
	}
	return fmt.Errorf("fault: %w at %s", ErrInjected, name)
}

// Enable arms one failpoint, replacing any previous configuration (and
// resetting its injection count).
func Enable(name string, cfg Config) error {
	if err := cfg.validate(name); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	points[name] = &point{cfg: cfg, rng: xrand.Derive(cfg.Seed, "fault/"+name)}
	armed.Store(true)
	return nil
}

// Reset disarms every failpoint and clears their counts — call it from
// t.Cleanup in any test that arms the registry.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = make(map[string]*point)
	armed.Store(false)
}

// Armed reports whether any failpoint is enabled.
func Armed() bool { return armed.Load() }

// Injected returns how many faults the named point has injected (0 for
// disarmed names) — the number chaos tests reconcile their stack
// metrics against.
func Injected(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if p := points[name]; p != nil {
		return p.injected
	}
	return 0
}
