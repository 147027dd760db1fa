// Package fault is a deterministic, seedable fault-injection registry
// for the serving stack: named failpoints that production code fires at
// its hot seams and that tests (or the efficsensed -chaos flag) arm with
// an error, a latency or a panic at a configured probability.
//
// The design goals, in order:
//
//   - Zero overhead when disarmed. Fire's fast path is one atomic load
//     and a return — small enough to inline into the caller — so leaving
//     failpoints compiled into hot loops costs nothing in production.
//   - Determinism. Every armed failpoint draws from its own PRNG,
//     derived from a root seed and the point's name, and draws happen
//     under the registry lock: for a fixed seed and a fixed number of
//     Fire calls the number of injections is exactly reproducible, no
//     matter how goroutines interleave. A failing chaos run replays
//     from its seed.
//   - Observability. Every armed point counts its calls and injections
//     (Snapshot), so a chaos test can assert that the stack's retry and
//     degradation metrics match the injected fault schedule exactly.
//
// The registry is process-global, like the seams it instruments; tests
// that arm failpoints must not run in parallel with each other and
// should disarm with Reset (typically via t.Cleanup).
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"efficsense/internal/xrand"
)

// Failpoint names wired into the serving stack. The constants live here
// so the vocabulary is greppable in one place; arming an unregistered
// name is not an error (the point simply never fires), which keeps specs
// forward-compatible.
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
	// stream mid-job (the client reconnects with Last-Event-ID); a
	// latency stalls the flush.
	PointSSEFlush = "serve/sse-flush"
)

// Kind selects what an armed failpoint injects when it fires.
type Kind int

const (
	// KindError: Fire returns ErrInjected wrapped with the point name.
	KindError Kind = iota
	// KindLatency: Fire sleeps for Config.Latency, then returns nil.
	KindLatency
	// KindPanic: Fire panics with a message naming the point.
	KindPanic
)

// String names the kind the way specs spell it.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindLatency:
		return "latency"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ErrInjected is the sentinel every injected error wraps; retry
// predicates and tests branch on it with errors.Is.
var ErrInjected = errors.New("injected fault")

// Config arms one failpoint.
type Config struct {
	// Kind selects the injected effect.
	Kind Kind
	// Probability in [0, 1] that one Fire call injects; 1 injects on
	// every call.
	Probability float64
	// Latency is the injected delay for KindLatency (ignored otherwise).
	Latency time.Duration
	// MaxInjections, when positive, stops injecting after that many
	// faults — the way a test schedules an exact fault count (pair it
	// with Probability 1).
	MaxInjections int64
	// Seed drives the point's private PRNG. EnableSpec derives it from
	// the root seed and the point name; direct Enable callers pick it.
	Seed int64
}

func (c Config) validate(name string) error {
	if name == "" {
		return errors.New("fault: empty failpoint name")
	}
	if c.Probability < 0 || c.Probability > 1 {
		return fmt.Errorf("fault: %s: probability %g outside [0, 1]", name, c.Probability)
	}
	if c.Kind == KindLatency && c.Latency <= 0 {
		return fmt.Errorf("fault: %s: latency injection needs a positive duration", name)
	}
	if c.MaxInjections < 0 {
		return fmt.Errorf("fault: %s: negative injection bound %d", name, c.MaxInjections)
	}
	return nil
}

// point is one armed failpoint.
type point struct {
	cfg             Config
	rng             *xrand.Source
	calls, injected int64
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
// injection, sleeps and returns nil for a latency injection, and panics
// for a panic injection. Disarmed — the production steady state — it
// costs one atomic load and returns nil.
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
	p.calls++
	inject := p.cfg.Probability >= 1 || p.rng.Float64() < p.cfg.Probability
	if inject && p.cfg.MaxInjections > 0 && p.injected >= p.cfg.MaxInjections {
		inject = false
	}
	if inject {
		p.injected++
	}
	cfg := p.cfg
	mu.Unlock()
	if !inject {
		return nil
	}
	switch cfg.Kind {
	case KindLatency:
		time.Sleep(cfg.Latency)
		return nil
	case KindPanic:
		panic(fmt.Sprintf("fault: injected panic at %s", name))
	default:
		return fmt.Errorf("fault: %w at %s", ErrInjected, name)
	}
}

// Enable arms one failpoint, replacing any previous configuration (and
// resetting its counters).
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

// Disable disarms one failpoint; unknown names are a no-op.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(points, name)
	armed.Store(len(points) > 0)
}

// Reset disarms every failpoint and clears all counters — call it from
// t.Cleanup in any test that arms the registry.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = make(map[string]*point)
	armed.Store(false)
}

// Armed reports whether any failpoint is enabled.
func Armed() bool { return armed.Load() }

// PointStats is one armed failpoint's accounting: Calls counts Fire
// calls that consulted it, Injected the subset that actually injected.
type PointStats struct {
	Name            string
	Kind            Kind
	Calls, Injected int64
}

// Snapshot returns the armed failpoints' accounting, sorted by name so
// expositions and logs are deterministic.
func Snapshot() []PointStats {
	mu.Lock()
	defer mu.Unlock()
	out := make([]PointStats, 0, len(points))
	for name, p := range points {
		out = append(out, PointStats{Name: name, Kind: p.cfg.Kind, Calls: p.calls, Injected: p.injected})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

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

// ParseSpec parses the efficsensed -chaos flag grammar: a comma-
// separated list of
//
//	name=kind[:probability[:latency]]
//
// where kind is error, latency or panic, probability defaults to 1 and
// latency (required for latency injections) is a Go duration. Each
// point's PRNG seed is derived from the root seed and the point name,
// so one -chaos-seed reproduces the whole schedule. Examples:
//
//	dse/evaluate=error:0.1
//	dse/evaluate=latency:0.5:20ms,serve/sse-flush=error:0.05
func ParseSpec(spec string, seed int64) (map[string]Config, error) {
	out := make(map[string]Config)
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("fault: clause %q: want name=kind[:probability[:latency]]", clause)
		}
		parts := strings.Split(rest, ":")
		cfg := Config{Probability: 1, Seed: seed}
		switch parts[0] {
		case "error":
			cfg.Kind = KindError
		case "latency":
			cfg.Kind = KindLatency
		case "panic":
			cfg.Kind = KindPanic
		default:
			return nil, fmt.Errorf("fault: clause %q: unknown kind %q (want error, latency or panic)", clause, parts[0])
		}
		if len(parts) > 1 {
			p, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad probability %q: %v", clause, parts[1], err)
			}
			cfg.Probability = p
		}
		if len(parts) > 2 {
			d, err := time.ParseDuration(parts[2])
			if err != nil {
				return nil, fmt.Errorf("fault: clause %q: bad latency %q: %v", clause, parts[2], err)
			}
			cfg.Latency = d
		}
		if len(parts) > 3 {
			return nil, fmt.Errorf("fault: clause %q: too many fields", clause)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("fault: point %s configured twice", name)
		}
		if err := cfg.validate(name); err != nil {
			return nil, err
		}
		out[name] = cfg
	}
	if len(out) == 0 {
		return nil, errors.New("fault: empty chaos spec")
	}
	return out, nil
}

// EnableSpec parses spec and arms every clause (see ParseSpec). On a
// parse or validation error nothing is armed.
func EnableSpec(spec string, seed int64) error {
	cfgs, err := ParseSpec(spec, seed)
	if err != nil {
		return err
	}
	for name, cfg := range cfgs {
		if err := Enable(name, cfg); err != nil {
			return err
		}
	}
	return nil
}
