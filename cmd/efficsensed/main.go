// Command efficsensed serves the EffiCSense pathfinding framework over
// HTTP: synchronous design-point evaluation, asynchronous design-space
// sweeps with SSE progress streams, goal-directed budget-capped
// searches (/v1/search), Pareto fronts and optima on demand, and
// Prometheus metrics — the paper's framework as a long-running service
// instead of a one-shot CLI.
//
// Usage:
//
//	efficsensed [-addr :8080] [-ops-addr 127.0.0.1:6060] [suite flags] [server flags]
//
// The suite flags (-seed, -records, …) set the server-wide defaults;
// requests override them per call. All sweep engines share one
// memoisation cache, so repeated or overlapping studies get warmer the
// longer the daemon runs.
//
// Logs are structured (log/slog, text format): every request line and
// sweep lifecycle event carries the request_id assigned or propagated
// by the X-Request-ID middleware, so one grep follows a request across
// handler and job goroutines. The optional -ops-addr flag opens a
// second, private listener with /debug/pprof/, /debug/vars and
// /debug/build; those endpoints never appear on the public address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/fault"
	"efficsense/internal/scenario"
	"efficsense/internal/serve"
	"efficsense/internal/wal"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintf(os.Stderr, "efficsensed: %v\n", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	addr         string
	opsAddr      string
	drain        time.Duration
	quiet        bool
	cacheEntries int

	retryAttempts int
	retryBase     time.Duration

	chaos     string
	chaosSeed int64

	walDir string

	tenantSubmitRate  float64
	tenantSubmitBurst int
	tenantEvalRate    float64
	tenantEvalBurst   int
	tenantMaxJobs     int
	tenantMaxQueue    int
	tenantWeights     string

	defaults experiments.Options
	manager  serve.ManagerConfig
}

// parseFlags builds the daemon configuration. Suite flags mirror the
// efficsense CLI so a study moves between the two without relabelling.
func parseFlags(args []string) (*config, error) {
	cfg := &config{}
	fs := flag.NewFlagSet("efficsensed", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.opsAddr, "ops-addr", "",
		"private ops listener for pprof/expvar/build info (empty = disabled; keep it loopback-only)")
	fs.DurationVar(&cfg.drain, "drain", 30*time.Second, "shutdown grace period for running sweeps")
	fs.BoolVar(&cfg.quiet, "quiet", false, "suppress request logging")

	fs.StringVar(&cfg.defaults.Scenario, "scenario", "",
		"default workload scenario (empty = "+scenario.DefaultName+"); GET /v1/scenarios lists the registry")
	fs.Int64Var(&cfg.defaults.Seed, "seed", 1, "default root seed")
	fs.IntVar(&cfg.defaults.Records, "records", 40, "default evaluation records (paper: 500)")
	fs.IntVar(&cfg.defaults.TrainRecords, "train-records", 120, "default detector training records")
	fs.IntVar(&cfg.defaults.NoiseSteps, "noise-steps", 8, "default LNA-noise grid resolution")
	fs.IntVar(&cfg.defaults.Workers, "workers", 0, "default sweep workers (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.defaults.Epochs, "epochs", 150, "default detector training epochs")
	fs.Float64Var(&cfg.defaults.MinAccuracy, "min-accuracy", 0.98, "default accuracy constraint")

	fs.IntVar(&cfg.manager.MaxConcurrentJobs, "max-jobs", 2, "concurrent sweep job slots before 429")
	fs.DurationVar(&cfg.manager.JobTTL, "job-ttl", 15*time.Minute, "how long finished jobs stay queryable")
	fs.IntVar(&cfg.manager.MaxSweepPoints, "max-points", 100000, "largest accepted sweep")
	fs.IntVar(&cfg.manager.MaxSearchEvaluations, "max-search-evals", 20000,
		"largest evaluation budget a /v1/search job may request")
	fs.DurationVar(&cfg.manager.EvalTimeout, "eval-timeout", 2*time.Minute, "cap on synchronous evaluation deadlines")
	fs.IntVar(&cfg.cacheEntries, "cache-entries", serve.DefaultCacheEntries,
		"bound on the shared evaluation cache (LRU eviction beyond it)")
	fs.IntVar(&cfg.retryAttempts, "retry", 0,
		"total attempts per design point before it degrades (0 or 1 = no retries)")
	fs.DurationVar(&cfg.retryBase, "retry-base", 5*time.Millisecond,
		"backoff before the first retry (doubles per retry, 30%% jitter)")
	fs.StringVar(&cfg.chaos, "chaos", "",
		"fault-injection spec, e.g. dse/evaluate=error:0.1,serve/sse-flush=latency:0.5:20ms (testing only)")
	fs.Int64Var(&cfg.chaosSeed, "chaos-seed", 1,
		"root seed for the -chaos schedule (replays a chaos run exactly)")
	fs.StringVar(&cfg.walDir, "wal-dir", "",
		"directory for the durable-jobs journal (empty = jobs are in-memory only); on startup the journal is replayed: finished jobs become queryable history, interrupted sweeps resume from their last journaled row")
	fs.Float64Var(&cfg.tenantSubmitRate, "tenant-submit-rate", 0,
		"per-tenant sustained job submissions per second (0 = unlimited)")
	fs.IntVar(&cfg.tenantSubmitBurst, "tenant-submit-burst", 1,
		"per-tenant job-submission burst capacity")
	fs.Float64Var(&cfg.tenantEvalRate, "tenant-eval-rate", 0,
		"per-tenant sustained synchronous-evaluation requests per second (0 = unlimited)")
	fs.IntVar(&cfg.tenantEvalBurst, "tenant-eval-burst", 1,
		"per-tenant synchronous-evaluation burst capacity")
	fs.IntVar(&cfg.tenantMaxJobs, "tenant-max-jobs", 0,
		"per-tenant concurrent job cap (0 = the global -max-jobs)")
	fs.IntVar(&cfg.tenantMaxQueue, "tenant-max-queue", 0,
		"per-tenant queued-job cap (0 = no queueing: reject at saturation)")
	fs.StringVar(&cfg.tenantWeights, "tenant-weights", "",
		"per-tenant fair-share weights, e.g. team-a=3,team-b=1 (unlisted tenants weigh 1)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "efficsensed: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return nil, errors.New("unexpected positional arguments")
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(fs.Output(), "efficsensed: %v\n", err)
		fs.Usage()
		return nil, err
	}
	return cfg, nil
}

// validate rejects server-shaping flag values that would silently
// produce a degenerate daemon (zero job slots, instantly evicted jobs,
// un-runnable deadlines, a cache that can hold nothing) instead of
// letting defaulting or runtime behaviour paper over them.
func (cfg *config) validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{cfg.drain > 0, fmt.Sprintf("-drain must be positive, got %s", cfg.drain)},
		{cfg.manager.MaxConcurrentJobs > 0, fmt.Sprintf("-max-jobs must be positive, got %d", cfg.manager.MaxConcurrentJobs)},
		{cfg.manager.JobTTL > 0, fmt.Sprintf("-job-ttl must be positive, got %s", cfg.manager.JobTTL)},
		{cfg.manager.MaxSweepPoints > 0, fmt.Sprintf("-max-points must be positive, got %d", cfg.manager.MaxSweepPoints)},
		{cfg.manager.MaxSearchEvaluations > 0, fmt.Sprintf("-max-search-evals must be positive, got %d", cfg.manager.MaxSearchEvaluations)},
		{cfg.manager.EvalTimeout > 0, fmt.Sprintf("-eval-timeout must be positive, got %s", cfg.manager.EvalTimeout)},
		{cfg.cacheEntries > 0, fmt.Sprintf("-cache-entries must be positive, got %d", cfg.cacheEntries)},
		{cfg.defaults.Workers >= 0, fmt.Sprintf("-workers must be non-negative, got %d", cfg.defaults.Workers)},
		{cfg.retryAttempts >= 0, fmt.Sprintf("-retry must be non-negative, got %d", cfg.retryAttempts)},
		{cfg.retryBase > 0, fmt.Sprintf("-retry-base must be positive, got %s", cfg.retryBase)},
		{cfg.tenantSubmitRate >= 0, fmt.Sprintf("-tenant-submit-rate must be non-negative, got %g", cfg.tenantSubmitRate)},
		{cfg.tenantSubmitBurst > 0, fmt.Sprintf("-tenant-submit-burst must be positive, got %d", cfg.tenantSubmitBurst)},
		{cfg.tenantEvalRate >= 0, fmt.Sprintf("-tenant-eval-rate must be non-negative, got %g", cfg.tenantEvalRate)},
		{cfg.tenantEvalBurst > 0, fmt.Sprintf("-tenant-eval-burst must be positive, got %d", cfg.tenantEvalBurst)},
		{cfg.tenantMaxJobs >= 0, fmt.Sprintf("-tenant-max-jobs must be non-negative, got %d", cfg.tenantMaxJobs)},
		{cfg.tenantMaxQueue >= 0, fmt.Sprintf("-tenant-max-queue must be non-negative, got %d", cfg.tenantMaxQueue)},
	}
	for _, c := range checks {
		if !c.ok {
			return errors.New(c.msg)
		}
	}
	if _, err := scenario.Lookup(cfg.defaults.Scenario); err != nil {
		return fmt.Errorf("-scenario: %w", err)
	}
	if _, err := parseTenantWeights(cfg.tenantWeights); err != nil {
		return fmt.Errorf("-tenant-weights: %w", err)
	}
	if cfg.chaos != "" {
		if _, err := fault.ParseSpec(cfg.chaos, cfg.chaosSeed); err != nil {
			return fmt.Errorf("-chaos: %w", err)
		}
	}
	return nil
}

// parseTenantWeights parses "name=weight,name=weight" into per-tenant
// fair-share weights.
func parseTenantWeights(spec string) (map[string]int, error) {
	out := make(map[string]int)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("entry %q is not name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("tenant %q needs a positive integer weight, got %q", name, val)
		}
		out[name] = w
	}
	return out, nil
}

// tenancy assembles the per-tenant policy from the flags: every tenant
// gets the default limits, tenants named in -tenant-weights override the
// fair-share weight only.
func (cfg *config) tenancy() serve.TenantPolicy {
	def := serve.TenantLimits{
		MaxConcurrentJobs: cfg.tenantMaxJobs,
		MaxQueuedJobs:     cfg.tenantMaxQueue,
		SubmitRate:        cfg.tenantSubmitRate,
		SubmitBurst:       cfg.tenantSubmitBurst,
		EvalRate:          cfg.tenantEvalRate,
		EvalBurst:         cfg.tenantEvalBurst,
	}
	policy := serve.TenantPolicy{Default: def}
	weights, _ := parseTenantWeights(cfg.tenantWeights) // validated at startup
	for name, w := range weights {
		limits := def
		limits.Weight = w
		if policy.Tenants == nil {
			policy.Tenants = make(map[string]serve.TenantLimits)
		}
		policy.Tenants[name] = limits
	}
	return policy
}

// run brings the daemon up and blocks until ctx is cancelled (SIGINT /
// SIGTERM in production), then drains: running sweeps get cfg.drain to
// finish before being cancelled, and the HTTP server closes after the
// job manager so SSE streams flush their terminal events. ready, when
// set, receives the bound public and ops addresses once the listeners
// are up (tests bind ":0"; opsAddr is "" when -ops-addr is unset).
func run(ctx context.Context, cfg *config, ready func(addr, opsAddr string)) error {
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("app", "efficsensed")
	srvLog := logger
	if cfg.quiet {
		srvLog = nil
	}

	if cfg.retryAttempts >= 2 {
		cfg.defaults.Retry = &dse.RetryPolicy{
			MaxAttempts: cfg.retryAttempts,
			BaseDelay:   cfg.retryBase,
			Jitter:      0.3,
		}
	}
	if cfg.chaos != "" {
		if err := fault.EnableSpec(cfg.chaos, cfg.chaosSeed); err != nil {
			return fmt.Errorf("arming -chaos spec: %w", err)
		}
		defer fault.Reset()
		logger.Warn("fault injection ARMED — this daemon will misbehave on purpose",
			"spec", cfg.chaos, "chaos_seed", cfg.chaosSeed)
	}

	engines := serve.NewSuiteEngines(cfg.cacheEntries)
	mcfg := cfg.manager
	mcfg.Defaults = cfg.defaults
	mcfg.Engines = engines.Engine
	mcfg.Cache = engines.Cache()
	mcfg.Log = srvLog
	mcfg.Tenancy = cfg.tenancy()
	var walRecords []wal.Record
	if cfg.walDir != "" {
		walLog, records, err := wal.Open(cfg.walDir)
		if err != nil {
			return fmt.Errorf("opening wal: %w", err)
		}
		mcfg.WAL = walLog // the manager owns it: Shutdown compacts and closes
		walRecords = records
		logger.Info("durable jobs enabled",
			"wal", walLog.Path(), "records", len(records),
			"dropped", walLog.Stats().Dropped)
	}
	mgr, err := serve.NewManager(mcfg)
	if err != nil {
		return err
	}
	if mcfg.WAL != nil {
		if err := mgr.Recover(walRecords); err != nil {
			return fmt.Errorf("replaying wal: %w", err)
		}
		c := mgr.Counters()
		if c.WALReplayedJobs+c.WALResumedJobs > 0 {
			logger.Info("journal replayed",
				"history_jobs", c.WALReplayedJobs,
				"resumed_jobs", c.WALResumedJobs,
				"restored_rows", c.WALReplayedRows)
		}
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", cfg.addr, err)
	}
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"seed", cfg.defaults.Seed,
		"records", cfg.defaults.Records,
		"noise_steps", cfg.defaults.NoiseSteps)

	// The ops listener is separate from the public mux by construction:
	// pprof and expvar never register on the API server.
	var opsSrv *http.Server
	opsAddr := ""
	opsErrc := make(chan error, 1)
	if cfg.opsAddr != "" {
		opsLn, err := net.Listen("tcp", cfg.opsAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("listening on ops address %s: %w", cfg.opsAddr, err)
		}
		opsAddr = opsLn.Addr().String()
		logger.Info("ops listener up", "ops_addr", opsAddr)
		opsSrv = &http.Server{Handler: serve.NewOpsHandler()}
		go func() {
			if err := opsSrv.Serve(opsLn); !errors.Is(err, http.ErrServerClosed) {
				opsErrc <- err
				return
			}
			opsErrc <- nil
		}()
	}
	if ready != nil {
		ready(ln.Addr().String(), opsAddr)
	}

	srv := &http.Server{Handler: serve.NewServer(mgr, srvLog)}
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		if opsSrv != nil {
			_ = opsSrv.Close()
		}
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down: draining sweeps", "grace", cfg.drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	if err := mgr.Shutdown(drainCtx); err != nil {
		logger.Warn("drain deadline hit; running sweeps were cancelled")
	}
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil {
		_ = srv.Close()
	}
	<-errc
	if opsSrv != nil {
		_ = opsSrv.Close()
		<-opsErrc
	}
	logger.Info("bye")
	return nil
}
