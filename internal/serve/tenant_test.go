package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
)

// postJSONKey is postJSON with a tenant identity attached.
func postJSONKey(t *testing.T, url, body, apiKey string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TenantHeader, apiKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// retryAfterHeader parses the Retry-After header, failing on anything
// but a positive integer (the honesty contract: a 429/503 must always
// say when to come back).
func retryAfterHeader(t *testing.T, resp *http.Response) int {
	t.Helper()
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	return ra
}

// TestTenantSubmitRateLimit pins the submission token bucket: with a
// burst of one and a near-zero refill rate, the first submission is
// admitted and the second is rejected 429/rate_limited with an honest
// Retry-After, while a different tenant's bucket is untouched.
func TestTenantSubmitRateLimit(t *testing.T) {
	ts, _, _ := newTestServer(t, 0, ManagerConfig{
		Tenancy: TenantPolicy{Default: TenantLimits{SubmitRate: 0.001, SubmitBurst: 1}},
	})

	resp := postJSONKey(t, ts.URL+"/v1/sweeps", smallSweep, "team-a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSONKey(t, ts.URL+"/v1/sweeps", smallSweep, "team-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission: status %d, want 429", resp.StatusCode)
	}
	retryAfterHeader(t, resp)
	if env := decodeErrorEnvelope(t, resp); env.Code != CodeRateLimited {
		t.Fatalf("second submission: code %q, want %q", env.Code, CodeRateLimited)
	}

	// Buckets are per tenant: team-b still has its own token.
	resp = postJSONKey(t, ts.URL+"/v1/sweeps", smallSweep, "team-b")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant's submission: status %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestTenantEvalRateLimit pins the priority lane's bucket: synchronous
// evaluations are shaped by the tenant's evaluate bucket (429 +
// Retry-After beyond it) independently of submissions.
func TestTenantEvalRateLimit(t *testing.T) {
	ts, _, _ := newTestServer(t, 0, ManagerConfig{
		Tenancy: TenantPolicy{Default: TenantLimits{EvalRate: 0.001, EvalBurst: 1}},
	})
	const body = `{"point":{"arch":"baseline","bits":8,"lna_noise":1e-6}}`

	resp := postJSONKey(t, ts.URL+"/v1/evaluate", body, "team-a")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first evaluate: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp = postJSONKey(t, ts.URL+"/v1/evaluate", body, "team-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second evaluate: status %d, want 429", resp.StatusCode)
	}
	retryAfterHeader(t, resp)
	if env := decodeErrorEnvelope(t, resp); env.Code != CodeRateLimited {
		t.Fatalf("second evaluate: code %q, want %q", env.Code, CodeRateLimited)
	}
}

// blockingEval blocks every evaluation until its gate closes — the
// deterministic way to hold job slots occupied while a test probes the
// admission pipeline.
type blockingEval struct {
	gate chan struct{}
}

func (e *blockingEval) Evaluate(p core.DesignPoint) core.Result {
	<-e.gate
	return (&slowEval{}).Evaluate(p)
}

// newShapedServer is newTestServer with a caller-chosen evaluator, for
// tests that need to control evaluation timing.
func newShapedServer(t *testing.T, eval dse.PointEvaluator, cfg ManagerConfig) (*httptest.Server, *Manager) {
	t.Helper()
	store := cache.New(256)
	eng, err := dse.NewSweep(eval,
		dse.WithCache(store), dse.WithWorkers(2), dse.WithEvaluatorID("test-eval"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engines = func(opts experiments.Options) (Engine, error) { return eng, nil }
	cfg.Cache = store
	mgr, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr, nil))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
		ts.Close()
	})
	return ts, mgr
}

// TestTenantQuotaRejectsWithHonestRetryAfter pins the concurrency+queue
// quota: with one global slot and a one-deep queue per tenant, the
// third submission of a tenant is rejected 429/saturated with an honest
// Retry-After — while another tenant can still queue its own first job
// (quota state is per tenant, not global).
func TestTenantQuotaRejectsWithHonestRetryAfter(t *testing.T) {
	eval := &blockingEval{gate: make(chan struct{})}
	released := false
	release := func() {
		if !released {
			released = true
			close(eval.gate)
		}
	}
	defer release()

	ts, mgr := newShapedServer(t, eval, ManagerConfig{
		MaxConcurrentJobs: 1,
		Tenancy:           TenantPolicy{Default: TenantLimits{MaxQueuedJobs: 1}},
	})

	var accepted []string
	for i := 0; i < 2; i++ { // first runs (blocked), second queues
		resp := postJSONKey(t, ts.URL+"/v1/sweeps", smallSweep, "bulk")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
		accepted = append(accepted, decodeStatus(t, resp).ID)
	}

	resp := postJSONKey(t, ts.URL+"/v1/sweeps", smallSweep, "bulk")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission: status %d, want 429", resp.StatusCode)
	}
	retryAfterHeader(t, resp)
	if env := decodeErrorEnvelope(t, resp); env.Code != CodeSaturated {
		t.Fatalf("over-quota submission: code %q, want %q", env.Code, CodeSaturated)
	}

	// Quota state is per tenant: another tenant still queues its first.
	resp = postJSONKey(t, ts.URL+"/v1/sweeps", smallSweep, "other")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant's submission: status %d, want 202", resp.StatusCode)
	}
	accepted = append(accepted, decodeStatus(t, resp).ID)

	// The rejection is visible in the tenant's own accounting.
	found := false
	for _, tc := range mgr.TenantCounters() {
		if tc.Tenant == "bulk" {
			found = true
			if tc.RejectedQuota != 1 || tc.Submitted != 2 {
				t.Fatalf("bulk counters: %+v", tc)
			}
		}
	}
	if !found {
		t.Fatal("tenant \"bulk\" missing from counters")
	}

	release()
	for _, id := range accepted {
		if st := waitTerminal(t, ts.URL, id); st.State != string(StateCompleted) {
			t.Fatalf("job %s: state %q", id, st.State)
		}
	}
}

// TestTenantFairnessShapesTraffic is the fairness acceptance test: two
// bulk tenants each flood more jobs than their per-tenant concurrency
// quota, and while their backlog drains a third tenant's synchronous
// evaluations stay fast (the priority lane never queues behind bulk
// sweeps). The per-tenant running gauge never exceeds the quota, and
// every queued job eventually completes.
func TestTenantFairnessShapesTraffic(t *testing.T) {
	ts, mgr, _ := newTestServer(t, 2*time.Millisecond, ManagerConfig{
		MaxConcurrentJobs: 2,
		Tenancy:           TenantPolicy{Default: TenantLimits{MaxConcurrentJobs: 1, MaxQueuedJobs: 8}},
	})

	const jobsPerTenant = 4
	var ids []string
	for i := 0; i < jobsPerTenant; i++ {
		for _, tenant := range []string{"team-a", "team-b"} {
			resp := postJSONKey(t, ts.URL+"/v1/sweeps", smallSweep, tenant)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%s submission %d: status %d", tenant, i, resp.StatusCode)
			}
			ids = append(ids, decodeStatus(t, resp).ID)
		}
	}

	// The priority lane: synchronous evaluations during the bulk storm.
	// Each is bounded well below the backlog's drain time — they never
	// wait for a job slot.
	const evalBody = `{"point":{"arch":"baseline","bits":8,"lna_noise":1e-6}}`
	done := make(chan struct{})
	var evalErr error
	var evalMu sync.Mutex
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			start := time.Now()
			resp := postJSONKey(t, ts.URL+"/v1/evaluate", evalBody, "interactive")
			lat := time.Since(start)
			code := resp.StatusCode
			resp.Body.Close()
			if code != http.StatusOK || lat > 2*time.Second {
				evalMu.Lock()
				evalErr = fmt.Errorf("evaluate %d: status %d after %s", i, code, lat)
				evalMu.Unlock()
				return
			}
		}
	}()

	// While the backlog drains, no tenant ever exceeds its quota of one
	// running job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		running := 0
		for _, tc := range mgr.TenantCounters() {
			if tc.Tenant == "team-a" || tc.Tenant == "team-b" {
				if tc.Running > 1 {
					t.Fatalf("tenant %s runs %d jobs, quota is 1", tc.Tenant, tc.Running)
				}
				running += tc.Running + tc.Queued
			}
		}
		if running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bulk backlog never drained")
		}
		time.Sleep(2 * time.Millisecond)
	}
	<-done
	evalMu.Lock()
	defer evalMu.Unlock()
	if evalErr != nil {
		t.Fatal(evalErr)
	}

	for _, id := range ids {
		if st := waitTerminal(t, ts.URL, id); st.State != string(StateCompleted) {
			t.Fatalf("job %s: state %q", id, st.State)
		}
	}

	// The shaping is observable: per-tenant series appear in /metrics.
	metrics := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		`efficsense_tenant_jobs_submitted_total{tenant="team-a"} 4`,
		`efficsense_tenant_jobs_submitted_total{tenant="team-b"} 4`,
		`efficsense_tenant_weight{tenant="team-a"} 1`,
		`efficsense_tenant_evaluations_total{tenant="interactive"} 10`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// orderEval records the order design points are evaluated in, keyed by
// their LNANoise value, and blocks points tagged with gateNoise until
// the gate closes.
type orderEval struct {
	mu        sync.Mutex
	order     []float64
	gate      chan struct{}
	gateNoise float64
}

func (e *orderEval) Evaluate(p core.DesignPoint) core.Result {
	if p.LNANoise == e.gateNoise {
		<-e.gate
	}
	e.mu.Lock()
	e.order = append(e.order, p.LNANoise)
	e.mu.Unlock()
	return (&slowEval{}).Evaluate(p)
}

// onePoint is a single-design-point sweep whose point is identified by
// its noise value.
func onePoint(noise float64) SweepRequest {
	return SweepRequest{Space: &SpaceSpec{
		Architectures: []string{"baseline"}, Bits: []int{4}, LNANoise: []float64{noise},
	}}
}

// TestWeightedFairDispatchOrder pins the stride scheduler's exact
// dispatch sequence: with one slot held by a blocker, tenant a (weight
// 2) and tenant b (weight 1) each queue four one-point sweeps; on
// release the backlog drains a b a a b a b b — a receives twice b's
// share while both have work, and the tail is b's leftover.
func TestWeightedFairDispatchOrder(t *testing.T) {
	eval := &orderEval{gate: make(chan struct{}), gateNoise: 99}
	released := false
	release := func() {
		if !released {
			released = true
			close(eval.gate)
		}
	}
	defer release()

	_, mgr := newShapedServer(t, eval, ManagerConfig{
		MaxConcurrentJobs: 1,
		Tenancy: TenantPolicy{
			Default: TenantLimits{MaxQueuedJobs: 1},
			Tenants: map[string]TenantLimits{
				"a": {Weight: 2, MaxQueuedJobs: 10},
				"b": {Weight: 1, MaxQueuedJobs: 10},
			},
		},
	})
	ctx := context.Background()

	blocker, err := mgr.Submit(WithTenant(ctx, "z"), onePoint(99))
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*Job
	// Interleaved submission order; dispatch order is the scheduler's.
	for i := 0; i < 4; i++ {
		ja, err := mgr.Submit(WithTenant(ctx, "a"), onePoint(float64(11+i)))
		if err != nil {
			t.Fatalf("a submission %d: %v", i, err)
		}
		jb, err := mgr.Submit(WithTenant(ctx, "b"), onePoint(float64(21+i)))
		if err != nil {
			t.Fatalf("b submission %d: %v", i, err)
		}
		jobs = append(jobs, ja, jb)
	}

	release()
	deadline := time.Now().Add(10 * time.Second)
	for _, j := range append(jobs, blocker) {
		for !j.State().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", j.ID)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	eval.mu.Lock()
	var got []float64
	for _, n := range eval.order {
		if n != eval.gateNoise {
			got = append(got, n)
		}
	}
	eval.mu.Unlock()
	want := []float64{11, 21, 12, 13, 22, 14, 23, 24} // a b a a b a b b
	if len(got) != len(want) {
		t.Fatalf("evaluated %d points, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v (weight-2 tenant gets twice the share)", got, want)
		}
	}
}

// TestShutdownStopsEvictionTimers pins satellite 1's fix: every
// finished job arms a TTL-eviction timer, and Shutdown stops and drops
// them all — a drained manager leaks no timers into its embedder, and
// the finished jobs stay queryable (no eviction fires post-drain).
func TestShutdownStopsEvictionTimers(t *testing.T) {
	ts, mgr, _ := newTestServer(t, 0, ManagerConfig{JobTTL: time.Hour})

	resp := postJSON(t, ts.URL+"/v1/sweeps", smallSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	id := decodeStatus(t, resp).ID
	waitTerminal(t, ts.URL, id)

	// The job turns terminal before its goroutine arms the timer, so
	// wait for the timer rather than read the count once.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mgr.mu.Lock()
		armed := len(mgr.timers)
		mgr.mu.Unlock()
		if armed == 1 {
			break
		}
		if armed > 1 || time.Now().After(deadline) {
			t.Fatalf("%d eviction timers armed after one finished job, want 1", armed)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	mgr.mu.Lock()
	leaked := len(mgr.timers)
	mgr.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d eviction timers still armed after Shutdown, want 0", leaked)
	}
	if _, err := mgr.Job(id); err != nil {
		t.Fatalf("finished job evicted after Shutdown: %v", err)
	}
}
