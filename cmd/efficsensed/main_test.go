package main

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"efficsense/internal/dsp"
	"efficsense/internal/serve"
)

func TestParseFlagsDefaultsAndOverrides(t *testing.T) {
	cfg, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8080" || cfg.drain != 30*time.Second || cfg.quiet {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.defaults.Records != 40 || cfg.defaults.MinAccuracy != 0.98 {
		t.Fatalf("suite defaults: %+v", cfg.defaults)
	}
	if cfg.manager.MaxConcurrentJobs != 2 || cfg.manager.JobTTL != 15*time.Minute {
		t.Fatalf("manager defaults: %+v", cfg.manager)
	}
	if cfg.manager.MaxSearchEvaluations != 20000 {
		t.Fatalf("search budget default: got %d, want 20000", cfg.manager.MaxSearchEvaluations)
	}
	if cfg.cacheEntries != serve.DefaultCacheEntries {
		t.Fatalf("cache default: got %d, want %d", cfg.cacheEntries, serve.DefaultCacheEntries)
	}

	cfg, err = parseFlags([]string{
		"-addr", "127.0.0.1:0", "-quiet", "-drain", "5s",
		"-seed", "3", "-records", "9", "-min-accuracy", "0.5",
		"-max-jobs", "4", "-job-ttl", "1m", "-max-points", "50", "-eval-timeout", "10s",
		"-cache-entries", "512",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "127.0.0.1:0" || !cfg.quiet || cfg.drain != 5*time.Second {
		t.Fatalf("overrides: %+v", cfg)
	}
	if cfg.defaults.Seed != 3 || cfg.defaults.Records != 9 || cfg.defaults.MinAccuracy != 0.5 {
		t.Fatalf("suite overrides: %+v", cfg.defaults)
	}
	if cfg.manager.MaxConcurrentJobs != 4 || cfg.manager.JobTTL != time.Minute ||
		cfg.manager.MaxSweepPoints != 50 || cfg.manager.EvalTimeout != 10*time.Second {
		t.Fatalf("manager overrides: %+v", cfg.manager)
	}
	if cfg.cacheEntries != 512 {
		t.Fatalf("cache override: got %d, want 512", cfg.cacheEntries)
	}
}

// TestParseFlagsRejectsDegenerateValues checks the validation sweep:
// server-shaping flags that would yield a daemon that accepts no work,
// forgets jobs instantly, or caches nothing must fail parse, not limp.
func TestParseFlagsRejectsDegenerateValues(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero max-jobs", []string{"-max-jobs", "0"}, "-max-jobs"},
		{"negative max-jobs", []string{"-max-jobs", "-1"}, "-max-jobs"},
		{"zero job-ttl", []string{"-job-ttl", "0s"}, "-job-ttl"},
		{"negative job-ttl", []string{"-job-ttl", "-1m"}, "-job-ttl"},
		{"zero eval-timeout", []string{"-eval-timeout", "0s"}, "-eval-timeout"},
		{"negative drain", []string{"-drain", "-5s"}, "-drain"},
		{"zero drain", []string{"-drain", "0s"}, "-drain"},
		{"zero max-points", []string{"-max-points", "0"}, "-max-points"},
		{"zero max-search-evals", []string{"-max-search-evals", "0"}, "-max-search-evals"},
		{"negative max-search-evals", []string{"-max-search-evals", "-5"}, "-max-search-evals"},
		{"zero cache-entries", []string{"-cache-entries", "0"}, "-cache-entries"},
		{"negative cache-entries", []string{"-cache-entries", "-8"}, "-cache-entries"},
		{"negative workers", []string{"-workers", "-1"}, "-workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args)
			if err == nil {
				t.Fatalf("parseFlags(%v) accepted a degenerate value", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offending flag %q", err, tc.want)
			}
		})
	}
}

func TestParseFlagsRejectsJunk(t *testing.T) {
	if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag should error")
	}
	if _, err := parseFlags([]string{"positional"}); err == nil {
		t.Fatal("positional arguments should error")
	}
}

// TestDaemonServesAndShutsDown boots the daemon on an ephemeral port,
// exercises the endpoints that need no trained suite, and checks the
// signal-driven shutdown path returns cleanly.
func TestDaemonServesAndShutsDown(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "127.0.0.1:0", "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, cfg, func(addr, opsAddr string) {
			if opsAddr != "" {
				t.Errorf("ops listener started without -ops-addr: %q", opsAddr)
			}
			addrc <- addr
		})
	}()
	var base string
	select {
	case addr := <-addrc:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never came up")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz %d %q", resp.StatusCode, h.Status)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	resp.Body.Close()
	if !strings.Contains(string(buf[:n]), "efficsense_uptime_seconds") {
		t.Fatalf("metrics exposition missing uptime gauge:\n%s", buf[:n])
	}

	// A malformed sweep is rejected without touching a suite.
	resp, err = http.Post(base+"/v1/sweeps", "application/json",
		strings.NewReader(`{"space":{"architectures":["warp"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad sweep status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never shut down")
	}
}

// TestOpsListenerServesPprofPrivately boots the daemon with -ops-addr
// and checks the debug surface lives only on the private listener: the
// ops address serves /debug/pprof/, /debug/vars and /debug/build, and
// the public API address 404s all of them.
func TestOpsListenerServesPprofPrivately(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0", "-ops-addr", "127.0.0.1:0", "-quiet",
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	type addrs struct{ api, ops string }
	addrc := make(chan addrs, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, cfg, func(addr, opsAddr string) { addrc <- addrs{addr, opsAddr} })
	}()
	var a addrs
	select {
	case a = <-addrc:
	case err := <-done:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never came up")
	}
	if a.ops == "" {
		t.Fatal("ops listener did not start despite -ops-addr")
	}

	get := func(base, path string) int {
		t.Helper()
		resp, err := http.Get("http://" + base + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", base, path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/debug/build"} {
		if code := get(a.ops, path); code != http.StatusOK {
			t.Errorf("ops %s: got %d, want 200", path, code)
		}
		if code := get(a.api, path); code != http.StatusNotFound {
			t.Errorf("public %s: got %d, want 404 (debug surface leaked)", path, code)
		}
	}

	resp, err := http.Get("http://" + a.ops + "/debug/build")
	if err != nil {
		t.Fatal(err)
	}
	var bi struct {
		GoVersion string `json:"go_version"`
		Kernels   string `json:"kernels"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&bi); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.HasPrefix(bi.GoVersion, "go") {
		t.Fatalf("build info go_version %q", bi.GoVersion)
	}
	if bi.Kernels != dsp.Kernels() {
		t.Fatalf("build info kernels %q, want %q", bi.Kernels, dsp.Kernels())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never shut down")
	}
}
