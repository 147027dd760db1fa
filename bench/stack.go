package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"efficsense/internal/experiments"
	"efficsense/internal/serve"
)

// clients is the closed-loop client count and the keep-alive connection
// count: one per core of the 2-core machine the benchmark is sized for.
const clients = 2

// stack is the production serving stack on a loopback listener, without
// logging, tenancy, a WAL or a cluster: what efficsensed runs by default.
type stack struct {
	se     *serve.SuiteEngines
	mgr    *serve.Manager
	h      *serve.Server
	srv    *http.Server
	base   string
	client *http.Client
	served chan struct{} // closed when the server goroutine has returned
}

func startStack(opts experiments.Options) (*stack, error) {
	se := serve.NewSuiteEngines(0)
	mgr, err := serve.NewManager(serve.ManagerConfig{Defaults: opts, Engines: se.Engine, Cache: se.Cache()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = mgr.Shutdown(context.Background())
		return nil, err
	}
	h := serve.NewServer(mgr, nil)
	s := &stack{
		se:   se,
		mgr:  mgr,
		h:    h,
		srv:  &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		// The timeout bounds a hung server; the longest exchange, a
		// search's event stream, lasts a few seconds.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: time.Minute},
		served: make(chan struct{}),
	}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
	}()
	return s, nil
}

// stop shuts the server and the manager down and waits for both. It runs
// after a stack's measurements; a drain that overruns its deadline cannot
// change them, so the shutdown errors are dropped.
func (s *stack) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	_ = s.srv.Shutdown(ctx)
	<-s.served
	_ = s.mgr.Shutdown(ctx)
}

func (s *stack) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (s *stack) get(path string) (int, []byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// primeBody evaluates a point outside every searched or swept space, so
// the first request builds the suite without warming any measured point.
var primeBody = []byte(`{"point":{"arch":"baseline","bits":4,"lna_noise":1e-6}}`)

// startPrimed starts a stack and sends the priming request; the time
// from start to the priming reply is the HTTP workloads' set-up time.
func startPrimed(opts experiments.Options) (*stack, float64, error) {
	start := time.Now()
	s, err := startStack(opts)
	if err != nil {
		return nil, 0, err
	}
	code, body, err := s.post("/v1/evaluate", primeBody)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("priming request: HTTP %d: %s", code, body)
	}
	if err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start).Seconds(), nil
}
