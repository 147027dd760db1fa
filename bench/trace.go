package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one operation (a sweep, a
// request, a search) share a trace ID; Parent is the span that made the
// call (0 for an operation's root). The name is an index into the
// tracer's name table, so the span log holds no pointers and the garbage
// collector never scans it — a traced closed loop logs hundreds of
// thousands of spans.
type span struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64
	name    uint32
	StartNS int64
	EndNS   int64
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps every span in memory; they are written out once, when the
// run ends, so recording costs an append and no I/O.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	namesMu sync.RWMutex
	names   []string
	nameIDs map[string]uint32

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), nameIDs: map[string]uint32{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newTrace returns a fresh trace ID for one operation.
func (t *tracer) newTrace() uint64 { return t.ids.Add(1) }

// intern returns name's index in the name table, adding it on first use.
func (t *tracer) intern(name string) uint32 {
	t.namesMu.RLock()
	id, ok := t.nameIDs[name]
	t.namesMu.RUnlock()
	if ok {
		return id
	}
	t.namesMu.Lock()
	defer t.namesMu.Unlock()
	if id, ok := t.nameIDs[name]; ok {
		return id
	}
	id = uint32(len(t.names))
	t.names = append(t.names, name)
	t.nameIDs[name] = id
	return id
}

// span opens a span named name at start; close it with end.
func (t *tracer) span(trace, parent uint64, name string, start int64) span {
	return span{TraceID: trace, SpanID: t.ids.Add(1), Parent: parent, name: t.intern(name), StartNS: start}
}

// start opens a span now; close it with end.
func (t *tracer) start(trace, parent uint64, name string) span {
	return t.span(trace, parent, name, t.now())
}

// end closes s at the current time and keeps it.
func (t *tracer) end(s span) span {
	s.EndNS = t.now()
	t.add(s)
	return s
}

func (t *tracer) add(s ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// sums returns the total duration of the spans of each name, in
// nanoseconds.
func (t *tracer) sums() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := map[string]float64{}
	for _, s := range t.spans {
		ns[t.nameOf(s)] += float64(s.dur())
	}
	return ns
}

// seconds returns the duration of every span called name, in seconds.
func (t *tracer) seconds(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if t.nameOf(s) == name {
			out = append(out, float64(s.dur())/1e9)
		}
	}
	return out
}

func (t *tracer) nameOf(s span) string {
	t.namesMu.RLock()
	defer t.namesMu.RUnlock()
	return t.names[s.name]
}

// spanJSON is a span as written to bench/out/trace-<workload>.json.
type spanJSON struct {
	TraceID uint64 `json:"trace_id"`
	SpanID  uint64 `json:"span_id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// write flushes every span to path as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	out := make([]spanJSON, len(t.spans))
	for i, s := range t.spans {
		out[i] = spanJSON{s.TraceID, s.SpanID, s.Parent, t.nameOf(s), s.StartNS, s.EndNS}
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Spans    []spanJSON `json:"spans"`
	}{workload, seed, out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
