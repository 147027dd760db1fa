package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
)

// captureStdout redirects os.Stdout for the duration of f.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	// Drain while f writes, so output beyond the pipe buffer cannot block.
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	errRun := f()
	w.Close()
	b := <-out
	r.Close()
	return string(b), errRun
}

func TestCmdTables(t *testing.T) {
	out, err := captureStdout(t, func() error { return cmdTables(nil) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table II", "Table III", "LNA", "Transmitter",
		"537.6 Hz", "1fF", "1nJ", "25.27mV"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tables output missing %q", want)
		}
	}
}

func TestCmdPointRejectsUnknownArch(t *testing.T) {
	if err := cmdPoint([]string{"-arch", "martian"}); err == nil {
		t.Fatal("unknown architecture should error")
	}
}

func TestCmdRefineRejectsUnknownArch(t *testing.T) {
	if err := cmdRefine([]string{"-arch", "martian"}); err == nil {
		t.Fatal("unknown architecture should error")
	}
}

func TestCmdSuiteRequiresCSVForSweep(t *testing.T) {
	if err := cmdSuite("sweep", nil); err == nil {
		t.Fatal("sweep without -csv should error")
	}
}

func TestCmdSuiteFromRejectsSweepAndAll(t *testing.T) {
	// Build a tiny sweep CSV in-memory via a temp file.
	f, err := os.CreateTemp(t.TempDir(), "sweep*.csv")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("arch,bits,noise_vrms,m,chold_f,snr_db,accuracy,total_w,area_caps\n" +
		"baseline,8,2e-06,0,0,18,1,8.3e-06,257\n" +
		"cs,8,6e-06,150,8e-14,5.5,0.99,2.7e-06,12266\n")
	f.Close()
	for _, cmd := range []string{"sweep", "all"} {
		if err := cmdSuite(cmd, []string{"-from", f.Name(), "-csv", "/dev/null"}); err == nil {
			t.Fatalf("%s with -from should error", cmd)
		}
	}
	// fig7b from the same file renders the optima.
	out, err := captureStdout(t, func() error {
		return cmdSuite("fig7b", []string{"-from", f.Name()})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cs optimum") || !strings.Contains(out, "power saving") {
		t.Fatalf("fig7b -from output incomplete:\n%s", out)
	}
}

func TestSuiteFlagsReachOptions(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	opts := suiteFlags(fs)
	err := fs.Parse([]string{
		"-seed", "9", "-records", "7", "-train-records", "21",
		"-noise-steps", "3", "-workers", "5", "-epochs", "11",
		"-min-accuracy", "0.9",
	})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Seed != 9 || opts.Records != 7 || opts.TrainRecords != 21 ||
		opts.NoiseSteps != 3 || opts.Workers != 5 || opts.Epochs != 11 ||
		opts.MinAccuracy != 0.9 {
		t.Fatalf("parsed options %+v", *opts)
	}
}

// TestProgressAndTraceReachOptions pins the -progress/-trace plumbing:
// newSuite must install the sweep hook in experiments.Options before the
// suite is built, or the engine runs unobserved, and the hook must write
// into the trace file the closer flushes.
func TestProgressAndTraceReachOptions(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	opts := &experiments.Options{Seed: 1}
	suite, closer, err := newSuite(opts, false, tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if suite == nil {
		t.Fatal("no suite")
	}
	if opts.OnEvent == nil {
		t.Fatal("minimal mode left Options.OnEvent nil")
	}
	p := core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: 2e-6}
	opts.OnEvent(dse.Event{Index: 0, Point: p, Result: core.Result{Point: p}, Done: 1, Total: 1})
	if err := closer(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"point":"baseline N=8 vn=2µV"`) {
		t.Fatalf("trace file content %q", data)
	}

	// Rich mode installs the hook too; no trace path leaves the closer a
	// no-op.
	opts2 := &experiments.Options{Seed: 1}
	if _, closer2, err := newSuite(opts2, true, ""); err != nil {
		t.Fatal(err)
	} else if err := closer2(); err != nil {
		t.Fatal(err)
	}
	if opts2.OnEvent == nil {
		t.Fatal("rich mode left Options.OnEvent nil")
	}
}

// traceEvents are a sound point, a cached one and a degraded one whose
// error needs JSON escaping.
func traceEvents() []dse.Event {
	cs := core.DesignPoint{Arch: core.ArchCS, Bits: 8, LNANoise: 2e-6, M: 150, CHold: 80e-15}
	base := core.DesignPoint{Arch: core.ArchBaseline, Bits: 6, LNANoise: 1.5e-6}
	return []dse.Event{
		{Index: 3, Point: cs, Result: core.Result{Point: cs, TotalPower: 2.4e-6},
			Duration: 12345678 * time.Nanosecond, Done: 4, Total: 12},
		{Index: 0, Point: base, Result: core.Result{Point: base}, Cached: true, Done: 5, Total: 12},
		{Index: 11, Point: cs, Result: core.Result{Point: cs, Err: errors.New(`dse: evaluating cs panicked: "boom" <&>`)},
			Duration: time.Nanosecond, Done: 12, Total: 12},
	}
}

// traceReferee is the -trace file for traceEvents, byte for byte. Tools
// read these files, so their bytes are pinned.
const traceReferee = "{\"index\":3,\"point\":\"cs N=8 vn=2µV M=150 Ch=80fF\",\"cached\":false,\"duration_ms\":12.345678,\"done\":4,\"total\":12}\n" +
	"{\"index\":0,\"point\":\"baseline N=6 vn=1.5µV\",\"cached\":true,\"duration_ms\":0,\"done\":5,\"total\":12}\n" +
	"{\"index\":11,\"point\":\"cs N=8 vn=2µV M=150 Ch=80fF\",\"cached\":false,\"duration_ms\":0.000001,\"done\":12,\"total\":12,\"err\":\"dse: evaluating cs panicked: \\\"boom\\\" \\u003c\\u0026\\u003e\"}\n"

// panicOn77 is a sweep evaluator whose M = 77 point panics.
type panicOn77 struct{}

func (panicOn77) Evaluate(p core.DesignPoint) core.Result {
	if p.M == 77 {
		panic("injected failure")
	}
	return core.Result{Point: p, TotalPower: 1e-6}
}

// TestTraceSinkEmitsOneJSONLinePerPoint pins the -trace file: the sweep
// hook writes exactly traceReferee for traceEvents, and over real engine
// runs one JSON line per completed point — cached and degraded points
// included.
func TestTraceSinkEmitsOneJSONLinePerPoint(t *testing.T) {
	var buf bytes.Buffer
	hook := sweepHook(io.Discard, false, nil, &buf)
	for _, ev := range traceEvents() {
		hook(ev)
	}
	if got := buf.String(); got != traceReferee {
		t.Fatalf("trace bytes\n%q\nwant\n%q", got, traceReferee)
	}

	buf.Reset()
	s, err := dse.NewSweep(panicOn77{}, dse.WithWorkers(4), dse.WithCache(cache.New(0)))
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]core.DesignPoint, 12)
	for i := range pts {
		pts[i] = core.DesignPoint{Arch: core.ArchCS, Bits: 6 + i%3, LNANoise: float64(i+1) * 1e-6, M: 75 + i}
	}
	for run := 0; run < 2; run++ { // the second run: cached points and a retried panic
		if _, err := s.RunWithHook(context.Background(), pts, sweepHook(io.Discard, false, nil, &buf)); err != nil {
			t.Fatal(err)
		}
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2*len(pts) {
		t.Fatalf("trace lines %d, want %d", len(lines), 2*len(pts))
	}
	var cached, errored int
	for _, ln := range lines {
		var tl traceLine
		if err := json.Unmarshal(ln, &tl); err != nil {
			t.Fatalf("bad trace line %q: %v", ln, err)
		}
		if tl.Point == "" || tl.Total != len(pts) || tl.Done < 1 || tl.Done > len(pts) {
			t.Fatalf("malformed trace line: %+v", tl)
		}
		if tl.Cached {
			cached++
		}
		if tl.Err != "" {
			errored++
		}
	}
	if cached != len(pts)-1 {
		t.Fatalf("cached trace lines %d, want %d", cached, len(pts)-1)
	}
	if errored != 2 {
		t.Fatalf("errored trace lines %d, want 2 (one per run)", errored)
	}
}

// TestSweepHookRichProgress checks the rich progress line: the run's
// own rate and ETA (nothing measurable at the first event, which starts
// the clock), the engine's mean time and cache hits, and a newline once
// the run is done.
func TestSweepHookRichProgress(t *testing.T) {
	var out bytes.Buffer
	metrics := func() dse.Snapshot { return dse.Snapshot{CacheHits: 2, MeanEval: 40 * time.Millisecond} }
	hook := sweepHook(&out, true, metrics, nil)
	hook(dse.Event{Done: 1, Total: 3})
	if got, want := out.String(), "\rsweep 1/3  0.0 pt/s  40ms/pt  2 cached  eta 0s   "; got != want {
		t.Fatalf("first line %q, want %q", got, want)
	}
	time.Sleep(2 * time.Millisecond)
	hook(dse.Event{Done: 2, Total: 3})
	hook(dse.Event{Done: 3, Total: 3})
	lines := strings.Split(out.String(), "\r")
	if second := lines[2]; strings.Contains(second, " 0.0 pt/s") || !strings.HasPrefix(second, "sweep 2/3  ") {
		t.Fatalf("second line %q: want a measured rate", second)
	}
	if last := lines[3]; !strings.HasPrefix(last, "sweep 3/3  ") || !strings.HasSuffix(last, "eta 0s   \n") {
		t.Fatalf("last line %q", last)
	}
}

func TestNewSuiteBadTracePath(t *testing.T) {
	opts := &experiments.Options{}
	if _, _, err := newSuite(opts, false, filepath.Join(t.TempDir(), "no", "such", "dir", "t.jsonl")); err == nil {
		t.Fatal("unwritable trace path should error")
	}
}

func TestCmdSuiteBadCapsFlag(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "sweep*.csv")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("arch,bits,noise_vrms,m,chold_f,snr_db,accuracy,total_w,area_caps\n" +
		"baseline,8,2e-06,0,0,18,1,8.3e-06,257\n")
	f.Close()
	if err := cmdSuite("fig10", []string{"-from", f.Name(), "-caps", "10,abc"}); err == nil {
		t.Fatal("malformed -caps should error")
	}
}

func TestCmdSearchRequiresQuery(t *testing.T) {
	if err := cmdSearch(nil); err == nil || !strings.Contains(err.Error(), "-q") {
		t.Fatalf("search without -q should point at the flag, got %v", err)
	}
}

func TestCmdSearchRejectsBadQuery(t *testing.T) {
	if err := cmdSearch([]string{"-q", "best-snr"}); err == nil ||
		!strings.Contains(err.Error(), "unknown goal") {
		t.Fatalf("malformed query should fail parsing, got %v", err)
	}
}

// TestCmdSearchEndToEnd runs a tiny but real search — the full
// synthesize/train/evaluate pipeline at minimal record counts — and
// checks the rendered front, the answer line and the CSV sink.
func TestCmdSearchEndToEnd(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "front.csv")
	out, err := captureStdout(t, func() error {
		return cmdSearch([]string{"-q", "max-snr", "-budget", "24",
			"-records", "2", "-train-records", "24", "-epochs", "20",
			"-noise-steps", "4", "-csv", csvPath})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"search max-snr:", "front:", "answer:", "power breakdown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("search output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines < 2 {
		t.Fatalf("front CSV has %d lines:\n%s", lines, data)
	}
}
