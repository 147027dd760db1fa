package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
// newSuite must install a progress sink and route the trace path into
// experiments.Options before the suite is built, or the engine silently
// runs untraced.
func TestProgressAndTraceReachOptions(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	opts := &experiments.Options{Seed: 1}
	suite, closer, err := newSuite(opts, true, tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if suite == nil {
		t.Fatal("no suite")
	}
	if opts.Progress == nil {
		t.Fatal("rich mode left Options.Progress nil")
	}
	if opts.Trace == nil {
		t.Fatal("-trace did not reach Options.Trace")
	}
	if _, err := opts.Trace.Write([]byte("{\"probe\":true}\n")); err != nil {
		t.Fatalf("trace sink not writable: %v", err)
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"probe":true`) {
		t.Fatalf("trace file content %q", data)
	}

	// Minimal mode still reports progress; no trace path leaves Trace nil
	// and the closer a no-op.
	opts2 := &experiments.Options{Seed: 1}
	if _, closer2, err := newSuite(opts2, false, ""); err != nil {
		t.Fatal(err)
	} else if err := closer2(); err != nil {
		t.Fatal(err)
	}
	if opts2.Progress == nil {
		t.Fatal("minimal mode left Options.Progress nil")
	}
	if opts2.Trace != nil {
		t.Fatal("Options.Trace set without -trace")
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
