package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestPaperAccept regenerates the canonical reproduction and compares it
// byte for byte with the committed results/:
//
//	efficsense all -records 120 -noise-steps 8 -seed 1 -csv F
//	    → results/all_records120.txt (stdout) and results/sweep.csv (F)
//	efficsense sweep -scenario ecg-telemonitoring -records 120 \
//	    -noise-steps 8 -seed 1 -csv F
//	    → results/sweep_ecg.csv (F)
//	efficsense variants -records 120 -seed 1
//	    → results/variants_records120.txt
//
// A change that moves any printed figure or any sweep value fails here.
// A deliberate change regenerates the files with these commands and says
// so. The run takes about 30 s, so -short and -race builds skip it;
// `make paper-accept` runs it in the default and the purego build.
func TestPaperAccept(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full-scale reproduction")
	}
	if raceEnabled {
		t.Skip("the full-scale reproduction is too slow under the race detector")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("results/ was generated with the amd64 math kernels")
	}
	results := filepath.Join("..", "..", "results")
	dir := t.TempDir()
	csv, ecg := filepath.Join(dir, "sweep.csv"), filepath.Join(dir, "sweep_ecg.csv")
	for _, c := range []struct {
		want string // the committed file stdout must equal; "" for none
		run  func() error
	}{
		{"all_records120.txt", func() error {
			return cmdSuite("all", []string{"-records", "120", "-noise-steps", "8", "-seed", "1", "-csv", csv})
		}},
		{"", func() error {
			return cmdSuite("sweep", []string{"-scenario", "ecg-telemonitoring",
				"-records", "120", "-noise-steps", "8", "-seed", "1", "-csv", ecg})
		}},
		{"variants_records120.txt", func() error {
			return cmdVariants([]string{"-records", "120", "-seed", "1"})
		}},
	} {
		out, err := captureStdout(t, c.run)
		if err != nil {
			t.Fatalf("%s: %v", c.want, err)
		}
		if c.want != "" {
			requireSameBytes(t, filepath.Join(results, c.want), []byte(out))
		}
	}
	for _, f := range []string{csv, ecg} {
		got, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBytes(t, filepath.Join(results, filepath.Base(f)), got)
	}
}

// requireSameBytes fails unless got equals the file at path, naming the
// first differing line.
func requireSameBytes(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
		}
	}
}
