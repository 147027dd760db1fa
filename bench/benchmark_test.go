package main

import (
	"regexp"
	"strconv"
	"testing"
)

// TestBenchmarkDeclaration checks BENCHMARK.json against the program: the
// workloads it names exist, and its metrics are exactly the ones the
// program reports, with the same units, each with a direction and the
// end-to-end ones with a bound.
func TestBenchmarkDeclaration(t *testing.T) {
	b, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]*", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if _, ok := lookupWorkload(w.Name); !ok || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}

	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program reports %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unit.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %d is %s [%s], the program reports %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if b.EndToEnd[0].Name != "setup_s" || b.EndToEnd[0].Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s, lower is better")
	}
	for _, m := range b.EndToEnd {
		if m.Bound > b.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the program reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unit.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d is %s [%s], the program reports %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}

	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the program measures %d s by default", b.RunSeconds, runSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
}

// TestGoldenCoversEveryWorkload requires a digest for seeds 1 and 2 of
// every workload.
func TestGoldenCoversEveryWorkload(t *testing.T) {
	g, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	hex := regexp.MustCompile(`^[0-9a-f]{64}$`)
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			if d := g[w.name][strconv.FormatInt(seed, 10)]; !hex.MatchString(d) {
				t.Errorf("golden.json has no SHA-256 digest for %s seed %d", w.name, seed)
			}
		}
	}
}
