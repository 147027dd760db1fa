package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*max(1, math.Abs(b)) }

// The quartile cases are Python's statistics.quantiles(xs, n=4) outputs,
// the definition the benchmark's spread check uses.
func TestMedianAndQuartiles(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		med        float64
		q1, q3     float64
		spreadWant float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25, 1},
		{[]float64{1, 2, 3}, 2, 1, 3, 1},
		{[]float64{5, 1}, 3, 0, 6, 2},
		{[]float64{3, 1, 2, 10, 7}, 3, 1.5, 8.5, 7.0 / 3},
		{[]float64{4, 4, 4, 4}, 4, 4, 4, 0},
		{[]float64{7}, 7, 7, 7, 0},
		{nil, 0, 0, 0, 0},
	} {
		if got := median(tc.xs); !near(got, tc.med) {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.med)
		}
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
		if got := spread(tc.xs); !near(got, tc.spreadWant) {
			t.Errorf("spread(%v) = %g, want %g", tc.xs, got, tc.spreadWant)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1..1000, unsorted
	}
	for _, tc := range []struct {
		xs     []float64
		p      float64
		want   float64
		beyond int
	}{
		{xs, 50, 500.5, 500},
		{xs, 99, 990.01, 10},
		{xs, 99.9, 999.001, 1},
		{xs, 100, 1000, 0},
		{xs, 0, 1, 999},
		{[]float64{2}, 99, 2, 0},
		{nil, 50, 0, 0},
	} {
		if got := percentile(tc.xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(n=%d, %g) = %g, want %g", len(tc.xs), tc.p, got, tc.want)
		}
		if got := beyond(tc.xs, tc.p); got != tc.beyond {
			t.Errorf("beyond(n=%d, %g) = %d, want %d", len(tc.xs), tc.p, got, tc.beyond)
		}
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, cur []float64
		higher    bool
		want      string
	}{
		{"same", []float64{100, 101, 99}, []float64{100, 100, 101}, false, "no worse"},
		{"slower beyond bound", []float64{100, 101, 99}, []float64{120, 121, 119}, false, "regressed"},
		{"slower within bound", []float64{100, 101, 99}, []float64{105, 106, 104}, false, "no worse"},
		{"every run faster", []float64{100, 101, 99}, []float64{80, 81, 79}, false, "better"},
		{"every run faster, by less than the bound", []float64{100, 101, 99}, []float64{95, 96, 94}, false, "no worse"},
		{"throughput down", []float64{100, 101, 99}, []float64{80, 81, 79}, true, "regressed"},
		{"throughput up", []float64{100, 101, 99}, []float64{125, 126, 124}, true, "better"},
		{"too noisy to tell", []float64{60, 100, 140}, []float64{70, 100, 150}, false, "unresolved"},
		{"noisy but every run faster", []float64{60, 100, 140}, []float64{10, 15, 20}, false, "better"},
		{"every run faster, by less than the base spread", []float64{60, 100, 140}, []float64{20, 30, 50}, false, "no worse"},
		{"one run each, slower beyond bound", []float64{100}, []float64{130}, false, "unresolved"},
		{"one run each, faster beyond bound", []float64{100}, []float64{70}, false, "unresolved"},
		{"one run each, within bound", []float64{100}, []float64{108}, false, "no worse"},
	} {
		if got := verdict(tc.base, tc.cur, tc.higher, 0.1); got != tc.want {
			t.Errorf("%s: verdict = %q, want %q", tc.name, got, tc.want)
		}
	}
}
