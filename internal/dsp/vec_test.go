package dsp

import (
	"math"
	"testing"
)

func TestKthLargest(t *testing.T) {
	cases := []struct {
		v    []float64
		k    int
		want float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 1, 5},
		{[]float64{5, 1, 4, 2, 3}, 3, 3},
		{[]float64{5, 1, 4, 2, 3}, 5, 1},
		{[]float64{7, 7, 7}, 2, 7},
	}
	for _, c := range cases {
		cp := append([]float64(nil), c.v...)
		if got := KthLargest(cp, c.k); got != c.want {
			t.Errorf("KthLargest(%v, %d) = %g, want %g", c.v, c.k, got, c.want)
		}
	}
	if got := KthLargest([]float64{1, 2}, 0); !math.IsInf(got, 1) {
		t.Errorf("k=0 should give +Inf, got %g", got)
	}
	if got := KthLargest([]float64{1, 2}, 3); !math.IsInf(got, -1) {
		t.Errorf("k>len should give -Inf, got %g", got)
	}
}
