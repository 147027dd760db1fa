package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		hits := make([]atomic.Int32, n)
		For(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForSerialWithOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var order []int
	For(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("one worker ran %v, want ascending order", order)
		}
	}
}

func TestForReraisesPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the worker's panic value", r)
		}
	}()
	For(64, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
	t.Fatal("For returned normally after a worker panicked")
}
