package fault

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestDisarmedFireIsNil(t *testing.T) {
	t.Cleanup(Reset)
	if err := Fire("anything"); err != nil {
		t.Fatalf("disarmed Fire returned %v", err)
	}
	if Armed() {
		t.Fatal("registry reports armed with no points enabled")
	}
}

func TestErrorInjectionWrapsSentinel(t *testing.T) {
	t.Cleanup(Reset)
	if err := Enable("x", Config{Kind: KindError, Probability: 1}); err != nil {
		t.Fatal(err)
	}
	err := Fire("x")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if !strings.Contains(err.Error(), "x") {
		t.Fatalf("injected error should name the point: %v", err)
	}
	// An armed registry leaves other points alone.
	if err := Fire("y"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestPanicInjection(t *testing.T) {
	t.Cleanup(Reset)
	if err := Enable("boom", Config{Kind: KindPanic, Probability: 1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic injection did not panic")
		}
	}()
	_ = Fire("boom")
}

func TestMaxInjectionsBoundsTheSchedule(t *testing.T) {
	t.Cleanup(Reset)
	if err := Enable("k", Config{Kind: KindError, Probability: 1, MaxInjections: 3}); err != nil {
		t.Fatal(err)
	}
	injected := 0
	for i := 0; i < 10; i++ {
		if Fire("k") != nil {
			injected++
		}
	}
	if injected != 3 {
		t.Fatalf("injected %d faults, scheduled exactly 3", injected)
	}
	if got := Injected("k"); got != 3 {
		t.Fatalf("Injected reports %d, want 3", got)
	}
}

// TestInjectionCountIsSeedDeterministic is the property the chaos suite
// rests on: for a fixed seed and call count, the number of injections is
// identical across runs — even when the calls race.
func TestInjectionCountIsSeedDeterministic(t *testing.T) {
	t.Cleanup(Reset)
	const calls, workers = 400, 8
	count := func(seed int64) int64 {
		Reset()
		if err := Enable("det", Config{Kind: KindError, Probability: 0.3, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls/workers; i++ {
					_ = Fire("det")
				}
			}()
		}
		wg.Wait()
		return Injected("det")
	}
	first := count(42)
	if first == 0 || first == calls {
		t.Fatalf("probability 0.3 over %d calls injected %d — degenerate draw", calls, first)
	}
	for i := 0; i < 3; i++ {
		if again := count(42); again != first {
			t.Fatalf("same seed, different injection count: %d then %d", first, again)
		}
	}
	if other := count(43); other == first {
		t.Logf("note: seeds 42 and 43 drew equal counts (%d) — possible but unusual", other)
	}
}

func TestEnableValidates(t *testing.T) {
	t.Cleanup(Reset)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"", Config{Kind: KindError, Probability: 1}},
		{"p", Config{Kind: KindError, Probability: -0.1}},
		{"p", Config{Kind: KindError, Probability: 1.1}},
		{"p", Config{Kind: KindError, Probability: 1, MaxInjections: -1}},
	}
	for _, c := range cases {
		if err := Enable(c.name, c.cfg); err == nil {
			t.Errorf("Enable(%q, %+v) accepted an invalid config", c.name, c.cfg)
		}
	}
	if Armed() {
		t.Fatal("rejected configs must not arm the registry")
	}
}

// BenchmarkFireDisarmed pins the tentpole's zero-overhead claim: a
// disarmed failpoint in a hot loop is one atomic load.
func BenchmarkFireDisarmed(b *testing.B) {
	Reset()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Fire(PointEvaluate); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFireArmedMiss(b *testing.B) {
	b.Cleanup(Reset)
	if err := Enable(PointEvaluate, Config{Kind: KindError, Probability: 0}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Fire(PointEvaluate); err != nil {
			b.Fatal(err)
		}
	}
}
