package xrand

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with the same seed diverged at draw %d", i)
		}
	}
}

func TestDeriveIndependence(t *testing.T) {
	a := Derive(1, "lna")
	b := Derive(1, "adc")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("derived streams with different labels look correlated: %d identical draws", same)
	}
}

func TestDeriveStableAcrossRuns(t *testing.T) {
	x := Derive(7, "matrix").Float64()
	y := Derive(7, "matrix").Float64()
	if x != y {
		t.Fatalf("Derive not reproducible: %g vs %g", x, y)
	}
}

func TestNormalDisabledSigma(t *testing.T) {
	s := New(1)
	if got := s.Normal(3.5, 0); got != 3.5 {
		t.Fatalf("Normal with sigma=0 = %g, want mean", got)
	}
	if got := s.Normal(3.5, -1); got != 3.5 {
		t.Fatalf("Normal with sigma<0 = %g, want mean", got)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(99)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.Normal(2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("sample mean = %g, want 2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("sample variance = %g, want 9", variance)
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(5)
	for i := 0; i < 10; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %g", rate)
	}
}

func TestChooseProperties(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		s := New(seed)
		got := s.Choose(n, k)
		if len(got) != k {
			return false
		}
		seen := map[int]bool{}
		prev := -1
		for _, v := range got {
			if v < 0 || v >= n || seen[v] || v <= prev {
				return false
			}
			seen[v] = true
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChooseUniform(t *testing.T) {
	// Each of 10 indices should be chosen ~k/n of the time.
	s := New(123)
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, idx := range s.Choose(10, 3) {
			counts[idx]++
		}
	}
	for i, c := range counts {
		rate := float64(c) / trials
		if math.Abs(rate-0.3) > 0.02 {
			t.Errorf("index %d selection rate = %g, want 0.3", i, rate)
		}
	}
}

func TestChoosePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Choose(3, 5) should panic")
		}
	}()
	New(1).Choose(3, 5)
}

func TestOneOverFUnitRMS(t *testing.T) {
	for _, alpha := range []float64{0, 0.5, 1, 2} {
		s := New(17)
		v := make([]float64, 8192)
		s.OneOverF(v, alpha)
		var ss float64
		for _, x := range v {
			ss += x * x
		}
		rms := math.Sqrt(ss / float64(len(v)))
		if math.Abs(rms-1) > 1e-9 {
			t.Errorf("alpha=%g: RMS = %g, want 1", alpha, rms)
		}
	}
}

func TestOneOverFSpectralSlope(t *testing.T) {
	// Pink-ish noise should have substantially more low-frequency energy
	// than white noise. Compare energy in the lowest vs highest octave via
	// a crude DFT at two frequencies.
	n := 16384
	white := make([]float64, n)
	pink := make([]float64, n)
	New(3).OneOverF(white, 0)
	New(3).OneOverF(pink, 1.5)
	lowW, highW := bandEnergy(white, 2, 40), bandEnergy(white, 2000, 4000)
	lowP, highP := bandEnergy(pink, 2, 40), bandEnergy(pink, 2000, 4000)
	ratioW := lowW / highW
	ratioP := lowP / highP
	if ratioP < 5*ratioW {
		t.Fatalf("coloured noise not low-frequency dominated: pink ratio %g vs white ratio %g", ratioP, ratioW)
	}
}

// bandEnergy sums |DFT|^2 over bins [lo, hi) using a direct (slow) DFT at a
// few frequencies — adequate for a coarse spectral check.
func bandEnergy(v []float64, lo, hi int) float64 {
	n := len(v)
	var e float64
	step := (hi - lo) / 8
	if step == 0 {
		step = 1
	}
	for k := lo; k < hi; k += step {
		var re, im float64
		for i, x := range v {
			ang := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			re += x * math.Cos(ang)
			im += x * math.Sin(ang)
		}
		e += re*re + im*im
	}
	return e
}

func TestOneOverFEmpty(t *testing.T) {
	s := New(1)
	s.OneOverF(nil, 1) // must not panic
}

func TestShufflePermutes(t *testing.T) {
	s := New(10)
	v := []int{0, 1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(v)
	seen := make([]bool, 8)
	for _, x := range v {
		seen[x] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("value %d missing after shuffle", i)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(2).Perm(20)
	seen := make([]bool, 20)
	for _, x := range p {
		if x < 0 || x >= 20 || seen[x] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[x] = true
	}
}

// BenchmarkFillUnitNormal times Gaussian draws in blocks of 1024 through
// FillUnitNormal, next to math/rand's NormFloat64 on the same seed; ns/op
// is per draw.
func BenchmarkFillUnitNormal(b *testing.B) {
	b.Run("fill", func(b *testing.B) {
		s, buf := New(1), make([]float64, 1024)
		for done := 0; done < b.N; done += len(buf) {
			s.FillUnitNormal(buf[:min(len(buf), b.N-done)])
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r, buf := rand.New(rand.NewSource(1)), make([]float64, 1024)
		for done := 0; done < b.N; done += len(buf) {
			for i := range buf[:min(len(buf), b.N-done)] {
				buf[i] = r.NormFloat64()
			}
		}
	})
}

var sinkSource *Source

// TestNewAllocs checks that seeding a Source allocates no more than the
// math/rand generator it replaces did: one rand.Rand and one ring of the
// size of math/rand's source (the seeding source is pooled).
func TestNewAllocs(t *testing.T) {
	seed := int64(0)
	was := testing.AllocsPerRun(100, func() {
		seed++
		sinkSource = &Source{rng: rand.New(rand.NewSource(seed))}
	})
	now := testing.AllocsPerRun(100, func() {
		seed++
		sinkSource = New(seed)
	})
	if now > was {
		t.Fatalf("New allocates %v times, math/rand's generator %v", now, was)
	}
}
