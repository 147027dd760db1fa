package xrand

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"efficsense/internal/isa/isatest"
)

// countingSource is a math/rand source that counts the words drawn.
type countingSource struct {
	src rand.Source64
	n   int
}

func (c *countingSource) Int63() int64    { c.n++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// zigguratPaths counts the paths of math/rand's NormFloat64 that the
// reference draws took.
type zigguratPaths struct {
	tail, accept, reject int
}

// streamRef is the referee of a Source: math/rand's own generator on
// the same seed, with its words counted so each Gaussian draw's path can
// be told from the words it took and its value. A draw of one word took
// the fast path; a draw of magnitude at least rn ended in the base
// strip's tail; any other draw ended in a wedge, accepted on its first
// try if it took two words (one for j, one Float64) and after at least
// one rejection if it took more.
type streamRef struct {
	*rand.Rand
	words *countingSource
	paths *zigguratPaths
}

func newStreamRef(seed int64, paths *zigguratPaths) streamRef {
	c := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return streamRef{Rand: rand.New(c), words: c, paths: paths}
}

func (r streamRef) norm() float64 {
	before := r.words.n
	x := r.NormFloat64()
	switch n := r.words.n - before; {
	case n == 1:
	case math.Abs(x) >= rn:
		r.paths.tail++
	case n == 2:
		r.paths.accept++
	default:
		r.paths.reject++
	}
	return x
}

var streamSeeds = []int64{0, 1, -1, 2147483647, math.MinInt64, math.MaxInt64}

// TestStreamMatchesReference runs a Source against math/rand on each of
// streamSeeds, on every kernel tier: FillUnitNormal at every length from
// 0 to 1300 (twice, so that fills start at every ring offset and cross
// refills), each fill followed by a randomly chosen other call — Normal,
// FillNormal, Float64, Intn, Perm, Shuffle, Bernoulli, Derive or
// OneOverF — refereed by its math/rand equivalent. Every value must
// match bit for bit and, after every call, the next Int63 of both
// streams must agree. Over the seeds the reference draws must have taken
// the tail, a wedge accept and a wedge reject. Seed 2147483647 takes
// math/rand's seed % (2³¹−1) == 0 branch.
func TestStreamMatchesReference(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 7
	}
	isatest.ForEachTier(t, func(t *testing.T) {
		var paths zigguratPaths
		draws := 0
		for _, seed := range streamSeeds {
			draws += checkStream(t, seed, step, &paths)
		}
		t.Logf("%d Gaussian draws; reference paths %+v", draws, paths)
		if paths.tail == 0 || paths.accept == 0 || paths.reject == 0 {
			t.Fatalf("reference draws missed a slow path: %+v", paths)
		}
		if !testing.Short() && draws < 1e7 {
			t.Fatalf("only %d Gaussian draws", draws)
		}
	})
}

// checkStream runs one seed's sequence and returns its Gaussian draws.
func checkStream(t *testing.T, seed int64, step int, paths *zigguratPaths) int {
	t.Helper()
	got, ref := New(seed), newStreamRef(seed, paths)
	script := rand.New(rand.NewSource(seed ^ 0x5eed))
	draws := 0
	var buf, want []float64
	for pass := 0; pass < 2; pass++ {
		for l := 0; l <= 1300; l += step {
			n := l
			if pass == 1 {
				n = 1300 - l
			}
			buf, want = buf[:0], want[:0]
			for range n {
				buf = append(buf, math.NaN())
				want = append(want, ref.norm())
			}
			got.FillUnitNormal(buf)
			sameBits(t, seed, "FillUnitNormal", buf, want)
			draws += n + interleave(t, seed, got, ref, script)
			if g, w := got.rng.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d: streams apart after a fill of %d (pass %d): next Int63 %d, reference %d",
					seed, n, pass, g, w)
			}
		}
	}
	return draws
}

// interleave makes one randomly chosen non-fill call on got and its
// reference equivalent on ref, and returns the Gaussian draws it made.
func interleave(t *testing.T, seed int64, got *Source, ref streamRef, script *rand.Rand) int {
	t.Helper()
	switch script.Intn(9) {
	case 0:
		n := script.Intn(40)
		for range n {
			mean, sigma := script.NormFloat64(), script.Float64()*2-0.5
			want := mean
			if sigma > 0 {
				want = mean + sigma*ref.norm()
			}
			if g := got.Normal(mean, sigma); math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("seed %d: Normal(%v, %v) = %v, reference %v", seed, mean, sigma, g, want)
			}
		}
		return n
	case 1:
		n, mean, sigma := script.Intn(300), script.NormFloat64(), script.Float64()*2-0.5
		g, w := make([]float64, n), make([]float64, n)
		for i := range w {
			w[i] = mean
			if sigma > 0 {
				w[i] = mean + sigma*ref.norm()
			}
		}
		got.FillNormal(g, mean, sigma)
		sameBits(t, seed, "FillNormal", g, w)
		if sigma > 0 {
			return n
		}
	case 2:
		if g, w := got.Float64(), ref.Float64(); g != w {
			t.Fatalf("seed %d: Float64 = %v, reference %v", seed, g, w)
		}
	case 3:
		n := 1 + script.Intn(1000)
		if script.Intn(4) == 0 {
			n = 1<<31 + script.Intn(1<<40) // the Int63n branch
		}
		if g, w := got.Intn(n), ref.Intn(n); g != w {
			t.Fatalf("seed %d: Intn(%d) = %d, reference %d", seed, n, g, w)
		}
	case 4:
		n := script.Intn(50)
		if g, w := got.Perm(n), ref.Perm(n); !slices.Equal(g, w) {
			t.Fatalf("seed %d: Perm(%d) = %v, reference %v", seed, n, g, w)
		}
	case 5:
		g := script.Perm(script.Intn(50))
		w := slices.Clone(g)
		got.Shuffle(g)
		ref.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
		if !slices.Equal(g, w) {
			t.Fatalf("seed %d: Shuffle = %v, reference %v", seed, g, w)
		}
	case 6:
		p := script.Float64()
		if g, w := got.Bernoulli(p), ref.Float64() < p; g != w {
			t.Fatalf("seed %d: Bernoulli(%v) = %v, reference %v", seed, p, g, w)
		}
	case 7:
		label := []string{"comparator", "ktc", "mismatch", ""}[script.Intn(4)]
		h := fnv.New64a()
		_, _ = h.Write([]byte(label))
		child := got.Derive(label)
		refChild := newStreamRef(int64(h.Sum64())^ref.Int63(), ref.paths)
		g, w := make([]float64, 40), make([]float64, 40)
		child.FillUnitNormal(g)
		for i := range w {
			w[i] = refChild.norm()
		}
		sameBits(t, seed, "Derive("+label+")", g, w)
		if g, w := child.Float64(), refChild.Float64(); g != w {
			t.Fatalf("seed %d: Derive(%q) child streams apart", seed, label)
		}
		return len(w)
	case 8:
		n, alpha := 1+script.Intn(200), []float64{0, 1, 1.7}[script.Intn(3)]
		g, w := make([]float64, n), make([]float64, n)
		got.OneOverF(g, alpha)
		oneOverFReference(ref.Rand, w, alpha)
		sameBits(t, seed, "OneOverF", g, w)
		if alpha > 0 {
			return n * 10
		}
		return n
	}
	return 0
}

func sameBits(t *testing.T, seed int64, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("seed %d: %s length %d, reference %d", seed, what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("seed %d: %s of %d: element %d = %v, reference %v", seed, what, len(want), i, got[i], want[i])
		}
	}
}
