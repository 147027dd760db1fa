package dsp

import (
	"math"
	"testing"
	"testing/quick"

	"efficsense/internal/xrand"
)

func TestDCTRoundTrip(t *testing.T) {
	rng := xrand.New(3)
	for _, n := range []int{1, 2, 16, 384} {
		d := NewDCT(n)
		x := make([]float64, n)
		rng.FillNormal(x, 0, 1)
		y := d.Inverse(d.Forward(x))
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip error at %d: %g vs %g", n, i, x[i], y[i])
			}
		}
	}
}

func TestDCTOrthonormal(t *testing.T) {
	d := NewDCT(32)
	for i := 0; i < 32; i++ {
		for j := i; j < 32; j++ {
			got := Dot(d.Basis(i), d.Basis(j))
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("<b%d, b%d> = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestDCTParsevalProperty(t *testing.T) {
	d := NewDCT(64)
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		x := make([]float64, 64)
		rng.FillNormal(x, 0, 1)
		c := d.Forward(x)
		return math.Abs(Energy(x)-Energy(c)) < 1e-8*Energy(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDCTSparseCosine(t *testing.T) {
	// A pure basis-aligned cosine transforms to (almost) a single coefficient.
	const n = 128
	d := NewDCT(n)
	x := d.Basis(5)
	c := d.Forward(x)
	if math.Abs(c[5]-1) > 1e-9 {
		t.Fatalf("c[5] = %g, want 1", c[5])
	}
	for k, v := range c {
		if k != 5 && math.Abs(v) > 1e-9 {
			t.Fatalf("leakage at coefficient %d: %g", k, v)
		}
	}
}

func TestDCTCached(t *testing.T) {
	if NewDCT(48) != NewDCT(48) {
		t.Fatal("DCT instances should be cached per length")
	}
}

func TestDCTPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("NewDCT(0)", func() { NewDCT(0) })
	mustPanic("Forward mismatch", func() { NewDCT(4).Forward(make([]float64, 5)) })
	mustPanic("Inverse mismatch", func() { NewDCT(4).Inverse(make([]float64, 3)) })
	mustPanic("Basis range", func() { NewDCT(4).Basis(4) })
}

// BenchmarkDCTForward is one 384-point frame of the detector's
// sparse training copies (and of the CS dictionary geometry), on a
// reused forward layout.
func BenchmarkDCTForward(b *testing.B) {
	fwd := NewDCT(384).ForwardLayout()
	x := make([]float64, 384)
	xrand.New(1).FillNormal(x, 0, 1)
	dst := make([]float64, 384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dctSink = fwd.Into(dst, x)
	}
}

var dctSink []float64
