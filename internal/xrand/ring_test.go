package xrand

import (
	"math"
	"math/rand"
	"testing"

	"efficsense/internal/isa/isatest"
)

// zigguratWord returns a ring word whose ziggurat j (bits 31–62) is the
// given value, with random other bits.
func zigguratWord(j int32, r *rand.Rand) uint64 {
	return r.Uint64()&^(0xFFFFFFFF<<31) | uint64(uint32(j))<<31
}

// edgeJ returns a j of strip i (j & 0x7F == i) and the given sign whose
// magnitude is the largest below kn[i] (step 0), the smallest at or
// above it (step 1, kn[i] itself when the strip holds it), or further
// steps of 128 from those.
func edgeJ(i int32, neg bool, step int) int32 {
	r := int64(i)
	if neg {
		r = int64(-i & 0x7F)
	}
	m := (int64(kn[i])-1-r)&^127 + r + int64(step)*128
	if m < 0 {
		m += 128
	}
	if neg {
		return int32(-m)
	}
	return int32(m)
}

// TestNormalsMatchesScalar pins the fast path of every tier to the
// ziggurat's definition at its edges, which random streams reach about
// once in 2³¹ words: runs of words whose j sits on either side of its
// strip's bound kn[i] (edgeJ, both signs), at 0, MinInt32 or MaxInt32,
// or at random, converted by normals. The count of leading words with
// |j| < kn[i] (|MinInt32| = 2³¹) must come back, and every one of them
// as float64(j)·float64(wn[i]), bit for bit.
func TestNormalsMatchesScalar(t *testing.T) {
	isatest.ForEachTier(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(3))
		for trial := 0; trial < 20000; trial++ {
			n := 1 + r.Intn(70)
			words := make([]uint64, n)
			for k := range words {
				j := int32(r.Uint32())
				switch r.Intn(4) {
				case 0, 1:
					j = edgeJ(int32(r.Intn(128)), r.Intn(2) == 0, r.Intn(4)-1)
				case 2:
					j = []int32{0, math.MinInt32, math.MaxInt32, 1, -1}[r.Intn(5)]
				}
				words[k] = zigguratWord(j, r)
			}
			dst := make([]float64, n)
			got := normals(dst, words)
			want := n
			for k, w := range words {
				j := int32(uint32(w >> 31))
				i := j & 0x7F
				abs := int64(j)
				if abs < 0 {
					abs = -abs
				}
				if abs >= int64(kn[i]) {
					want = k
					break
				}
				if x := float64(j) * float64(wn[i]); math.Float64bits(dst[k]) != math.Float64bits(x) {
					t.Fatalf("trial %d: word %d (j %d) = %v, want %v", trial, k, j, dst[k], x)
				}
			}
			if got != want {
				t.Fatalf("trial %d: %d leading fast words, want %d", trial, got, want)
			}
		}
	})
}
