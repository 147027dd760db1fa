package xrand

import (
	"math"
	"math/rand"
	"sync"

	"efficsense/internal/isa"
)

// The ring is math/rand's generator (rngSource) bit for bit. rngSource
// is an additive lagged-Fibonacci generator: output n is
// o_n = o_{n−607} + o_{n−273} (mod 2⁶⁴), each output overwriting the
// one 607 steps back. A ring holds one generation of 607 consecutive
// outputs in ascending order, seeded with the first 607 outputs of
// rand.NewSource(seed). The next generation is formed in place, word i
// becoming o_{n+607+i} = o_{n+i} + o_{n+334+i}: for i < 273 the second
// term is still the old word i+334, for i ≥ 273 it is the new word
// i−273, so one ascending pass steps the whole ring, and the pass is
// vectorisable because no word depends on one fewer than 273 before it.
const (
	ringLen = 607 // math/rand's rngLen
	ringTap = 273 // math/rand's rngTap
	ringLag = ringLen - ringTap
)

// ring is a Source's generator: it implements rand.Source64, so
// rand.New(ring) yields math/rand's stream, and it hands out words to
// the Gaussian converters directly.
type ring struct {
	vec [ringLen]uint64 // the current generation, oldest output first
	pos int             // index of the next output; ringLen when spent
}

// seeders holds rand.Sources to seed rings from, so that seeding a ring
// allocates nothing in the steady state.
var seeders = sync.Pool{New: func() any { return rand.NewSource(0).(rand.Source64) }}

// Seed positions r at the start of the stream of rand.NewSource(seed).
func (r *ring) Seed(seed int64) {
	src := seeders.Get().(rand.Source64)
	src.Seed(seed)
	for i := range r.vec {
		r.vec[i] = src.Uint64()
	}
	seeders.Put(src)
	r.pos = 0
}

// Uint64 returns the next output.
func (r *ring) Uint64() uint64 {
	if r.pos == ringLen {
		r.refill()
	}
	w := r.vec[r.pos]
	r.pos++
	return w
}

// Int63 returns the next output without its top bit, as rngSource does.
func (r *ring) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// refill steps the ring to its next generation and rewinds it.
func (r *ring) refill() {
	if isa.Kernels() == isa.AVX512 {
		refillAVX512(&r.vec)
	} else {
		refillGo(&r.vec)
	}
	r.pos = 0
}

// refillGo is the Go body of refill.
func refillGo(v *[ringLen]uint64) {
	for i := 0; i < ringTap; i++ {
		v[i] += v[i+ringLag]
	}
	for i := ringTap; i < ringLen; i++ {
		v[i] += v[i-ringTap]
	}
}

// float64 is math/rand's Float64 on the ring: Int63/2⁶³, drawn again in
// the (practically never seen) case that the division rounds to 1.
func (r *ring) float64() float64 {
again:
	f := float64(r.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}

// normal is math/rand's NormFloat64 on the ring. A word w gives the
// ziggurat's j = int32(uint32(w >> 31)) — math/rand's Uint32, whose
// 63-bit mask is redundant here — and strip i = j & 0x7F; the draw is
// x = float64(j)·float64(wn[i]) whenever |j| < kn[i], and normalSlow's
// otherwise.
func (r *ring) normal() float64 {
	j := int32(uint32(r.Uint64() >> 31))
	if i := j & 0x7F; absInt32(j) < kn[i] {
		return float64(j) * float64(wn[i])
	}
	return r.normalSlow(j)
}

// normalSlow finishes a Gaussian draw whose word j failed the fast test:
// math/rand's NormFloat64 loop verbatim, entered with j, drawing any
// further words from the ring in math/rand's order.
func (r *ring) normalSlow(j int32) float64 {
	for {
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			// The base strip's tail.
			for {
				x = -math.Log(r.float64()) * (1.0 / rn)
				y := -math.Log(r.float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(r.float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
		j = int32(uint32(r.Uint64() >> 31))
	}
}

// absInt32 is |i| as a uint32; |MinInt32| is 2³¹.
func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}

// fillNormal fills dst with Gaussian draws, one normal per element:
// normals converts each run of words that pass the fast test, up to the
// first that does not, or to the end of the ring or of dst; that word
// goes through normalSlow, which draws whatever further words it needs.
func (r *ring) fillNormal(dst []float64) {
	for k := 0; k < len(dst); {
		if r.pos == ringLen {
			r.refill()
		}
		n := min(len(dst)-k, ringLen-r.pos)
		m := normals(dst[k:k+n], r.vec[r.pos:r.pos+n])
		k += m
		r.pos += m
		if m < n {
			j := int32(uint32(r.vec[r.pos] >> 31))
			r.pos++
			dst[k] = r.normalSlow(j)
			k++
		}
	}
}

// normals converts words to Gaussian draws in dst while they pass the
// fast test, and returns how many leading words did. dst must be at
// least as long as words.
func normals(dst []float64, words []uint64) int {
	m := 0
	if isa.Kernels() == isa.AVX512 {
		if n := len(words) &^ 15; n > 0 {
			if m = normalsAVX512(dst[:n], words[:n]); m < n {
				return m
			}
		}
	}
	return m + normalsGo(dst[m:], words[m:])
}

// normalsGo is the Go body of normals.
func normalsGo(dst []float64, words []uint64) int {
	dst = dst[:len(words)]
	for n, w := range words {
		j := int32(uint32(w >> 31))
		i := j & 0x7F
		if absInt32(j) >= kn[i] {
			return n
		}
		dst[n] = float64(j) * float64(wn[i])
	}
	return len(words)
}
