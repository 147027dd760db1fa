package dsp

import "math"

// Vector kernels for the N-length loops of sparse reconstruction and of
// the transforms: the Batch-OMP correlation update and atom selection
// (internal/cs), the dictionary projections, both DCT directions, and
// the FFT's butterfly stages. The AVX paths
// (kernel_amd64.s) use only per-lane IEEE-754 multiply, add, subtract,
// divide, AND and compare — no FMA, no reassociation — so every element
// sees exactly the arithmetic of the Go loops here, in the same order,
// and results are bit-identical across the scalar and vector paths. The
// Go loops in turn rely on the compiler not fusing x - a*b into an FMA,
// which holds on amd64 at the default GOAMD64 level. Lengths not
// divisible by the vector width finish in the scalar loops.

// VectorKernels reports whether the kernels run on AVX. Callers use it
// only to pick a data layout (a row-major mirror pays off only when the
// row kernels are vectorised); results never depend on it.
func VectorKernels() bool { return useAVX }

// SubRows4 computes dst[j] = (((src[j] - c0*r0[j]) - c1*r1[j]) -
// c2*r2[j]) - c3*r3[j] for j in [0, len(dst)). All slices must be at
// least len(dst) long; dst may alias src.
func SubRows4(dst, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	n := 0
	if useAVX {
		if n = len(dst) &^ 7; n > 0 {
			subRows4AVX(dst[:n], src[:n], r0[:n], r1[:n], r2[:n], r3[:n], c0, c1, c2, c3)
		}
	}
	src = src[:len(dst)]
	r0, r1, r2, r3 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)], r3[:len(dst)]
	for j := n; j < len(dst); j++ {
		dst[j] = (((src[j] - c0*r0[j]) - c1*r1[j]) - c2*r2[j]) - c3*r3[j]
	}
}

// AddRows4 computes dst[j] = (((dst[j] + c0*r0[j]) + c1*r1[j]) +
// c2*r2[j]) + c3*r3[j] for j in [0, len(dst)): four rows accumulated in
// ascending row order, bit-identical to four Axpy calls but with dst
// loaded and stored once. The rows must be at least len(dst) long.
func AddRows4(dst, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	n := 0
	if useAVX {
		if n = len(dst) &^ 7; n > 0 {
			addRows4AVX(dst[:n], r0[:n], r1[:n], r2[:n], r3[:n], c0, c1, c2, c3)
		}
	}
	r0, r1, r2, r3 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)], r3[:len(dst)]
	for j := n; j < len(dst); j++ {
		dst[j] = (((dst[j] + c0*r0[j]) + c1*r1[j]) + c2*r2[j]) + c3*r3[j]
	}
}

// SubRows4ArgMax is the selection scan of greedy pursuit fused with the
// last SubRows4 update: for j in [0, len(src)) it forms
// v = (((src[j] - c0*r0[j]) - c1*r1[j]) - c2*r2[j]) - c3*r3[j] without
// storing it, scores it as (v with its bits ANDed with mask[j]) / den[j],
// and returns the lowest index with the largest score and that score,
// under a strict > against a running best that starts at (-1, 0).
//
// A mask of 0x7FFF_FFFF_FFFF_FFFF clears only the sign bit, so the score
// is |v|/den[j]; a mask of 0 scores +0 (or NaN when den[j] is 0), which
// never beats the running best, so that index is excluded. All slices
// must be at least len(src) long.
func SubRows4ArgMax(src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64, mask []uint64, den []float64) (int, float64) {
	best, bestVal := -1, 0.0
	n := 0
	if useAVX {
		if n = len(src) &^ 3; n > 0 {
			// Each lane keeps the first of its own maxima (strict >, in
			// ascending index); the overall winner is the largest lane
			// value, the lowest index among equal ones.
			lanes := argMaxLanes{idx: [4]float64{-1, -1, -1, -1}}
			subRows4ArgMaxAVX(src[:n], r0[:n], r1[:n], r2[:n], r3[:n], c0, c1, c2, c3, mask[:n], den[:n], &lanes)
			for l, v := range lanes.val {
				i := int(lanes.idx[l])
				if v > bestVal || (v == bestVal && v > 0 && i < best) {
					best, bestVal = i, v
				}
			}
		}
	}
	r0, r1, r2, r3 = r0[:len(src)], r1[:len(src)], r2[:len(src)], r3[:len(src)]
	mask, den = mask[:len(src)], den[:len(src)]
	for j := n; j < len(src); j++ {
		v := (((src[j] - c0*r0[j]) - c1*r1[j]) - c2*r2[j]) - c3*r3[j]
		if a := math.Float64frombits(math.Float64bits(v)&mask[j]) / den[j]; a > bestVal {
			best, bestVal = j, a
		}
	}
	return best, bestVal
}

// butterflies runs one radix-2 decimation-in-time FFT stage over split
// real and imaginary arrays: for each block of 2h elements (h =
// len(wr)), element k of the first half and its partner k+h in the
// second half become a+b·w and a−b·w, with w = (wr[k], wi[k]) and b·w
// formed exactly as Go's complex multiply forms it, (br·wr − bi·wi,
// br·wi + bi·wr). len(re) must be a multiple of 2h and im as long.
func butterflies(re, im, wr, wi []float64) {
	h := len(wr)
	if useAVX && len(re) >= 8 && len(re)&7 == 0 {
		switch {
		case h&3 == 0:
			butterfliesAVX(re, im, wr, wi)
			return
		case h == 1:
			butterflies1AVX(re, im, wr, wi)
			return
		case h == 2:
			butterflies2AVX(re, im, wr, wi)
			return
		}
	}
	wi = wi[:h]
	for s := 0; s < len(re); s += 2 * h {
		ar, ai := re[s:s+h], im[s:s+h]
		br, bi := re[s+h:s+2*h], im[s+h:s+2*h]
		for k, c := range wr {
			tr := br[k]*c - bi[k]*wi[k]
			ti := br[k]*wi[k] + bi[k]*c
			ar[k], br[k] = ar[k]+tr, ar[k]-tr
			ai[k], bi[k] = ai[k]+ti, ai[k]-ti
		}
	}
}

// argMaxLanes is the per-lane state of the vector SubRows4ArgMax: each
// lane's best score and its index (held as a float64, exact below 2^53).
// A lane that never beat 0 keeps (0, -1).
type argMaxLanes struct {
	val [4]float64
	idx [4]float64
}
