//go:build !amd64 || purego

package dsp

// hostTier is the Go tier without the amd64 assembly kernels; the
// wrappers in kernel.go then run their Go loops, which compute the exact
// same per-element arithmetic.
const hostTier = tierGo

func subRows4AVX(dst, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	panic("dsp: vector kernel called without vector support")
}

func subRows4AVX512(dst, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	panic("dsp: vector kernel called without vector support")
}

func addRows4AVX(dst, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	panic("dsp: vector kernel called without vector support")
}

func addRows4AVX512(dst, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	panic("dsp: vector kernel called without vector support")
}

func subRows4ArgMaxAVX(src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64, mask []uint64, den []float64, lanes *argMaxLanes) {
	panic("dsp: vector kernel called without vector support")
}

func projectVec(pan []float64, m, n int, y, d *[4][]float64) {
	panic("dsp: vector kernel called without vector support")
}

func butterfliesAVX(re, im, wr, wi []float64) {
	panic("dsp: vector kernel called without vector support")
}

func butterflies1AVX(re, im, wr, wi []float64) {
	panic("dsp: vector kernel called without vector support")
}

func butterflies2AVX(re, im, wr, wi []float64) {
	panic("dsp: vector kernel called without vector support")
}

func laneSolveLowerAVX(keep *[Lanes]uint64, l []float64, stride int, x []float64, from, to int) {
	panic("dsp: vector kernel called without vector support")
}

func laneSolveUpperAVX(keep *[Lanes]uint64, l []float64, stride int, c, z []float64) {
	panic("dsp: vector kernel called without vector support")
}

func laneDotAVX(acc *[Lanes]float64, a, b []float64) {
	panic("dsp: vector kernel called without vector support")
}

func laneSubDotAVX(acc *[Lanes]float64, a, b []float64) {
	panic("dsp: vector kernel called without vector support")
}
