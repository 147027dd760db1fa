//go:build !amd64 || purego

package dsp

// The vector bodies are compiled out: isa.Host is isa.Go, so the
// wrappers in kernel.go and lanes.go run their Go loops, which compute
// the exact same per-element arithmetic, and never call these stubs.

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

func selectVec(p []float64, rows [][]float64, c []float64, mask []uint64, norm, inv []float64, lanes *selectLanes) {
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

func successiveApproxAVX512(dst, in, u, w []float64, sigma, half, lsb float64) {
	panic("dsp: vector kernel called without vector support")
}
