//go:build !amd64 || purego

package dsp

// useAVX is always false without the amd64 assembly kernels; the wrappers
// in kernel.go then run their scalar loops, which compute the exact same
// per-element arithmetic.
const useAVX = false

func subRows4AVX(dst, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	panic("dsp: AVX kernel called without AVX support")
}

func addRows4AVX(dst, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	panic("dsp: AVX kernel called without AVX support")
}

func subRows4ArgMaxAVX(src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64, mask []uint64, den []float64, lanes *argMaxLanes) {
	panic("dsp: AVX kernel called without AVX support")
}

func butterfliesAVX(re, im, wr, wi []float64) {
	panic("dsp: AVX kernel called without AVX support")
}

func butterflies1AVX(re, im, wr, wi []float64) {
	panic("dsp: AVX kernel called without AVX support")
}

func butterflies2AVX(re, im, wr, wi []float64) {
	panic("dsp: AVX kernel called without AVX support")
}
