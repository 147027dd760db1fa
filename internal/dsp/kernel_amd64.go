//go:build amd64 && !purego

package dsp

// useAVX gates the assembly kernels: AVX requires both the CPU flag and
// OS support for saving the YMM state (OSXSAVE + XCR0), checked once at
// init via CPUID/XGETBV.
var useAVX = cpuidHasAVX()

// cpuidHasAVX reports whether the CPU and OS support AVX.
func cpuidHasAVX() bool

// subRows4AVX is the vector body of SubRows4; len(dst) must be a
// positive multiple of 8 and every slice exactly that long.
//
//go:noescape
func subRows4AVX(dst, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64)

// addRows4AVX is the vector body of AddRows4; len(dst) must be a
// positive multiple of 8 and every slice exactly that long.
//
//go:noescape
func addRows4AVX(dst, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64)

// subRows4ArgMaxAVX is the vector body of SubRows4ArgMax; len(src) must
// be a positive multiple of 4 and every slice exactly that long. lanes
// holds each lane's running best on entry and on return; lane l scans
// indices l, l+4, l+8, ….
//
//go:noescape
func subRows4ArgMaxAVX(src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64, mask []uint64, den []float64, lanes *argMaxLanes)

// butterfliesAVX is the vector body of butterflies; len(wr) must be a
// positive multiple of 4 and len(re) a multiple of 2·len(wr).
//
//go:noescape
func butterfliesAVX(re, im, wr, wi []float64)

// butterflies1AVX and butterflies2AVX are the vector bodies of
// butterflies for h = len(wr) = 1 and 2; len(re) must be a positive
// multiple of 8.
//
//go:noescape
func butterflies1AVX(re, im, wr, wi []float64)

//go:noescape
func butterflies2AVX(re, im, wr, wi []float64)
