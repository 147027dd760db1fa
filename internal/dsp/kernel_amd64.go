//go:build amd64 && !purego

package dsp

// hostTier is the best kernel tier the CPU and OS support, checked once
// at init via CPUID/XGETBV: AVX needs the CPU flag and OS support for
// saving the YMM state (OSXSAVE + XCR0); AVX-512 needs AVX512F and OS
// support for the opmask and ZMM state as well.
var hostTier = detectTier()

func detectTier() kernelTier {
	switch {
	case !cpuidHasAVX():
		return tierGo
	case !cpuidHasAVX512():
		return tierAVX
	}
	return tierAVX512
}

// cpuidHasAVX reports whether the CPU and OS support AVX.
func cpuidHasAVX() bool

// cpuidHasAVX512 reports whether the CPU and OS support AVX512F; call it
// only once cpuidHasAVX has reported OSXSAVE.
func cpuidHasAVX512() bool

// subRows4AVX is the vector body of SubRows4; len(dst) must be a
// positive multiple of 8 and every slice exactly that long.
//
//go:noescape
func subRows4AVX(dst, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64)

// subRows4AVX512 is subRows4AVX on 512-bit vectors, 16 elements per
// iteration and a last 8 if len(dst) is an odd multiple of 8.
//
//go:noescape
func subRows4AVX512(dst, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64)

// addRows4AVX is the vector body of AddRows4; len(dst) must be a
// positive multiple of 8 and every slice exactly that long.
//
//go:noescape
func addRows4AVX(dst, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64)

// addRows4AVX512 is addRows4AVX on 512-bit vectors, 16 elements per
// iteration and a last 8 if len(dst) is an odd multiple of 8.
//
//go:noescape
func addRows4AVX512(dst, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64)

// subRows4ArgMaxAVX is the vector body of SubRows4ArgMax; len(src) must
// be a positive multiple of 4 and every slice exactly that long. lanes
// holds each lane's running best on entry and on return; lane l scans
// indices l, l+4, l+8, ….
//
//go:noescape
func subRows4ArgMaxAVX(src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64, mask []uint64, den []float64, lanes *argMaxLanes)

// projectVec runs the vector body of Project for n vectors at the
// current tier. The calls are direct, so escape analysis sees that the
// bodies keep no pointer to y and d.
func projectVec(pan []float64, m, n int, y, d *[4][]float64) {
	if tier == tierAVX512 {
		switch n {
		case 1:
			project1AVX512(pan, m, y, d)
		case 2:
			project2AVX512(pan, m, y, d)
		case 3:
			project3AVX512(pan, m, y, d)
		default:
			project4AVX512(pan, m, y, d)
		}
		return
	}
	switch n {
	case 1:
		project1AVX(pan, m, y, d)
	case 2:
		project2AVX(pan, m, y, d)
	case 3:
		project3AVX(pan, m, y, d)
	default:
		project4AVX(pan, m, y, d)
	}
}

// The Project bodies for one to four vectors: pan is a run of whole
// panels of m > 0 rows, y[f] and d[f] the vectors and their outputs.
// The 512-bit bodies keep 16 columns of each vector in two ZMM
// accumulators; project1AVX512 runs two panels at a time, so even one
// vector has four independent sums in flight.
//
//go:noescape
func project1AVX512(pan []float64, m int, y, d *[4][]float64)

//go:noescape
func project2AVX512(pan []float64, m int, y, d *[4][]float64)

//go:noescape
func project3AVX512(pan []float64, m int, y, d *[4][]float64)

//go:noescape
func project4AVX512(pan []float64, m int, y, d *[4][]float64)

// The 256-bit bodies keep 16 columns of each vector in four YMM
// accumulators for one and two vectors; for three and four they run
// each panel as two 8-column halves.
//
//go:noescape
func project1AVX(pan []float64, m int, y, d *[4][]float64)

//go:noescape
func project2AVX(pan []float64, m int, y, d *[4][]float64)

//go:noescape
func project3AVX(pan []float64, m int, y, d *[4][]float64)

//go:noescape
func project4AVX(pan []float64, m int, y, d *[4][]float64)

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

// laneSolveLowerAVX is the vector body of LaneTri.SolveLower: keep is
// laneKeep of the mask, l the factor through row to−1, x the vector
// through entry to−1, and from < to.
//
//go:noescape
func laneSolveLowerAVX(keep *[Lanes]uint64, l []float64, stride int, x []float64, from, to int)

// laneSolveUpperAVX is the vector body of LaneTri.SolveUpper over
// n = len(c)/Lanes ≥ 1 rows: keep is laneKeep of the mask, l the factor
// through row n−1 and z as long as c.
//
//go:noescape
func laneSolveUpperAVX(keep *[Lanes]uint64, l []float64, stride int, c, z []float64)

// laneDotAVX and laneSubDotAVX are the vector bodies of LaneDot and
// LaneSubDot: acc holds the lanes' sums on return (and, for
// laneSubDotAVX, their starting values on entry); len(a) is a positive
// multiple of Lanes and b as long.
//
//go:noescape
func laneDotAVX(acc *[Lanes]float64, a, b []float64)

//go:noescape
func laneSubDotAVX(acc *[Lanes]float64, a, b []float64)
