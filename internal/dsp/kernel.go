package dsp

import (
	"math"

	"efficsense/internal/isa"
)

// Vector kernels for the N-length loops of sparse reconstruction and of
// the transforms: the Batch-OMP correlation update and atom selection
// (internal/cs), the dictionary projections, both DCT directions, the
// FFT's butterfly stages and the SAR's decisions (sar.go), on the tier
// internal/isa names. The vector paths (kernel_amd64.s) use only
// per-lane IEEE-754 multiply, add, subtract, divide, AND and compare —
// no FMA, no reassociation — so every element sees exactly the
// arithmetic of the Go loops here, in the same order, and results are
// bit-identical across the scalar and vector paths (Select's screen
// multiplies too, but only to decide which columns to divide; the
// scores it returns are divisions). The Go loops in turn
// rely on the compiler not fusing a*b ± c into an FMA, which holds on
// amd64 at GOAMD64 v1 and v3 (make purego runs the suites under v3).
// Lengths not divisible by the vector width finish in the scalar loops.

// Kernels names the kernel bodies in use: "avx512", "avx" or "go"
// (isa.Kernels, probed once by internal/isa). Results never depend on
// it; throughput does.
func Kernels() string { return isa.Kernels().String() }

// SubRows4 computes dst[j] = (((src[j] - c0*r0[j]) - c1*r1[j]) -
// c2*r2[j]) - c3*r3[j] for j in [0, len(dst)). All slices must be at
// least len(dst) long; dst may alias src.
func SubRows4(dst, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	n := 0
	if isa.Kernels() >= isa.AVX {
		if n = len(dst) &^ 7; n > 0 {
			if isa.Kernels() == isa.AVX512 {
				subRows4AVX512(dst[:n], src[:n], r0[:n], r1[:n], r2[:n], r3[:n], c0, c1, c2, c3)
			} else {
				subRows4AVX(dst[:n], src[:n], r0[:n], r1[:n], r2[:n], r3[:n], c0, c1, c2, c3)
			}
		}
	}
	subRows4Go(dst[n:], src[n:], r0[n:], r1[n:], r2[n:], r3[n:], c0, c1, c2, c3)
}

// subRows4Go is the Go loop of SubRows4.
func subRows4Go(dst, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	src = src[:len(dst)]
	r0, r1, r2, r3 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)], r3[:len(dst)]
	for j := range dst {
		dst[j] = (((src[j] - c0*r0[j]) - c1*r1[j]) - c2*r2[j]) - c3*r3[j]
	}
}

// AddRows4 computes dst[j] = (((dst[j] + c0*r0[j]) + c1*r1[j]) +
// c2*r2[j]) + c3*r3[j] for j in [0, len(dst)): four rows accumulated in
// ascending row order, bit-identical to four Axpy calls but with dst
// loaded and stored once. The rows must be at least len(dst) long.
func AddRows4(dst, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64) {
	n := 0
	if isa.Kernels() >= isa.AVX {
		if n = len(dst) &^ 7; n > 0 {
			if isa.Kernels() == isa.AVX512 {
				addRows4AVX512(dst[:n], r0[:n], r1[:n], r2[:n], r3[:n], c0, c1, c2, c3)
			} else {
				addRows4AVX(dst[:n], r0[:n], r1[:n], r2[:n], r3[:n], c0, c1, c2, c3)
			}
		}
	}
	r0, r1, r2, r3 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)], r3[:len(dst)]
	for j := n; j < len(dst); j++ {
		dst[j] = (((dst[j] + c0*r0[j]) + c1*r1[j]) + c2*r2[j]) + c3*r3[j]
	}
}

// Norms is a dictionary's column norms with their screened reciprocals,
// the scoring table of Select. inv[j] is fl(1/norm[j]) when that is a
// normal float64 and +Inf otherwise, the condition Select's screen
// relies on; building both here means no caller can hand Select a
// reciprocal that breaks it. Read-only after NewNorms and safe for
// concurrent use.
type Norms struct {
	norm, inv []float64
}

// NewNorms builds the table for the norms norm, which it keeps and the
// caller must not modify afterwards.
func NewNorms(norm []float64) Norms {
	inv := make([]float64, len(norm))
	for j, v := range norm {
		r := 1 / v
		if a := math.Abs(r); !(a >= 0x1p-1022 && a <= math.MaxFloat64) {
			r = math.Inf(1)
		}
		inv[j] = r
	}
	return Norms{norm: norm, inv: inv}
}

// Norm returns column j's norm.
func (n *Norms) Norm(j int) float64 { return n.norm[j] }

// Select is the atom selection of greedy pursuit fused with its
// correlation update. For j in [0, len(p)) it forms
// v_j = ((p_j − c_0·rows[0][j]) − c_1·rows[1][j]) − … over every row in
// order, one multiply and one subtract per row, without storing it,
// scores it as x_j/norm_j, x_j being v_j with its bits ANDed with
// mask[j], and returns the lowest index with the largest score and that
// score, under a strict > against a running best that starts at (−1, 0).
// With no rows it scores p itself.
//
// A mask of 0x7FFF_FFFF_FFFF_FFFF clears only the sign bit, so the score
// is |v|/norm; a mask of 0 scores +0 (or NaN when the norm is 0), which
// never beats the running best, so that index is excluded. Zero-norm
// columns must be excluded. mask, the norms and every row must be at
// least len(p) long, and c as long as rows.
//
// The vector bodies keep a tile of v in registers across all the rows
// and screen it before dividing (see selectAVX512); the Go body divides
// every column. Either way the index and score are bitwise those of
// the plain loop.
func Select(p []float64, rows [][]float64, c []float64, mask []uint64, norms *Norms) (int, float64) {
	k := len(p)
	if len(c) != len(rows) || len(mask) < k || len(norms.norm) < k {
		panic("dsp: Select length mismatch")
	}
	for _, r := range rows {
		if len(r) < k {
			panic("dsp: Select row shorter than p")
		}
	}
	mask, norm := mask[:k], norms.norm[:k]
	best, bestVal, n := -1, 0.0, 0
	if isa.Kernels() >= isa.AVX {
		width := 4
		if isa.Kernels() == isa.AVX512 {
			width = 8
		}
		if n = k &^ (width - 1); n > 0 {
			// Each lane keeps the first of its own maxima (strict >, in
			// ascending index); the overall winner is the largest lane
			// value, the lowest index among equal ones.
			lanes := selectLanes{idx: [8]float64{-1, -1, -1, -1, -1, -1, -1, -1}}
			selectVec(p[:n], rows, c, mask, norm, norms.inv, &lanes)
			for l, v := range lanes.val {
				i := int(lanes.idx[l])
				if v > bestVal || (v == bestVal && v > 0 && i < best) {
					best, bestVal = i, v
				}
			}
		}
	}
	if n < k {
		best, bestVal = selectGo(p, n, rows, c, mask, norm, best, bestVal)
	}
	return best, bestVal
}

// selectBlock is the number of columns the Go body of Select updates at
// a time, in a stack buffer: all of an EEG dictionary's K = 384, so
// there it makes the same passes as over a K-length buffer.
const selectBlock = 384

// selectZero pads the Go body's last group of rows.
var selectZero [selectBlock]float64

// selectGo is the Go body of Select over columns [from, len(p)),
// continuing from the running best (best, bestVal). Per block of
// columns it applies all but the last one to four rows in SubRows4
// passes, four rows each in row order, and fuses the last group into
// the scoring scan, padded with zero coefficients against selectZero
// (x − 0·0 is x for every float64 x): every column's chain is the plain
// loop's, and every column is divided.
func selectGo(p []float64, from int, rows [][]float64, c []float64, mask []uint64, norm []float64, best int, bestVal float64) (int, float64) {
	var buf [selectBlock]float64
	zero := selectZero[:]
	last := max(len(rows)-1, 0) &^ 3
	for j := from; j < len(p); j += selectBlock {
		n := min(selectBlock, len(p)-j)
		src := p[j : j+n]
		for i := 0; i < last; i += 4 {
			subRows4Go(buf[:n], src, rows[i][j:], rows[i+1][j:], rows[i+2][j:], rows[i+3][j:], c[i], c[i+1], c[i+2], c[i+3])
			src = buf[:n]
		}
		g := [4][]float64{zero[:n], zero[:n], zero[:n], zero[:n]}
		var cg [4]float64
		for i := last; i < len(rows); i++ {
			g[i-last], cg[i-last] = rows[i][j:], c[i]
		}
		best, bestVal = scoreGo(j, src, g[0], g[1], g[2], g[3], cg[0], cg[1], cg[2], cg[3], mask[j:], norm[j:], best, bestVal)
	}
	return best, bestVal
}

// scoreGo is the scoring scan of selectGo over the columns of src, the
// first being column j0: v = (((src − c0·r0) − c1·r1) − c2·r2) − c3·r3,
// scored (v AND mask)/norm against the running best.
func scoreGo(j0 int, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64, mask []uint64, norm []float64, best int, bestVal float64) (int, float64) {
	r0, r1, r2, r3 = r0[:len(src)], r1[:len(src)], r2[:len(src)], r3[:len(src)]
	mask, norm = mask[:len(src)], norm[:len(src)]
	for j, x := range src {
		v := (((x - c0*r0[j]) - c1*r1[j]) - c2*r2[j]) - c3*r3[j]
		if a := math.Float64frombits(math.Float64bits(v)&mask[j]) / norm[j]; a > bestVal {
			best, bestVal = j0+j, a
		}
	}
	return best, bestVal
}

// panelWidth is the number of dictionary columns in one panel.
const panelWidth = 16

// Panels is an M×K dictionary in the layout of Project: the columns cut
// into panels of 16, panel p holding rows 0…M−1 of columns [16p, 16p+16)
// contiguously, row i at [16i, 16i+16) within the panel. The last panel
// is zero-padded to 16 columns. A Panels is read-only after NewPanels and
// safe for concurrent use.
type Panels struct {
	data []float64
	m, k int
}

// NewPanels lays out the dictionary given as its K columns, each of
// length M.
func NewPanels(cols [][]float64) Panels {
	k := len(cols)
	if k == 0 {
		return Panels{}
	}
	m := len(cols[0])
	np := (k + panelWidth - 1) / panelWidth
	data := make([]float64, np*panelWidth*m)
	for j, c := range cols {
		panel := data[j/panelWidth*panelWidth*m:]
		for i, v := range c[:m] {
			panel[i*panelWidth+j%panelWidth] = v
		}
	}
	return Panels{data: data, m: m, k: k}
}

// Project computes Dᵀy for one to four vectors in one pass over the
// dictionary: dst[f][j] = Σ_i D[i][j]·ys[f][i] for j in [0, K), each sum
// taken in ascending i from +0, one multiply and then one add per term —
// bit-identical to a Dot of column j with ys[f]. Every ys[f] must be M
// long and every dst[f] at least K long; dst[f][K:] is left untouched.
// The vector bodies load each panel row once for all the vectors and
// keep their sums in registers; a call with fewer vectors runs a body
// with fewer accumulators, not the four-vector body.
func (p *Panels) Project(dst, ys [][]float64) {
	n := len(ys)
	if n < 1 || n > 4 || len(dst) != n {
		panic("dsp: Project takes one to four vectors and as many outputs")
	}
	var y, d [4][]float64
	for f := range ys {
		if len(ys[f]) != p.m || len(dst[f]) < p.k {
			panic("dsp: Project vector length mismatch")
		}
		y[f], d[f] = ys[f], dst[f]
	}
	if p.m == 0 {
		for f := range dst {
			clear(dst[f][:p.k])
		}
		return
	}
	size := panelWidth * p.m
	full := p.k / panelWidth
	if full > 0 {
		projectPanels(p.data[:full*size], p.m, n, &y, &d)
	}
	if tail := p.k - full*panelWidth; tail > 0 {
		// The padded last panel goes through a buffer, so dst needs no
		// room for the padding columns.
		var buf [4][panelWidth]float64
		var bd [4][]float64
		for f := range ys {
			bd[f] = buf[f][:]
		}
		projectPanels(p.data[full*size:], p.m, n, &y, &bd)
		for f := range ys {
			copy(dst[f][full*panelWidth:p.k], buf[f][:tail])
		}
	}
}

// projectPanels runs the Project body of the current tier for n vectors
// over whole panels: pan is a run of panels of m rows, y[:n] the vectors
// and d[:n] the outputs, 16 per panel.
func projectPanels(pan []float64, m, n int, y, d *[4][]float64) {
	if isa.Kernels() == isa.Go {
		projectGo(pan, m, n, y, d)
		return
	}
	projectVec(pan, m, n, y, d)
}

// projectGo is the Go body of Project: one Dot-shaped loop per panel
// column and vector, the sum held in a register as Dot holds it.
func projectGo(pan []float64, m, n int, y, d *[4][]float64) {
	size := panelWidth * m
	for q := 0; q*size < len(pan); q++ {
		panel := pan[q*size : (q+1)*size]
		for f := 0; f < n; f++ {
			yf, out := y[f][:m], d[f][q*panelWidth:(q+1)*panelWidth]
			for c := range out {
				var s float64
				for i := range yf {
					s += panel[i*panelWidth+c] * yf[i]
				}
				out[c] = s
			}
		}
	}
}

// butterflies runs one radix-2 decimation-in-time FFT stage over split
// real and imaginary arrays: for each block of 2h elements (h =
// len(wr)), element k of the first half and its partner k+h in the
// second half become a+b·w and a−b·w, with w = (wr[k], wi[k]) and b·w
// formed exactly as Go's complex multiply forms it, (br·wr − bi·wi,
// br·wi + bi·wr). len(re) must be a multiple of 2h and im as long.
func butterflies(re, im, wr, wi []float64) {
	h := len(wr)
	if isa.Kernels() >= isa.AVX && len(re) >= 8 && len(re)&7 == 0 {
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

// selectLanes is the per-lane state of the vector Select bodies: each
// lane's best score and its index (held as a float64, exact below 2^53).
// A lane that never beat 0 keeps (0, −1); the AVX body uses lanes 0–3.
type selectLanes struct {
	val [8]float64
	idx [8]float64
}
