package dsp

import (
	"fmt"
	"math"
	"testing"

	"efficsense/internal/isa"
	"efficsense/internal/isa/isatest"
	"efficsense/internal/xrand"
)

// absMask is the Select mask of an eligible index.
const absMask = 1<<63 - 1

// zeroRow pads a short last group of referenceSelect's SubRows4 passes.
var zeroRow = make([]float64, 1024)

// referenceSelect is the correlation update and selection scan that
// Select replaces, for any number of rows: SubRows4 passes over v (a
// copy of p), four rows at a time in row order, a short last group
// padded with zero coefficients against a zero row (x − 0·0 is x for
// every float64 x), then referenceArgMax. v must be len(p) long.
func referenceSelect(v, p []float64, rows [][]float64, c []float64, excluded []bool, norm []float64) (int, float64) {
	copy(v, p)
	for i := 0; i < len(rows); i += 4 {
		var r [4][]float64
		var cc [4]float64
		for t := range r {
			r[t] = zeroRow[:len(p)]
			if i+t < len(rows) {
				r[t], cc[t] = rows[i+t], c[i+t]
			}
		}
		SubRows4(v, v, r[0], r[1], r[2], r[3], cc[0], cc[1], cc[2], cc[3])
	}
	return referenceArgMax(v, excluded, norm)
}

// referenceArgMax is the scalar selection scan: excluded and zero-norm
// indices are skipped, every other index scores |v|/norm, and a
// strictly larger score takes the lead.
func referenceArgMax(v []float64, excluded []bool, norm []float64) (int, float64) {
	best, bestVal := -1, 0.0
	for j := range v {
		if excluded[j] || norm[j] == 0 {
			continue
		}
		if a := math.Abs(v[j]) / norm[j]; a > bestVal {
			best, bestVal = j, a
		}
	}
	return best, bestVal
}

// selectCase is one input of Select: p, the rows and their
// coefficients, and per column its exclusion and norm.
type selectCase struct {
	p, c, norm []float64
	rows       [][]float64
	pool       [][]float64 // the distinct rows; rows repeats them
	excluded   []bool
}

// mask is the caller's contract: excluded and zero-norm columns get 0.
func (s *selectCase) mask() []uint64 {
	m := make([]uint64, len(s.p))
	for j := range m {
		if !s.excluded[j] && s.norm[j] != 0 {
			m[j] = absMask
		}
	}
	return m
}

// copyColumn makes column dst a copy of column src in every input.
func (s *selectCase) copyColumn(dst, src int) {
	s.p[dst], s.norm[dst], s.excluded[dst] = s.p[src], s.norm[src], s.excluded[src]
	for _, r := range s.pool {
		r[dst] = r[src]
	}
}

// reference runs referenceSelect on s and returns v as well.
func (s *selectCase) reference() (int, float64, []float64) {
	v := make([]float64, len(s.p))
	i, a := referenceSelect(v, s.p, s.rows, s.c, s.excluded, s.norm)
	return i, a, v
}

// check compares Select with the reference bit for bit.
func (s *selectCase) check(t testing.TB, label string) {
	t.Helper()
	wantI, wantV, _ := s.reference()
	n := NewNorms(s.norm)
	gotI, gotV := Select(s.p, s.rows, s.c, s.mask(), &n)
	if gotI != wantI || math.Float64bits(gotV) != math.Float64bits(wantV) {
		t.Fatalf("%s: got (%d, %v), reference (%d, %v)", label, gotI, gotV, wantI, wantV)
	}
}

// newSelectCase draws a k-column case with s rows out of a smaller pool
// (so rows repeat). With specials set, ±0, subnormals, ±∞ and the
// FPU's NaN appear among p, the rows and the coefficients. Coefficients
// are sometimes zero, huge or tiny; norms are sometimes zero (so
// excluded), huge (a subnormal reciprocal), subnormal (an overflowing
// one), tiny, negative or NaN.
func newSelectCase(rng *xrand.Source, k, s int, specials bool) *selectCase {
	sc := &selectCase{
		p: make([]float64, k), c: make([]float64, s), norm: make([]float64, k),
		rows: make([][]float64, s), excluded: make([]bool, k),
	}
	rng.FillNormal(sc.p, 0, 1)
	sc.pool = make([][]float64, 1+rng.Intn(max(s, 1)))
	for i := range sc.pool {
		sc.pool[i] = make([]float64, k)
		rng.FillNormal(sc.pool[i], 0, 0.3)
	}
	for i := range sc.rows {
		sc.rows[i] = sc.pool[rng.Intn(len(sc.pool))]
		switch rng.Intn(16) {
		case 0:
			sc.c[i] = 0
		case 1:
			sc.c[i] = math.Copysign(0, -1)
		case 2:
			sc.c[i] = 1e300 * rng.Normal(0, 1)
		case 3:
			sc.c[i] = 1e-300 * rng.Normal(0, 1)
		case 4:
			if specials {
				sc.c[i] = specialValue(rng)
				continue
			}
			fallthrough
		default:
			sc.c[i] = rng.Normal(0, 1)
		}
	}
	for j := range sc.norm {
		switch rng.Intn(24) {
		case 0:
			sc.norm[j] = 0
		case 1:
			sc.norm[j] = 1e308 * (1 + rng.Float64()) // 1/norm is subnormal
		case 2:
			sc.norm[j] = 0x1p-1060 * (1 + rng.Float64()) // subnormal: 1/norm overflows
		case 3:
			sc.norm[j] = 1e-300 * (1 + rng.Float64())
		case 4:
			sc.norm[j] = -(0.5 + rng.Float64())
		case 5:
			sc.norm[j] = hostNaN
		default:
			sc.norm[j] = 0.5 + rng.Float64()
		}
		sc.excluded[j] = rng.Intn(6) == 0
	}
	if specials {
		for j := range sc.p {
			if rng.Intn(8) == 0 {
				sc.p[j] = specialValue(rng)
			}
			for _, r := range sc.pool {
				if rng.Intn(32) == 0 {
					r[j] = specialValue(rng)
				}
			}
		}
	}
	// Ties: some columns copy every input of an earlier one.
	for j := 1; j < k; j++ {
		if rng.Intn(8) == 0 {
			sc.copyColumn(j, rng.Intn(j))
		}
	}
	return sc
}

// nearTies rescales every eligible column's norm so that its score
// lies within a few ulp of base, the case where a reciprocal screen
// alone would mis-order columns.
func (s *selectCase) nearTies(rng *xrand.Source, base float64) {
	_, _, v := s.reference()
	for j := range v {
		t := base
		for n := rng.Intn(4); n > 0; n-- {
			t = math.Nextafter(t, math.Inf(1))
		}
		s.norm[j] = math.Abs(v[j]) / t
		if s.norm[j] == 0 || math.IsInf(s.norm[j], 0) || math.IsNaN(s.norm[j]) {
			s.excluded[j] = true
		}
	}
}

// TestSelectMatchesReference pins Select to referenceSelect bit for
// bit, index and score, on every kernel tier: K from 0 to 17 and around
// the vector widths and tiles (31–33, 63–65, 384, 385), 0–48 rows with
// repeated rows and zero, huge or tiny coefficients, excluded and
// zero-norm columns, ±0, subnormals, ±∞ and NaN among the entries,
// norms whose reciprocal is subnormal or overflows, forced ties with
// the winner inside a lane, across lanes and between the vector body
// and the tail (where the lowest index must win), all columns
// excluded, and a near-tie family whose scores all lie within a few ulp
// of each other, at scales around 1, 2^-1000 and 1e300.
func TestSelectMatchesReference(t *testing.T) {
	isatest.ForEachTier(t, testSelect)
}

func testSelect(t *testing.T) {
	rng := xrand.New(75)
	ks := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 63, 64, 65, 384, 385}
	for _, k := range ks {
		for trial := 0; trial < 98; trial++ {
			s := trial % 49
			label := fmt.Sprintf("K=%d rows=%d trial %d", k, s, trial)
			sc := newSelectCase(rng, k, s, trial%3 == 0)
			sc.check(t, label)

			// The winner copied into its own lane (8 and 32 columns
			// on), the next lane, the tail and an earlier column.
			if w, _, _ := sc.reference(); w >= 0 {
				for _, j := range []int{w + 8, w + 32, w + 1, k - 1} {
					if j > w && j < k {
						sc.copyColumn(j, w)
					}
				}
				sc.check(t, label+" winner copied later")
				if w > 0 {
					sc.copyColumn(rng.Intn(w), w)
					sc.check(t, label+" winner copied earlier")
				}
			}

			for _, base := range []float64{1 + rng.Float64(), 0x1p-1000, 0x1p-1010 * (1 + rng.Float64()), 1e300} {
				sc := newSelectCase(rng, k, s, false)
				sc.nearTies(rng, base)
				sc.check(t, fmt.Sprintf("%s near ties at %g", label, base))
			}

			if trial%7 == 0 {
				sc := newSelectCase(rng, k, s, trial%2 == 0)
				for j := range sc.excluded {
					sc.excluded[j] = true
				}
				n := NewNorms(sc.norm)
				if i, a := Select(sc.p, sc.rows, sc.c, sc.mask(), &n); i != -1 || a != 0 {
					t.Fatalf("%s all excluded: got (%d, %v), want (-1, 0)", label, i, a)
				}
			}
		}
	}
}

// TestSubRows4ArgMaxMatchesReference pins Select with four rows, the
// geometry of the SubRows4 pass plus scan it replaced, to the scalar
// update and scan written out per column, on random inputs: lengths
// 1–13 and 384 (the vector body plus every scalar tail), excluded and
// zero-norm indices, trailing zero coefficients as for a short last
// group, and forced ties inside a lane, across lanes and between the
// vector body and the tail, where the lowest index must win; on every
// kernel tier.
func TestSubRows4ArgMaxMatchesReference(t *testing.T) {
	isatest.ForEachTier(t, testSubRows4ArgMax)
}

func testSubRows4ArgMax(t *testing.T) {
	rng := xrand.New(71)
	lengths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 384}
	for _, n := range lengths {
		for trial := 0; trial < 200; trial++ {
			src := make([]float64, n)
			rows := make([][]float64, 4)
			for r := range rows {
				rows[r] = make([]float64, n)
				rng.FillNormal(rows[r], 0, 1)
			}
			rng.FillNormal(src, 0, 1)
			den := make([]float64, n)
			for j := range den {
				den[j] = 0.5 + rng.Float64()
			}
			c := []float64{rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)}
			for r := trial % 4; r < 4 && trial%5 == 0; r++ {
				c[r] = 0
			}
			excluded := make([]bool, n)
			for j := range excluded {
				switch rng.Intn(6) {
				case 0:
					excluded[j] = true
				case 1:
					den[j] = 0
				case 2:
					// A tie: copy every input of an earlier index.
					if j > 0 {
						i := rng.Intn(j)
						src[j], den[j], excluded[j] = src[i], den[i], excluded[i]
						for r := range rows {
							rows[r][j] = rows[r][i]
						}
					}
				}
			}
			mask := make([]uint64, n)
			for j := range mask {
				if !excluded[j] && den[j] != 0 {
					mask[j] = absMask
				}
			}
			v := make([]float64, n)
			for j := range v {
				v[j] = (((src[j] - c[0]*rows[0][j]) - c[1]*rows[1][j]) - c[2]*rows[2][j]) - c[3]*rows[3][j]
			}
			wantI, wantV := referenceArgMax(v, excluded, den)
			norms := NewNorms(den)
			gotI, gotV := Select(src, rows, c, mask, &norms)
			if gotI != wantI || math.Float64bits(gotV) != math.Float64bits(wantV) {
				t.Fatalf("n=%d trial %d: got (%d, %v), reference (%d, %v)", n, trial, gotI, gotV, wantI, wantV)
			}
		}
	}
}

// TestSubRows4ArgMaxAllExcluded: with nothing eligible a four-row
// Select returns (-1, 0), whatever the values.
func TestSubRows4ArgMaxAllExcluded(t *testing.T) {
	for _, n := range []int{0, 3, 4, 9} {
		v := make([]float64, n)
		for j := range v {
			v[j] = float64(j + 1)
		}
		den := make([]float64, n)
		for j := range den {
			den[j] = float64(j % 2) // zero norms too
		}
		norms := NewNorms(den)
		if i, a := Select(v, [][]float64{v, v, v, v}, make([]float64, 4), make([]uint64, n), &norms); i != -1 || a != 0 {
			t.Fatalf("n=%d: got (%d, %v), want (-1, 0)", n, i, a)
		}
	}
}

// FuzzSelect checks Select against referenceSelect on every tier the
// host has, for raw float64 bits of p, one Gram row's entries, that
// row's coefficient and a norm, each written into a fixed 45-column
// case (a 32-column tile, an 8- or 4-column block and a scalar tail)
// at every few columns, with some columns copied to force ties.
func FuzzSelect(f *testing.F) {
	for _, seed := range [][4]float64{
		{1, 0.5, 0.25, 1},
		{0, 0, 0, 0},
		{math.Copysign(0, -1), 1, -1, 2},
		{5e-324, 1e-160, 1e300, 0x1p-1060},
		{math.Inf(1), 1, 0, 1},
		{1, math.Inf(-1), 1e-300, 1e308},
		{hostNaN, 1, 1, hostNaN},
		{1e300, 1e300, -1e300, 1e-300},
		{0x1p-1000, 0, 0, 1},
		{1, 1, math.Nextafter(1, 2), -1},
	} {
		f.Add(math.Float64bits(seed[0]), math.Float64bits(seed[1]), math.Float64bits(seed[2]), math.Float64bits(seed[3]))
	}
	f.Fuzz(func(t *testing.T, pBits, gBits, cBits, nBits uint64) {
		pv, gv, cv, nv := math.Float64frombits(pBits), math.Float64frombits(gBits), math.Float64frombits(cBits), math.Float64frombits(nBits)
		const k = 45
		rng := xrand.New(76)
		sc := newSelectCase(rng, k, 3, false)
		sc.rows[0] = sc.pool[0]
		sc.c[0] = cv
		for j := 0; j < k; j++ {
			if j%3 == 0 {
				sc.p[j] = pv
			}
			if j%4 == 1 {
				sc.rows[0][j] = gv
			}
			if j%5 == 2 {
				sc.norm[j] = nv
			}
		}
		for _, pr := range [][2]int{{8, 0}, {33, 1}, {44, 9}, {17, 16}} {
			sc.copyColumn(pr[0], pr[1])
		}
		for _, tr := range []isa.Tier{isa.AVX512, isa.AVX, isa.Go} {
			if tr > isa.Host {
				continue
			}
			func() {
				defer isa.Lower(tr)()
				sc.check(t, fmt.Sprintf("%s p=%#x g=%#x c=%#x norm=%#x", tr, pBits, gBits, cBits, nBits))
			}()
		}
	})
}

// selectSink keeps BenchmarkSelect's calls from being optimised away.
var selectSink int

// BenchmarkSelect times one Batch-OMP selection step at the EEG
// solver's geometry: K = 384 columns of a 384×384 Gram matrix G = DᵀD
// (D a 128×384 Gaussian dictionary), p = Dᵀy, and 4 to 36 support
// rows excluded by the mask. "select" is Select on the host's tier,
// "reference" the test's reference path (SubRows4 passes, then the
// scalar scan), so one command gives both.
func BenchmarkSelect(b *testing.B) {
	const m, k = 128, 384
	rng := xrand.New(77)
	d := make([][]float64, k)
	for j := range d {
		d[j] = make([]float64, m)
		rng.FillNormal(d[j], 0, 1)
	}
	gram := make([][]float64, k)
	norm := make([]float64, k)
	for i := range gram {
		gram[i] = make([]float64, k)
		for j := range gram[i] {
			gram[i][j] = Dot(d[i], d[j])
		}
		norm[i] = math.Sqrt(gram[i][i])
	}
	y := make([]float64, m)
	rng.FillNormal(y, 0, 1)
	p := make([]float64, k)
	for j := range p {
		p[j] = Dot(d[j], y)
	}
	norms := NewNorms(norm)
	v := make([]float64, k)
	for _, s := range []int{4, 12, 24, 36} {
		rows := make([][]float64, s)
		c := make([]float64, s)
		mask := make([]uint64, k)
		excluded := make([]bool, k)
		for j := range mask {
			mask[j] = absMask
		}
		for i, j := range rng.Perm(k)[:s] {
			rows[i], c[i] = gram[j], rng.Normal(0, 0.1)
			mask[j], excluded[j] = 0, true
		}
		b.Run(fmt.Sprintf("rows=%d/select", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				selectSink, _ = Select(p, rows, c, mask, &norms)
			}
		})
		b.Run(fmt.Sprintf("rows=%d/reference", s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				selectSink, _ = referenceSelect(v, p, rows, c, excluded, norm)
			}
		})
	}
}

// TestRowKernelsMatchScalar pins SubRows4 and AddRows4 to their element
// formulas bit for bit at every length up to 37 (vector bodies and scalar
// tail), including SubRows4 in place, on every kernel tier.
func TestRowKernelsMatchScalar(t *testing.T) {
	isatest.ForEachTier(t, testRowKernels)
}

func testRowKernels(t *testing.T) {
	rng := xrand.New(72)
	for n := 0; n <= 37; n++ {
		src := make([]float64, n)
		rng.FillNormal(src, 0, 1)
		var rows [4][]float64
		for r := range rows {
			rows[r] = make([]float64, n)
			rng.FillNormal(rows[r], 0, 1)
		}
		c0, c1, c2, c3 := rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1), rng.Normal(0, 1)
		r0, r1, r2, r3 := rows[0], rows[1], rows[2], rows[3]

		want := make([]float64, n)
		for j := range want {
			want[j] = (((src[j] - c0*r0[j]) - c1*r1[j]) - c2*r2[j]) - c3*r3[j]
		}
		got := make([]float64, n)
		SubRows4(got, src, r0, r1, r2, r3, c0, c1, c2, c3)
		checkBits(t, "SubRows4", n, got, want)
		inPlace := Clone(src)
		SubRows4(inPlace, inPlace, r0, r1, r2, r3, c0, c1, c2, c3)
		checkBits(t, "SubRows4 in place", n, inPlace, want)

		for j := range want {
			want[j] = (((src[j] + c0*r0[j]) + c1*r1[j]) + c2*r2[j]) + c3*r3[j]
		}
		got = Clone(src)
		AddRows4(got, r0, r1, r2, r3, c0, c1, c2, c3)
		checkBits(t, "AddRows4", n, got, want)
	}
}

func checkBits(t *testing.T, name string, n int, got, want []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s n=%d: element %d = %v, want %v", name, n, j, got[j], want[j])
		}
	}
}

// specialValue returns one of the IEEE-754 edge cases Project must carry
// exactly as Dot does: signed zeros, subnormals, values whose products
// are subnormal, infinities and NaN.
func specialValue(rng *xrand.Source) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 5e-324
	case 3:
		return -2.5e-310
	case 4:
		return 1e-160
	case 5:
		return math.Inf(1)
	case 6:
		return math.Inf(-1)
	}
	return hostNaN
}

// hostNaN is the NaN the FPU itself makes of an invalid operation such
// as ∞ − ∞ or 0·∞. When both operands of an add or a multiply are NaNs,
// the result carries the payload of one of them, chosen by operand
// order, and the compiler orders the operands of the Go reference as it
// likes (a -race build orders them differently). Feeding in only this
// NaN keeps every NaN of a sum on one bit pattern, so the comparison can
// stay bit for bit.
var (
	inf     = math.Inf(1)
	hostNaN = inf - inf
)

// TestProjectMatchesReference pins Project to a Dot per column and vector
// bit for bit, on every kernel tier: M from 1 to 192, K a multiple of 16
// and not (the padded last panel), an odd number of whole panels (the
// one-vector AVX-512 body runs them in pairs), one to four vectors, with
// and without signed zeros, subnormals, infinities and NaNs among the
// dictionary and vector entries. Output entries past K must stay
// untouched.
func TestProjectMatchesReference(t *testing.T) {
	isatest.ForEachTier(t, testProject)
}

func testProject(t *testing.T) {
	rng := xrand.New(73)
	for _, m := range []int{1, 2, 3, 4, 5, 7, 75, 150, 192} {
		for _, k := range []int{16, 60, 100, 384, 385} {
			for trial := 0; trial < 8; trial++ {
				// Trials 0–3 are finite; the rest sprinkle edge cases into
				// the dictionary (odd trials) and the vectors (trials 6, 7).
				rate := 0
				if trial >= 4 {
					rate = 40
				}
				sprinkle := func(v []float64, on bool) {
					rng.FillNormal(v, 0, 1)
					for i := range v {
						if on && rng.Intn(rate) == 0 {
							v[i] = specialValue(rng)
						}
					}
				}
				cols := make([][]float64, k)
				for j := range cols {
					cols[j] = make([]float64, m)
					sprinkle(cols[j], rate > 0 && trial%2 == 1)
				}
				pan := NewPanels(cols)
				n := 1 + trial%4
				ys := make([][]float64, n)
				dst := make([][]float64, n)
				for f := range ys {
					ys[f] = make([]float64, m)
					sprinkle(ys[f], rate > 0 && trial >= 6)
					dst[f] = make([]float64, k+3)
					for j := range dst[f] {
						dst[f][j] = -7
					}
				}
				pan.Project(dst, ys)
				for f := range ys {
					for j, c := range cols {
						if want := Dot(c, ys[f]); math.Float64bits(dst[f][j]) != math.Float64bits(want) {
							t.Fatalf("M=%d K=%d trial %d: vector %d of %d, column %d = %v (%#x), Dot %v (%#x)",
								m, k, trial, f, n, j, dst[f][j], math.Float64bits(dst[f][j]), want, math.Float64bits(want))
						}
					}
					for j := k; j < len(dst[f]); j++ {
						if dst[f][j] != -7 {
							t.Fatalf("M=%d K=%d: vector %d written past K at %d", m, k, f, j)
						}
					}
				}
			}
		}
	}
}

// TestProjectPanics: Project takes one to four vectors, each M long.
func TestProjectPanics(t *testing.T) {
	pan := NewPanels([][]float64{{1, 2}, {3, 4}})
	y, d := []float64{1, 1}, make([]float64, 2)
	for name, call := range map[string]func(){
		"none":       func() { pan.Project(nil, nil) },
		"five":       func() { pan.Project([][]float64{d, d, d, d, d}, [][]float64{y, y, y, y, y}) },
		"short y":    func() { pan.Project([][]float64{d}, [][]float64{y[:1]}) },
		"short dst":  func() { pan.Project([][]float64{d[:1]}, [][]float64{y}) },
		"dst counts": func() { pan.Project([][]float64{d, d}, [][]float64{y}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// BenchmarkProject times one pass over a dictionary of the ECG and EEG
// solvers' largest geometry (M 192, K 384) for one to four vectors; the
// multiply-adds per second are reported as Gmadd/s.
func BenchmarkProject(b *testing.B) {
	const m, k = 192, 384
	rng := xrand.New(74)
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, m)
		rng.FillNormal(cols[j], 0, 1)
	}
	pan := NewPanels(cols)
	for n := 1; n <= 4; n++ {
		b.Run(fmt.Sprintf("vectors=%d", n), func(b *testing.B) {
			ys := make([][]float64, n)
			dst := make([][]float64, n)
			for f := range ys {
				ys[f] = make([]float64, m)
				rng.FillNormal(ys[f], 0, 1)
				dst[f] = make([]float64, k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pan.Project(dst, ys)
			}
			b.ReportMetric(float64(n*m*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
		})
	}
}
