package dsp

import (
	"math"
	"sync"
)

// DCT implements the orthonormal DCT-II and its inverse (DCT-III) for a
// fixed length N. EEG windows are approximately sparse in this basis; the
// compressive-sensing reconstructor (internal/cs) uses it as the sparsity
// dictionary Ψ. Cosine tables are precomputed once per length, so a DCT
// value is cheap to share across goroutines (all methods are read-only
// after construction).
type DCT struct {
	n     int
	table [][]float64 // table[k][i] = basis k evaluated at sample i
}

var (
	dctCacheMu sync.Mutex
	dctCache   = map[int]*DCT{}
)

// NewDCT returns a DCT transformer for length n (n >= 1). Instances are
// cached per length because the table is O(n²).
func NewDCT(n int) *DCT {
	if n < 1 {
		panic("dsp: DCT length must be >= 1")
	}
	dctCacheMu.Lock()
	defer dctCacheMu.Unlock()
	if d, ok := dctCache[n]; ok {
		return d
	}
	d := &DCT{n: n, table: make([][]float64, n)}
	scale0 := math.Sqrt(1 / float64(n))
	scale := math.Sqrt(2 / float64(n))
	for k := 0; k < n; k++ {
		row := make([]float64, n)
		s := scale
		if k == 0 {
			s = scale0
		}
		for i := 0; i < n; i++ {
			row[i] = s * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
		d.table[k] = row
	}
	dctCache[n] = d
	return d
}

// N returns the transform length.
func (d *DCT) N() int { return d.n }

// Forward computes the orthonormal DCT-II coefficients of x
// (len(x) == N, panic otherwise). It builds a DCTForward for the one
// call; code that transforms many frames builds one and reuses it.
func (d *DCT) Forward(x []float64) []float64 {
	if len(x) != d.n {
		panic("dsp: DCT Forward length mismatch")
	}
	return d.ForwardLayout().Into(make([]float64, d.n), x)
}

// DCTForward is the forward transform laid out for the row kernels: a
// sample-major copy of the basis, row i holding sample i of every basis
// function. It costs as much memory as the DCT itself (N² values, 1.2 MB
// at N = 384), so nothing caches it: a caller that runs many forward
// transforms builds one, shares it read-only across goroutines, and drops
// it when done.
type DCTForward struct {
	rows [][]float64
}

// ForwardLayout builds the sample-major copy of d's basis.
func (d *DCT) ForwardLayout() *DCTForward {
	f := &DCTForward{rows: make([][]float64, d.n)}
	flat := make([]float64, d.n*d.n)
	for i := range f.rows {
		row := flat[i*d.n : (i+1)*d.n : (i+1)*d.n]
		for k, basis := range d.table {
			row[k] = basis[i]
		}
		f.rows[i] = row
	}
	return f
}

// N returns the transform length.
func (f *DCTForward) N() int { return len(f.rows) }

// Into writes the orthonormal DCT-II coefficients of x to dst (both of
// length N, not aliasing) and returns dst. Each coefficient sums its
// terms basis_k[i]·x[i] in ascending i from +0, exactly as one Dot per
// basis function does; AddRows4 adds four samples' rows per pass, so dst
// is loaded and stored a quarter as often, and the last N mod 4 samples
// go through Axpy.
func (f *DCTForward) Into(dst, x []float64) []float64 {
	n := len(f.rows)
	if len(x) != n || len(dst) != n {
		panic("dsp: DCTForward length mismatch")
	}
	clear(dst)
	i := 0
	for ; i+4 <= n; i += 4 {
		AddRows4(dst, f.rows[i], f.rows[i+1], f.rows[i+2], f.rows[i+3], x[i], x[i+1], x[i+2], x[i+3])
	}
	for ; i < n; i++ {
		Axpy(dst, f.rows[i], x[i])
	}
	return dst
}

// Inverse reconstructs the signal from orthonormal DCT-II coefficients
// (exact inverse of Forward).
func (d *DCT) Inverse(c []float64) []float64 {
	if len(c) != d.n {
		panic("dsp: DCT Inverse length mismatch")
	}
	return d.InverseInto(make([]float64, d.n), c)
}

// InverseInto is Inverse against caller-owned storage: dst (length N) is
// fully overwritten with the reconstruction. Each element accumulates
// c[k]·basis_k from +0 over the nonzero coefficients in ascending k;
// AddRows4 applies four of them per pass, so dst is loaded and stored a
// quarter as often as one Axpy per coefficient, with the same sums. The
// sparse solver leaves only a few dozen nonzeros, so gathering them is
// cheap next to the N-length passes.
func (d *DCT) InverseInto(dst, c []float64) []float64 {
	if len(c) != d.n || len(dst) != d.n {
		panic("dsp: DCT InverseInto length mismatch")
	}
	clear(dst)
	var idx [4]int
	cnt := 0
	for k, ck := range c {
		if ck == 0 {
			continue
		}
		idx[cnt] = k
		cnt++
		if cnt < 4 {
			continue
		}
		cnt = 0
		AddRows4(dst, d.table[idx[0]], d.table[idx[1]], d.table[idx[2]], d.table[idx[3]],
			c[idx[0]], c[idx[1]], c[idx[2]], c[idx[3]])
	}
	for _, k := range idx[:cnt] {
		Axpy(dst, d.table[k], c[k])
	}
	return dst
}

// Basis returns the k-th orthonormal basis vector (a copy).
func (d *DCT) Basis(k int) []float64 {
	if k < 0 || k >= d.n {
		panic("dsp: DCT basis index out of range")
	}
	return Clone(d.table[k])
}

// Column returns, without copying, the k-th basis row for read-only use by
// hot loops (the CS reconstructor). Mutating the result corrupts the cache.
func (d *DCT) Column(k int) []float64 { return d.table[k] }
