package cs

import (
	"math"
	"sync"
	"testing"

	"efficsense/internal/dsp"
	"efficsense/internal/xrand"
)

// blockSparseFrameProblem builds an ideal passive encoder and a frame
// whose DCT energy lives in two contiguous coefficient blocks — the
// structure BOMP exploits and singleton-greedy OMP does not.
func blockSparseFrameProblem(n, m int, seed int64) (enc *Encoder, x, y []float64) {
	enc = idealEncoder(m, n, 2, seed)
	d := dsp.NewDCT(n)
	coeffs := make([]float64, n)
	for k := 4; k < 8; k++ {
		coeffs[k] = 1.0 - 0.1*float64(k-4)
	}
	for k := 20; k < 24; k++ {
		coeffs[k] = -0.5 + 0.08*float64(k-20)
	}
	x = d.Inverse(coeffs)
	y = enc.EncodeFrame(x)
	return enc, x, y
}

func TestMethodBOMPString(t *testing.T) {
	if MethodBOMP.String() != "bomp" {
		t.Fatalf("MethodBOMP renders %q", MethodBOMP.String())
	}
}

func TestMethodBOMPRecoversBlockSparse(t *testing.T) {
	enc, x, y := blockSparseFrameProblem(128, 64, 31)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 128,
		ReconOptions{Method: MethodBOMP, MaxAtoms: 16, BlockLen: 4, Tol: 1e-12})
	snr := dsp.SNRVersusReference(x, r.ReconstructFrame(y))
	if snr < 50 {
		t.Fatalf("BOMP SNR on a block-sparse frame = %g dB", snr)
	}
}

func TestMethodBOMPDeterministic(t *testing.T) {
	enc, _, y := blockSparseFrameProblem(96, 48, 32)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 96,
		ReconOptions{Method: MethodBOMP, MaxAtoms: 12, BlockLen: 4})
	a := r.ReconstructFrame(y)
	b := r.ReconstructFrame(y)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("BOMP reconstruction not deterministic at sample %d", i)
		}
	}
}

func TestMethodBOMPZeroMeasurements(t *testing.T) {
	enc, _, _ := blockSparseFrameProblem(64, 32, 33)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 64,
		ReconOptions{Method: MethodBOMP})
	out := r.ReconstructFrame(make([]float64, 32))
	for i, v := range out {
		if v != 0 {
			t.Fatalf("zero measurements reconstructed nonzero sample %d = %g", i, v)
		}
	}
}

// referenceBOMP is block-OMP in its from-scratch form: scalar
// correlations against the residual every step, and the support Gram
// rebuilt from dot products and refactored each step. It is the oracle
// the incremental solver must match bit for bit.
func referenceBOMP(r *MethodReconstructor, y []float64) []float64 {
	blockLen := r.opts.BlockLen
	nBlocks := (r.n + blockLen - 1) / blockLen
	resid := make([]float64, r.m)
	copy(resid, y)
	energy0 := dsp.Energy(y)
	theta := make([]float64, r.n)
	if energy0 == 0 {
		return theta
	}
	selected := make([]bool, nBlocks)
	var support []int
	for len(support) < r.opts.MaxAtoms {
		best, bestScore := -1, 0.0
		for b := 0; b < nBlocks; b++ {
			if selected[b] {
				continue
			}
			var s float64
			for k := b * blockLen; k < (b+1)*blockLen && k < r.n; k++ {
				d := dsp.Dot(r.dict[k], resid)
				s += d * d
			}
			if s > bestScore {
				best, bestScore = b, s
			}
		}
		if best < 0 || bestScore <= 0 {
			break
		}
		selected[best] = true
		for k := best * blockLen; k < (best+1)*blockLen && k < r.n; k++ {
			support = append(support, k)
		}
		// Least squares on the support: (DᵀD + εI)·c = Dᵀy, refactored each
		// step (supports stay small — a handful of blocks).
		p := len(support)
		g := make([]float64, p*p)
		rhs := make([]float64, p)
		for i := 0; i < p; i++ {
			di := r.dict[support[i]]
			for j := i; j < p; j++ {
				dot := dsp.Dot(di, r.dict[support[j]])
				g[i*p+j] = dot
				g[j*p+i] = dot
			}
			g[i*p+i] += 1e-12
			rhs[i] = dsp.Dot(di, y)
		}
		l, ok := cholesky(g, p)
		if !ok {
			break
		}
		c := choleskySolve(l, rhs, p)
		copy(resid, y)
		for i, k := range support {
			ci := c[i]
			if ci == 0 {
				continue
			}
			col := r.dict[k]
			for t := range resid {
				resid[t] -= ci * col[t]
			}
		}
		for k := range theta {
			theta[k] = 0
		}
		for i, k := range support {
			theta[k] = c[i]
		}
		if dsp.Energy(resid) <= r.opts.Tol*energy0 {
			break
		}
	}
	return theta
}

// dictBOMP builds a BOMP reconstructor over an explicit sparse-domain
// dictionary, for geometries no measurement matrix produces; frames are
// synthesised from the coefficients with the DCT of length K.
func dictBOMP(cols [][]float64, maxAtoms, blockLen int, tol float64) *MethodReconstructor {
	return dictReconstructor(cols, ReconOptions{Method: MethodBOMP, MaxAtoms: maxAtoms, BlockLen: blockLen, Tol: tol})
}

// dictReconstructor builds a reconstructor of the given (OMP or BOMP)
// options over an explicit sparse-domain dictionary.
func dictReconstructor(cols [][]float64, opts ReconOptions) *MethodReconstructor {
	r := &MethodReconstructor{opts: opts, n: len(cols), m: len(cols[0]), dct: dsp.NewDCT(len(cols))}
	r.useDict(cols)
	return r
}

// bompThetas runs bompRecord over the record y and returns every
// frame's coefficients, failing the test unless each frame finished
// exactly once.
func bompThetas(t testing.TB, r *MethodReconstructor, y []float64, sc *bompScratch) [][]float64 {
	t.Helper()
	out := make([][]float64, len(y)/r.m)
	r.bompRecord(y, sc, func(f int, theta []float64) {
		if out[f] != nil {
			t.Fatalf("frame %d finished twice", f)
		}
		out[f] = append([]float64(nil), theta...)
	})
	for f, theta := range out {
		if theta == nil {
			t.Fatalf("frame %d never finished", f)
		}
	}
	return out
}

// bompFrames encodes test frames through enc: the given number of
// white-noise frames, then (when atoms are given) one frame whose DCT
// energy sits on those atoms plus a little noise, then an all-zero frame.
func bompFrames(enc *Encoder, seed int64, noise int, atoms ...int) [][]float64 {
	rng := xrand.New(seed)
	n := enc.FrameLen()
	d := dsp.NewDCT(n)
	var frames [][]float64
	for f := 0; f < noise; f++ {
		x := make([]float64, n)
		rng.FillNormal(x, 0, 1e-3)
		frames = append(frames, enc.EncodeFrame(x))
	}
	if len(atoms) > 0 {
		coeffs := make([]float64, n)
		for _, k := range atoms {
			coeffs[k] = rng.Normal(0, 1) + 1
		}
		x := d.Inverse(coeffs)
		for i := range x {
			x[i] += rng.Normal(0, 1e-3)
		}
		frames = append(frames, enc.EncodeFrame(x))
	}
	return append(frames, enc.EncodeFrame(make([]float64, n)))
}

// bitDiff returns the first index where a and b differ bitwise (0 when
// their lengths differ), or -1 when they are identical.
func bitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestBOMPMatchesReference pins the incremental block-OMP solver to the
// from-scratch reference bit for bit, on the coefficients and on the
// reconstructed frames of both the allocating and the scratch path.
func TestBOMPMatchesReference(t *testing.T) {
	cases := []struct {
		name                   string
		n, m, maxAtoms, blockL int
		tol                    float64
		atoms                  []int // the block-sparse frame's DCT support
	}{
		{"m75", 384, 75, 75 / 4, 4, 1e-4, []int{8, 9, 10, 11, 40, 41, 42, 43}},
		{"m150", 384, 150, 150 / 4, 4, 1e-4, []int{4, 5, 6, 7, 100, 101, 102}},
		{"m192", 384, 192, 192 / 4, 4, 1e-4, []int{0, 1, 2, 3, 12, 13, 14, 15}},
		// The last block is two atoms short.
		{"ragged-last-block", 130, 48, 12, 4, 1e-12, []int{128, 129}},
		{"atoms-not-block-multiple", 128, 64, 10, 4, 1e-12, []int{20, 21, 22, 23}},
		{"block-len-1", 128, 48, 12, 1, 1e-12, []int{3, 17, 60}},
	}
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const noise = 6
			enc := idealEncoder(tc.m, tc.n, 2, int64(40+ci))
			r := NewMethodReconstructor(enc.EffectiveMatrix(true), tc.n, ReconOptions{
				Method: MethodBOMP, MaxAtoms: tc.maxAtoms, BlockLen: tc.blockL, Tol: tc.tol,
			})
			var sc ReconScratch
			var stream []float64
			maxSupport := 0
			for fi, y := range bompFrames(enc, int64(50+ci), noise, tc.atoms...) {
				want := referenceBOMP(r, y)
				got := bompThetas(t, r, y, &sc.bomp)[0]
				if i := bitDiff(got, want); i >= 0 {
					t.Fatalf("frame %d: coefficient %d = %v, reference %v", fi, i, got[i], want[i])
				}
				if i := bitDiff(r.ReconstructFrame(y), r.dct.Inverse(want)); i >= 0 {
					t.Fatalf("frame %d: ReconstructFrame differs at sample %d", fi, i)
				}
				if fi == noise && want[tc.atoms[0]] == 0 {
					t.Fatalf("block-sparse frame: the block of atom %d was never admitted", tc.atoms[0])
				}
				stream = append(stream, y...)
				nz := 0
				for _, v := range want {
					if v != 0 {
						nz++
					}
				}
				maxSupport = max(maxSupport, nz)
			}
			if tc.maxAtoms%tc.blockL != 0 && maxSupport <= tc.maxAtoms {
				t.Fatalf("largest support %d never overshot the cap %d", maxSupport, tc.maxAtoms)
			}
			// The scratch path over the whole stream, reusing sc.
			got := r.ReconstructInto(nil, stream, &sc)
			if i := bitDiff(got, r.Reconstruct(stream)); i >= 0 {
				t.Fatalf("ReconstructInto differs from Reconstruct at sample %d", i)
			}
		})
	}
}

// TestBOMPCholeskyFailureMatchesReference forces the dependent-block stop:
// block 2 holds an exact copy of an atom in block 0, with norms large
// enough that the 1e-12 ridge vanishes in rounding, so the factor's new
// diagonal is exactly zero. Both solvers must stop there and keep the
// block-0 fit.
func TestBOMPCholeskyFailureMatchesReference(t *testing.T) {
	const m, k = 12, 16
	rng := xrand.New(61)
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, m)
	}
	unit := func(j, i int) { cols[j][i] = 1000 }
	for j := 0; j < 4; j++ {
		unit(j, j) // block 0: 1000·e0 … 1000·e3
	}
	unit(8, 0) // block 2: a duplicate of column 0 …
	for j := 9; j < 12; j++ {
		unit(j, j-4) // … and 1000·e5 … 1000·e7
	}
	for _, j := range []int{4, 5, 6, 7, 12, 13, 14, 15} {
		rng.FillNormal(cols[j], 0, 0.01)
	}
	y := []float64{1, 1, 1, 1, 0, 0.5, 0.5, 0.5, 0, 0, 0, 0}
	r := dictBOMP(cols, 12, 4, 1e-12)
	want := referenceBOMP(r, y)
	got := bompThetas(t, r, y, new(bompScratch))[0]
	if i := bitDiff(got, want); i >= 0 {
		t.Fatalf("coefficient %d = %v, reference %v", i, got[i], want[i])
	}
	for j, v := range got {
		if (j < 4) != (v != 0) {
			t.Fatalf("support should be exactly block 0, got coefficient %d = %v", j, v)
		}
	}
}

// TestBOMPReconstructIntoAllocs pins the session path: once the scratch
// has grown, BOMP reconstruction allocates nothing per frame.
func TestBOMPReconstructIntoAllocs(t *testing.T) {
	enc := idealEncoder(150, 384, 2, 62)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 384, ReconOptions{
		Method: MethodBOMP, MaxAtoms: 150 / 4, BlockLen: 4, Tol: 1e-4,
	})
	var stream []float64
	for _, y := range bompFrames(enc, 63, 3, 8, 9, 10, 11) {
		stream = append(stream, y...)
	}
	var sc ReconScratch
	dst := r.ReconstructInto(nil, stream, &sc)
	if allocs := testing.AllocsPerRun(20, func() {
		dst = r.ReconstructInto(dst, stream, &sc)
	}); allocs != 0 {
		t.Fatalf("BOMP ReconstructInto: %v allocs per run, want 0", allocs)
	}
}

// TestBOMPSharedReconstructor runs one reconstructor from several
// goroutines, each with its own scratch, as the plan cache shares it
// across sweep workers; every goroutine must reproduce the serial result.
func TestBOMPSharedReconstructor(t *testing.T) {
	enc := idealEncoder(75, 384, 2, 66)
	r := NewMethodReconstructor(enc.EffectiveMatrix(true), 384, ReconOptions{
		Method: MethodBOMP, MaxAtoms: 75 / 4, BlockLen: 4, Tol: 1e-4,
	})
	var stream []float64
	for _, y := range bompFrames(enc, 67, 4, 8, 9, 10, 11) {
		stream = append(stream, y...)
	}
	want := r.Reconstruct(stream)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc ReconScratch
			var dst []float64
			for rep := 0; rep < 3; rep++ {
				dst = r.ReconstructInto(dst, stream, &sc)
				if i := bitDiff(dst, want); i >= 0 {
					t.Errorf("concurrent reconstruction differs at sample %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
