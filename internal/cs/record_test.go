package cs

import (
	"fmt"
	"testing"

	"efficsense/internal/xrand"
)

// recordLengths are the frame counts the lane oracles run: one
// lane, a partial group, exactly one group of four, one frame over, and
// records where lanes finish and refill at different ticks.
var recordLengths = []int{1, 3, 4, 5, 11, 33}

// Frame kinds of the lane oracles' records.
const (
	frameNoise    = iota // white noise off the special rows: runs to MaxAtoms
	frameZero            // all zero: finishes without a step
	frameOneBlock        // in the span of block 0: meets Tol after one block
	frameCholFail        // block 0, then a block holding a copy of one of its atoms
)

// recordPattern assigns kinds to the frames of a record, frame f taking
// recordPattern[f%8]: every record from four frames up has each kind in
// its first group of four lanes.
var recordPattern = [...]int{frameNoise, frameZero, frameOneBlock, frameCholFail, frameNoise, frameNoise, frameOneBlock, frameNoise}

// laneDict builds the M = 24 dictionary of the lane oracles with
// k columns. Block 0 (columns 0–3) is 1000·e0…e3; block 2 (columns 8–11)
// is 1000·e0 again, then 1000·e5…e7; every other column is zero on rows
// 0–7 and Gaussian below, so frames that are zero on rows 0–7 never
// select blocks 0 and 2.
func laneDict(rng *xrand.Source, k int) [][]float64 {
	const m = 24
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, m)
		switch {
		case j < 4:
			cols[j][j] = 1000
		case j == 8:
			cols[j][0] = 1000
		case j > 8 && j < 12:
			cols[j][j-4] = 1000
		default:
			rng.FillNormal(cols[j][8:], 0, 1)
		}
	}
	return cols
}

// laneRecord builds a record of the given number of frames for laneDict,
// frame f of kind recordPattern[f%8], and returns it with the kinds.
func laneRecord(rng *xrand.Source, frames int) ([]float64, []int) {
	const m = 24
	y := make([]float64, frames*m)
	kinds := make([]int, frames)
	for f := range kinds {
		kinds[f] = recordPattern[f%len(recordPattern)]
		yf := y[f*m : (f+1)*m]
		switch kinds[f] {
		case frameNoise:
			rng.FillNormal(yf[8:], 0, 1)
		case frameOneBlock:
			rng.FillNormal(yf[:4], 0, 1)
		case frameCholFail:
			copy(yf, []float64{1, 1, 1, 1, 0, 0.5, 0.5, 0.5})
		}
	}
	return y, kinds
}

// TestBOMPLanesMatchReference runs records of 1 to 33 frames through the
// four lanes, at a K that is a multiple of the 16-column panel and at
// one that is not (with a ragged last block too), and pins every frame to
// the from-scratch oracle bit for bit: the coefficients bompRecord hands
// out and the frames ReconstructInto writes on a reused scratch. It also
// checks each frame kind stopped the way it was built to.
func TestBOMPLanesMatchReference(t *testing.T) {
	const maxAtoms, tol = 12, 1e-12
	for _, k := range []int{32, 42} {
		rng := xrand.New(int64(90 + k))
		r := dictBOMP(laneDict(rng, k), maxAtoms, 4, tol)
		var sc ReconScratch
		var dst []float64
		for _, frames := range recordLengths {
			t.Run(fmt.Sprintf("k%d/frames%d", k, frames), func(t *testing.T) {
				y, kinds := laneRecord(rng, frames)
				thetas := bompThetas(t, r, y, &sc.bomp)
				dst = r.ReconstructInto(dst, y, &sc)
				for f, kind := range kinds {
					yf := y[f*r.m : (f+1)*r.m]
					want := referenceBOMP(r, yf)
					if i := bitDiff(thetas[f], want); i >= 0 {
						t.Fatalf("frame %d (kind %d): coefficient %d = %v, reference %v", f, kind, i, thetas[f][i], want[i])
					}
					if i := bitDiff(dst[f*r.n:(f+1)*r.n], r.dct.Inverse(want)); i >= 0 {
						t.Fatalf("frame %d (kind %d): ReconstructInto differs at sample %d", f, kind, i)
					}
					checkLaneKind(t, f, kind, want, maxAtoms)
				}
			})
		}
	}
}

// checkLaneKind fails the test unless the reference coefficients of a
// frame show the stop its kind was built for.
func checkLaneKind(t *testing.T, f, kind int, theta []float64, maxAtoms int) {
	t.Helper()
	var atoms []int
	for j, v := range theta {
		if v != 0 {
			atoms = append(atoms, j)
		}
	}
	block0 := len(atoms) == 4 && atoms[0] == 0 && atoms[3] == 3
	switch {
	case kind == frameZero && len(atoms) != 0,
		kind == frameOneBlock && !block0,
		kind == frameNoise && len(atoms) < maxAtoms:
		t.Fatalf("frame %d (kind %d) stopped with support %v", f, kind, atoms)
	case kind == frameCholFail:
		// Block 0 alone leaves the 0.5s of rows 5–7 unexplained, so only
		// the failed extension can have stopped the pursuit there.
		if !block0 {
			t.Fatalf("frame %d: the dependent block was not refused: support %v", f, atoms)
		}
	}
}

// ompPattern assigns the frames of an OMP lane-oracle record the exit
// each is built to take, frame f taking ompPattern[f%8]. The first group
// of four lanes holds the four exits a pursuit takes mid-step — an exact
// fit meeting Tol, a numerically dependent atom, diminishing returns and
// the atom cap — so each stops while other lanes of its group go on. The
// second group adds the exits taken before any factor grows: an all-zero
// frame and a frame no atom correlates with.
var ompPattern = [...]ompExit{exitTol, exitDependent, exitReturns, exitCap, exitZero, exitSelect, exitCap, exitReturns}

// ompLaneDict builds the M = 24 dictionary of the OMP lane oracle with k
// columns. Column 0 is e0 and column 1 is e0 + 1e-9·e1: their Gram
// entries all round to 1, so once column 1 is in the support column 0
// has a new Cholesky diagonal of exactly 0. Columns 2–4 are e5, e6 and
// e7, no column touches rows 2–4, and every other column is zero on rows
// 0–7 and Gaussian below.
func ompLaneDict(rng *xrand.Source, k int) [][]float64 {
	const m = 24
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, m)
		switch j {
		case 0:
			cols[j][0] = 1
		case 1:
			cols[j][0], cols[j][1] = 1, 1e-9
		case 2, 3, 4:
			cols[j][j+3] = 1
		default:
			rng.FillNormal(cols[j][8:], 0, 1)
		}
	}
	return cols
}

// ompLaneRecord builds a record of the given number of frames for
// ompLaneDict, frame f built to take exit ompPattern[f%8], and returns it
// with the exits.
func ompLaneRecord(rng *xrand.Source, frames int) ([]float64, []ompExit) {
	const m = 24
	y := make([]float64, frames*m)
	exits := make([]ompExit, frames)
	for f := range exits {
		exits[f] = ompPattern[f%len(ompPattern)]
		yf := y[f*m : (f+1)*m]
		switch exits[f] {
		case exitTol: // columns 2, 3 and 4 in turn, then an exact fit
			yf[5], yf[6], yf[7] = 3, 2, 1
		case exitDependent: // column 1 first, then column 0
			yf[0], yf[1] = 1, 1
		case exitReturns: // mostly on row 4, which no atom can explain
			rng.FillNormal(yf[8:], 0, 0.1)
			yf[4] = 10
		case exitCap:
			rng.FillNormal(yf[8:], 0, 1)
		case exitSelect:
			yf[4] = 1
		}
	}
	return y, exits
}

// TestOMPRecordsMatchReference runs records of 1 to 33 frames through
// the OMP ReconstructInto, which steps four frames in lock-step lanes, at
// a K that is a multiple of the 16-column panel and at one that is not,
// and pins every frame to referenceSolve bit for bit. The records mix
// every exit of the pursuit (ompPattern), and each frame must take the
// exit it was built for.
func TestOMPRecordsMatchReference(t *testing.T) {
	const maxAtoms, tol = 10, 1e-9
	for _, k := range []int{32, 42} {
		rng := xrand.New(int64(70 + k))
		r := dictReconstructor(ompLaneDict(rng, k), ReconOptions{Method: MethodOMP, MaxAtoms: maxAtoms, Tol: tol})
		var sc ReconScratch
		var dst []float64
		for _, frames := range recordLengths {
			t.Run(fmt.Sprintf("k%d/frames%d", k, frames), func(t *testing.T) {
				y, exits := ompLaneRecord(rng, frames)
				dst = r.ReconstructInto(dst, y, &sc)
				for f, want := range exits {
					ref, exit := referenceSolveExit(r.solver, y[f*r.m:(f+1)*r.m], maxAtoms, tol)
					if exit != want {
						t.Fatalf("frame %d was built for exit %d but the reference took exit %d", f, want, exit)
					}
					if i := bitDiff(dst[f*k:(f+1)*k], r.dct.Inverse(ref)); i >= 0 {
						t.Fatalf("frame %d (exit %d): ReconstructInto differs from the reference at sample %d", f, exit, i)
					}
				}
			})
		}
	}
}

// TestOMPReconstructIntoAllocs pins the OMP session path: once the
// scratch has grown, a record allocates nothing.
func TestOMPReconstructIntoAllocs(t *testing.T) {
	enc := idealEncoder(150, 384, 2, 64)
	r := NewMatrixReconstructor(enc.EffectiveMatrix(true), 384, 150/4, 1e-4)
	var stream []float64
	for _, y := range bompFrames(enc, 65, 6, 3, 17, 60) {
		stream = append(stream, y...)
	}
	var sc ReconScratch
	dst := r.ReconstructInto(nil, stream, &sc)
	if allocs := testing.AllocsPerRun(20, func() {
		dst = r.ReconstructInto(dst, stream, &sc)
	}); allocs != 0 {
		t.Fatalf("OMP ReconstructInto: %v allocs per run, want 0", allocs)
	}
}

// BenchmarkReconstructRecord times ReconstructInto over a whole record
// on the session path's reused scratch, where the lanes share each
// dictionary pass and each lane kernel call: an 11-frame block-OMP
// record at the ECG scenario's largest geometry (M 192, N_Φ 384, 48
// atoms in blocks of 4) and 33-frame OMP records at the EEG scenario's
// middle and largest ones (M 150, 37 atoms; M 192, 48 atoms, where solve
// cost, growing with atoms², is highest). All must report 0 allocs/op.
func BenchmarkReconstructRecord(b *testing.B) {
	cases := []struct {
		name   string
		m      int
		frames int
		opts   ReconOptions
	}{
		{"bomp-m192-11frames", 192, 11, ReconOptions{Method: MethodBOMP, MaxAtoms: 48, BlockLen: 4, Tol: 1e-4}},
		{"omp-m150-33frames", 150, 33, ReconOptions{Method: MethodOMP, MaxAtoms: 150 / 4, Tol: 1e-4}},
		{"omp-m192-33frames", 192, 33, ReconOptions{Method: MethodOMP, MaxAtoms: 192 / 4, Tol: 1e-4}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			const n = 384
			enc := idealEncoder(tc.m, n, 2, 7)
			r := NewMethodReconstructor(enc.EffectiveMatrix(true), n, tc.opts)
			var stream []float64
			for _, y := range bompFrames(enc, 7, tc.frames)[:tc.frames] {
				stream = append(stream, y...)
			}
			var sc ReconScratch
			dst := r.ReconstructInto(nil, stream, &sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = r.ReconstructInto(dst, stream, &sc)
			}
		})
	}
}
