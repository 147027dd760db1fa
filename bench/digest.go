package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"efficsense/internal/core"
	"efficsense/internal/serve"
)

// goldenJSON holds the committed SHA-256 digest of every workload's
// outputs for seeds 1 and 2: {"workload": {"seed": "hex"}}. Seed 2 is
// held out for checking claims made on seed 1.
//
//go:embed golden.json
var goldenJSON []byte

func golden() (map[string]map[string]string, error) {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// row is the part of a result the digests cover: the point and the exact
// bits of SNR, accuracy, total power and area. Rows built from engine
// results and from wire replies hash identically.
type row struct {
	arch        string
	bits, m     int
	vn, chold   float64
	snr, acc    float64
	power, area float64
}

func rowOf(r core.Result) row {
	p := r.Point
	return row{p.Arch.String(), p.Bits, p.M, p.LNANoise, p.CHold, r.MeanSNRdB, r.Accuracy, r.TotalPower, r.AreaCaps}
}

func rowOfJSON(r serve.ResultJSON) row {
	p := r.Point
	return row{p.Arch, p.Bits, p.M, p.LNANoise, p.CHold, r.SNRdB, r.Accuracy, r.TotalW, r.AreaCaps}
}

// String renders the row with every float as its bit pattern, so two
// rows render alike exactly when they are bit-identical.
func (r row) String() string {
	b := math.Float64bits
	return fmt.Sprintf("%s|%d|%x|%d|%x|%x|%x|%x|%x",
		r.arch, r.bits, b(r.vn), r.m, b(r.chold), b(r.snr), b(r.acc), b(r.power), b(r.area))
}

func (r row) write(h hash.Hash) { fmt.Fprintln(h, r.String()) }

// digestRows hashes rows in order.
func digestRows(rows []row) string {
	h := sha256.New()
	for _, r := range rows {
		r.write(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func resultRows(rs []core.Result) []row {
	out := make([]row, len(rs))
	for i, r := range rs {
		out[i] = rowOf(r)
	}
	return out
}

// digestSearch hashes a search answer: the evaluation count, the best
// design (absent when nothing was feasible) and the front.
func digestSearch(evaluations int, best *row, front []row) string {
	h := sha256.New()
	fmt.Fprintf(h, "evaluations|%d\n", evaluations)
	if best != nil {
		best.write(h)
	}
	h.Write([]byte("front\n"))
	for _, r := range front {
		r.write(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}
