package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"efficsense/internal/core"
)

// LoadResults parses a sweep CSV previously written by CSVResults back
// into results, so figures can be re-rendered or re-filtered without
// repeating a multi-minute sweep (`efficsense fig9 -from sweep.csv`).
// Only the columns CSVResults emits are read; power breakdowns are not
// persisted, so re-loaded results carry totals only.
func LoadResults(r io.Reader) ([]core.Result, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("experiments: reading sweep header: %w", err)
	}
	col := map[string]int{}
	for i, h := range header {
		col[h] = i
	}
	for _, need := range []string{"arch", "bits", "noise_vrms", "m", "chold_f",
		"snr_db", "accuracy", "total_w", "area_caps"} {
		if _, ok := col[need]; !ok {
			return nil, fmt.Errorf("experiments: sweep CSV missing column %q", need)
		}
	}
	var out []core.Result
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: reading sweep row: %w", err)
		}
		line++
		get := func(name string) string { return rec[col[name]] }
		num := func(name string) (float64, error) {
			v, err := strconv.ParseFloat(get(name), 64)
			if err != nil {
				return 0, fmt.Errorf("experiments: line %d, column %s: %w", line, name, err)
			}
			return v, nil
		}
		var res core.Result
		arch, err := core.ParseArchitecture(get("arch"))
		if err != nil {
			return nil, fmt.Errorf("experiments: line %d: unknown architecture %q", line, get("arch"))
		}
		res.Point.Arch = arch
		bits, err := strconv.Atoi(get("bits"))
		if err != nil {
			return nil, fmt.Errorf("experiments: line %d: bits: %w", line, err)
		}
		m, err := strconv.Atoi(get("m"))
		if err != nil {
			return nil, fmt.Errorf("experiments: line %d: m: %w", line, err)
		}
		res.Point.Bits = bits
		res.Point.M = m
		fields := []struct {
			name string
			dst  *float64
		}{
			{"noise_vrms", &res.Point.LNANoise},
			{"chold_f", &res.Point.CHold},
			{"snr_db", &res.MeanSNRdB},
			{"accuracy", &res.Accuracy},
			{"total_w", &res.TotalPower},
			{"area_caps", &res.AreaCaps},
		}
		for _, f := range fields {
			v, err := num(f.name)
			if err != nil {
				return nil, err
			}
			*f.dst = v
		}
		out = append(out, res)
	}
	return out, nil
}

// FigsFromResults rebuilds the Fig 7/9/10 payloads from a loaded result
// cloud (no evaluator needed). minAccuracy <= 0 selects the paper's 0.98.
type FigsFromResults struct {
	results     []core.Result
	minAccuracy float64
}

// NewFigsFromResults wraps a loaded cloud.
func NewFigsFromResults(rs []core.Result, minAccuracy float64) *FigsFromResults {
	if minAccuracy <= 0 {
		minAccuracy = 0.98
	}
	return &FigsFromResults{results: rs, minAccuracy: minAccuracy}
}

// staticSuite builds a Suite whose (lazy) evaluator and sweep are already
// satisfied by the loaded data, so the Fig 7/9/10 extraction methods work
// without any re-evaluation.
func (f *FigsFromResults) staticSuite() *Suite {
	s := &Suite{opts: Options{MinAccuracy: f.minAccuracy}.WithDefaults()}
	s.once.Do(func() {}) // no evaluator needed for front extraction
	s.sweep = f.results  // pre-satisfy the sweep memo
	return s
}

// Fig7a recomputes the SNR-goal fronts.
func (f *FigsFromResults) Fig7a() Fronts { return f.staticSuite().Fig7a() }

// Fig7b recomputes the accuracy-goal fronts and optima.
func (f *FigsFromResults) Fig7b() Fig7b { return f.staticSuite().Fig7b() }

// Fig9 projects the cloud onto (accuracy, area).
func (f *FigsFromResults) Fig9() []Fig9Point { return f.staticSuite().Fig9() }

// Fig10 recomputes the area-constrained fronts.
func (f *FigsFromResults) Fig10(caps []float64) []Fig10Front {
	return f.staticSuite().Fig10(caps)
}
