package search

import (
	"context"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"efficsense/internal/cache"
	"efficsense/internal/core"
	"efficsense/internal/dse"
)

// The acceptance harness pits the adaptive search against exhaustive
// ground truth on paper-shaped studies (the Fig 7 quality/power fronts
// and the Fig 9/10 area-capped variant) and gates on the issue's bar:
// the search must recover >= 95% of the exhaustive Pareto front while
// spending <= 10% of the exhaustive evaluation count.
//
// The evaluator is a closed-form stand-in for the full signal chain,
// built so the studies have the structure that makes adaptive search
// meaningful (and honest): quality metrics are quantised the way the
// real pipeline's are (accuracy moves in confusion-matrix steps, SNR is
// reported to 0.01 dB), the baseline and CS curves cross (each owns a
// segment of the front), and most (M, C_hold) variants are dominated —
// the regions the probe rungs exist to discard.

const (
	amSignal  = 0.1 // signal power at the ADC input, V²
	amGain    = 500 // LNA gain referring its noise to the ADC input
	amKT      = 4.14e-21
	amNyquist = 384.0 // Nyquist samples per window (M's reference)
)

// acceptModel is the closed-form evaluator. Pure and deterministic.
type acceptModel struct{}

func (acceptModel) Evaluate(p core.DesignPoint) core.Result {
	frac := 1.0
	hold := p.CHold
	if hold <= 0 {
		hold = 80e-15
	}
	// Noise at the ADC input: quantisation + referred LNA noise, plus
	// the CS penalties (subsampling distortion shrinking with M, kT/C of
	// the hold capacitor).
	step := math.Pow(2, -float64(p.Bits))
	noise := step*step/12 + (amGain*p.LNANoise)*(amGain*p.LNANoise)
	if p.Arch != core.ArchBaseline {
		frac = float64(p.M) / amNyquist
		noise += amSignal*1e-9*(1-frac) + 30*amKT/hold
	}
	snr := 10 * math.Log10(amSignal/noise)
	snr = math.Round(snr*100) / 100 // reported to 0.01 dB
	acc := 0.55 + 0.44/(1+math.Exp(-(snr-26)/2.5))
	acc = math.Round(acc*400) / 400 // confusion-matrix quantisation

	// Power: LNA noise-power trade (NEF law), ADC and TX scaling with
	// resolution and sample rate. The CS encoder's buffer has to settle
	// small hold capacitors fast, so its power falls as C_hold grows —
	// the price of a big hold capacitor is area, not power.
	pLNA := 2e-18 / (p.LNANoise * p.LNANoise)
	pADC := 3.1e-9 * math.Pow(2, float64(p.Bits)) * frac
	pTX := 0.2e-6 * float64(p.Bits) * frac
	pENC := 0.0
	if p.Arch != core.ArchBaseline {
		pENC = 0.1e-6 + 0.8e-6*(40e-15/hold)*frac
	}

	// Area in unit capacitors: the baseline pays for a full binary DAC;
	// CS trades DAC area for the measurement path and hold capacitor.
	area := 3 * math.Pow(2, float64(p.Bits))
	if p.Arch != core.ArchBaseline {
		area = math.Pow(2, float64(p.Bits)) + 0.5*float64(p.M) + 2*hold/1e-15
	}

	return core.Result{
		Point: p, MeanSNRdB: snr, Accuracy: acc,
		TotalPower: pLNA + pADC + pTX + pENC, AreaCaps: area,
	}
}

// acceptSpace is the study grid: 48 (arch, bits, M, C_hold) groups of
// 128 noise points — 6144 designs, big enough that exhaustive sweeps
// are the expensive path the search is meant to replace, with most of
// the CS variants dominated (the regions pruning exists to discard).
func acceptSpace() dse.Space {
	return dse.Space{
		Architectures: []core.Architecture{core.ArchBaseline, core.ArchCS},
		Bits:          []int{6, 7, 8},
		LNANoise:      dse.GeomRange(1e-6, 20e-6, 128),
		M:             []int{50, 75, 100, 150, 192},
		CHold:         []float64{40e-15, 80e-15, 160e-15},
	}
}

// exhaustiveFront evaluates the whole space closed-form and returns the
// ground-truth front under the spec's metric and area cap.
func exhaustiveFront(t *testing.T, space dse.Space, spec Spec) []core.Result {
	t.Helper()
	q, err := spec.Quality()
	if err != nil {
		t.Fatal(err)
	}
	var all []core.Result
	for _, p := range space.Points() {
		all = append(all, acceptModel{}.Evaluate(p))
	}
	return dse.ParetoFront(dse.FilterArea(all, spec.MaxAreaCaps), q)
}

// recall is the fraction of ground-truth front points the search front
// covers: a truth point counts as recovered when some search point
// matches or dominates it (no more power, no less quality).
func recall(truth, found []core.Result, q dse.Quality) float64 {
	if len(truth) == 0 {
		return 1
	}
	hit := 0
	for _, g := range truth {
		for _, s := range found {
			if s.TotalPower <= g.TotalPower && q(s) >= q(g) {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(truth))
}

// runStudy executes one search over the study grid through a real
// *dse.Sweep (cache, batch dispatch, fault seams — the production path).
func runStudy(t *testing.T, space dse.Space, spec Spec) Outcome {
	t.Helper()
	sweep, err := dse.NewSweep(acceptModel{}, dse.WithWorkers(4),
		dse.WithCache(cache.New(0)), dse.WithEvaluatorID("accept"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), Config{
		Space: space, Spec: spec,
		Fidelities: []Fidelity{{Name: "full", Eval: sweep}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

type studyRow struct {
	name   string
	spec   Spec
	space  int
	out    Outcome
	truth  int
	recall float64
}

func runAcceptance(t *testing.T) []studyRow {
	t.Helper()
	space := acceptSpace()
	size := space.Size()
	budget := size / 10
	studies := []struct {
		name string
		spec Spec
	}{
		{"fig7-snr", Spec{Goal: MaxQuality, Metric: "snr", MaxEvaluations: budget, Seed: 7}},
		{"fig7-accuracy", Spec{Goal: MaxQuality, Metric: "accuracy", MaxEvaluations: budget, Seed: 7}},
		{"fig10-area-capped", Spec{Goal: MaxQuality, Metric: "accuracy", MaxAreaCaps: 500, MaxEvaluations: budget, Seed: 7}},
	}
	rows := make([]studyRow, 0, len(studies))
	for _, st := range studies {
		truth := exhaustiveFront(t, space, st.spec)
		out := runStudy(t, space, st.spec)
		q, _ := st.spec.Quality()
		rows = append(rows, studyRow{
			name: st.name, spec: st.spec, space: size, out: out,
			truth: len(truth), recall: recall(truth, out.Front, q),
		})
	}
	return rows
}

// acceptTable renders the search-vs-exhaustive comparison uploaded as a
// CI artifact (SEARCH_ACCEPT_OUT) and logged on every run.
func acceptTable(rows []studyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "search vs exhaustive ground truth (bar: recall >= 95%% at <= 10%% of evaluations)\n\n")
	fmt.Fprintf(&b, "%-18s %-40s %6s %7s %6s %6s %6s %7s\n",
		"study", "query", "space", "evals", "used%", "truth", "found", "recall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %-40s %6d %7d %5.1f%% %6d %6d %6.1f%%\n",
			r.name, r.spec.Query(), r.space, r.out.Evaluations,
			100*float64(r.out.Evaluations)/float64(r.space),
			r.truth, len(r.out.Front), 100*r.recall)
	}
	return b.String()
}

// TestSearchAcceptanceGroundTruth is the gating acceptance test.
func TestSearchAcceptanceGroundTruth(t *testing.T) {
	rows := runAcceptance(t)
	table := acceptTable(rows)
	t.Logf("\n%s", table)
	if path := os.Getenv("SEARCH_ACCEPT_OUT"); path != "" {
		if err := os.WriteFile(path, []byte(table), 0o644); err != nil {
			t.Fatalf("writing comparison table: %v", err)
		}
	}
	for _, r := range rows {
		if r.out.Evaluations > r.out.Budget {
			t.Errorf("%s: spent %d of %d evaluations", r.name, r.out.Evaluations, r.out.Budget)
		}
		if frac := float64(r.out.Evaluations) / float64(r.space); frac > 0.10 {
			t.Errorf("%s: used %.1f%% of the exhaustive evaluation count, bar is 10%%", r.name, 100*frac)
		}
		if r.out.Partial {
			t.Errorf("%s: search did not converge within budget (%d/%d used, %d errors)",
				r.name, r.out.Evaluations, r.out.Budget, r.out.Errors)
		}
		if r.recall < 0.95 {
			t.Errorf("%s: front recall %.1f%%, bar is 95%% (truth %d, found %d)",
				r.name, 100*r.recall, r.truth, len(r.out.Front))
		}
	}
}

// TestSearchAcceptanceDeterminism pins the engine-level determinism
// contract: identical seed and budget yield the identical front.
func TestSearchAcceptanceDeterminism(t *testing.T) {
	space := acceptSpace()
	spec := Spec{Goal: MaxQuality, Metric: "snr", MaxEvaluations: space.Size() / 10, Seed: 11}
	a := runStudy(t, space, spec)
	b := runStudy(t, space, spec)
	if a.Evaluations != b.Evaluations || a.Errors != b.Errors || len(a.Front) != len(b.Front) {
		t.Fatalf("outcome differs across identical runs: %+v vs %+v", a, b)
	}
	for i := range a.Front {
		if a.Front[i].Point.Key() != b.Front[i].Point.Key() {
			t.Fatalf("front[%d] differs: %v vs %v", i, a.Front[i].Point, b.Front[i].Point)
		}
	}
}

// TestSearchAcceptanceMinPowerQuery exercises the other goal direction
// against ground truth: the returned design must be the true cheapest
// design meeting the quality floor.
func TestSearchAcceptanceMinPowerQuery(t *testing.T) {
	space := acceptSpace()
	spec := Spec{Goal: MinPower, Metric: "accuracy", MinQuality: 0.95,
		MaxEvaluations: space.Size() / 10, Seed: 3}
	best := core.Result{TotalPower: math.Inf(1)}
	for _, p := range space.Points() {
		r := acceptModel{}.Evaluate(p)
		if r.Accuracy >= spec.MinQuality && r.TotalPower < best.TotalPower {
			best = r
		}
	}
	out := runStudy(t, space, spec)
	if !out.HaveBest {
		t.Fatalf("no feasible design found (truth: %v at %g W)", best.Point, best.TotalPower)
	}
	if out.Best.TotalPower > best.TotalPower || out.Best.Accuracy < spec.MinQuality {
		t.Fatalf("min-power answer %v (%g W, acc %g); truth %v (%g W)",
			out.Best.Point, out.Best.TotalPower, out.Best.Accuracy, best.Point, best.TotalPower)
	}
}
