package search

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"efficsense/internal/classify"
	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/eeg"
	"efficsense/internal/tech"
)

func res(power, acc float64) core.Result {
	return core.Result{
		Point:      core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: power},
		TotalPower: power, Accuracy: acc, MeanSNRdB: acc,
	}
}

func TestFrontIncrementalInvariants(t *testing.T) {
	f := NewFront(dse.QualityAccuracy)
	if !f.Add(res(5, 0.90)) || !f.Add(res(1, 0.50)) || !f.Add(res(3, 0.80)) {
		t.Fatal("non-dominated additions rejected")
	}
	if f.Add(res(4, 0.70)) {
		t.Fatal("dominated point entered the front")
	}
	if f.Add(res(3, 0.80)) {
		t.Fatal("duplicate point entered the front")
	}
	// A sweep from below evicts the two middle members at once.
	if !f.Add(res(0.5, 0.85)) {
		t.Fatal("dominating point rejected")
	}
	got := f.Results()
	if len(got) != 2 || got[0].TotalPower != 0.5 || got[1].TotalPower != 5 {
		t.Fatalf("front after eviction: %+v", got)
	}
	// Invariant: ascending power AND ascending quality.
	for i := 1; i < len(got); i++ {
		if got[i].TotalPower <= got[i-1].TotalPower || got[i].Accuracy <= got[i-1].Accuracy {
			t.Fatalf("front invariant broken at %d: %+v", i, got)
		}
	}
	if f.Add(res(1, math.NaN())) {
		t.Fatal("NaN-quality point entered a non-empty front region it does not dominate")
	}
	if f.Add(core.Result{TotalPower: 0.1, Accuracy: 1, Err: errors.New("boom")}) {
		t.Fatal("error row entered the front")
	}
}

func TestFrontMatchesExhaustiveParetoFront(t *testing.T) {
	// The incremental front over any insertion order must equal the
	// batch dse.ParetoFront over the same cloud.
	var cloud []core.Result
	for i := 0; i < 40; i++ {
		p := float64((i*37)%40) + 1
		q := math.Sin(float64(i)*0.7)*0.3 + p*0.01
		r := res(p, q)
		r.Point.LNANoise = float64(i) // distinct points
		cloud = append(cloud, r)
	}
	f := NewFront(dse.QualityAccuracy)
	for _, r := range cloud {
		f.Add(r)
	}
	want := dse.ParetoFront(cloud, dse.QualityAccuracy)
	got := f.Results()
	if len(got) != len(want) {
		t.Fatalf("front size %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].TotalPower != want[i].TotalPower || got[i].Accuracy != want[i].Accuracy {
			t.Fatalf("front[%d] = (%g, %g), want (%g, %g)", i,
				got[i].TotalPower, got[i].Accuracy, want[i].TotalPower, want[i].Accuracy)
		}
	}
}

func TestFrontQualityAtAndHypervolume(t *testing.T) {
	f := NewFront(dse.QualityAccuracy)
	f.Add(res(1, 0.5))
	f.Add(res(3, 0.8))
	if _, ok := f.QualityAt(0.5); ok {
		t.Fatal("QualityAt below the cheapest member reported a value")
	}
	if v, ok := f.QualityAt(2); !ok || v != 0.5 {
		t.Fatalf("QualityAt(2) = %g, %v", v, ok)
	}
	if v, ok := f.QualityAt(3); !ok || v != 0.8 {
		t.Fatalf("QualityAt(3) = %g, %v", v, ok)
	}
	// Reference corner (4, 0): two rectangles, (4-1)*0.5 + (4-3)*0.3.
	if hv := f.Hypervolume(4, 0); math.Abs(hv-1.8) > 1e-12 {
		t.Fatalf("hypervolume = %g, want 1.8", hv)
	}
	// Hypervolume grows when the front improves.
	f.Add(res(2, 0.7))
	if hv := f.Hypervolume(4, 0); hv <= 1.8 {
		t.Fatalf("hypervolume did not grow: %g", hv)
	}
	if hv := NewFront(dse.QualityAccuracy).Hypervolume(4, 0); hv != 0 {
		t.Fatalf("empty front hypervolume = %g", hv)
	}
}

func TestParseQueryTable(t *testing.T) {
	cases := []struct {
		in      string
		want    Spec
		wantErr string
	}{
		{in: "max-accuracy@power<=3e-6",
			want: Spec{Goal: MaxQuality, Metric: "accuracy", MaxPower: 3e-6}},
		{in: "max-snr@power<=5e-6@area<=2000",
			want: Spec{Goal: MaxQuality, Metric: "snr", MaxPower: 5e-6, MaxAreaCaps: 2000}},
		{in: "max-accuracy",
			want: Spec{Goal: MaxQuality, Metric: "accuracy"}},
		{in: "min-power@accuracy>=0.98",
			want: Spec{Goal: MinPower, Metric: "accuracy", MinQuality: 0.98}},
		{in: "min-power@snr>=20@area<=500",
			want: Spec{Goal: MinPower, Metric: "snr", MinQuality: 20, MaxAreaCaps: 500}},
		{in: "", wantErr: "empty query"},
		{in: "best-accuracy", wantErr: "unknown goal"},
		{in: "min-power", wantErr: "needs a quality floor"},
		{in: "min-power@power<=1e-6", wantErr: "only bounds max-"},
		{in: "max-accuracy@accuracy>=0.9", wantErr: "only bounds min-power"},
		{in: "max-accuracy@power>=1e-6", wantErr: "takes <="},
		{in: "min-power@accuracy<=0.9", wantErr: "takes >="},
		{in: "max-accuracy@power<=zero", wantErr: "bad number"},
		{in: "max-accuracy@power<=-1", wantErr: "must be positive"},
		{in: "max-accuracy@power<=1e-6@power<=2e-6", wantErr: "duplicate power"},
		{in: "min-power@accuracy>=0.9@snr>=10", wantErr: "duplicate quality"},
		{in: "max-accuracy@volume<=3", wantErr: "unknown constraint"},
		{in: "max-accuracy@power", wantErr: "not name<=value"},
	}
	for _, c := range cases {
		got, err := ParseQuery(c.in)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseQuery(%q) err = %v, want mention of %q", c.in, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseQuery(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseQuery(%q) = %+v, want %+v", c.in, got, c.want)
		}
		// The canonical rendering must round-trip.
		back, err := ParseQuery(got.Query())
		if err != nil || back != got {
			t.Errorf("round trip of %q via %q: %+v, %v", c.in, got.Query(), back, err)
		}
	}
}

// scriptedStrategy replays fixed proposals for driver tests.
type scriptedStrategy struct {
	batches  [][]core.DesignPoint
	rungs    []int
	observed [][]core.Result
	cursor   int
}

func (s *scriptedStrategy) Propose(n int) ([]core.DesignPoint, int) {
	if s.cursor >= len(s.batches) {
		return nil, 0
	}
	b := s.batches[s.cursor]
	if len(b) > n {
		b = b[:n]
	}
	r := 0
	if s.rungs != nil {
		r = s.rungs[s.cursor]
	}
	return b, r
}

func (s *scriptedStrategy) Observe(rung int, rs []core.Result) {
	s.observed = append(s.observed, rs)
	s.cursor++
}

// unitEval scores points with a fixed formula; errIdx points degrade.
type unitEval struct {
	calls  int
	errKey string
}

func (e *unitEval) EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result {
	out := make([]core.Result, len(pts))
	for i, p := range pts {
		e.calls++
		r := core.Result{Point: p, TotalPower: p.LNANoise, Accuracy: 1 - p.LNANoise, MeanSNRdB: 1 - p.LNANoise}
		if p.Key() == e.errKey {
			r.Err = errors.New("injected")
		}
		out[i] = r
	}
	return out
}

func pt(vn float64) core.DesignPoint {
	return core.DesignPoint{Arch: core.ArchBaseline, Bits: 8, LNANoise: vn}
}

func unitSpace() dse.Space {
	return dse.Space{
		Architectures: []core.Architecture{core.ArchBaseline},
		Bits:          []int{8},
		LNANoise:      dse.GeomRange(1e-6, 20e-6, 16),
	}
}

func unitConfig(strat Strategy, ev Evaluator, budget int) Config {
	return Config{
		Space:      unitSpace(),
		Spec:       Spec{Goal: MaxQuality, Metric: "accuracy", MaxEvaluations: budget, Seed: 1},
		Fidelities: []Fidelity{{Name: "full", Eval: ev}},
		Strategy:   strat,
	}
}

func TestRunEnforcesBudgetExactly(t *testing.T) {
	// Three batches of 4, budget 10: the driver must clip the third
	// batch to 2 and never dispatch point 11.
	var batches [][]core.DesignPoint
	for b := 0; b < 3; b++ {
		var pts []core.DesignPoint
		for i := 0; i < 4; i++ {
			pts = append(pts, pt(float64(b*4+i+1)*1e-6))
		}
		batches = append(batches, pts)
	}
	ev := &unitEval{}
	strat := &scriptedStrategy{batches: batches}
	out, err := Run(context.Background(), unitConfig(strat, ev, 10))
	if err != nil {
		t.Fatal(err)
	}
	if out.Evaluations != 10 || ev.calls != 10 {
		t.Fatalf("evaluations %d (evaluator saw %d), want exactly 10", out.Evaluations, ev.calls)
	}
	if out.Budget-out.Evaluations != 0 {
		t.Fatalf("budget accounting: %d used of %d", out.Evaluations, out.Budget)
	}
	// Budget ran out while the strategy still had proposals: partial.
	if !out.Partial {
		t.Fatal("budget-exhausted run not marked partial")
	}
	// Clipped batch: the strategy observed only the rows that ran.
	if got := len(strat.observed[2]); got != 2 {
		t.Fatalf("clipped batch observed %d rows, want 2", got)
	}
}

func TestRunConvergedCleanRunIsNotPartial(t *testing.T) {
	ev := &unitEval{}
	strat := &scriptedStrategy{batches: [][]core.DesignPoint{{pt(1e-6), pt(2e-6)}}}
	out, err := Run(context.Background(), unitConfig(strat, ev, 100))
	if err != nil {
		t.Fatal(err)
	}
	if out.Partial || out.Errors != 0 || out.Evaluations != 2 {
		t.Fatalf("clean run outcome: %+v", out)
	}
	if len(out.Front) != 1 || out.Front[0].TotalPower != 1e-6 {
		t.Fatalf("front: %+v", out.Front)
	}
	if !out.HaveBest || out.Best.TotalPower != 1e-6 {
		t.Fatalf("best: %+v (have %v)", out.Best, out.HaveBest)
	}
}

func TestRunDegradedRowsCountAgainstBudgetNotFront(t *testing.T) {
	ev := &unitEval{errKey: pt(2e-6).Key()}
	strat := &scriptedStrategy{batches: [][]core.DesignPoint{{pt(1e-6), pt(2e-6), pt(3e-6)}}}
	out, err := Run(context.Background(), unitConfig(strat, ev, 100))
	if err != nil {
		t.Fatal(err)
	}
	if out.Evaluations != 3 || out.Errors != 1 || !out.Partial {
		t.Fatalf("degraded outcome: %+v", out)
	}
	for _, r := range out.Front {
		if r.Err != nil {
			t.Fatalf("error row on the front: %+v", r)
		}
		if r.Point.Key() == pt(2e-6).Key() {
			t.Fatal("degraded point entered the front")
		}
	}
}

func TestRunCancelReturnsPartialFront(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ev := &unitEval{}
	cancelAfter := &cancellingEval{inner: ev, cancel: cancel}
	var batches [][]core.DesignPoint
	for b := 0; b < 5; b++ {
		batches = append(batches, []core.DesignPoint{pt(float64(b+1) * 1e-6)})
	}
	strat := &scriptedStrategy{batches: batches}
	out, err := Run(ctx, unitConfig(strat, cancelAfter, 100))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !out.Partial {
		t.Fatal("cancelled run not partial")
	}
	if out.Evaluations != 1 || len(out.Front) != 1 {
		t.Fatalf("partial outcome after first batch: %+v", out)
	}
}

// cancellingEval cancels the run after its first batch.
type cancellingEval struct {
	inner  Evaluator
	cancel context.CancelFunc
	done   bool
}

func (e *cancellingEval) EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result {
	rs := e.inner.EvaluateBatch(ctx, pts)
	if !e.done {
		e.done = true
		e.cancel()
	}
	return rs
}

func TestRunRoutesRungsToFidelities(t *testing.T) {
	cheap, full := &unitEval{}, &unitEval{}
	strat := &scriptedStrategy{
		batches: [][]core.DesignPoint{{pt(1e-6), pt(2e-6)}, {pt(1e-6)}},
		rungs:   []int{0, 1},
	}
	cfg := unitConfig(strat, nil, 100)
	cfg.Fidelities = []Fidelity{{Name: "probe", Eval: cheap}, {Name: "full", Eval: full}}
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cheap.calls != 2 || full.calls != 1 {
		t.Fatalf("fidelity routing: probe %d, full %d", cheap.calls, full.calls)
	}
	// Only the full-fidelity result reaches the front.
	if len(out.Front) != 1 || out.Front[0].Point.Key() != pt(1e-6).Key() {
		t.Fatalf("front built from wrong rung: %+v", out.Front)
	}
	if out.Evaluations != 3 {
		t.Fatalf("all rungs must consume budget: %d", out.Evaluations)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	ev := &unitEval{}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero budget", func(c *Config) { c.Spec.MaxEvaluations = 0 }},
		{"bad metric", func(c *Config) { c.Spec.Metric = "watts" }},
		{"no fidelities", func(c *Config) { c.Fidelities = nil }},
		{"nil evaluator", func(c *Config) { c.Fidelities = []Fidelity{{Name: "x"}} }},
		{"empty space", func(c *Config) { c.Space = dse.Space{} }},
		{"min-power without floor", func(c *Config) { c.Spec.Goal = MinPower; c.Spec.MinQuality = 0 }},
	}
	for _, c := range cases {
		cfg := unitConfig(&scriptedStrategy{}, ev, 10)
		c.mut(&cfg)
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", c.name)
		}
	}
}

// tradeEval models a genuine trade-off: quality and power both grow
// with the knob, so every point is Pareto-optimal.
type tradeEval struct{}

func (tradeEval) EvaluateBatch(ctx context.Context, pts []core.DesignPoint) []core.Result {
	out := make([]core.Result, len(pts))
	for i, p := range pts {
		out[i] = core.Result{Point: p, TotalPower: p.LNANoise, Accuracy: p.LNANoise, MeanSNRdB: p.LNANoise}
	}
	return out
}

func TestRunMinPowerAnswersFromFront(t *testing.T) {
	strat := &scriptedStrategy{batches: [][]core.DesignPoint{
		{pt(0.1), pt(0.2), pt(0.3), pt(0.4)},
	}}
	cfg := unitConfig(strat, tradeEval{}, 100)
	cfg.Spec.Goal, cfg.Spec.MinQuality = MinPower, 0.15
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Front) != 4 {
		t.Fatalf("trade-off front size %d, want 4", len(out.Front))
	}
	// Cheapest point with accuracy >= 0.15 on the 0.1..0.4 grid is 0.2.
	if !out.HaveBest || out.Best.TotalPower != 0.2 {
		t.Fatalf("min-power answer: %+v (have %v)", out.Best, out.HaveBest)
	}
	// An unreachable floor yields no answer but still a front.
	strat2 := &scriptedStrategy{batches: [][]core.DesignPoint{{pt(0.1), pt(0.2)}}}
	cfg2 := unitConfig(strat2, tradeEval{}, 100)
	cfg2.Spec.Goal, cfg2.Spec.MinQuality = MinPower, 0.99
	out2, err := Run(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if out2.HaveBest || len(out2.Front) == 0 {
		t.Fatalf("unreachable floor: %+v", out2)
	}
}

func TestRunProgressReportsMonotonicBudget(t *testing.T) {
	ev := &unitEval{}
	var batches [][]core.DesignPoint
	for b := 0; b < 4; b++ {
		batches = append(batches, []core.DesignPoint{pt(float64(b+1) * 1e-6)})
	}
	var seen []Progress
	cfg := unitConfig(&scriptedStrategy{batches: batches}, ev, 100)
	cfg.OnProgress = func(p Progress) { seen = append(seen, p) }
	if _, err := Run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("progress rounds: %d, want 4", len(seen))
	}
	for i, p := range seen {
		if p.Evaluations != i+1 || p.Budget != 100 {
			t.Fatalf("progress[%d] = %+v", i, p)
		}
		if p.FrontSize != 1 { // cheapest point dominates all later ones
			t.Fatalf("progress[%d] front size %d", i, p.FrontSize)
		}
	}
	if !seen[0].Improved || seen[1].Improved {
		t.Fatalf("improvement flags: %+v", seen[:2])
	}
}

func TestHalvingDeterministicUnderSeedAndBudget(t *testing.T) {
	run := func() Outcome {
		ev := &unitEval{}
		cfg := Config{
			Space:      unitSpace(),
			Spec:       Spec{Goal: MaxQuality, Metric: "accuracy", MaxEvaluations: 9, Seed: 42},
			Fidelities: []Fidelity{{Name: "full", Eval: ev}},
			BatchSize:  4,
		}
		out, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Evaluations != b.Evaluations || len(a.Front) != len(b.Front) || a.Hypervolume != b.Hypervolume {
		t.Fatalf("non-deterministic outcome: %+v vs %+v", a, b)
	}
	for i := range a.Front {
		if a.Front[i].Point.Key() != b.Front[i].Point.Key() {
			t.Fatalf("front[%d] differs: %v vs %v", i, a.Front[i].Point, b.Front[i].Point)
		}
	}
}

func TestHalvingObserveRequeuesClippedTail(t *testing.T) {
	// A halving run whose every batch is clipped to 1 point must still
	// converge and visit each point at most once.
	ev := &unitEval{}
	cfg := Config{
		Space:      unitSpace(),
		Spec:       Spec{Goal: MaxQuality, Metric: "accuracy", MaxEvaluations: 1000, Seed: 1},
		Fidelities: []Fidelity{{Name: "full", Eval: ev}},
		BatchSize:  1,
	}
	out, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Partial {
		t.Fatalf("single-point batches failed to converge: %+v", out)
	}
	if ev.calls > unitSpace().Size() {
		t.Fatalf("%d evaluations for a %d-point space: points repeated", ev.calls, unitSpace().Size())
	}
}

func TestSpecQueryStringsAreStable(t *testing.T) {
	s := Spec{Goal: MaxQuality, Metric: "accuracy", MaxPower: 3e-6, MaxAreaCaps: 2000}
	if got := s.Query(); got != "max-accuracy@power<=3e-06@area<=2000" {
		t.Fatalf("Query() = %q", got)
	}
	s2 := Spec{Goal: MinPower, Metric: "snr", MinQuality: 20}
	if got := s2.Query(); got != "min-power@snr>=20" {
		t.Fatalf("Query() = %q", got)
	}
	if fmt.Sprint(MaxQuality, MinPower) != "max-quality min-power" {
		t.Fatalf("goal strings: %v %v", MaxQuality, MinPower)
	}
}

// cheapEvaluator is a real signal-chain evaluator kept cheap: two EEG
// records and a detector trained for a few epochs on four.
func cheapEvaluator(t *testing.T) *core.Evaluator {
	t.Helper()
	train := eeg.Synthesize(eeg.DefaultConfig(8, 4))
	ev, err := core.NewEvaluator(core.Config{
		Tech: tech.GPDK045(), Sys: tech.DefaultSystem(), Seed: 7,
		Dataset: eeg.Synthesize(eeg.DefaultConfig(7, 2)),
		Detector: classify.TrainDetector(train, classify.DetectorConfig{
			Seed: 8, Train: classify.TrainOptions{Epochs: 10},
		}),
		WindowSeconds: classify.DefaultWindowSeconds,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// resultBits renders a result's point and the float64 bits of its
// figures, so two results compare equal only when bit-identical.
func resultBits(r core.Result) string {
	return fmt.Sprintf("%s snr=%x acc=%x power=%x area=%x", r.Point.Key(),
		math.Float64bits(r.MeanSNRdB), math.Float64bits(r.Accuracy),
		math.Float64bits(r.TotalPower), math.Float64bits(r.AreaCaps))
}

// TestRunDeterministicAcrossWorkerCounts extends the determinism
// contract to the engine's worker count: a search through a *dse.Sweep
// over a real evaluator gives the same evaluations, answer and front,
// bit for bit, on one worker and on two (where each round's batch is cut
// into chunks that run at once).
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	ev := cheapEvaluator(t)
	space := dse.Space{
		Architectures: []core.Architecture{core.ArchBaseline, core.ArchCS},
		Bits:          []int{6, 7, 8},
		LNANoise:      dse.GeomRange(1e-6, 20e-6, 6),
		M:             []int{96},
	}
	run := func(workers int) Outcome {
		sweep, err := dse.NewSweep(ev, dse.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(context.Background(), Config{
			Space: space,
			Spec: Spec{Goal: MinPower, Metric: "accuracy", MinQuality: 0.5,
				MaxEvaluations: 24, Seed: 1},
			Fidelities: []Fidelity{{Name: "full", Eval: sweep}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if out.Errors != 0 {
			t.Fatalf("%d workers: %d degraded rows", workers, out.Errors)
		}
		return out
	}
	one, two := run(1), run(2)
	if one.Evaluations != two.Evaluations || one.Partial != two.Partial ||
		math.Float64bits(one.Hypervolume) != math.Float64bits(two.Hypervolume) {
		t.Fatalf("outcome differs: 1 worker %+v, 2 workers %+v", one, two)
	}
	if one.HaveBest != two.HaveBest || resultBits(one.Best) != resultBits(two.Best) {
		t.Fatalf("best differs: %s vs %s", resultBits(one.Best), resultBits(two.Best))
	}
	if len(one.Front) == 0 || len(one.Front) != len(two.Front) {
		t.Fatalf("front sizes %d vs %d", len(one.Front), len(two.Front))
	}
	for i := range one.Front {
		if a, b := resultBits(one.Front[i]), resultBits(two.Front[i]); a != b {
			t.Fatalf("front[%d]: %s vs %s", i, a, b)
		}
	}
}
