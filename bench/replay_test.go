package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/experiments"
	"efficsense/internal/power"
)

// fullRow renders everything a Result carries, floats as bit patterns.
func fullRow(r core.Result) string {
	keys := make([]string, 0, len(r.Power))
	for c := range r.Power {
		keys = append(keys, string(c))
	}
	sort.Strings(keys)
	s := rowOf(r).String() + fmt.Sprintf("|%+v|%v", r.Confusion, r.Err)
	for _, k := range keys {
		s += fmt.Sprintf("|%s=%x", k, math.Float64bits(r.Power[power.Component(k)]))
	}
	return s
}

// TestReplayBitIdentical pins the traced replay to the program it
// stands in for: on both scenarios, called directly and through the
// sweep engine, it must return exactly what core.Evaluator.EvaluateBatch
// returns. If core's evaluation path changes, this fails instead of the
// trace quietly timing a different program.
func TestReplayBitIdentical(t *testing.T) {
	for _, scn := range []string{"eeg-epilepsy", "ecg-telemonitoring"} {
		t.Run(scn, func(t *testing.T) {
			b, err := buildTraced(newTracer(), experiments.Options{
				Scenario: scn, Seed: 3, Records: 2, TrainRecords: 10, Epochs: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			space := b.scn.Space(1)
			space.Bits = []int{6, 8}
			space.M = []int{75, 150}
			pts := space.Points()
			if len(pts) != 6 {
				t.Fatalf("space has %d points, want 6", len(pts))
			}
			rep := newReplay(b.cfg, b.ev, newTracer())
			want := b.ev.EvaluateBatch(context.Background(), pts)
			got := rep.EvaluateBatch(context.Background(), pts)
			for i := range pts {
				if g, w := fullRow(got[i]), fullRow(want[i]); g != w {
					t.Errorf("%s:\nreplay    %s\nevaluator %s", pts[i], g, w)
				}
			}
			if rep.Fingerprint() != b.ev.Fingerprint() {
				t.Errorf("replay fingerprint %s, evaluator %s", rep.Fingerprint(), b.ev.Fingerprint())
			}
			rs, _, _, err := sweep(rep, pts)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := digestRows(resultRows(rs)), digestRows(resultRows(want)); g != w {
				t.Errorf("sweep through the replay: digest %s, evaluator %s", g, w)
			}
			if suite := buildSuite(b.opts); suite.ev.Fingerprint() != b.ev.Fingerprint() {
				t.Errorf("traced set-up built evaluator %s, the suite %s", b.ev.Fingerprint(), suite.ev.Fingerprint())
			}
		})
	}
}

var _ dse.BatchEvaluator = (*replay)(nil)
