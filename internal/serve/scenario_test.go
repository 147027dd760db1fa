package serve

// Scenario-aware wire contract: options.scenario selection, scoped
// architecture parsing, the /v1/scenarios discovery endpoint, the
// ?scenario= listing filter, and the cache-disjointness guarantee that
// keeps two workloads' evaluations from ever aliasing each other.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"efficsense/internal/experiments"
	"efficsense/internal/scenario"
)

// TestOptionsSpecApply pins the override contract: every settable field
// independently overrides the base, absent fields inherit it.
func TestOptionsSpecApply(t *testing.T) {
	base := experiments.Options{
		Scenario: "eeg-epilepsy", Seed: 1, Records: 40, TrainRecords: 120,
		NoiseSteps: 8, Workers: 0, Epochs: 150, MinAccuracy: 0.98, WindowSeconds: 1,
	}
	ptrS := func(v string) *string { return &v }
	ptrI64 := func(v int64) *int64 { return &v }
	ptrI := func(v int) *int { return &v }
	ptrF := func(v float64) *float64 { return &v }
	cases := []struct {
		name string
		spec *OptionsSpec
		want func(o experiments.Options) experiments.Options
	}{
		{"nil spec inherits everything", nil,
			func(o experiments.Options) experiments.Options { return o }},
		{"empty spec inherits everything", &OptionsSpec{},
			func(o experiments.Options) experiments.Options { return o }},
		{"scenario", &OptionsSpec{Scenario: ptrS("ecg-telemonitoring")},
			func(o experiments.Options) experiments.Options { o.Scenario = "ecg-telemonitoring"; return o }},
		{"seed", &OptionsSpec{Seed: ptrI64(9)},
			func(o experiments.Options) experiments.Options { o.Seed = 9; return o }},
		{"records", &OptionsSpec{Records: ptrI(7)},
			func(o experiments.Options) experiments.Options { o.Records = 7; return o }},
		{"train_records", &OptionsSpec{TrainRecords: ptrI(11)},
			func(o experiments.Options) experiments.Options { o.TrainRecords = 11; return o }},
		{"noise_steps", &OptionsSpec{NoiseSteps: ptrI(3)},
			func(o experiments.Options) experiments.Options { o.NoiseSteps = 3; return o }},
		{"workers", &OptionsSpec{Workers: ptrI(2)},
			func(o experiments.Options) experiments.Options { o.Workers = 2; return o }},
		{"epochs", &OptionsSpec{Epochs: ptrI(5)},
			func(o experiments.Options) experiments.Options { o.Epochs = 5; return o }},
		{"min_accuracy", &OptionsSpec{MinAccuracy: ptrF(0.5)},
			func(o experiments.Options) experiments.Options { o.MinAccuracy = 0.5; return o }},
		{"window_seconds", &OptionsSpec{WindowSeconds: ptrF(2.5)},
			func(o experiments.Options) experiments.Options { o.WindowSeconds = 2.5; return o }},
		{"explicit zero overrides, not inherits", &OptionsSpec{MinAccuracy: ptrF(0)},
			func(o experiments.Options) experiments.Options { o.MinAccuracy = 0; return o }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.spec.apply(base)
			// Options carries a (nil here) progress callback, so compare
			// with DeepEqual rather than ==.
			if want := tc.want(base); !reflect.DeepEqual(got, want) {
				t.Fatalf("apply mismatch:\n got  %+v\n want %+v", got, want)
			}
		})
	}
}

// TestUnknownFieldRejected pins satellite behaviour: a typo'd request
// key comes back as a bad_request envelope naming the offending field.
func TestUnknownFieldRejected(t *testing.T) {
	ts, _, _ := newTestServer(t, 0, ManagerConfig{})
	for _, tc := range []struct {
		path, body string
	}{
		{"/v1/evaluate", `{"point":{"arch":"cs","bits":8,"lna_noise":5e-6,"m":75},"scenaro":"x"}`},
		{"/v1/sweeps", `{"spacee":{}}`},
		{"/v1/search", `{"query":"max-snr","budgett":5}`},
	} {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, body %s", tc.path, resp.StatusCode, body)
		}
		var env errorJSON
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s: non-envelope error body %s", tc.path, body)
		}
		if env.Error.Code != CodeBadRequest {
			t.Fatalf("%s: code %q", tc.path, env.Error.Code)
		}
		if !strings.Contains(env.Error.Message, "unknown field") ||
			!strings.Contains(env.Error.Message, `"`) {
			t.Fatalf("%s: message does not name the field: %q", tc.path, env.Error.Message)
		}
	}
}

// TestScenariosEndpoint is the golden shape test for GET /v1/scenarios:
// the key sets are pinned exactly, so accidental wire drift fails here.
func TestScenariosEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, 0, ManagerConfig{})
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	keys := func(m map[string]json.RawMessage) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	if got, want := keys(raw), []string{"count", "default", "scenarios"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("top-level keys %v, want %v", got, want)
	}
	var list ScenarioListJSON
	full, _ := json.Marshal(raw)
	if err := json.Unmarshal(full, &list); err != nil {
		t.Fatal(err)
	}
	if list.Default != scenario.DefaultName {
		t.Fatalf("default %q", list.Default)
	}
	if list.Count < 2 || list.Count != len(list.Scenarios) {
		t.Fatalf("count %d over %d scenarios", list.Count, len(list.Scenarios))
	}
	var rows []map[string]json.RawMessage
	if err := json.Unmarshal(raw["scenarios"], &rows); err != nil {
		t.Fatal(err)
	}
	byName := map[string]ScenarioJSON{}
	for i, sc := range list.Scenarios {
		byName[sc.Name] = sc
		rowKeys := keys(rows[i])
		// Optional fields (default, input_peak_v) may be absent; the
		// mandatory shape must hold for every row.
		for _, want := range []string{"name", "description", "architectures", "recon_method", "space"} {
			if !slicesContains(rowKeys, want) {
				t.Fatalf("scenario %s missing key %q (have %v)", sc.Name, want, rowKeys)
			}
		}
		var space map[string]json.RawMessage
		if err := json.Unmarshal(rows[i]["space"], &space); err != nil {
			t.Fatal(err)
		}
		if got, want := keys(space), []string{"architectures", "bits", "chold", "lna_noise", "m"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("scenario %s space keys %v, want %v", sc.Name, got, want)
		}
	}
	eeg, ok := byName["eeg-epilepsy"]
	if !ok || !eeg.Default || len(eeg.Architectures) != 4 || eeg.ReconMethod != "omp" {
		t.Fatalf("eeg-epilepsy row: %+v", eeg)
	}
	ecg, ok := byName["ecg-telemonitoring"]
	if !ok || ecg.Default || len(ecg.Architectures) != 2 || ecg.ReconMethod != "bomp" {
		t.Fatalf("ecg-telemonitoring row: %+v", ecg)
	}
	if ecg.InputPeakV <= 0 {
		t.Fatalf("ecg input peak %g", ecg.InputPeakV)
	}
}

func slicesContains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestScenarioSelectionOnWire drives submission, status, listing filter
// and the terminal SSE event for a non-default scenario, plus the
// bad-request paths (unknown scenario, out-of-set architecture).
func TestScenarioSelectionOnWire(t *testing.T) {
	ts, _, _ := newTestServer(t, 0, ManagerConfig{})

	// Unknown scenario: rejected before any work happens.
	resp := postJSON(t, ts.URL+"/v1/sweeps", `{"options":{"scenario":"no-such-workload"}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown scenario: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// An architecture outside the scenario's set is rejected even though
	// the registry knows it globally.
	resp = postJSON(t, ts.URL+"/v1/evaluate",
		`{"options":{"scenario":"ecg-telemonitoring"},"point":{"arch":"cs-digital","bits":8,"lna_noise":5e-6,"m":75}}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "ecg-telemonitoring") {
		t.Fatalf("out-of-set arch: status %d, body %s", resp.StatusCode, body)
	}

	// One default-scenario sweep, one ECG sweep.
	def := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"space":{"architectures":["baseline"],"bits":[8],"lna_noise":[5e-6]}}`))
	ecg := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"options":{"scenario":"ecg-telemonitoring"},"space":{"architectures":["cs"],"bits":[8],"lna_noise":[5e-6],"m":[75]}}`))
	if def.Scenario != scenario.DefaultName {
		t.Fatalf("default sweep scenario %q (canonicalisation broken)", def.Scenario)
	}
	if ecg.Scenario != "ecg-telemonitoring" {
		t.Fatalf("ecg sweep scenario %q", ecg.Scenario)
	}
	waitTerminal(t, ts.URL, def.ID)
	waitTerminal(t, ts.URL, ecg.ID)

	// Listing filter: ?scenario= selects exactly the matching jobs.
	for filter, wantID := range map[string]string{
		"ecg-telemonitoring": ecg.ID,
		scenario.DefaultName: def.ID,
	} {
		resp, err := http.Get(ts.URL + "/v1/sweeps?scenario=" + filter)
		if err != nil {
			t.Fatal(err)
		}
		var list JobListJSON
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if list.Count != 1 || list.Jobs[0].ID != wantID || list.Jobs[0].Scenario != filter {
			t.Fatalf("?scenario=%s: %+v", filter, list)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/sweeps?scenario=not-registered")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad filter status %d", resp.StatusCode)
	}

	// The terminal SSE event names the scenario.
	evResp, err := http.Get(ts.URL + "/v1/sweeps/" + ecg.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, evResp.Body)
	evResp.Body.Close()
	var done map[string]interface{}
	for _, ev := range events {
		if ev.name == "done" {
			done = ev.data
		}
	}
	if done == nil || done["scenario"] != "ecg-telemonitoring" {
		t.Fatalf("done event scenario: %v", done)
	}
}

// TestScenarioCacheDisjoint is the end-to-end acceptance test: the same
// design point evaluated under two scenarios must occupy two cache
// entries (fingerprint-disjoint), an ECG sweep and /v1/search must run
// through the real suite stack, and re-evaluation within one scenario
// must still hit its own warm entry.
func TestScenarioCacheDisjoint(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a (tiny) detector and runs real reconstructions")
	}
	engines := NewSuiteEngines(0)
	mgr, err := NewManager(ManagerConfig{
		Defaults: experiments.Options{Seed: 7, Records: 2, TrainRecords: 6,
			NoiseSteps: 2, Epochs: 2, MinAccuracy: 0.01},
		Engines: engines.Engine,
		Cache:   engines.Cache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(mgr, nil))
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Shutdown(ctx)
	}()
	point := `{"arch":"cs","bits":6,"lna_noise":5e-6,"m":75}`
	eval := func(scenarioField string) ResultJSON {
		t.Helper()
		body := `{"point":` + point + `}`
		if scenarioField != "" {
			body = `{"options":{"scenario":"` + scenarioField + `"},"point":` + point + `}`
		}
		resp := postJSON(t, ts.URL+"/v1/evaluate", body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("evaluate (%q): status %d, body %s", scenarioField, resp.StatusCode, b)
		}
		var rj ResultJSON
		if err := json.NewDecoder(resp.Body).Decode(&rj); err != nil {
			t.Fatal(err)
		}
		return rj
	}

	first := eval("")
	if first.Cached {
		t.Fatal("first EEG evaluation reported a cache hit")
	}
	ecgFirst := eval("ecg-telemonitoring")
	if ecgFirst.Cached {
		t.Fatal("first ECG evaluation hit the EEG cache entry: fingerprints alias")
	}
	st := engines.Cache().Stats()
	if st.Entries < 2 {
		t.Fatalf("expected >=2 disjoint cache entries, have %d", st.Entries)
	}
	if again := eval("ecg-telemonitoring"); !again.Cached {
		t.Fatal("repeat ECG evaluation missed its own warm entry")
	} else if again.SNRdB != ecgFirst.SNRdB || again.TotalW != ecgFirst.TotalW {
		t.Fatalf("cached ECG result drifted: %+v vs %+v", again, ecgFirst)
	}
	// Explicitly naming the default scenario must land on the implicit
	// default's entry — they are the same workload by contract.
	if again := eval(scenario.DefaultName); !again.Cached {
		t.Fatal("explicit eeg-epilepsy missed the implicit default's cache entry")
	} else if again.SNRdB != first.SNRdB || again.Accuracy != first.Accuracy {
		t.Fatalf("explicit default diverged from implicit: %+v vs %+v", again, first)
	}
	if engines.Suites() != 2 {
		t.Fatalf("expected 2 materialised suites (one per scenario), have %d", engines.Suites())
	}

	// Real reconstructions are slower than the fake engines waitTerminal
	// was sized for, so poll with a sweep-scale deadline here.
	waitLong := func(statusURL string) JobStatus {
		t.Helper()
		deadline := time.Now().Add(2 * time.Minute)
		for time.Now().Before(deadline) {
			resp, err := http.Get(ts.URL + statusURL)
			if err != nil {
				t.Fatal(err)
			}
			st := decodeStatus(t, resp)
			if JobState(st.State).Terminal() {
				return st
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Fatal("real-suite job never reached a terminal state")
		return JobStatus{}
	}

	// An ECG sweep and a goal query run end to end through the registry.
	sweep := decodeStatus(t, postJSON(t, ts.URL+"/v1/sweeps",
		`{"options":{"scenario":"ecg-telemonitoring"},"space":{"bits":[6],"noise_steps":1,"m":[75]}}`))
	final := waitLong(sweep.StatusURL)
	if final.State != string(StateCompleted) || final.Scenario != "ecg-telemonitoring" {
		t.Fatalf("ecg sweep: state %s scenario %s error %s", final.State, final.Scenario, final.Error)
	}
	if final.Result == nil || final.Result.Points != 2 { // {baseline, cs} x 1 noise x 1 bits
		t.Fatalf("ecg sweep outcome: %+v", final.Result)
	}
	srch := decodeStatus(t, postJSON(t, ts.URL+"/v1/search",
		`{"query":"max-snr","max_evaluations":4,"options":{"scenario":"ecg-telemonitoring"},"space":{"bits":[6],"noise_steps":2,"m":[75]}}`))
	sfinal := waitLong(srch.StatusURL)
	if sfinal.State != string(StateCompleted) || sfinal.Scenario != "ecg-telemonitoring" {
		t.Fatalf("ecg search: state %s scenario %s error %s", sfinal.State, sfinal.Scenario, sfinal.Error)
	}
	if sfinal.Search == nil || len(sfinal.Search.Front) == 0 {
		t.Fatalf("ecg search outcome: %+v", sfinal.Search)
	}
}
