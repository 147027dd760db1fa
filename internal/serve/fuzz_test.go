package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"efficsense/internal/core"
	"efficsense/internal/dse"
	"efficsense/internal/scenario"
)

// FuzzDecodeEvaluateRequest pins the POST /v1/evaluate decoder: no body
// panics decodeBody or PointSpec.DesignPoint, every point the wire
// accepts is one a sweep would accept too (its one-point space
// validates and enumerates exactly that point), and an accepted point
// survives the wire round trip unchanged.
func FuzzDecodeEvaluateRequest(f *testing.F) {
	scn, err := scenario.Lookup("")
	if err != nil {
		f.Fatal(err)
	}
	// The benchmark's bodies: the default space in one batch, then one
	// point at a time.
	pts := scn.Space(0).Points()
	specs := make([]PointSpec, len(pts))
	for i, p := range pts {
		specs[i] = pointSpecOf(p)
	}
	for _, body := range []any{
		struct {
			Points []PointSpec `json:"points"`
		}{specs},
		struct {
			Point PointSpec `json:"point"`
		}{specs[len(specs)-1]},
	} {
		b, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// The README's examples, then the edges.
	f.Add([]byte(`{"point": {"arch": "cs", "bits": 8, "lna_noise": 6e-6, "m": 150}, "timeout_ms": 60000}`))
	f.Add([]byte(`{"points": [{"arch": "cs", "bits": 6, "lna_noise": 6e-6, "m": 150}, {"arch": "cs", "bits": 8, "lna_noise": 6e-6, "m": 150}, {"arch": "cs", "bits": 10, "lna_noise": 6e-6, "m": 150}]}`))
	f.Add([]byte(`{"point":{"arch":"cs","bits":8,"lna_noise":2e-6,"m":150,"chold":-1e-12}}`))
	f.Add([]byte(`{"options":{"scenario":"eeg-epilepsy"},"points":[{"arch":"baseline","bits":4,"lna_noise":1e-6,"m":-3}]}`))
	f.Add([]byte(`{"points":[{}]}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, body []byte) {
		var req EvaluateRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/evaluate", bytes.NewReader(body))
		if err := decodeBody(r, &req); err != nil {
			return
		}
		check := func(ps PointSpec) {
			dp, err := ps.DesignPoint(scn)
			if err != nil {
				return
			}
			one := dse.Space{Architectures: []core.Architecture{dp.Arch}, Bits: []int{dp.Bits}, LNANoise: []float64{dp.LNANoise}}
			if dp.Arch != core.ArchBaseline {
				one.M, one.CHold = []int{dp.M}, []float64{dp.CHold}
			}
			if err := one.Validate(); err != nil {
				t.Fatalf("accepted %+v as %s, which a sweep rejects: %v", ps, dp, err)
			}
			if got := one.Points(); len(got) != 1 || got[0] != dp {
				t.Fatalf("accepted %+v as %s, but its one-point space enumerates %v", ps, dp, got)
			}
			back, err := pointSpecOf(dp).DesignPoint(scn)
			if err != nil || back != dp {
				t.Fatalf("%s does not survive the wire: got %s, %v", dp, back, err)
			}
		}
		check(req.Point)
		for _, ps := range req.Points {
			check(ps)
		}
	})
}
