package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"efficsense/internal/core"
	"efficsense/internal/power"
)

// powerComponents is the block library's component set, in the order a
// FuzzResultJSON mask selects them.
var powerComponents = []power.Component{
	power.CompLNA, power.CompSampleHold, power.CompComparator,
	power.CompSARLogic, power.CompDAC, power.CompTransmitter,
	power.CompCSEncoder, power.CompIntegrators, power.CompLeakage,
}

// encodeIndented is the reference rendering: what writeJSON's encoder
// makes of v.
func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// sameRefusal reports whether the appender refused a value the way
// encoding/json did: both with a *json.UnsupportedValueError carrying
// the same message.
func sameRefusal(got, want error) bool {
	var g, w *json.UnsupportedValueError
	return errors.As(got, &g) && errors.As(want, &w) && got.Error() == want.Error()
}

// FuzzResultJSON is the referee for the hand-written /v1/evaluate
// replies: for any result, the single-point and batch renderings must
// be byte for byte what encoding/json writes for resultJSON (with
// SetIndent("", "  ")), and a value encoding/json refuses (a
// non-finite float) must be refused with the same error. The float
// arguments are raw bits, so the fuzzer reaches ±0, subnormals, NaN
// payloads and both 'f'/'e' format switches; mask selects the power
// components (bit 9 adds a component named key).
func FuzzResultJSON(f *testing.F) {
	bits := math.Float64bits
	type seed struct {
		arch                              uint8
		nbits, m                          int64
		noise, chold, snr, acc, tot, area uint64
		mask                              uint16
		pw                                uint64
		key, msg                          string
		withErr, cached                   bool
	}
	for _, s := range []seed{
		{0, 8, 0, bits(6e-6), 0, bits(24.5), bits(0.99), bits(2.44e-6), bits(512), 0x1ff, bits(3.1e-7), "", "", false, true},
		{1, 8, 150, bits(2e-6), bits(80e-15), bits(-3), bits(0), bits(1e21), bits(999999999999999999999), 0x03, bits(1e-6), "", "", false, false},
		{2, 6, 75, bits(math.Nextafter(1e-6, 0)), bits(math.Copysign(0, -1)), bits(math.Copysign(0, -1)), bits(math.SmallestNonzeroFloat64), bits(math.MaxFloat64), bits(-1e-7), 0x200, bits(5e-324), "<S&H>", "", true, true},
		{3, 0, -1, 1, 1 << 63, bits(1e-300), bits(1e300), bits(123456789.125), bits(0.1), 0x3ff, bits(7), "\u2028\u2029\x00\x1f\x7f", "dse: evaluating <cs> panicked: \"boom\" \\ \b\f\n\r\t \xff\xfe \u2028 \u2029 \u00e9", true, false},
		{9, 8, 0, bits(math.Inf(1)), 0, bits(1), bits(1), bits(1), bits(1), 0, 0, "", "", false, false},
		{0, 8, 0, bits(1e-6), 0, bits(math.NaN()), bits(math.Inf(-1)), bits(1), bits(1), 0x1ff, bits(math.Inf(1)), "", "", false, false},
		{0, 8, 0, bits(1e-6), 0, bits(1), bits(1), bits(1), bits(1), 0x10, bits(math.MaxFloat64), "", "", false, false},
	} {
		f.Add(s.arch, s.nbits, s.m, s.noise, s.chold, s.snr, s.acc, s.tot, s.area, s.mask, s.pw, s.key, s.msg, s.withErr, s.cached)
	}
	f.Fuzz(func(t *testing.T, arch uint8, nbits, m int64, noise, chold, snr, acc, tot, area uint64,
		mask uint16, pw uint64, key, msg string, withErr, cached bool) {
		val := math.Float64frombits
		r := core.Result{
			Point: core.DesignPoint{
				Arch: core.Architecture(arch), Bits: int(nbits), LNANoise: val(noise),
				M: int(m), CHold: val(chold),
			},
			MeanSNRdB: val(snr), Accuracy: val(acc), TotalPower: val(tot), AreaCaps: val(area),
		}
		for i, c := range powerComponents {
			if mask&(1<<i) != 0 {
				if r.Power == nil {
					r.Power = power.Breakdown{}
				}
				r.Power[c] = val(pw) * float64(i+1)
			}
		}
		if mask&(1<<9) != 0 {
			if r.Power == nil {
				r.Power = power.Breakdown{}
			}
			r.Power[power.Component(key)] = val(pw)
		}
		if withErr {
			r.Err = errors.New(msg)
		}

		rj := resultJSON(r)
		rj.Cached = cached
		want, wantErr := encodeIndented(rj)
		got, err := appendEvaluateReply(nil, r, cached)
		check := func(arm string, got, want []byte, err, wantErr error) {
			t.Helper()
			switch {
			case wantErr != nil:
				if !sameRefusal(err, wantErr) {
					t.Fatalf("%s: encoding/json refuses %+v with %v, the appender with %v", arm, r, wantErr, err)
				}
			case err != nil:
				t.Fatalf("%s: appender refuses %+v (%v), encoding/json writes\n%s", arm, r, err, want)
			case !bytes.Equal(got, want):
				t.Fatalf("%s: appender writes\n%s\nencoding/json writes\n%s", arm, got, want)
			}
		}
		check("single point", got, want, err, wantErr)

		// The batch arm nests rows two levels deep; a degraded second
		// row makes the reply partial.
		rows := []core.Result{r, {Point: r.Point, Err: errors.New("dse: degraded")}}
		flags := []bool{cached, false}
		for n := 1; n <= len(rows); n++ {
			resp := EvaluateBatchResponse{Count: n, Results: make([]ResultJSON, n)}
			for i, row := range rows[:n] {
				resp.Results[i] = resultJSON(row)
				resp.Results[i].Cached = flags[i]
				if row.Err != nil {
					resp.Errors++
					resp.Partial = true
				}
			}
			want, wantErr := encodeIndented(resp)
			got, err := appendEvaluateBatchReply(nil, rows[:n], flags[:n])
			check("batch", got, want, err, wantErr)
		}
	})
}

// jsonNames lists the JSON member names of struct type t's fields.
func jsonNames(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// sortedKeys lists an object's member names.
func sortedKeys(m map[string]json.RawMessage) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestResultRowWritesEveryField fails when ResultJSON or PointSpec
// gains a field the appender does not write: a result with every field
// set must render every member the wire types declare.
func TestResultRowWritesEveryField(t *testing.T) {
	r := core.Result{
		Point:     core.DesignPoint{Arch: core.ArchCS, Bits: 8, LNANoise: 2e-6, M: 150, CHold: 80e-15},
		MeanSNRdB: 12.5, Accuracy: 0.98, TotalPower: 2.4e-6, AreaCaps: 640,
		Power: power.Breakdown{power.CompLNA: 1e-6},
		Err:   errors.New("degraded"),
	}
	b, err := appendEvaluateReply(nil, r, true)
	if err != nil {
		t.Fatal(err)
	}
	var row map[string]json.RawMessage
	if err := json.Unmarshal(b, &row); err != nil {
		t.Fatal(err)
	}
	var point map[string]json.RawMessage
	if err := json.Unmarshal(row["point"], &point); err != nil {
		t.Fatal(err)
	}
	if got, want := sortedKeys(row), jsonNames(reflect.TypeOf(ResultJSON{})); !reflect.DeepEqual(got, want) {
		t.Errorf("row members %v, ResultJSON declares %v", got, want)
	}
	if got, want := sortedKeys(point), jsonNames(reflect.TypeOf(PointSpec{})); !reflect.DeepEqual(got, want) {
		t.Errorf("point members %v, PointSpec declares %v", got, want)
	}
}
