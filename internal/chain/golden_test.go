package chain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"testing"

	"efficsense/internal/cs"
	"efficsense/internal/power"
)

// goldenRuns builds one fresh chain per case for TestRunGolden.
func goldenRuns() map[string]func() func(input []float64, rate float64) Output {
	csCase := func(seed int64, method cs.Method, leak bool) func() func([]float64, float64) Output {
		return func() func([]float64, float64) Output {
			return NewCS(CSConfig{Common: testCommon(7, 3e-6, seed), M: 96, NPhi: 256,
				ReconMethod: method, ModelLeakage: leak}).Run
		}
	}
	return map[string]func() func([]float64, float64) Output{
		"baseline": func() func([]float64, float64) Output {
			return NewBaseline(testCommon(7, 4e-6, 11)).Run
		},
		"cs/omp":       csCase(12, cs.MethodOMP, false),
		"cs/bomp":      csCase(12, cs.MethodBOMP, false),
		"cs/iht":       csCase(12, cs.MethodIHT, false),
		"cs/ridge":     csCase(12, cs.MethodRidge, false),
		"cs/omp-droop": csCase(12, cs.MethodOMP, true),
		"cs-digital": func() func([]float64, float64) Output {
			return NewDigitalCS(CSConfig{Common: testCommon(7, 3e-6, 13), M: 96, NPhi: 256}).Run
		},
		"cs-active": func() func([]float64, float64) Output {
			return NewActiveCS(CSConfig{Common: testCommon(7, 3e-6, 14), M: 96, NPhi: 256}).Run
		},
	}
}

// runGolden holds the SHA-256 of two consecutive Run outputs per case,
// captured from the per-chain wiring Run replaced.
var runGolden = map[string]string{
	"baseline":     "c07ea7d619f6cc044dc922b208dbab645bb34f31e2c2cee73356250834a82beb",
	"cs/omp":       "d493806b1f591475be28dc62d73cb4e4bb1b2ea64d10384137fdc7f6420fc06b",
	"cs/bomp":      "978f8360647d67890d4960e0f881159ff1a174c02c4a552f926f2ac4e0a2f1f3",
	"cs/iht":       "6b59d65b8b3674df6334efaf8b3cea49c1b946825f168cb8fa8cf2dae4fffeb3",
	"cs/ridge":     "836f585e5448dfb963dd41f5a1afa586915d123dee4e8edca9f25257054976c3",
	"cs/omp-droop": "acac75d635f6ed3332f8ff4b2889ef8c56e57e58722afcab4eb9e010b55aa8e2",
	"cs-digital":   "e6c87d35f80df9401c159b7e2e5869f46f7b9b46b69e6e0c2aaa0590c58922cc",
	"cs-active":    "a73f9e2152200e170a088fa016a5c83374b7c7fd19e4a66cfe89ca4a9731b0e1",
}

// outputDigest folds an Output into h: sample count and bits, rate, gain,
// every power component in name order, and area.
func outputDigest(h []byte, o Output) []byte {
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h = append(h, buf[:]...)
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(len(o.Samples)))
	h = append(h, buf[:]...)
	for _, v := range o.Samples {
		put(v)
	}
	put(o.Rate)
	put(o.Gain)
	names := make([]string, 0, len(o.Power))
	for c := range o.Power {
		names = append(names, string(c))
	}
	sort.Strings(names)
	for _, n := range names {
		h = append(h, n...)
		put(o.Power[power.Component(n)])
	}
	put(o.AreaCaps)
	return h
}

// TestRunGolden pins every chain's public Run to committed digests. Each
// case runs two consecutive records through one chain: the SAR and
// encoder noise streams are chain state, so the second record checks
// that they advance exactly as before.
func TestRunGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests were captured with the amd64 math kernels")
	}
	in := testInput(8192)
	records := [][]float64{in[:4096], in[4096:]}
	for name, build := range goldenRuns() {
		run := build()
		var h []byte
		for _, rec := range records {
			h = outputDigest(h, run(rec, 512))
		}
		sum := sha256.Sum256(h)
		if got := hex.EncodeToString(sum[:]); got != runGolden[name] {
			t.Errorf("%s: Run digest %s, want %s", name, got, runGolden[name])
		}
	}
}
