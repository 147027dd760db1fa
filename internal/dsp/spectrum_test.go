package dsp

import (
	"math"
	"testing"

	"efficsense/internal/xrand"
)

func TestWelchParseval(t *testing.T) {
	rng := xrand.New(21)
	v := make([]float64, 8192)
	rng.FillNormal(v, 0, 2) // power 4
	psd := Welch(v, 1000, 512)
	total := psd.TotalPower()
	if math.Abs(total-4) > 0.4 {
		t.Fatalf("Welch total power = %g, want ~4", total)
	}
}

func TestWelchTonePosition(t *testing.T) {
	const fs = 1024.0
	v := makeSine(8192, 100, fs, 1)
	psd := Welch(v, fs, 1024)
	_, idx := Peak(psd.Density)
	if math.Abs(psd.Freqs[idx]-100) > 2*psd.BinWidth {
		t.Fatalf("tone found at %g Hz, want 100", psd.Freqs[idx])
	}
	// The tone's power (0.5) should land in a narrow band around 100 Hz.
	band := psd.BandPower(90, 110)
	if math.Abs(band-0.5) > 0.05 {
		t.Fatalf("band power = %g, want ~0.5", band)
	}
}

func TestWelchEmpty(t *testing.T) {
	psd := Welch(nil, 1000, 256)
	if psd.TotalPower() != 0 {
		t.Fatal("empty input should give zero PSD")
	}
}

func TestWelchShortInput(t *testing.T) {
	v := makeSine(100, 10, 100, 1)
	psd := Welch(v, 100, 256)
	if len(psd.Density) == 0 {
		t.Fatal("short input should still produce a PSD")
	}
}

func TestBandPowerSplit(t *testing.T) {
	const fs = 1024.0
	v := makeSine(16384, 50, fs, 1)
	hi := makeSine(16384, 300, fs, 0.5)
	for i := range v {
		v[i] += hi[i]
	}
	lo := BandPower(v, fs, 20, 80)
	high := BandPower(v, fs, 270, 330)
	if math.Abs(lo-0.5) > 0.05 {
		t.Errorf("low band power = %g, want 0.5", lo)
	}
	if math.Abs(high-0.125) > 0.02 {
		t.Errorf("high band power = %g, want 0.125", high)
	}
}

func TestMedianFrequency(t *testing.T) {
	const fs = 1024.0
	// Two equal tones at 50 and 200: median frequency between them.
	v := makeSine(16384, 50, fs, 1)
	b := makeSine(16384, 200, fs, 1)
	for i := range v {
		v[i] += b[i]
	}
	psd := Welch(v, fs, 1024)
	mf := psd.MedianFrequency()
	if mf < 45 || mf > 205 {
		t.Fatalf("median frequency = %g, want between the tones", mf)
	}
}

func TestSpectralEdge(t *testing.T) {
	const fs = 1024.0
	v := makeSine(16384, 100, fs, 1)
	psd := Welch(v, fs, 1024)
	edge := psd.SpectralEdge(0.95)
	if edge < 90 || edge > 120 {
		t.Fatalf("95%% spectral edge = %g, want ~100", edge)
	}
	if got := psd.SpectralEdge(0); got > psd.Freqs[len(psd.Freqs)-1] {
		t.Fatalf("edge(0) = %g out of range", got)
	}
}

// BenchmarkWelchRecord is the detector's spectral estimate of one EEG
// record: 12 080 samples in 512-point segments.
func BenchmarkWelchRecord(b *testing.B) {
	v := make([]float64, 12080)
	xrand.New(1).FillNormal(v, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		psdSink = Welch(v, 537.6, 512)
	}
}

var psdSink PSD
