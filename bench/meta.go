package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"
)

// meta identifies where and on what a run was measured.
type meta struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// CalibrationMS times a fixed pure-Go loop, so two runs can be
	// judged for machine speed. It is informational: nothing is divided
	// by it.
	CalibrationMS float64 `json:"calibration_ms"`
}

func collectMeta(seed int64, seconds float64) meta {
	return meta{
		Commit:        commit(),
		Go:            runtime.Version(),
		CPU:           cpuModel(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seed:          seed,
		Seconds:       seconds,
		CalibrationMS: calibrate(),
	}
}

// commit is the VCS revision the binary was built from ("unknown" when
// built outside a git checkout).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

var calibrationSink float64

// calibrate times 2·10⁷ rounds of integer and floating-point arithmetic.
func calibrate() float64 {
	start := time.Now()
	x, f := uint64(1), 0.0
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		f += float64(x>>11) * 0x1p-53
	}
	calibrationSink = f
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or the
// Go runtime's total obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// rtSnap is a reading of the runtime counters a phase is charged with.
type rtSnap struct {
	alloc, mallocs           uint64
	gcCPU, totalCPU, idleCPU float64
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSnap{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcCPU: f(0), totalCPU: f(1), idleCPU: f(2)}
}

// runtimeLayers charges the allocations and GC work between a and b to
// points answered design points. The GC share is of the CPU time the
// process was busy, as the runtime estimates it.
func (c *runCtx) runtimeLayers(a, b rtSnap, points int) {
	if points <= 0 {
		return
	}
	n := float64(points)
	c.layers["runtime.alloc_mb_per_point"] = float64(b.alloc-a.alloc) / (1 << 20) / n
	c.layers["runtime.allocs_per_point"] = float64(b.mallocs-a.mallocs) / n
	if busy := (b.totalCPU - a.totalCPU) - (b.idleCPU - a.idleCPU); busy > 0 {
		c.layers["runtime.gc_cpu_share"] = (b.gcCPU - a.gcCPU) / busy
	}
}
