//go:build amd64 && !purego

package isa

// Host is the widest tier the CPU and OS support, checked once at init
// via CPUID/XGETBV: AVX needs the CPU flag and OS support for saving the
// YMM state (OSXSAVE + XCR0); AVX-512 needs AVX512F and OS support for
// the opmask and ZMM state as well.
var Host = probe()

func probe() Tier {
	switch {
	case !cpuidHasAVX():
		return Go
	case !cpuidHasAVX512():
		return AVX
	}
	return AVX512
}

// cpuidHasAVX reports whether the CPU and OS support AVX.
func cpuidHasAVX() bool

// cpuidHasAVX512 reports whether the CPU and OS support AVX512F; call it
// only once cpuidHasAVX has reported OSXSAVE.
func cpuidHasAVX512() bool
