// Package isa probes, once at init, which vector kernel bodies the CPU
// and OS support, and names the tier that the kernels of internal/xrand
// and internal/dsp run. It is a leaf: both of those packages import it,
// so the host is probed once whichever of them a program uses.
package isa

// Tier is an instruction-set level of the kernel bodies.
type Tier int

const (
	Go     Tier = iota // the Go loops
	AVX                // 256-bit bodies
	AVX512             // 512-bit bodies (AVX512F)
)

// String names the tier: "go", "avx" or "avx512".
func (t Tier) String() string { return [...]string{Go: "go", AVX: "avx", AVX512: "avx512"}[t] }

// kernels is the tier the kernels run: Host unless a test lowered it.
var kernels = Host

// Kernels returns the tier the kernels run: Host, the widest the CPU
// and OS support, unless a test has lowered it. Results never depend on
// it; throughput does.
func Kernels() Tier { return kernels }

// Lower makes the kernels run tier t until restore is called, so that a
// test can run every body the host has. No flag, option or environment
// variable reaches it. It panics if t exceeds Host.
func Lower(t Tier) (restore func()) {
	if t < Go || t > Host {
		panic("isa: tier " + t.String() + " exceeds the host's " + Host.String())
	}
	old := kernels
	kernels = t
	return func() { kernels = old }
}
