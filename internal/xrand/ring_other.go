//go:build !amd64 || purego

package xrand

// The vector bodies are compiled out: isa.Host is isa.Go, so the ring
// runs its Go bodies and never calls these stubs.

func normalsAVX512(dst []float64, words []uint64) int {
	panic("xrand: vector kernel called without vector support")
}

func refillAVX512(v *[ringLen]uint64) {
	panic("xrand: vector kernel called without vector support")
}
