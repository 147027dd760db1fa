//go:build !amd64 || purego

package isa

// Host is the Go tier without the amd64 assembly kernels; every kernel
// then runs its Go loops, which compute the same per-element arithmetic.
const Host = Go
