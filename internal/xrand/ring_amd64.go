//go:build amd64 && !purego

package xrand

// normalsAVX512 is the vector body of fillNormal: it converts words to
// Gaussian draws in dst, 16 per iteration, while every word passes the
// ziggurat's fast test, and returns how many leading words did. dst and
// words must have the same positive length, a multiple of 16. Of dst,
// only the returned prefix holds draws; the rest of the 16 that held the
// first failing word is overwritten, for fillNormal to write again.
//
//go:noescape
func normalsAVX512(dst []float64, words []uint64) int

// refillAVX512 is the vector body of refill.
//
//go:noescape
func refillAVX512(v *[ringLen]uint64)
