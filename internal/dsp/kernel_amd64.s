//go:build amd64 && !purego

#include "textflag.h"

// Lane indices 0..3 and the per-iteration step, as float64 (AVX has no
// 256-bit integer add; integers below 2^53 are exact in float64).
DATA lanes0123<>+0(SB)/8, $0.0
DATA lanes0123<>+8(SB)/8, $1.0
DATA lanes0123<>+16(SB)/8, $2.0
DATA lanes0123<>+24(SB)/8, $3.0
GLOBL lanes0123<>(SB), RODATA|NOPTR, $32

DATA four<>+0(SB)/8, $4.0
GLOBL four<>(SB), RODATA|NOPTR, $8

// func cpuidHasAVX() bool
// AVX needs CPUID.1:ECX bits 27 (OSXSAVE) and 28 (AVX), plus XCR0 bits
// 1 and 2 (the OS saves XMM and YMM state on context switch).
TEXT ·cpuidHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func subRows4AVX(dst, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64)
// dst[j] = (((src[j] - c0*r0[j]) - c1*r1[j]) - c2*r2[j]) - c3*r3[j],
// 8 elements per iteration. VMULPD/VSUBPD are per-lane IEEE-754 double
// operations in the same order as the scalar loop: bit-identical.
TEXT ·subRows4AVX(SB), NOSPLIT, $0-176
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	MOVQ         r0_base+48(FP), R8
	MOVQ         r1_base+72(FP), R9
	MOVQ         r2_base+96(FP), R10
	MOVQ         r3_base+120(FP), R11
	VBROADCASTSD c0+144(FP), Y0
	VBROADCASTSD c1+152(FP), Y1
	VBROADCASTSD c2+160(FP), Y2
	VBROADCASTSD c3+168(FP), Y3
	XORQ         AX, AX
	SHRQ         $3, CX

sloop:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMULPD  (R8)(AX*8), Y0, Y6
	VSUBPD  Y6, Y4, Y4
	VMULPD  32(R8)(AX*8), Y0, Y7
	VSUBPD  Y7, Y5, Y5
	VMULPD  (R9)(AX*8), Y1, Y6
	VSUBPD  Y6, Y4, Y4
	VMULPD  32(R9)(AX*8), Y1, Y7
	VSUBPD  Y7, Y5, Y5
	VMULPD  (R10)(AX*8), Y2, Y6
	VSUBPD  Y6, Y4, Y4
	VMULPD  32(R10)(AX*8), Y2, Y7
	VSUBPD  Y7, Y5, Y5
	VMULPD  (R11)(AX*8), Y3, Y6
	VSUBPD  Y6, Y4, Y4
	VMULPD  32(R11)(AX*8), Y3, Y7
	VSUBPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	DECQ    CX
	JNZ     sloop
	VZEROUPPER
	RET

// func addRows4AVX(dst, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64)
// dst[j] = (((dst[j] + c0*r0[j]) + c1*r1[j]) + c2*r2[j]) + c3*r3[j],
// 8 elements per iteration, same per-lane IEEE order as the scalar loop.
TEXT ·addRows4AVX(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         r0_base+24(FP), R8
	MOVQ         r1_base+48(FP), R9
	MOVQ         r2_base+72(FP), R10
	MOVQ         r3_base+96(FP), R11
	VBROADCASTSD c0+120(FP), Y0
	VBROADCASTSD c1+128(FP), Y1
	VBROADCASTSD c2+136(FP), Y2
	VBROADCASTSD c3+144(FP), Y3
	XORQ         AX, AX
	SHRQ         $3, CX

aloop:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMULPD  (R8)(AX*8), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  32(R8)(AX*8), Y0, Y7
	VADDPD  Y7, Y5, Y5
	VMULPD  (R9)(AX*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  32(R9)(AX*8), Y1, Y7
	VADDPD  Y7, Y5, Y5
	VMULPD  (R10)(AX*8), Y2, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  32(R10)(AX*8), Y2, Y7
	VADDPD  Y7, Y5, Y5
	VMULPD  (R11)(AX*8), Y3, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  32(R11)(AX*8), Y3, Y7
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	DECQ    CX
	JNZ     aloop
	VZEROUPPER
	RET

// func subRows4ArgMaxAVX(src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64, mask []uint64, den []float64, lanes *argMaxLanes)
// Per lane, 4 elements per iteration: v = (((src - c0*r0) - c1*r1) -
// c2*r2) - c3*r3 as in subRows4AVX, a = (v AND mask) / den, and the
// lane's running best (value, index) takes (a, j) when a > best (ordered,
// non-signalling: false for NaN), so each lane keeps the first of its
// maxima. VANDPD, VDIVPD and VCMPPD are per-lane IEEE-754 operations, so
// every a is bitwise the scalar loop's.
TEXT ·subRows4ArgMaxAVX(SB), NOSPLIT, $0-208
	MOVQ         src_base+0(FP), SI
	MOVQ         src_len+8(FP), CX
	MOVQ         r0_base+24(FP), R8
	MOVQ         r1_base+48(FP), R9
	MOVQ         r2_base+72(FP), R10
	MOVQ         r3_base+96(FP), R11
	VBROADCASTSD c0+120(FP), Y0
	VBROADCASTSD c1+128(FP), Y1
	VBROADCASTSD c2+136(FP), Y2
	VBROADCASTSD c3+144(FP), Y3
	MOVQ         mask_base+152(FP), R12
	MOVQ         den_base+176(FP), R13
	MOVQ         lanes+200(FP), DI
	VMOVUPD      0(DI), Y6            // running best value per lane
	VMOVUPD      32(DI), Y7           // its index
	VMOVUPD      lanes0123<>(SB), Y8  // index of each lane's element
	VBROADCASTSD four<>(SB), Y9
	XORQ         AX, AX
	SHRQ         $2, CX

mloop:
	VMOVUPD   (SI)(AX*8), Y4
	VMULPD    (R8)(AX*8), Y0, Y5
	VSUBPD    Y5, Y4, Y4
	VMULPD    (R9)(AX*8), Y1, Y5
	VSUBPD    Y5, Y4, Y4
	VMULPD    (R10)(AX*8), Y2, Y5
	VSUBPD    Y5, Y4, Y4
	VMULPD    (R11)(AX*8), Y3, Y5
	VSUBPD    Y5, Y4, Y4
	VANDPD    (R12)(AX*8), Y4, Y4
	VDIVPD    (R13)(AX*8), Y4, Y4
	VCMPPD    $0x1e, Y6, Y4, Y5   // GT_OQ: a > best
	VBLENDVPD Y5, Y4, Y6, Y6
	VBLENDVPD Y5, Y8, Y7, Y7
	VADDPD    Y9, Y8, Y8
	ADDQ      $4, AX
	DECQ      CX
	JNZ       mloop
	VMOVUPD   Y6, 0(DI)
	VMOVUPD   Y7, 32(DI)
	VZEROUPPER
	RET

// func butterfliesAVX(re, im, wr, wi []float64)
// One FFT stage of half-length h = len(wr), 4 butterflies per iteration:
// tr = br*wr - bi*wi, ti = br*wi + bi*wr, then (ar+tr, ai+ti) to the
// first half and (ar-tr, ai-ti) to the second. Per-lane VMULPD, VADDPD
// and VSUBPD in the order of the scalar loop: bit-identical.
TEXT ·butterfliesAVX(SB), NOSPLIT, $0-96
	MOVQ re_base+0(FP), SI
	MOVQ re_len+8(FP), CX
	MOVQ im_base+24(FP), DI
	MOVQ wr_base+48(FP), R8
	MOVQ wr_len+56(FP), R10
	MOVQ wi_base+72(FP), R9
	MOVQ R10, R11
	SHLQ $3, R11            // h in bytes: offset of a block's second half
	LEAQ (SI)(CX*8), R14    // end of re

block:
	LEAQ (SI)(R11*1), R12   // second half of re
	LEAQ (DI)(R11*1), R13   // second half of im
	XORQ AX, AX

bloop:
	VMOVUPD (R8)(AX*8), Y0  // wr
	VMOVUPD (R9)(AX*8), Y1  // wi
	VMOVUPD (R12)(AX*8), Y2 // br
	VMOVUPD (R13)(AX*8), Y3 // bi
	VMULPD  Y0, Y2, Y4
	VMULPD  Y1, Y3, Y5
	VSUBPD  Y5, Y4, Y4      // tr = br*wr - bi*wi
	VMULPD  Y1, Y2, Y6
	VMULPD  Y0, Y3, Y7
	VADDPD  Y7, Y6, Y6      // ti = br*wi + bi*wr
	VMOVUPD (SI)(AX*8), Y8  // ar
	VMOVUPD (DI)(AX*8), Y9  // ai
	VADDPD  Y4, Y8, Y10
	VSUBPD  Y4, Y8, Y11
	VADDPD  Y6, Y9, Y12
	VSUBPD  Y6, Y9, Y13
	VMOVUPD Y10, (SI)(AX*8)
	VMOVUPD Y11, (R12)(AX*8)
	VMOVUPD Y12, (DI)(AX*8)
	VMOVUPD Y13, (R13)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, R10
	JLT     bloop
	LEAQ    (R12)(R11*1), SI
	LEAQ    (R13)(R11*1), DI
	CMPQ    SI, R14
	JCS     block
	VZEROUPPER
	RET

// The first two stages have blocks shorter than a vector, so their
// kernels take 8 elements (two blocks of h = 2, four of h = 1) per
// iteration, shuffle the first halves into Y2/Y3 and the second halves
// into Y4/Y5, run the butterfly of butterfliesAVX on them, and shuffle
// the results back. Each lane sees the scalar loop's arithmetic.
//
// BFLY computes, from a = (Y2, Y3), b = (Y4, Y5) and w = (Y0, Y1),
// a+b*w into (Y10, Y12) and a-b*w into (Y11, Y13).
#define BFLY \
	VMULPD Y0, Y4, Y6  \
	VMULPD Y1, Y5, Y7  \
	VSUBPD Y7, Y6, Y6  \
	VMULPD Y1, Y4, Y8  \
	VMULPD Y0, Y5, Y9  \
	VADDPD Y9, Y8, Y8  \
	VADDPD Y6, Y2, Y10 \
	VSUBPD Y6, Y2, Y11 \
	VADDPD Y8, Y3, Y12 \
	VSUBPD Y8, Y3, Y13

// func butterflies1AVX(re, im, wr, wi []float64)
// h = 1: pairs (x[2j], x[2j+1]); VUNPCKLPD/VUNPCKHPD split 8 elements
// into the 4 first and the 4 second members, and merge them back.
TEXT ·butterflies1AVX(SB), NOSPLIT, $0-96
	MOVQ         re_base+0(FP), SI
	MOVQ         re_len+8(FP), CX
	MOVQ         im_base+24(FP), DI
	MOVQ         wr_base+48(FP), R8
	MOVQ         wi_base+72(FP), R9
	VBROADCASTSD (R8), Y0
	VBROADCASTSD (R9), Y1
	SHRQ         $3, CX
	XORQ         AX, AX

loop1:
	VMOVUPD    (SI)(AX*8), Y14
	VMOVUPD    32(SI)(AX*8), Y15
	VUNPCKLPD  Y15, Y14, Y2
	VUNPCKHPD  Y15, Y14, Y4
	VMOVUPD    (DI)(AX*8), Y14
	VMOVUPD    32(DI)(AX*8), Y15
	VUNPCKLPD  Y15, Y14, Y3
	VUNPCKHPD  Y15, Y14, Y5
	BFLY
	VUNPCKLPD  Y11, Y10, Y14
	VUNPCKHPD  Y11, Y10, Y15
	VMOVUPD    Y14, (SI)(AX*8)
	VMOVUPD    Y15, 32(SI)(AX*8)
	VUNPCKLPD  Y13, Y12, Y14
	VUNPCKHPD  Y13, Y12, Y15
	VMOVUPD    Y14, (DI)(AX*8)
	VMOVUPD    Y15, 32(DI)(AX*8)
	ADDQ       $8, AX
	DECQ       CX
	JNZ        loop1
	VZEROUPPER
	RET

// func butterflies2AVX(re, im, wr, wi []float64)
// h = 2: blocks (a0, a1, b0, b1); VPERM2F128 gathers the 128-bit first
// and second halves of two blocks, and w is (w0, w1, w0, w1).
TEXT ·butterflies2AVX(SB), NOSPLIT, $0-96
	MOVQ           re_base+0(FP), SI
	MOVQ           re_len+8(FP), CX
	MOVQ           im_base+24(FP), DI
	MOVQ           wr_base+48(FP), R8
	MOVQ           wi_base+72(FP), R9
	VBROADCASTF128 (R8), Y0
	VBROADCASTF128 (R9), Y1
	SHRQ           $3, CX
	XORQ           AX, AX

loop2:
	VMOVUPD    (SI)(AX*8), Y14
	VMOVUPD    32(SI)(AX*8), Y15
	VPERM2F128 $0x20, Y15, Y14, Y2
	VPERM2F128 $0x31, Y15, Y14, Y4
	VMOVUPD    (DI)(AX*8), Y14
	VMOVUPD    32(DI)(AX*8), Y15
	VPERM2F128 $0x20, Y15, Y14, Y3
	VPERM2F128 $0x31, Y15, Y14, Y5
	BFLY
	VPERM2F128 $0x20, Y11, Y10, Y14
	VPERM2F128 $0x31, Y11, Y10, Y15
	VMOVUPD    Y14, (SI)(AX*8)
	VMOVUPD    Y15, 32(SI)(AX*8)
	VPERM2F128 $0x20, Y13, Y12, Y14
	VPERM2F128 $0x31, Y13, Y12, Y15
	VMOVUPD    Y14, (DI)(AX*8)
	VMOVUPD    Y15, 32(DI)(AX*8)
	ADDQ       $8, AX
	DECQ       CX
	JNZ        loop2
	VZEROUPPER
	RET
