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
