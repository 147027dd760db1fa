//go:build amd64 && !purego

#include "textflag.h"

// PROJ_ARGS is the prologue of the Project bodies below (defined before
// the first TEXT, so vet checks its argument names against no other
// function): SI = pan, CX = the end of pan, DX = m, R8–R11 = the vectors
// y_0…y_3 and R12, R13, AX, DI = the outputs d_0…d_3 (unused ones are
// nil and never dereferenced).
#define PROJ_ARGS \
	MOVQ pan_base+0(FP), SI \
	MOVQ pan_len+8(FP), CX  \
	LEAQ (SI)(CX*8), CX     \
	MOVQ m+24(FP), DX       \
	MOVQ y+32(FP), AX       \
	MOVQ 0(AX), R8          \
	MOVQ 24(AX), R9         \
	MOVQ 48(AX), R10        \
	MOVQ 72(AX), R11        \
	MOVQ d+40(FP), AX       \
	MOVQ 0(AX), R12         \
	MOVQ 24(AX), R13        \
	MOVQ 72(AX), DI         \
	MOVQ 48(AX), AX

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

// The AVX-512 bodies of SubRows4 and AddRows4 run 16 elements per
// iteration in two ZMM registers, then a last 8 in one, with the per-lane
// order of the AVX bodies. They use only AVX512F instructions and
// Z0–Z15, and return through VZEROUPPER like the AVX kernels.

// func subRows4AVX512(dst, src, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64)
TEXT ·subRows4AVX512(SB), NOSPLIT, $0-176
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	MOVQ         r0_base+48(FP), R8
	MOVQ         r1_base+72(FP), R9
	MOVQ         r2_base+96(FP), R10
	MOVQ         r3_base+120(FP), R11
	VBROADCASTSD c0+144(FP), Z0
	VBROADCASTSD c1+152(FP), Z1
	VBROADCASTSD c2+160(FP), Z2
	VBROADCASTSD c3+168(FP), Z3
	XORQ         AX, AX
	MOVQ         CX, DX
	SHRQ         $4, DX
	JZ           s512tail

s512loop:
	VMOVUPD (SI)(AX*8), Z4
	VMOVUPD 64(SI)(AX*8), Z5
	VMULPD  (R8)(AX*8), Z0, Z6
	VSUBPD  Z6, Z4, Z4
	VMULPD  64(R8)(AX*8), Z0, Z7
	VSUBPD  Z7, Z5, Z5
	VMULPD  (R9)(AX*8), Z1, Z6
	VSUBPD  Z6, Z4, Z4
	VMULPD  64(R9)(AX*8), Z1, Z7
	VSUBPD  Z7, Z5, Z5
	VMULPD  (R10)(AX*8), Z2, Z6
	VSUBPD  Z6, Z4, Z4
	VMULPD  64(R10)(AX*8), Z2, Z7
	VSUBPD  Z7, Z5, Z5
	VMULPD  (R11)(AX*8), Z3, Z6
	VSUBPD  Z6, Z4, Z4
	VMULPD  64(R11)(AX*8), Z3, Z7
	VSUBPD  Z7, Z5, Z5
	VMOVUPD Z4, (DI)(AX*8)
	VMOVUPD Z5, 64(DI)(AX*8)
	ADDQ    $16, AX
	DECQ    DX
	JNZ     s512loop

s512tail:
	TESTQ   $8, CX
	JZ      s512done
	VMOVUPD (SI)(AX*8), Z4
	VMULPD  (R8)(AX*8), Z0, Z6
	VSUBPD  Z6, Z4, Z4
	VMULPD  (R9)(AX*8), Z1, Z6
	VSUBPD  Z6, Z4, Z4
	VMULPD  (R10)(AX*8), Z2, Z6
	VSUBPD  Z6, Z4, Z4
	VMULPD  (R11)(AX*8), Z3, Z6
	VSUBPD  Z6, Z4, Z4
	VMOVUPD Z4, (DI)(AX*8)

s512done:
	VZEROUPPER
	RET

// func addRows4AVX512(dst, r0, r1, r2, r3 []float64, c0, c1, c2, c3 float64)
TEXT ·addRows4AVX512(SB), NOSPLIT, $0-152
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         r0_base+24(FP), R8
	MOVQ         r1_base+48(FP), R9
	MOVQ         r2_base+72(FP), R10
	MOVQ         r3_base+96(FP), R11
	VBROADCASTSD c0+120(FP), Z0
	VBROADCASTSD c1+128(FP), Z1
	VBROADCASTSD c2+136(FP), Z2
	VBROADCASTSD c3+144(FP), Z3
	XORQ         AX, AX
	MOVQ         CX, DX
	SHRQ         $4, DX
	JZ           a512tail

a512loop:
	VMOVUPD (DI)(AX*8), Z4
	VMOVUPD 64(DI)(AX*8), Z5
	VMULPD  (R8)(AX*8), Z0, Z6
	VADDPD  Z6, Z4, Z4
	VMULPD  64(R8)(AX*8), Z0, Z7
	VADDPD  Z7, Z5, Z5
	VMULPD  (R9)(AX*8), Z1, Z6
	VADDPD  Z6, Z4, Z4
	VMULPD  64(R9)(AX*8), Z1, Z7
	VADDPD  Z7, Z5, Z5
	VMULPD  (R10)(AX*8), Z2, Z6
	VADDPD  Z6, Z4, Z4
	VMULPD  64(R10)(AX*8), Z2, Z7
	VADDPD  Z7, Z5, Z5
	VMULPD  (R11)(AX*8), Z3, Z6
	VADDPD  Z6, Z4, Z4
	VMULPD  64(R11)(AX*8), Z3, Z7
	VADDPD  Z7, Z5, Z5
	VMOVUPD Z4, (DI)(AX*8)
	VMOVUPD Z5, 64(DI)(AX*8)
	ADDQ    $16, AX
	DECQ    DX
	JNZ     a512loop

a512tail:
	TESTQ   $8, CX
	JZ      a512done
	VMOVUPD (DI)(AX*8), Z4
	VMULPD  (R8)(AX*8), Z0, Z6
	VADDPD  Z6, Z4, Z4
	VMULPD  (R9)(AX*8), Z1, Z6
	VADDPD  Z6, Z4, Z4
	VMULPD  (R10)(AX*8), Z2, Z6
	VADDPD  Z6, Z4, Z4
	VMULPD  (R11)(AX*8), Z3, Z6
	VADDPD  Z6, Z4, Z4
	VMOVUPD Z4, (DI)(AX*8)

a512done:
	VZEROUPPER
	RET

// Select bodies. func select<tier>(p []float64, rows [][]float64, c []float64, mask []uint64, norm, inv []float64, lanes *selectLanes)
// walk p in tiles of four registers (32 columns on AVX-512, 16 on AVX)
// and then one register at a time. A tile's v = p − c_0·rows[0] − … sits
// in four accumulators from the load of p to the screen: each row adds
// one VMULPD and one VSUBPD per register, in row order, so every column
// sees exactly the plain loop's chain, and v is never stored. Then
// x = v AND mask (VPANDQ, VANDPD) and the screen: q = x·inv (VMULPD) and
// q' = q·(1 + 2^-50) (VMULPD) against T, the largest exact score any
// lane has taken so far, held as 0 while it is below 2^-1000. A register
// whose every lane has q' < T (VCMPPD NLT_UQ false: ordered and less)
// is skipped; the others get a = x / norm (VDIVPD), and each lane's
// running best (value, index) takes (a, j) when a > best (GT_OQ: false
// for NaN), so each lane keeps the first of its maxima; after a
// division T is recomputed from the lanes' bests.
//
// Why a skipped column cannot hold the maximum. inv is fl(1/norm) and
// normal (NewNorms makes it +Inf otherwise). For x ≥ 0 and a normal
// q ≥ 0, a = fl(x/norm) ≤ q·(1+u)/(1−u)² ≤ q·(1 + 3.01·2^-53) <
// q·(1 + 2^-50)·(1 − 2^-53) ≤ fl(q·(1 + 2^-50)) = q', u = 2^-53 (an
// overflowing x/norm gives q' = +Inf, never skipped). A subnormal or
// zero q means x·inv < 2^-1022, so a < 2^-1021, below any T ≥ 2^-1000,
// and with T held at 0 such a q' ≥ 0 is never skipped. A negative q or
// −0 (a negative inv) has a ≤ 0, which never beats the initial 0. A NaN
// or +Inf q fails the compare, so its register is divided. So a skipped
// column has a < T; T is an exact score already taken, so the column is
// not the maximum, and every column holding the maximum is divided and
// compared in its lane in ascending index order, which keeps the
// lowest-index tie rule of the plain loop.

// selSlack is 1 + 2^-50, selTiny 2^-1000 and selIdx the offsets 0–31
// of a tile's columns, as float64.
DATA selSlack<>+0(SB)/8, $0x3ff0000000000004
GLOBL selSlack<>(SB), RODATA|NOPTR, $8

DATA selTiny<>+0(SB)/8, $0x0170000000000000
GLOBL selTiny<>(SB), RODATA|NOPTR, $8

DATA selIdx<>+0(SB)/8, $0.0
DATA selIdx<>+8(SB)/8, $1.0
DATA selIdx<>+16(SB)/8, $2.0
DATA selIdx<>+24(SB)/8, $3.0
DATA selIdx<>+32(SB)/8, $4.0
DATA selIdx<>+40(SB)/8, $5.0
DATA selIdx<>+48(SB)/8, $6.0
DATA selIdx<>+56(SB)/8, $7.0
DATA selIdx<>+64(SB)/8, $8.0
DATA selIdx<>+72(SB)/8, $9.0
DATA selIdx<>+80(SB)/8, $10.0
DATA selIdx<>+88(SB)/8, $11.0
DATA selIdx<>+96(SB)/8, $12.0
DATA selIdx<>+104(SB)/8, $13.0
DATA selIdx<>+112(SB)/8, $14.0
DATA selIdx<>+120(SB)/8, $15.0
DATA selIdx<>+128(SB)/8, $16.0
DATA selIdx<>+136(SB)/8, $17.0
DATA selIdx<>+144(SB)/8, $18.0
DATA selIdx<>+152(SB)/8, $19.0
DATA selIdx<>+160(SB)/8, $20.0
DATA selIdx<>+168(SB)/8, $21.0
DATA selIdx<>+176(SB)/8, $22.0
DATA selIdx<>+184(SB)/8, $23.0
DATA selIdx<>+192(SB)/8, $24.0
DATA selIdx<>+200(SB)/8, $25.0
DATA selIdx<>+208(SB)/8, $26.0
DATA selIdx<>+216(SB)/8, $27.0
DATA selIdx<>+224(SB)/8, $28.0
DATA selIdx<>+232(SB)/8, $29.0
DATA selIdx<>+240(SB)/8, $30.0
DATA selIdx<>+248(SB)/8, $31.0
GLOBL selIdx<>(SB), RODATA|NOPTR, $256

// SEL_ARGS loads the arguments of both bodies: SI = p, DX = len(p) in
// bytes, R8 = the row headers and R9 their end, R10 = c, R11 = mask,
// R12 = norm, R13 = inv and DI = lanes. In the loops AX is the byte
// offset of the first column in the registers, BX and DI walk the row
// headers and c, and CX holds the current row's address.
#define SEL_ARGS \
	MOVQ p_base+0(FP), SI      \
	MOVQ p_len+8(FP), DX       \
	SHLQ $3, DX                \
	MOVQ rows_base+24(FP), R8  \
	MOVQ rows_len+32(FP), R9   \
	LEAQ (R9)(R9*2), R9        \
	LEAQ (R8)(R9*8), R9        \
	MOVQ c_base+48(FP), R10    \
	MOVQ mask_base+72(FP), R11 \
	MOVQ norm_base+96(FP), R12 \
	MOVQ inv_base+120(FP), R13 \
	MOVQ lanes+144(FP), DI

// SEL_IDX puts the float64 column index of byte offset AX in the low
// lane of X15 (BX is free outside the row loops).
#define SEL_IDX \
	MOVQ       AX, BX        \
	SHRQ       $3, BX        \
	VCVTSI2SDQ BX, X15, X15

// ZDIV divides the ZMM register acc, at byte offset off within the
// tile, if its screen mask kr has a lane set, and takes every lane
// whose score beats its best; Z13 holds the tile's first index in every
// lane.
#define ZDIV(off, acc, kr, skip) \
	KORTESTW kr, kr                    \
	JZ       skip                      \
	VDIVPD   off(R12)(AX*1), acc, Z5   \
	VCMPPD   $0x1e, Z9, Z5, kr         \
	VMOVAPD  Z5, kr, Z9                \
	VADDPD   selIdx<>+off(SB), Z13, Z5 \
	VMOVAPD  Z5, kr, Z10               \
skip:

// ZTHRESH sets Z7 to T: the largest lane best of Z9, or 0 below 2^-1000.
#define ZTHRESH(keep) \
	VEXTRACTF64X4 $1, Z9, Y5      \
	VMAXPD        Y9, Y5, Y5      \
	VEXTRACTF128  $1, Y5, X6      \
	VMAXPD        X6, X5, X5      \
	VPERMILPD     $1, X5, X6      \
	VMAXSD        X6, X5, X5      \
	VUCOMISD      selTiny<>(SB), X5 \
	JAE           keep            \
	VXORPD        X5, X5, X5      \
keep:                               \
	VBROADCASTSD  X5, Z7

// ZSCREEN sets kr to the lanes of the ZMM register acc (at byte offset
// off) that the screen cannot skip: NOT (q·(1 + 2^-50) < T), NaN
// included.
#define ZSCREEN(off, acc, tmp, kr) \
	VPANDQ off(R11)(AX*1), acc, acc  \
	VMULPD off(R13)(AX*1), acc, tmp  \
	VMULPD Z8, tmp, tmp              \
	VCMPPD $0x15, Z7, tmp, kr

// func selectAVX512(p []float64, rows [][]float64, c []float64, mask []uint64, norm, inv []float64, lanes *selectLanes)
// Tiles of 32 columns in Z0–Z3, then 8 at a time in Z0; Z9 and Z10 are
// the eight lanes' bests and indices, Z7 T and Z8 the slack.
TEXT ·selectAVX512(SB), NOSPLIT, $0-152
	SEL_ARGS
	VMOVUPD      0(DI), Z9
	VMOVUPD      64(DI), Z10
	VPXORQ       Z7, Z7, Z7
	VBROADCASTSD selSlack<>(SB), Z8
	XORQ         AX, AX

ztile:
	LEAQ    256(AX), BX
	CMPQ    BX, DX
	JGT     zone
	VMOVUPD (SI)(AX*1), Z0
	VMOVUPD 64(SI)(AX*1), Z1
	VMOVUPD 128(SI)(AX*1), Z2
	VMOVUPD 192(SI)(AX*1), Z3
	MOVQ    R8, BX
	MOVQ    R10, DI
	CMPQ    BX, R9
	JEQ     ztscreen

ztrow:
	MOVQ         (BX), CX
	ADDQ         AX, CX
	VBROADCASTSD (DI), Z4
	VMULPD       (CX), Z4, Z5
	VSUBPD       Z5, Z0, Z0
	VMULPD       64(CX), Z4, Z6
	VSUBPD       Z6, Z1, Z1
	VMULPD       128(CX), Z4, Z5
	VSUBPD       Z5, Z2, Z2
	VMULPD       192(CX), Z4, Z6
	VSUBPD       Z6, Z3, Z3
	ADDQ         $24, BX
	ADDQ         $8, DI
	CMPQ         BX, R9
	JNE          ztrow

ztscreen:
	ZSCREEN(0, Z0, Z5, K1)
	ZSCREEN(64, Z1, Z6, K2)
	ZSCREEN(128, Z2, Z5, K3)
	ZSCREEN(192, Z3, Z6, K4)
	KORW     K1, K2, K5
	KORW     K3, K4, K6
	KORTESTW K5, K6
	JZ       ztnext
	SEL_IDX
	VBROADCASTSD X15, Z13
	ZDIV(0, Z0, K1, ztd1)
	ZDIV(64, Z1, K2, ztd2)
	ZDIV(128, Z2, K3, ztd3)
	ZDIV(192, Z3, K4, ztd4)
	ZTHRESH(ztkeep)

ztnext:
	ADDQ $256, AX
	JMP  ztile

zone:
	CMPQ    AX, DX
	JGE     zdone
	VMOVUPD (SI)(AX*1), Z0
	MOVQ    R8, BX
	MOVQ    R10, DI
	CMPQ    BX, R9
	JEQ     zoscreen

zorow:
	MOVQ         (BX), CX
	VBROADCASTSD (DI), Z4
	VMULPD       (CX)(AX*1), Z4, Z5
	VSUBPD       Z5, Z0, Z0
	ADDQ         $24, BX
	ADDQ         $8, DI
	CMPQ         BX, R9
	JNE          zorow

zoscreen:
	ZSCREEN(0, Z0, Z5, K1)
	KORTESTW K1, K1
	JZ       zonext
	SEL_IDX
	VBROADCASTSD X15, Z13
	ZDIV(0, Z0, K1, zod)
	ZTHRESH(zokeep)

zonext:
	ADDQ $64, AX
	JMP  zone

zdone:
	MOVQ    lanes+144(FP), DI
	VMOVUPD Z9, 0(DI)
	VMOVUPD Z10, 64(DI)
	VZEROUPPER
	RET

// YDIV, YTHRESH and YSCREEN are ZDIV, ZTHRESH and ZSCREEN on YMM
// registers: the screen's lanes are a compare mask (flag) and the
// takes are blends; Y15 holds the tile's first index in every lane.
#define YDIV(off, acc, flag, skip) \
	VTESTPD   flag, flag                \
	JZ        skip                      \
	VDIVPD    off(R12)(AX*1), acc, Y5   \
	VCMPPD    $0x1e, Y9, Y5, Y6         \
	VBLENDVPD Y6, Y5, Y9, Y9            \
	VADDPD    selIdx<>+off(SB), Y15, Y5 \
	VBLENDVPD Y6, Y5, Y10, Y10          \
skip:

#define YTHRESH(keep) \
	VEXTRACTF128 $1, Y9, X5        \
	VMAXPD       X9, X5, X5        \
	VPERMILPD    $1, X5, X6        \
	VMAXSD       X6, X5, X5        \
	VUCOMISD     selTiny<>(SB), X5 \
	JAE          keep              \
	VXORPD       X5, X5, X5        \
keep:                                \
	VMOVDDUP     X5, X5            \
	VINSERTF128  $1, X5, Y5, Y7

#define YSCREEN(off, acc, flag) \
	VANDPD off(R11)(AX*1), acc, acc \
	VMULPD off(R13)(AX*1), acc, flag \
	VMULPD Y8, flag, flag           \
	VCMPPD $0x15, Y7, flag, flag

// YIDX broadcasts the index SEL_IDX left in X15 to all of Y15.
#define YIDX \
	SEL_IDX                      \
	VMOVDDUP    X15, X15         \
	VINSERTF128 $1, X15, Y15, Y15

// func selectAVX(p []float64, rows [][]float64, c []float64, mask []uint64, norm, inv []float64, lanes *selectLanes)
// Tiles of 16 columns in Y0–Y3, then 4 at a time in Y0; Y9 and Y10 are
// the four lanes' bests and indices, Y7 T, Y8 the slack and Y11–Y14
// the screen's flags. AVX only: no 256-bit integer operation.
TEXT ·selectAVX(SB), NOSPLIT, $0-152
	SEL_ARGS
	VMOVUPD      0(DI), Y9
	VMOVUPD      64(DI), Y10
	VXORPD       Y7, Y7, Y7
	VBROADCASTSD selSlack<>(SB), Y8
	XORQ         AX, AX

ytile:
	LEAQ    128(AX), BX
	CMPQ    BX, DX
	JGT     yone
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD 32(SI)(AX*1), Y1
	VMOVUPD 64(SI)(AX*1), Y2
	VMOVUPD 96(SI)(AX*1), Y3
	MOVQ    R8, BX
	MOVQ    R10, DI
	CMPQ    BX, R9
	JEQ     ytscreen

ytrow:
	MOVQ         (BX), CX
	ADDQ         AX, CX
	VBROADCASTSD (DI), Y4
	VMULPD       (CX), Y4, Y5
	VSUBPD       Y5, Y0, Y0
	VMULPD       32(CX), Y4, Y6
	VSUBPD       Y6, Y1, Y1
	VMULPD       64(CX), Y4, Y5
	VSUBPD       Y5, Y2, Y2
	VMULPD       96(CX), Y4, Y6
	VSUBPD       Y6, Y3, Y3
	ADDQ         $24, BX
	ADDQ         $8, DI
	CMPQ         BX, R9
	JNE          ytrow

ytscreen:
	YSCREEN(0, Y0, Y11)
	YSCREEN(32, Y1, Y12)
	YSCREEN(64, Y2, Y13)
	YSCREEN(96, Y3, Y14)
	VORPD   Y11, Y12, Y5
	VORPD   Y13, Y14, Y6
	VORPD   Y5, Y6, Y5
	VTESTPD Y5, Y5
	JZ      ytnext
	YIDX
	YDIV(0, Y0, Y11, ytd1)
	YDIV(32, Y1, Y12, ytd2)
	YDIV(64, Y2, Y13, ytd3)
	YDIV(96, Y3, Y14, ytd4)
	YTHRESH(ytkeep)

ytnext:
	ADDQ $128, AX
	JMP  ytile

yone:
	CMPQ    AX, DX
	JGE     ydone
	VMOVUPD (SI)(AX*1), Y0
	MOVQ    R8, BX
	MOVQ    R10, DI
	CMPQ    BX, R9
	JEQ     yoscreen

yorow:
	MOVQ         (BX), CX
	VBROADCASTSD (DI), Y4
	VMULPD       (CX)(AX*1), Y4, Y5
	VSUBPD       Y5, Y0, Y0
	ADDQ         $24, BX
	ADDQ         $8, DI
	CMPQ         BX, R9
	JNE          yorow

yoscreen:
	YSCREEN(0, Y0, Y11)
	VTESTPD Y11, Y11
	JZ      yonext
	YIDX
	YDIV(0, Y0, Y11, yod)
	YTHRESH(yokeep)

yonext:
	ADDQ $32, AX
	JMP  yone

ydone:
	MOVQ    lanes+144(FP), DI
	VMOVUPD Y9, 0(DI)
	VMOVUPD Y10, 64(DI)
	VZEROUPPER
	RET

// Project bodies. func projectN<tier>(pan []float64, m int, y, d *[4][]float64)
// runs whole panels: pan holds len(pan)/(16·m) panels of m rows, row i of
// a panel being 16 consecutive columns at byte offset 128·i. For each
// panel, vector f's 16 column sums start from +0 (VPXORQ, VXORPD) and
// take, row by row in ascending i, panel[i][c]·y_f[i] (VMULPD) added
// onto the sum (VADDPD) — Dot's arithmetic and order for every column,
// so the outputs are bitwise its results. The
// sums then go to d_f[16p, 16p+16) and the next panel starts. BX counts
// rows.

// ZROW loads row BX of the panel at SI into Z8 (columns 0–7) and Z9
// (columns 8–15).
#define ZROW \
	VMOVUPD (SI), Z8 \
	VMOVUPD 64(SI), Z9

// ZTERM adds panel row × y[BX] onto the ZMM sums (za, zb).
#define ZTERM(yp, za, zb) \
	VBROADCASTSD (yp)(BX*8), Z10 \
	VMULPD       Z10, Z8, Z12    \
	VMULPD       Z10, Z9, Z13    \
	VADDPD       Z12, za, za     \
	VADDPD       Z13, zb, zb

// ZSTORE writes the sums (za, zb) to the output at dp and moves dp to
// the next panel's 16 columns.
#define ZSTORE(dp, za, zb) \
	VMOVUPD za, (dp)   \
	VMOVUPD zb, 64(dp) \
	ADDQ    $128, dp

// NEXTROW steps SI and BX to the next row and jumps to label while rows
// remain.
#define NEXTROW(label) \
	ADDQ $128, SI \
	INCQ BX       \
	CMPQ BX, DX   \
	JLT  label

// func project1AVX512(pan []float64, m int, y, d *[4][]float64)
// Two panels at a time (the second at SI + R9, R9 = 128·m) give four
// independent sums; an odd last panel runs alone.
TEXT ·project1AVX512(SB), NOSPLIT, $0-48
	PROJ_ARGS
	MOVQ DX, R9
	SHLQ $7, R9
	LEAQ (SI)(R9*1), R10

p1zpair:
	CMPQ   R10, CX
	JCC    p1zsingle
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ   BX, BX

p1zprow:
	VBROADCASTSD (R8)(BX*8), Z10
	VMOVUPD      (SI), Z8
	VMOVUPD      64(SI), Z9
	VMULPD       Z10, Z8, Z12
	VMULPD       Z10, Z9, Z13
	VADDPD       Z12, Z0, Z0
	VADDPD       Z13, Z1, Z1
	VMOVUPD      (SI)(R9*1), Z8
	VMOVUPD      64(SI)(R9*1), Z9
	VMULPD       Z10, Z8, Z14
	VMULPD       Z10, Z9, Z15
	VADDPD       Z14, Z2, Z2
	VADDPD       Z15, Z3, Z3
	NEXTROW(p1zprow)
	ZSTORE(R12, Z0, Z1)
	ZSTORE(R12, Z2, Z3)
	ADDQ R9, SI
	LEAQ (SI)(R9*1), R10
	JMP  p1zpair

p1zsingle:
	CMPQ   SI, CX
	JCC    p1zdone
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	XORQ   BX, BX

p1zsrow:
	ZROW
	ZTERM(R8, Z0, Z1)
	NEXTROW(p1zsrow)
	ZSTORE(R12, Z0, Z1)

p1zdone:
	VZEROUPPER
	RET

// func project2AVX512(pan []float64, m int, y, d *[4][]float64)
TEXT ·project2AVX512(SB), NOSPLIT, $0-48
	PROJ_ARGS

p2zpanel:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	XORQ   BX, BX

p2zrow:
	ZROW
	ZTERM(R8, Z0, Z1)
	ZTERM(R9, Z2, Z3)
	NEXTROW(p2zrow)
	ZSTORE(R12, Z0, Z1)
	ZSTORE(R13, Z2, Z3)
	CMPQ SI, CX
	JCS  p2zpanel
	VZEROUPPER
	RET

// func project3AVX512(pan []float64, m int, y, d *[4][]float64)
TEXT ·project3AVX512(SB), NOSPLIT, $0-48
	PROJ_ARGS

p3zpanel:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	XORQ   BX, BX

p3zrow:
	ZROW
	ZTERM(R8, Z0, Z1)
	ZTERM(R9, Z2, Z3)
	ZTERM(R10, Z4, Z5)
	NEXTROW(p3zrow)
	ZSTORE(R12, Z0, Z1)
	ZSTORE(R13, Z2, Z3)
	ZSTORE(AX, Z4, Z5)
	CMPQ SI, CX
	JCS  p3zpanel
	VZEROUPPER
	RET

// func project4AVX512(pan []float64, m int, y, d *[4][]float64)
TEXT ·project4AVX512(SB), NOSPLIT, $0-48
	PROJ_ARGS

p4zpanel:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	XORQ   BX, BX

p4zrow:
	ZROW
	ZTERM(R8, Z0, Z1)
	ZTERM(R9, Z2, Z3)
	ZTERM(R10, Z4, Z5)
	ZTERM(R11, Z6, Z7)
	NEXTROW(p4zrow)
	ZSTORE(R12, Z0, Z1)
	ZSTORE(R13, Z2, Z3)
	ZSTORE(AX, Z4, Z5)
	ZSTORE(DI, Z6, Z7)
	CMPQ SI, CX
	JCS  p4zpanel
	VZEROUPPER
	RET

// The AVX bodies. One and two vectors keep all 16 columns in four YMM
// sums each (Y8–Y11 hold the row); three and four run each panel as two
// 8-column halves (Y8, Y9 hold the half row), the second half starting
// 64 bytes into the panel, so every vector has two YMM sums per half.

// YROW16 loads row BX of the panel at SI into Y8–Y11.
#define YROW16 \
	VMOVUPD (SI), Y8    \
	VMOVUPD 32(SI), Y9  \
	VMOVUPD 64(SI), Y10 \
	VMOVUPD 96(SI), Y11

// YTERM16 adds the 16-column row × y[BX] onto the sums (ya…yd).
#define YTERM16(yp, ya, yb, yc, yd) \
	VBROADCASTSD (yp)(BX*8), Y12 \
	VMULPD       Y12, Y8, Y13    \
	VMULPD       Y12, Y9, Y14    \
	VADDPD       Y13, ya, ya     \
	VADDPD       Y14, yb, yb     \
	VMULPD       Y12, Y10, Y13   \
	VMULPD       Y12, Y11, Y14   \
	VADDPD       Y13, yc, yc     \
	VADDPD       Y14, yd, yd

// YSTORE16 writes the 16 sums (ya…yd) to dp and moves dp on by a panel.
#define YSTORE16(dp, ya, yb, yc, yd) \
	VMOVUPD ya, (dp)   \
	VMOVUPD yb, 32(dp) \
	VMOVUPD yc, 64(dp) \
	VMOVUPD yd, 96(dp) \
	ADDQ    $128, dp

// func project1AVX(pan []float64, m int, y, d *[4][]float64)
TEXT ·project1AVX(SB), NOSPLIT, $0-48
	PROJ_ARGS

p1ypanel:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   BX, BX

p1yrow:
	YROW16
	YTERM16(R8, Y0, Y1, Y2, Y3)
	NEXTROW(p1yrow)
	YSTORE16(R12, Y0, Y1, Y2, Y3)
	CMPQ SI, CX
	JCS  p1ypanel
	VZEROUPPER
	RET

// func project2AVX(pan []float64, m int, y, d *[4][]float64)
TEXT ·project2AVX(SB), NOSPLIT, $0-48
	PROJ_ARGS

p2ypanel:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   BX, BX

p2yrow:
	YROW16
	YTERM16(R8, Y0, Y1, Y2, Y3)
	YTERM16(R9, Y4, Y5, Y6, Y7)
	NEXTROW(p2yrow)
	YSTORE16(R12, Y0, Y1, Y2, Y3)
	YSTORE16(R13, Y4, Y5, Y6, Y7)
	CMPQ SI, CX
	JCS  p2ypanel
	VZEROUPPER
	RET

// The half-panel bodies address row BX of the panel at SI through R14 =
// 128·BX, so SI stays at the panel start while both halves run.
//
// YTERM8 adds the half row (Y8, Y9) × y[BX] onto the sums (ya, yb).
#define YTERM8(yp, ya, yb) \
	VBROADCASTSD (yp)(BX*8), Y12 \
	VMULPD       Y12, Y8, Y13    \
	VMULPD       Y12, Y9, Y14    \
	VADDPD       Y13, ya, ya     \
	VADDPD       Y14, yb, yb

// YROW8 loads the half row at byte offset off of row BX into Y8, Y9.
#define YROW8(off) \
	VMOVUPD off(SI)(R14*1), Y8 \
	VMOVUPD off+32(SI)(R14*1), Y9

// NEXTROW8 steps R14 and BX to the next row and jumps to label while
// rows remain.
#define NEXTROW8(label) \
	ADDQ $128, R14 \
	INCQ BX        \
	CMPQ BX, DX    \
	JLT  label

// YZERO6 clears the sums Y0–Y5 and starts at row 0.
#define YZERO6 \
	VXORPD Y0, Y0, Y0 \
	VXORPD Y1, Y1, Y1 \
	VXORPD Y2, Y2, Y2 \
	VXORPD Y3, Y3, Y3 \
	VXORPD Y4, Y4, Y4 \
	VXORPD Y5, Y5, Y5 \
	XORQ   BX, BX     \
	XORQ   R14, R14

// YSTORE8 writes the 8 sums (ya, yb) of a half to byte offset off of dp.
#define YSTORE8(dp, off, ya, yb) \
	VMOVUPD ya, off(dp) \
	VMOVUPD yb, off+32(dp)

// func project3AVX(pan []float64, m int, y, d *[4][]float64)
TEXT ·project3AVX(SB), NOSPLIT, $0-48
	PROJ_ARGS

p3ypanel:
	YZERO6

p3ylo:
	YROW8(0)
	YTERM8(R8, Y0, Y1)
	YTERM8(R9, Y2, Y3)
	YTERM8(R10, Y4, Y5)
	NEXTROW8(p3ylo)
	YSTORE8(R12, 0, Y0, Y1)
	YSTORE8(R13, 0, Y2, Y3)
	YSTORE8(AX, 0, Y4, Y5)
	YZERO6

p3yhi:
	YROW8(64)
	YTERM8(R8, Y0, Y1)
	YTERM8(R9, Y2, Y3)
	YTERM8(R10, Y4, Y5)
	NEXTROW8(p3yhi)
	YSTORE8(R12, 64, Y0, Y1)
	YSTORE8(R13, 64, Y2, Y3)
	YSTORE8(AX, 64, Y4, Y5)
	ADDQ $128, R12
	ADDQ $128, R13
	ADDQ $128, AX
	ADDQ R14, SI
	CMPQ SI, CX
	JCS  p3ypanel
	VZEROUPPER
	RET

// func project4AVX(pan []float64, m int, y, d *[4][]float64)
TEXT ·project4AVX(SB), NOSPLIT, $0-48
	PROJ_ARGS

p4ypanel:
	YZERO6
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

p4ylo:
	YROW8(0)
	YTERM8(R8, Y0, Y1)
	YTERM8(R9, Y2, Y3)
	YTERM8(R10, Y4, Y5)
	YTERM8(R11, Y6, Y7)
	NEXTROW8(p4ylo)
	YSTORE8(R12, 0, Y0, Y1)
	YSTORE8(R13, 0, Y2, Y3)
	YSTORE8(AX, 0, Y4, Y5)
	YSTORE8(DI, 0, Y6, Y7)
	YZERO6
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

p4yhi:
	YROW8(64)
	YTERM8(R8, Y0, Y1)
	YTERM8(R9, Y2, Y3)
	YTERM8(R10, Y4, Y5)
	YTERM8(R11, Y6, Y7)
	NEXTROW8(p4yhi)
	YSTORE8(R12, 64, Y0, Y1)
	YSTORE8(R13, 64, Y2, Y3)
	YSTORE8(AX, 64, Y4, Y5)
	YSTORE8(DI, 64, Y6, Y7)
	ADDQ $128, R12
	ADDQ $128, R13
	ADDQ $128, AX
	ADDQ $128, DI
	ADDQ R14, SI
	CMPQ SI, CX
	JCS  p4ypanel
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

// Lane kernels (lanes.go). Every vector holds entry i of the four lanes
// (32 bytes at byte offset 32·i of a lane vector, 32·(i·stride + t) of
// a factor), so each VMULPD, VSUBPD, VADDPD and VDIVPD runs one step of
// four independent scalar chains, in the chains' own order. Y15 holds
// the keep selector (all ones in the lanes outside the mask): every
// result is blended with the old value of its slot (VBLENDVPD) before
// it is stored, so the slots of masked-off lanes keep their bits.

// func laneSolveLowerAVX(keep *[4]uint64, l []float64, stride int, x []float64, from, to int)
// Rows run four at a time while four remain: the four sums subtract
// their terms t < i side by side (four independent chains), then the
// 4×4 triangle finishes them in row order, each new x feeding the rows
// below it from its register. The last one to three rows run singly.
// SI = l, DX = 32·stride (one factor row), DI = x, R8 = i, R9 = to,
// R10 = &L[i][0].
TEXT ·laneSolveLowerAVX(SB), NOSPLIT, $0-80
	MOVQ    keep+0(FP), AX
	VMOVUPD (AX), Y15
	MOVQ    l_base+8(FP), SI
	MOVQ    stride+32(FP), DX
	SHLQ    $5, DX
	MOVQ    x_base+40(FP), DI
	MOVQ    from+64(FP), R8
	MOVQ    to+72(FP), R9
	MOVQ    R8, R10
	IMULQ   DX, R10
	ADDQ    SI, R10

lsblock:
	LEAQ    4(R8), AX
	CMPQ    AX, R9
	JGT     lssingle
	LEAQ    (R10)(DX*1), R11
	LEAQ    (R11)(DX*1), R12
	LEAQ    (R12)(DX*1), R13
	MOVQ    R8, CX
	SHLQ    $5, CX
	VMOVUPD (DI)(CX*1), Y0
	VMOVUPD 32(DI)(CX*1), Y1
	VMOVUPD 64(DI)(CX*1), Y2
	VMOVUPD 96(DI)(CX*1), Y3
	XORQ    BX, BX
	TESTQ   CX, CX
	JZ      lstri

lsbloop:
	VMOVUPD (DI)(BX*1), Y4
	VMULPD  (R10)(BX*1), Y4, Y5
	VSUBPD  Y5, Y0, Y0
	VMULPD  (R11)(BX*1), Y4, Y6
	VSUBPD  Y6, Y1, Y1
	VMULPD  (R12)(BX*1), Y4, Y7
	VSUBPD  Y7, Y2, Y2
	VMULPD  (R13)(BX*1), Y4, Y8
	VSUBPD  Y8, Y3, Y3
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     lsbloop

lstri:
	VDIVPD    (R10)(CX*1), Y0, Y0
	VBLENDVPD Y15, (DI)(CX*1), Y0, Y0
	VMOVUPD   Y0, (DI)(CX*1)
	VMULPD    (R11)(CX*1), Y0, Y5
	VSUBPD    Y5, Y1, Y1
	VDIVPD    32(R11)(CX*1), Y1, Y1
	VBLENDVPD Y15, 32(DI)(CX*1), Y1, Y1
	VMOVUPD   Y1, 32(DI)(CX*1)
	VMULPD    (R12)(CX*1), Y0, Y5
	VSUBPD    Y5, Y2, Y2
	VMULPD    32(R12)(CX*1), Y1, Y6
	VSUBPD    Y6, Y2, Y2
	VDIVPD    64(R12)(CX*1), Y2, Y2
	VBLENDVPD Y15, 64(DI)(CX*1), Y2, Y2
	VMOVUPD   Y2, 64(DI)(CX*1)
	VMULPD    (R13)(CX*1), Y0, Y5
	VSUBPD    Y5, Y3, Y3
	VMULPD    32(R13)(CX*1), Y1, Y6
	VSUBPD    Y6, Y3, Y3
	VMULPD    64(R13)(CX*1), Y2, Y7
	VSUBPD    Y7, Y3, Y3
	VDIVPD    96(R13)(CX*1), Y3, Y3
	VBLENDVPD Y15, 96(DI)(CX*1), Y3, Y3
	VMOVUPD   Y3, 96(DI)(CX*1)
	ADDQ      $4, R8
	LEAQ      (R13)(DX*1), R10
	JMP       lsblock

lssingle:
	CMPQ    R8, R9
	JGE     lsdone
	MOVQ    R8, CX
	SHLQ    $5, CX
	VMOVUPD (DI)(CX*1), Y0
	XORQ    BX, BX
	TESTQ   CX, CX
	JZ      lssdiv

lssloop:
	VMOVUPD (DI)(BX*1), Y4
	VMULPD  (R10)(BX*1), Y4, Y5
	VSUBPD  Y5, Y0, Y0
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     lssloop

lssdiv:
	VDIVPD    (R10)(CX*1), Y0, Y0
	VBLENDVPD Y15, (DI)(CX*1), Y0, Y0
	VMOVUPD   Y0, (DI)(CX*1)
	INCQ      R8
	ADDQ      DX, R10
	JMP       lssingle

lsdone:
	VZEROUPPER
	RET

// func laneSolveUpperAVX(keep *[4]uint64, l []float64, stride int, c, z []float64)
// n = len(c)/4 ≥ 1. Entry i's chain starts from the entry just solved,
// c_{i+1}, which stays in Y0; the older c_t come from memory. SI = l,
// DX = 32·stride, DI = c, R8 = z, CX = 32·n, R9 = 32·i, R10 = &L[i][i].
TEXT ·laneSolveUpperAVX(SB), NOSPLIT, $0-88
	MOVQ      keep+0(FP), AX
	VMOVUPD   (AX), Y15
	MOVQ      l_base+8(FP), SI
	MOVQ      stride+32(FP), DX
	SHLQ      $5, DX
	MOVQ      c_base+40(FP), DI
	MOVQ      c_len+48(FP), CX
	SHLQ      $3, CX
	MOVQ      z_base+64(FP), R8
	LEAQ      -32(CX), R9
	MOVQ      R9, AX
	SHRQ      $5, AX
	IMULQ     DX, AX
	LEAQ      (SI)(AX*1), R10
	ADDQ      R9, R10
	VMOVUPD   (R8)(R9*1), Y0
	VDIVPD    (R10), Y0, Y0
	VBLENDVPD Y15, (DI)(R9*1), Y0, Y0
	VMOVUPD   Y0, (DI)(R9*1)

usrow:
	SUBQ    $32, R9
	JLT     usdone
	SUBQ    DX, R10
	SUBQ    $32, R10
	VMOVUPD (R8)(R9*1), Y1
	LEAQ    (R10)(DX*1), AX
	VMULPD  (AX), Y0, Y2
	VSUBPD  Y2, Y1, Y1
	LEAQ    64(R9), BX
	ADDQ    DX, AX
	CMPQ    BX, CX
	JGE     usdiv

usloop:
	VMOVUPD (DI)(BX*1), Y3
	VMULPD  (AX), Y3, Y2
	VSUBPD  Y2, Y1, Y1
	ADDQ    DX, AX
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     usloop

usdiv:
	VDIVPD    (R10), Y1, Y0
	VBLENDVPD Y15, (DI)(R9*1), Y0, Y0
	VMOVUPD   Y0, (DI)(R9*1)
	JMP       usrow

usdone:
	VZEROUPPER
	RET

// func laneDotAVX(acc *[4]float64, a, b []float64)
// acc = Σ a_i·b_i per lane from +0, one VMULPD then one VADDPD per term
// in ascending i; len(a) is a positive multiple of 4.
TEXT ·laneDotAVX(SB), NOSPLIT, $0-56
	MOVQ   acc+0(FP), DI
	MOVQ   a_base+8(FP), SI
	MOVQ   a_len+16(FP), CX
	MOVQ   b_base+32(FP), R8
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	SHRQ   $2, CX

ldloop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (R8)(AX*8), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $4, AX
	DECQ    CX
	JNZ     ldloop
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func laneSubDotAVX(acc *[4]float64, a, b []float64)
// acc −= a_i·b_i per lane, one VMULPD then one VSUBPD per term in
// ascending i; len(a) is a positive multiple of 4.
TEXT ·laneSubDotAVX(SB), NOSPLIT, $0-56
	MOVQ    acc+0(FP), DI
	MOVQ    a_base+8(FP), SI
	MOVQ    a_len+16(FP), CX
	MOVQ    b_base+32(FP), R8
	VMOVUPD (DI), Y0
	XORQ    AX, AX
	SHRQ    $2, CX

lsdloop:
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  (R8)(AX*8), Y1, Y1
	VSUBPD  Y1, Y0, Y0
	ADDQ    $4, AX
	DECQ    CX
	JNZ     lsdloop
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

DATA sarLanes<>+0(SB)/8, $0
DATA sarLanes<>+8(SB)/8, $1
DATA sarLanes<>+16(SB)/8, $2
DATA sarLanes<>+24(SB)/8, $3
DATA sarLanes<>+32(SB)/8, $4
DATA sarLanes<>+40(SB)/8, $5
DATA sarLanes<>+48(SB)/8, $6
DATA sarLanes<>+56(SB)/8, $7
GLOBL sarLanes<>(SB), RODATA|NOPTR, $64

DATA sarOne<>+0(SB)/8, $1.0
GLOBL sarOne<>(SB), RODATA|NOPTR, $8

DATA sarHalf<>+0(SB)/8, $0.5
GLOBL sarHalf<>(SB), RODATA|NOPTR, $8

// func successiveApproxAVX512(dst, in, u, w []float64, sigma, half, lsb float64)
// Eight samples per group, one per lane of Z0 (t), Z1 (acc) and Z2
// (code). Per bit: trial = acc + w[b] (VADDPD), the comparator input
// t + (0 + sigma·u) (VMULPD, VADDPD from +0, VADDPD; u of lane l is
// gathered from sample l's run of len(w) draws) or t alone without
// noise, the decision t' ≥ trial (VCMPPD GE_OQ: false for NaN, as Go's
// >=), acc = trial and code = code·2 + 1 in the lanes that decided 1,
// code·2 in the others. Then dst = (code + 0.5)·lsb − half.
TEXT ·successiveApproxAVX512(SB), NOSPLIT, $0-120
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         in_base+24(FP), SI
	MOVQ         u_base+48(FP), R8
	MOVQ         w_base+72(FP), R9
	MOVQ         w_len+80(FP), R10
	VBROADCASTSD sigma+96(FP), Z10
	VBROADCASTSD half+104(FP), Z11
	VBROADCASTSD lsb+112(FP), Z12
	VBROADCASTSD sarOne<>(SB), Z13
	VBROADCASTSD sarHalf<>(SB), Z14
	VPBROADCASTQ R10, Z15
	VPMULUDQ     sarLanes<>(SB), Z15, Z15
	MOVQ         R10, R11
	SHLQ         $6, R11
	VPXORQ       Z9, Z9, Z9
	XORQ         AX, AX

sargroup:
	VMOVUPD (SI)(AX*8), Z0
	VADDPD  Z11, Z0, Z0
	VPXORQ  Z1, Z1, Z1
	VPXORQ  Z2, Z2, Z2
	MOVQ    R8, R12
	XORQ    BX, BX
	TESTQ   R8, R8
	JZ      sarquiet

sarnoisy:
	VBROADCASTSD (R9)(BX*8), Z3
	VADDPD       Z3, Z1, Z3
	KXNORW       K2, K2, K2
	VGATHERQPD   (R12)(Z15*8), K2, Z4
	VMULPD       Z4, Z10, Z4
	VADDPD       Z4, Z9, Z4
	VADDPD       Z4, Z0, Z4
	VCMPPD       $0x1d, Z3, Z4, K1
	VMOVAPD      Z3, K1, Z1
	VADDPD       Z2, Z2, Z2
	VADDPD       Z13, Z2, K1, Z2
	ADDQ         $8, R12
	INCQ         BX
	CMPQ         BX, R10
	JLT          sarnoisy
	ADDQ         R11, R8
	JMP          sarstore

sarquiet:
	VBROADCASTSD (R9)(BX*8), Z3
	VADDPD       Z3, Z1, Z3
	VCMPPD       $0x1d, Z3, Z0, K1
	VMOVAPD      Z3, K1, Z1
	VADDPD       Z2, Z2, Z2
	VADDPD       Z13, Z2, K1, Z2
	INCQ         BX
	CMPQ         BX, R10
	JLT          sarquiet

sarstore:
	VADDPD  Z14, Z2, Z2
	VMULPD  Z12, Z2, Z2
	VSUBPD  Z11, Z2, Z2
	VMOVUPD Z2, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     sargroup
	VZEROUPPER
	RET
