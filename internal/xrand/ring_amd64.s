//go:build amd64 && !purego

#include "textflag.h"

// The dword index of j in each of 16 words shifted right by 31, across
// two ZMM registers of 8 words: the low dword of every qword.
DATA evenDwords<>+0(SB)/4, $0
DATA evenDwords<>+4(SB)/4, $2
DATA evenDwords<>+8(SB)/4, $4
DATA evenDwords<>+12(SB)/4, $6
DATA evenDwords<>+16(SB)/4, $8
DATA evenDwords<>+20(SB)/4, $10
DATA evenDwords<>+24(SB)/4, $12
DATA evenDwords<>+28(SB)/4, $14
DATA evenDwords<>+32(SB)/4, $16
DATA evenDwords<>+36(SB)/4, $18
DATA evenDwords<>+40(SB)/4, $20
DATA evenDwords<>+44(SB)/4, $22
DATA evenDwords<>+48(SB)/4, $24
DATA evenDwords<>+52(SB)/4, $26
DATA evenDwords<>+56(SB)/4, $28
DATA evenDwords<>+60(SB)/4, $30
GLOBL evenDwords<>(SB), RODATA|NOPTR, $64

DATA stripMask<>+0(SB)/4, $0x7f
GLOBL stripMask<>(SB), RODATA|NOPTR, $4

DATA bit5<>+0(SB)/4, $0x20
GLOBL bit5<>(SB), RODATA|NOPTR, $4

DATA bit6<>+0(SB)/4, $0x40
GLOBL bit6<>(SB), RODATA|NOPTR, $4

// func normalsAVX512(dst []float64, words []uint64) int
// For 16 words at a time: j = int32(uint32(w >> 31)) (VPSRLQ, then the
// low dwords gathered by VPERMI2D), i = j & 0x7F, kn[i] and wn[i] each
// looked up in four 32-entry quarters by VPERMT2D (which reads the low 5
// bits of i) and blended by bits 5 and 6 of i,
// x = float64(j)·float64(wn[i]) (two exact conversions and
// one VMULPD, as in the Go code) stored, and the fast test |j| < kn[i]
// (VPABSD gives 2³¹ for MinInt32, compared unsigned by VPCMPUD). The
// loop stops at the first group with a failing word and returns the
// index of that word.
TEXT ·normalsAVX512(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         words_base+24(FP), SI
	LEAQ         ·kn(SB), R8
	LEAQ         ·wn(SB), R9
	XORQ         AX, AX
	VMOVDQU32    evenDwords<>(SB), Z14
	VPBROADCASTD stripMask<>(SB), Z15
	VPBROADCASTD bit5<>(SB), Z13
	VPBROADCASTD bit6<>(SB), Z12

loop:
	VMOVDQU64     (SI)(AX*8), Z0
	VMOVDQU64     64(SI)(AX*8), Z1
	VPSRLQ        $31, Z0, Z0
	VPSRLQ        $31, Z1, Z1
	VMOVDQA64     Z14, Z2
	VPERMI2D      Z1, Z0, Z2
	VPANDD        Z15, Z2, Z3
	VPTESTMD      Z13, Z3, K4
	VPTESTMD      Z12, Z3, K5
	VMOVDQU32     (R8), Z4
	VPERMT2D      64(R8), Z3, Z4
	VMOVDQU32     128(R8), Z5
	VPERMT2D      192(R8), Z3, Z5
	VMOVDQU32     256(R8), Z6
	VPERMT2D      320(R8), Z3, Z6
	VMOVDQU32     384(R8), Z7
	VPERMT2D      448(R8), Z3, Z7
	VPBLENDMD     Z5, Z4, K4, Z4
	VPBLENDMD     Z7, Z6, K4, Z6
	VPBLENDMD     Z6, Z4, K5, Z4
	VMOVDQU32     (R9), Z5
	VPERMT2D      64(R9), Z3, Z5
	VMOVDQU32     128(R9), Z6
	VPERMT2D      192(R9), Z3, Z6
	VMOVDQU32     256(R9), Z7
	VPERMT2D      320(R9), Z3, Z7
	VMOVDQU32     384(R9), Z8
	VPERMT2D      448(R9), Z3, Z8
	VPBLENDMD     Z6, Z5, K4, Z5
	VPBLENDMD     Z8, Z7, K4, Z7
	VPBLENDMD     Z7, Z5, K5, Z5
	VPABSD        Z2, Z6
	VPCMPUD       $1, Z4, Z6, K3
	VCVTDQ2PD     Y2, Z7
	VCVTPS2PD     Y5, Z8
	VMULPD        Z8, Z7, Z7
	VMOVUPD       Z7, (DI)(AX*8)
	VEXTRACTI64X4 $1, Z2, Y9
	VEXTRACTF64X4 $1, Z5, Y10
	VCVTDQ2PD     Y9, Z9
	VCVTPS2PD     Y10, Z10
	VMULPD        Z10, Z9, Z9
	VMOVUPD       Z9, 64(DI)(AX*8)
	KMOVW         K3, BX
	CMPL          BX, $0xffff
	JNE           stop
	ADDQ          $16, AX
	CMPQ          AX, CX
	JLT           loop
	MOVQ          AX, ret+48(FP)
	VZEROUPPER
	RET

stop:
	NOTL       BX
	BSFL       BX, BX
	ADDQ       BX, AX
	MOVQ       AX, ret+48(FP)
	VZEROUPPER
	RET

// func refillAVX512(v *[607]uint64)
// v[i] += v[i+334] for i in [0, 273), then v[i] += v[i-273] for i in
// [273, 607), eight words per VPADDQ; the second loop reads words at
// least 273 back, all already stepped. The odd words finish in scalar
// adds.
TEXT ·refillAVX512(SB), NOSPLIT, $0-8
	MOVQ v+0(FP), DI
	XORQ AX, AX

low:
	VMOVDQU64 (DI)(AX*8), Z0
	VPADDQ    2672(DI)(AX*8), Z0, Z0
	VMOVDQU64 Z0, (DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, $272
	JLT       low
	MOVQ      2176(DI), BX
	ADDQ      4848(DI), BX
	MOVQ      BX, 2176(DI)
	MOVQ      $273, AX

high:
	VMOVDQU64 (DI)(AX*8), Z0
	VPADDQ    -2184(DI)(AX*8), Z0, Z0
	VMOVDQU64 Z0, (DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, $601
	JLT       high

tail:
	MOVQ -2184(DI)(AX*8), BX
	ADDQ BX, (DI)(AX*8)
	INCQ AX
	CMPQ AX, $607
	JLT  tail
	VZEROUPPER
	RET
