//go:build amd64 && !purego

#include "textflag.h"

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

// func cpuidHasAVX512() bool
// AVX512F is CPUID.(EAX=7, ECX=0):EBX bit 16; the OS must also save the
// opmask and ZMM state: XCR0 bits 5 (opmask), 6 (ZMM_Hi256) and 7
// (Hi16_ZMM) on top of bits 1 and 2.
TEXT ·cpuidHasAVX512(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no512
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $16, BX
	JCC  no512
	MOVL $0, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET
