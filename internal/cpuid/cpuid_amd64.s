#include "textflag.h"

// func AVX2() bool
//
// AVX2 is usable when the CPU reports it (leaf 7 EBX bit 5) and the OS saves
// the YMM state: leaf 1 ECX has OSXSAVE and AVX (bits 27–28), and XCR0
// enables the SSE and AVX state components (bits 1–2).
TEXT ·AVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $(3<<27), CX
	CMPL CX, $(3<<27)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func AVX512() bool
//
// AVX-512 F, DQ, BW and VL are usable when the CPU reports them (leaf 7 EBX
// bits 16, 17, 30 and 31) beside AVX2 (bit 5), and the OS saves the opmask
// and ZMM state beside the YMM state: leaf 1 ECX has OSXSAVE and AVX, and
// XCR0 enables the SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM components
// (bits 1–2 and 5–7).
TEXT ·AVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	CPUID
	ANDL $(3<<27), CX
	CMPL CX, $(3<<27)
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0xc0030020, BX
	CMPL BX, $0xc0030020
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
