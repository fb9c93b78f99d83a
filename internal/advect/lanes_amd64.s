#include "textflag.h"

// The SL-MPP5 kernel (advance, slmpp5.go) on four lines at once, one line
// per AVX2 lane, in two passes around the Go limiter. Per lane the
// operations, and their order, are advance's, with no FMA, so each lane
// rounds exactly as the Go kernel does:
//
//	v   = (((w0·m2 + w1·m1) + w2·c0) + w3·p1) + w4·p2
//	fMP = c0 + minmod2(p1 − c0, α·(c0 − m1))
//	reject where (v − c0)·(v − fMP) > mpEps   (GT_OQ: false on NaN, as in Go)
//
// minmod2 is its integer form: |a|, |b| are a, b with the sign bit cleared,
// below 2⁶³, so a signed 64-bit compare orders them exactly; the smaller
// takes a's sign and is zeroed where a and b differ in sign. The Go code
// then replaces a rejected v by mpBound, and the second pass clips:
//
//	flx = min(c0, max(0, v·ξ))   (MAXPD/MINPD return their second source
//	                              on ±0 ties and NaN: Go's two ifs)
//	out[i−1] = c0 − (flx − prev)
//
// Offsets into laneCoef: w 0 (w_r at 32r), xi 160, alpha 192, eps 224.

// func laneLimit(q, v [][4]float64, reject []uint8, k *laneCoef) bool
TEXT ·laneLimit(SB), NOSPLIT, $0-81
	MOVQ q_base+0(FP), SI
	MOVQ v_base+24(FP), DI
	MOVQ reject_base+48(FP), R8
	MOVQ reject_len+56(FP), CX
	MOVQ k+72(FP), R9

	VMOVUPD      0(R9), Y0   // w0
	VMOVUPD      32(R9), Y1  // w1
	VMOVUPD      64(R9), Y2  // w2
	VMOVUPD      96(R9), Y3  // w3
	VMOVUPD      128(R9), Y4 // w4
	VMOVUPD      192(R9), Y5 // alpha
	VBROADCASTSD 224(R9), Y6 // mpEps
	VPCMPEQQ     Y7, Y7, Y7
	VPSLLQ       $63, Y7, Y7 // sign bits
	VXORPD       Y15, Y15, Y15
	XORQ         AX, AX
	XORL         BX, BX
	TESTQ        CX, CX
	JZ           done

loop:
	VMOVUPD 0(SI), Y8    // m2
	VMOVUPD 32(SI), Y9   // m1
	VMOVUPD 64(SI), Y10  // c0
	VMOVUPD 96(SI), Y11  // p1
	VMOVUPD 128(SI), Y12 // p2

	VMULPD  Y8, Y0, Y13
	VMULPD  Y9, Y1, Y14
	VADDPD  Y14, Y13, Y13
	VMULPD  Y10, Y2, Y14
	VADDPD  Y14, Y13, Y13
	VMULPD  Y11, Y3, Y14
	VADDPD  Y14, Y13, Y13
	VMULPD  Y12, Y4, Y14
	VADDPD  Y14, Y13, Y13 // v
	VMOVUPD Y13, (DI)

	VSUBPD    Y10, Y11, Y8      // a = p1 − c0
	VSUBPD    Y9, Y10, Y9
	VMULPD    Y9, Y5, Y9        // b = α·(c0 − m1)
	VANDNPD   Y8, Y7, Y11       // |a|
	VANDNPD   Y9, Y7, Y12       // |b|
	VPCMPGTQ  Y12, Y11, Y14     // |a| > |b|
	VBLENDVPD Y14, Y12, Y11, Y11 // min(|a|, |b|)
	VANDPD    Y7, Y8, Y14
	VORPD     Y14, Y11, Y11     // with a's sign
	VXORPD    Y9, Y8, Y14
	VBLENDVPD Y14, Y15, Y11, Y11 // zero where the signs differ: minmod2(a, b)
	VADDPD    Y11, Y10, Y11     // fMP

	VSUBPD    Y10, Y13, Y12     // v − c0
	VSUBPD    Y11, Y13, Y11     // v − fMP
	VMULPD    Y11, Y12, Y12
	VCMPPD    $0x1e, Y6, Y12, Y12 // > mpEps, GT_OQ
	VMOVMSKPD Y12, DX
	MOVB      DX, (R8)(AX*1)
	ORL       DX, BX

	ADDQ $32, SI
	ADDQ $32, DI
	INCQ AX
	CMPQ AX, CX
	JLT  loop

done:
	TESTL BX, BX
	SETNE ret+80(FP)
	VZEROUPPER
	RET

// func laneFlux(q, v [][4]float64, k *laneCoef)
TEXT ·laneFlux(SB), NOSPLIT, $0-56
	MOVQ q_base+0(FP), SI
	MOVQ v_base+24(FP), DI
	MOVQ v_len+32(FP), CX // interfaces
	MOVQ k+48(FP), R9
	TESTQ CX, CX
	JZ    done

	VMOVUPD 160(R9), Y0 // xi
	VXORPD  Y15, Y15, Y15

	VMULPD  (DI), Y0, Y1
	VMAXPD  Y1, Y15, Y1
	VMOVUPD 64(SI), Y2 // c0 of interface 0
	VMINPD  Y1, Y2, Y1 // prev
	MOVQ    $1, AX
	CMPQ    AX, CX
	JGE     done

loop:
	VMULPD  32(DI), Y0, Y3 // v·ξ
	VMAXPD  Y3, Y15, Y3
	VMOVUPD 96(SI), Y2     // c0
	VMINPD  Y3, Y2, Y3     // flx
	VSUBPD  Y1, Y3, Y4
	VSUBPD  Y4, Y2, Y4     // c0 − (flx − prev)
	VMOVUPD Y4, (DI)
	VMOVAPD Y3, Y1

	ADDQ $32, SI
	ADDQ $32, DI
	INCQ AX
	CMPQ AX, CX
	JLT  loop

done:
	VZEROUPPER
	RET
