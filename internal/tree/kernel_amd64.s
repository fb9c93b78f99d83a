#include "textflag.h"

// func kernelBlock(x, y, z, m []float64, tab *[2]float64, b *block)
//
// kernelBatched on the four targets of b at once, one target per lane. Per
// lane and per source the operations, and their order, are the Go kernel's:
//
//	d = src − target
//	s = ((dx·dx + dy·dy) + dz·dz + e2)·invRs2
//	i = min(bits(s)>>gTabShift − gTabBase, gTabCut)
//	f = m·(e0[i] + e1[i]·(s − left edge of s's interval))
//	a += f·d
//
// with no FMA, so each lane rounds exactly as the Go kernel does. The caller
// guarantees s ≥ 2^gTabMinExp, so 0 ≤ i < 2^22 and the Go kernel never takes
// its exact-profile branch; with both high halves zero, an unsigned 32-bit
// min per half is the 64-bit min. b.ax/ay/az receive the sums before
// normalisation.
//
// Offsets into block: x 0, y 32, z 64, e2 96, invRs2 128, base 160, cut 192,
// ax 224, ay 256, az 288. SHIFT is gTabShift = 52 − gTabBits.
#define SHIFT $42

TEXT ·kernelBlock(SB), NOSPLIT, $0-112
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	MOVQ z_base+48(FP), R8
	MOVQ m_base+72(FP), R9
	MOVQ tab+96(FP), R10
	MOVQ b+104(FP), R11

	VMOVUPD 0(R11), Y0   // target x
	VMOVUPD 32(R11), Y1  // target y
	VMOVUPD 64(R11), Y2  // target z
	VMOVUPD 96(R11), Y15 // e2
	VXORPD  Y3, Y3, Y3   // ax
	VXORPD  Y4, Y4, Y4   // ay
	VXORPD  Y5, Y5, Y5   // az
	XORQ    AX, AX
	TESTQ   CX, CX
	JZ      done

loop:
	VBROADCASTSD (SI)(AX*8), Y6
	VSUBPD       Y0, Y6, Y6     // dx
	VBROADCASTSD (DI)(AX*8), Y7
	VSUBPD       Y1, Y7, Y7     // dy
	VBROADCASTSD (R8)(AX*8), Y8
	VSUBPD       Y2, Y8, Y8     // dz
	VMULPD       Y6, Y6, Y9
	VMULPD       Y7, Y7, Y10
	VADDPD       Y10, Y9, Y9
	VMULPD       Y8, Y8, Y10
	VADDPD       Y10, Y9, Y9
	VADDPD       Y15, Y9, Y9
	VMULPD       128(R11), Y9, Y9 // s

	VPSRLQ  SHIFT, Y9, Y10
	VPSLLQ  SHIFT, Y10, Y11    // left edge of s's interval
	VPSUBQ  160(R11), Y10, Y10 // i
	VPMINUD 192(R11), Y10, Y10 // min(i, gTabCut)
	VPADDQ  Y10, Y10, Y10      // 2i: tab is [][2]float64

	VPCMPEQQ   Y12, Y12, Y12
	VGATHERQPD Y12, (R10)(Y10*8), Y13  // e0
	VPCMPEQQ   Y12, Y12, Y12
	VGATHERQPD Y12, 8(R10)(Y10*8), Y14 // e1

	VSUBPD       Y11, Y9, Y9
	VMULPD       Y9, Y14, Y14
	VADDPD       Y14, Y13, Y13
	VBROADCASTSD (R9)(AX*8), Y12
	VMULPD       Y13, Y12, Y12 // f

	VMULPD Y12, Y6, Y6
	VADDPD Y6, Y3, Y3
	VMULPD Y12, Y7, Y7
	VADDPD Y7, Y4, Y4
	VMULPD Y12, Y8, Y8
	VADDPD Y8, Y5, Y5

	INCQ AX
	CMPQ AX, CX
	JLT  loop

done:
	VMOVUPD Y3, 224(R11)
	VMOVUPD Y4, 256(R11)
	VMOVUPD Y5, 288(R11)
	VZEROUPPER
	RET
