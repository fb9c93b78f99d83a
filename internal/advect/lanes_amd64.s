#include "textflag.h"

// The SL-MPP5 kernel (advance, slmpp5.go) on four lines at once, one line
// per AVX2 lane, limiter included. Per lane the operations, and their
// order, are advance's and mpBound's, with no FMA, so each lane rounds
// exactly as the Go kernel does. laneLimit makes one pass over the
// interfaces:
//
//	v   = (((w0·m2 + w1·m1) + w2·c0) + w3·p1) + w4·p2
//	fMP = c0 + minmod2(p1 − c0, α·(c0 − m1))
//	reject where (v − c0)·(v − fMP) > mpEps   (GT_OQ: false on NaN, as in Go)
//
// and, on an interface where any lane rejects, computes mpBound for all
// four lanes and blends it in under the compare's lane mask, so a lane
// that accepts keeps the bits of v. minmod2 is its integer form: |a|, |b|
// are a, b with the sign bit cleared, below 2⁶³, so a signed 64-bit compare
// orders them exactly; the smaller takes a's sign and is zeroed where a and
// b differ in sign. 2·x and 4·x are x + x and 2x + 2x, which round alike.
// Go's min and max return their first operand's bits, or on a ±0 tie or a
// NaN the OR of both (min) or that OR with the AND of their signs (max);
// MINPD and MAXPD return their second source there, so GOMIN and GOMAX take
// both operand orders and combine them the same way. laneFlux then clips:
//
//	flx = min(c0, max(0, v·ξ))   (MAXPD/MINPD return their second source
//	                              on ±0 ties and NaN: Go's two ifs)
//	out[i−1] = c0 − (flx − prev)
//
// Offsets into laneCoef: w 0 (w_r at 32r), xi 160, alpha 192, eps 224.
// Every instruction that names an X or Y register is VEX-encoded: one
// legacy SSE instruction costs an SSE/AVX transition where it runs.

// 0.5 and 4/3 in every lane.
DATA boundK<>+0(SB)/8, $0x3FE0000000000000
DATA boundK<>+8(SB)/8, $0x3FE0000000000000
DATA boundK<>+16(SB)/8, $0x3FE0000000000000
DATA boundK<>+24(SB)/8, $0x3FE0000000000000
DATA boundK<>+32(SB)/8, $0x3FF5555555555555
DATA boundK<>+40(SB)/8, $0x3FF5555555555555
DATA boundK<>+48(SB)/8, $0x3FF5555555555555
DATA boundK<>+56(SB)/8, $0x3FF5555555555555
GLOBL boundK<>(SB), RODATA|NOPTR, $64

// MINMOD2 sets d = minmod2(a, b): d = |a|, t = |b|, u = |a| > |b|, d =
// min(|a|, |b|) with a's sign, zeroed where a ^ b has its sign bit set. t
// and u are scratch; d, t and u differ from a and b. Y14 holds the sign
// bits, Y15 zero.
#define MINMOD2(a, b, d, t, u) \
	VANDNPD   a, Y14, d;  \
	VANDNPD   b, Y14, t;  \
	VPCMPGTQ  t, d, u;    \
	VBLENDVPD u, t, d, d; \
	VANDPD    Y14, a, t;  \
	VORPD     t, d, d;    \
	VXORPD    b, a, t;    \
	VBLENDVPD t, Y15, d, d

// GOMIN sets d = min(a, b) as Go rounds it: min(b, a), which is a on a tie
// or NaN, OR min(a, b), which is b there. t is scratch; d and t differ from
// a and b.
#define GOMIN(a, b, d, t) \
	VMINPD a, b, d; \
	VMINPD b, a, t; \
	VORPD  t, d, d

// GOMAX sets d = max(a, b) as Go rounds it: the OR of both operand orders,
// with the sign bit cleared where their signs differ (the AND of the
// signs). t and u are scratch; d, t and u differ from a and b.
#define GOMAX(a, b, d, t, u) \
	VMAXPD a, b, d;   \
	VMAXPD b, a, t;   \
	VXORPD t, d, u;   \
	VANDPD Y14, u, u; \
	VORPD  t, d, d;   \
	VXORPD u, d, d

// func laneLimit(q, v [][4]float64, k *laneCoef)
TEXT ·laneLimit(SB), NOSPLIT, $0-56
	MOVQ q_base+0(FP), SI
	MOVQ v_base+24(FP), DI
	MOVQ v_len+32(FP), CX // interfaces
	MOVQ k+48(FP), R9
	TESTQ CX, CX
	JZ    done

	VBROADCASTSD 224(R9), Y13 // mpEps
	VPCMPEQQ     Y14, Y14, Y14
	VPSLLQ       $63, Y14, Y14 // sign bits
	VXORPD       Y15, Y15, Y15

loop:
	VMOVUPD 0(SI), Y0    // m2
	VMOVUPD 32(SI), Y1   // m1
	VMOVUPD 64(SI), Y2   // c0
	VMOVUPD 96(SI), Y3   // p1
	VMOVUPD 128(SI), Y4  // p2

	VMULPD 0(R9), Y0, Y5
	VMULPD 32(R9), Y1, Y6
	VADDPD Y6, Y5, Y5
	VMULPD 64(R9), Y2, Y6
	VADDPD Y6, Y5, Y5
	VMULPD 96(R9), Y3, Y6
	VADDPD Y6, Y5, Y5
	VMULPD 128(R9), Y4, Y6
	VADDPD Y6, Y5, Y5 // v

	VSUBPD  Y2, Y3, Y6     // p1 − c0
	VSUBPD  Y1, Y2, Y7
	VMULPD  192(R9), Y7, Y7 // α·(c0 − m1)
	MINMOD2(Y6, Y7, Y8, Y10, Y11)
	VADDPD  Y8, Y2, Y8     // fMP

	VSUBPD    Y2, Y5, Y9   // v − c0
	VSUBPD    Y8, Y5, Y10  // v − fMP
	VMULPD    Y10, Y9, Y9
	VCMPPD    $0x1e, Y13, Y9, Y9 // > mpEps, GT_OQ: the lanes that reject
	VMOVMSKPD Y9, DX
	TESTL     DX, DX
	JNZ       bound

store:
	VMOVUPD Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET

// mpBound on all four lanes. Live: m2 Y0, m1 Y1, c0 Y2, p1 Y3, p2 Y4, v
// Y5, α·(c0 − m1) Y7 and the reject mask Y9; Y13 is scratch here and
// takes mpEps again on the way back.
bound:
	VADDPD Y1, Y1, Y6
	VSUBPD Y6, Y0, Y6
	VADDPD Y2, Y6, Y6 // dm1 = m2 − 2·m1 + c0
	VADDPD Y3, Y3, Y0
	VSUBPD Y0, Y2, Y0
	VADDPD Y4, Y0, Y0 // dp1 = c0 − 2·p1 + p2
	VADDPD Y2, Y2, Y4
	VSUBPD Y4, Y1, Y4
	VADDPD Y3, Y4, Y4 // d0 = m1 − 2·c0 + p1

	// dMp = minmod4(4·d0 − dp1, 4·dp1 − d0, d0, dp1)
	VADDPD Y4, Y4, Y8
	VADDPD Y8, Y8, Y8
	VSUBPD Y0, Y8, Y8
	VADDPD Y0, Y0, Y10
	VADDPD Y10, Y10, Y10
	VSUBPD Y4, Y10, Y10
	MINMOD2(Y8, Y10, Y11, Y12, Y13)
	MINMOD2(Y4, Y0, Y8, Y10, Y12)
	MINMOD2(Y11, Y8, Y0, Y10, Y12)

	// dMm = minmod4(4·d0 − dm1, 4·dm1 − d0, d0, dm1)
	VADDPD Y4, Y4, Y8
	VADDPD Y8, Y8, Y8
	VSUBPD Y6, Y8, Y8
	VADDPD Y6, Y6, Y10
	VADDPD Y10, Y10, Y10
	VSUBPD Y4, Y10, Y10
	MINMOD2(Y8, Y10, Y11, Y12, Y13)
	MINMOD2(Y4, Y6, Y8, Y10, Y12)
	MINMOD2(Y11, Y8, Y4, Y10, Y12)

	VADDPD Y7, Y2, Y7                // fUL = c0 + α·(c0 − m1)
	VADDPD Y3, Y2, Y6
	VMULPD boundK<>+0(SB), Y6, Y6    // fAV = 0.5·(c0 + p1)
	VMULPD boundK<>+0(SB), Y0, Y0
	VSUBPD Y0, Y6, Y6                // fMD = fAV − 0.5·dMp
	VSUBPD Y1, Y2, Y0
	VMULPD boundK<>+0(SB), Y0, Y0
	VADDPD Y0, Y2, Y0
	VMULPD boundK<>+32(SB), Y4, Y4
	VADDPD Y4, Y0, Y0                // fLC = c0 + 0.5·(c0 − m1) + (4/3)·dMm

	GOMIN(Y2, Y3, Y1, Y4)
	GOMIN(Y1, Y6, Y8, Y4)       // min(c0, p1, fMD)
	GOMIN(Y2, Y7, Y1, Y4)
	GOMIN(Y1, Y0, Y10, Y4)      // min(c0, fUL, fLC)
	GOMAX(Y8, Y10, Y11, Y1, Y4) // fmin
	GOMAX(Y2, Y3, Y1, Y4, Y8)
	GOMAX(Y1, Y6, Y3, Y4, Y8)   // max(c0, p1, fMD)
	GOMAX(Y2, Y7, Y1, Y4, Y8)
	GOMAX(Y1, Y0, Y6, Y4, Y8)   // max(c0, fUL, fLC)
	GOMIN(Y3, Y6, Y10, Y4)      // fmax

	// median(v, fmin, fmax) = v + minmod2(fmin − v, fmax − v)
	VSUBPD  Y5, Y11, Y11
	VSUBPD  Y5, Y10, Y10
	MINMOD2(Y11, Y10, Y0, Y1, Y4)
	VADDPD  Y0, Y5, Y0

	VBLENDVPD    Y9, Y0, Y5, Y5 // the rejecting lanes take the bound
	VBROADCASTSD 224(R9), Y13
	JMP          store

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

// The kick's rows: four lanes laneStride apart, four cells of a lane
// adjacent. A block of four rows is four loads of four cells, one per lane,
// and one 4×4 transpose (VUNPCKLPD/VUNPCKHPD, then VPERM2F128), or the
// same the other way: with the lanes a, b, c, d in Y0..Y3, the unpacks
// give [a0 b0 a2 b2], [a1 b1 a3 b3], [c0 d0 c2 d2], [c1 d1 c3 d3] and the
// permutes join their halves into [a0 b0 c0 d0] … [a3 b3 c3 d3], Y0..Y3.
// Mirrored lines run down memory: a block's four cells, loaded from the
// lowest, are its rows 3, 2, 1, 0, so the rows go in and out reversed.
#define TRANSPOSE \
	VUNPCKLPD  Y1, Y0, Y4;        \
	VUNPCKHPD  Y1, Y0, Y5;        \
	VUNPCKLPD  Y3, Y2, Y6;        \
	VUNPCKHPD  Y3, Y2, Y7;        \
	VPERM2F128 $0x20, Y6, Y4, Y0; \
	VPERM2F128 $0x20, Y7, Y5, Y1; \
	VPERM2F128 $0x31, Y6, Y4, Y2; \
	VPERM2F128 $0x31, Y7, Y5, Y3

// func laneIn(rows [][4]float64, w []float64, laneStride int, mirrored bool)
TEXT ·laneIn(SB), NOSPLIT, $0-57
	MOVQ    rows_base+0(FP), DI
	MOVQ    rows_len+8(FP), CX
	MOVQ    w_base+24(FP), SI
	MOVQ    laneStride+48(FP), BX
	MOVBLZX mirrored+56(FP), AX
	SHLQ    $3, BX
	SHRQ    $2, CX // blocks
	JZ      indone
	TESTL   AX, AX
	JNZ     inrev

in:
	LEAQ    (SI)(BX*2), R8
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(BX*1), Y1
	VMOVUPD (R8), Y2
	VMOVUPD (R8)(BX*1), Y3
	TRANSPOSE
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $32, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     in
	JMP     indone

inrev:
	MOVQ CX, R8
	SHLQ $5, R8
	LEAQ -32(SI)(R8*1), SI // the lowest cells of block 0

inrevloop:
	LEAQ    (SI)(BX*2), R8
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(BX*1), Y1
	VMOVUPD (R8), Y2
	VMOVUPD (R8)(BX*1), Y3
	TRANSPOSE
	VMOVUPD Y3, 0(DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y1, 64(DI)
	VMOVUPD Y0, 96(DI)
	SUBQ    $32, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     inrevloop

indone:
	VZEROUPPER
	RET

// func laneOut(w []float64, laneStride int, mirrored bool, rows [][4]float64)
TEXT ·laneOut(SB), NOSPLIT, $0-64
	MOVQ    w_base+0(FP), DI
	MOVQ    laneStride+24(FP), BX
	MOVBLZX mirrored+32(FP), AX
	MOVQ    rows_base+40(FP), SI
	MOVQ    rows_len+48(FP), CX
	SHLQ    $3, BX
	SHRQ    $2, CX // blocks
	JZ      outdone
	TESTL   AX, AX
	JNZ     outrev

out:
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	TRANSPOSE
	LEAQ    (DI)(BX*2), R8
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(BX*1)
	VMOVUPD Y2, (R8)
	VMOVUPD Y3, (R8)(BX*1)
	ADDQ    $128, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     out
	JMP     outdone

outrev:
	MOVQ CX, R8
	SHLQ $5, R8
	LEAQ -32(DI)(R8*1), DI

outrevloop:
	VMOVUPD 96(SI), Y0
	VMOVUPD 64(SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 0(SI), Y3
	TRANSPOSE
	LEAQ    (DI)(BX*2), R8
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(BX*1)
	VMOVUPD Y2, (R8)
	VMOVUPD Y3, (R8)(BX*1)
	ADDQ    $128, SI
	SUBQ    $32, DI
	DECQ    CX
	JNZ     outrevloop

outdone:
	VZEROUPPER
	RET

// The drift's rows: the four lanes are adjacent values, so a pad row is
// one 32-byte move, and successive rows are step values apart (negative on
// mirrored lines). Go has checked every row against the slice.

// func laneLoad(rows [][4]float64, src *float64, step int)
TEXT ·laneLoad(SB), NOSPLIT, $0-40
	MOVQ  rows_base+0(FP), DI
	MOVQ  rows_len+8(FP), CX
	MOVQ  src+24(FP), SI
	MOVQ  step+32(FP), BX
	SHLQ  $3, BX
	TESTQ CX, CX
	JZ    loaddone

load:
	VMOVUPD (SI), Y0
	VMOVUPD Y0, (DI)
	ADDQ    BX, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     load

loaddone:
	VZEROUPPER
	RET

// func laneStore(dst *float64, step int, rows [][4]float64)
TEXT ·laneStore(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), DI
	MOVQ  step+8(FP), BX
	MOVQ  rows_base+16(FP), SI
	MOVQ  rows_len+24(FP), CX
	SHLQ  $3, BX
	TESTQ CX, CX
	JZ    storedone

store:
	VMOVUPD (SI), Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    BX, DI
	DECQ    CX
	JNZ     store

storedone:
	VZEROUPPER
	RET

// SweptWeights' and steepness's constants: 1, 2, 3, 4, 9, 13, 94, 75, −40,
// −15, 6, 120, 1e-12 and the sign bit, at 8·i.
DATA sweepK<>+0(SB)/8, $1.0
DATA sweepK<>+8(SB)/8, $2.0
DATA sweepK<>+16(SB)/8, $3.0
DATA sweepK<>+24(SB)/8, $4.0
DATA sweepK<>+32(SB)/8, $9.0
DATA sweepK<>+40(SB)/8, $13.0
DATA sweepK<>+48(SB)/8, $94.0
DATA sweepK<>+56(SB)/8, $75.0
DATA sweepK<>+64(SB)/8, $-40.0
DATA sweepK<>+72(SB)/8, $-15.0
DATA sweepK<>+80(SB)/8, $6.0
DATA sweepK<>+88(SB)/8, $120.0
DATA sweepK<>+96(SB)/8, $1e-12
DATA sweepK<>+104(SB)/8, $0x8000000000000000
GLOBL sweepK<>(SB), RODATA|NOPTR, $112

// func laneSweep(k *laneCoef[[4]float64])
//
// laneSweep sets the weights w and the steepness alpha of k from its
// fractions xi ∈ (0, 1): SweptWeights and steepness on four lanes, their
// operations in their order, with no FMA.
TEXT ·laneSweep(SB), NOSPLIT, $0-8
	MOVQ         k+0(FP), R9
	VMOVUPD      160(R9), Y0        // xi
	VBROADCASTSD sweepK<>+0(SB), Y15 // 1
	VBROADCASTSD sweepK<>+88(SB), Y14 // 120
	VMULPD       Y0, Y0, Y1          // x2 = xi·xi
	VSUBPD       Y0, Y15, Y2         // 1 − xi
	VBROADCASTSD sweepK<>+8(SB), Y3
	VSUBPD       Y0, Y3, Y3          // 2 − xi
	VMULPD       Y3, Y2, Y2
	VBROADCASTSD sweepK<>+16(SB), Y3
	VSUBPD       Y0, Y3, Y3          // 3 − xi
	VMULPD       Y3, Y2, Y2          // down = (1 − xi)·(2 − xi)·(3 − xi)
	VSUBPD       Y1, Y15, Y5         // 1 − x2
	VBROADCASTSD sweepK<>+24(SB), Y13 // 4

	VSUBPD  Y1, Y13, Y6
	VMULPD  Y6, Y5, Y6
	VDIVPD  Y14, Y6, Y6 // w0 = (1 − x2)·(4 − x2)/120
	VMOVUPD Y6, 0(R9)

	VBROADCASTSD sweepK<>+8(SB), Y6
	VADDPD       Y0, Y6, Y6 // 2 + xi
	VMULPD       Y6, Y5, Y6
	VMULPD       Y13, Y0, Y7 // 4·xi
	VBROADCASTSD sweepK<>+40(SB), Y8
	VSUBPD       Y8, Y7, Y8  // 4·xi − 13
	VMULPD       Y8, Y6, Y6
	VDIVPD       Y14, Y6, Y6 // w1 = (1 − x2)·(2 + xi)·(4·xi − 13)/120
	VMOVUPD      Y6, 32(R9)

	VBROADCASTSD sweepK<>+80(SB), Y6
	VMULPD       Y0, Y6, Y6 // 6·xi
	VBROADCASTSD sweepK<>+72(SB), Y8
	VADDPD       Y8, Y6, Y6
	VMULPD       Y6, Y0, Y6
	VBROADCASTSD sweepK<>+64(SB), Y8
	VADDPD       Y8, Y6, Y6
	VMULPD       Y6, Y0, Y6
	VBROADCASTSD sweepK<>+56(SB), Y8
	VADDPD       Y8, Y6, Y6
	VMULPD       Y6, Y0, Y6
	VBROADCASTSD sweepK<>+48(SB), Y8
	VADDPD       Y8, Y6, Y6
	VDIVPD       Y14, Y6, Y6 // w2 = (94 + xi·(75 + xi·(−40 + xi·(−15 + 6·xi))))/120
	VMOVUPD      Y6, 64(R9)

	VBROADCASTSD sweepK<>+32(SB), Y6
	VADDPD       Y7, Y6, Y6 // 9 + 4·xi
	VMULPD       Y6, Y2, Y6
	VDIVPD       Y14, Y6, Y6 // w3 = down·(9 + 4·xi)/120
	VMOVUPD      Y6, 96(R9)

	VBROADCASTSD sweepK<>+104(SB), Y6
	VXORPD       Y6, Y2, Y2 // −down
	VADDPD       Y0, Y15, Y6 // 1 + xi
	VMULPD       Y6, Y2, Y6
	VDIVPD       Y14, Y6, Y6 // w4 = −down·(1 + xi)/120
	VMOVUPD      Y6, 128(R9)

	VSUBPD       Y0, Y15, Y6 // 1 − xi
	VBROADCASTSD sweepK<>+96(SB), Y8
	VMAXPD       Y8, Y0, Y8  // max(xi, 1e-12)
	VDIVPD       Y8, Y6, Y6
	VMINPD       Y6, Y13, Y6 // alpha > 4 takes 4
	VMOVUPD      Y6, 192(R9)
	VZEROUPPER
	RET
