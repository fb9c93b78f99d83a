#include "textflag.h"

// The SL-MPP5 kernel of lanes_amd64.s on eight lines at once, one line per
// AVX-512 lane: the same operations in the same order per lane, with no
// FMA, so each lane rounds exactly as advance and mpBound do. What the
// 512-bit form changes is how masks are held, bits combined and the
// limiter's rejects bounded:
//
//   - The reject test compares into K1 (VCMPPD, GT_OQ) and KORTESTB
//     branches on it. A row with a rejecting lane queues only those lanes,
//     as their index row·8 + lane into v (VPCOMPRESSQ under K1, then one
//     full-width store at the queue's count), and mpBound runs once per
//     eight queued values, not once per rejecting row: VGATHERQPD reads
//     the queued lanes' stencils and v back from q and v, VPERMPD picks
//     their α, and VSCATTERQPD writes the bounds over their v. In the
//     plasma drift 2.6 % of values reject but 19 % of rows hold one, so
//     the bound runs about seven times less often than per row.
//   - minmod2's integer form: |a|, |b| are a, b with the sign bit cleared,
//     below 2⁶³, so VPMINUQ orders them exactly; the smaller takes a's sign
//     (VPTERNLOGQ) and is zeroed by VBLENDMPD under the K-mask of the lanes
//     where a ^ b has its sign bit set (VPMOVQ2M).
//   - GOMAX's XOR/AND/OR chain is one VPTERNLOGQ.
//
// Offsets into laneCoef[[8]float64]: w 0 (w_r at 64r), xi 320, alpha 384,
// eps 448, queue 456. Z0–Z15 and K1, K3 are used as in lanes_amd64.s;
// laneLimit8 also holds its queue's indices and constants in Z16–Z21 and
// the batch mask in K2 (K4 is the gathers' copy of it). Every function
// that touches a Z register ends with VZEROUPPER.

DATA half<>+0(SB)/8, $0x3FE0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $8

DATA fourThirds<>+0(SB)/8, $0x3FF5555555555555
GLOBL fourThirds<>(SB), RODATA|NOPTR, $8

// MINMOD2 sets d = minmod2(a, b): d = min(|a|, |b|) | (a & sign), then 0
// where a and b differ in sign. t is scratch; d and t differ from a and b.
// Z14 holds the sign bits, Z15 zero; K3 is clobbered.
#define MINMOD2(a, b, d, t) \
	VANDNPD    a, Z14, d;        \
	VANDNPD    b, Z14, t;        \
	VPMINUQ    t, d, d;          \
	VPTERNLOGQ $0xf8, Z14, a, d; \
	VPXORQ     b, a, t;          \
	VPMOVQ2M   t, K3;            \
	VBLENDMPD  Z15, d, K3, d

// GOMIN sets d = min(a, b) as Go rounds it: min(b, a), which is a on a tie
// or NaN, OR min(a, b), which is b there. t is scratch; d and t differ from
// a and b.
#define GOMIN(a, b, d, t) \
	VMINPD a, b, d; \
	VMINPD b, a, t; \
	VPORQ  t, d, d

// GOMAX sets d = max(a, b) as Go rounds it: the OR of both operand orders
// in every bit but the sign, which is their AND: d = (d | t) ^ ((d ^ t) &
// sign), truth table 0xd4 over (d, t, Z14). t is scratch; d and t differ
// from a and b.
#define GOMAX(a, b, d, t) \
	VMAXPD     a, b, d; \
	VMAXPD     b, a, t; \
	VPTERNLOGQ $0xd4, Z14, t, d

// laneIota is 0, 1, …, 7: lane k's index in a row, and its mask test.
DATA laneIota<>+0(SB)/8, $0
DATA laneIota<>+8(SB)/8, $1
DATA laneIota<>+16(SB)/8, $2
DATA laneIota<>+24(SB)/8, $3
DATA laneIota<>+32(SB)/8, $4
DATA laneIota<>+40(SB)/8, $5
DATA laneIota<>+48(SB)/8, $6
DATA laneIota<>+56(SB)/8, $7
GLOBL laneIota<>(SB), RODATA|NOPTR, $64

DATA laneEight<>+0(SB)/8, $8
GLOBL laneEight<>(SB), RODATA|NOPTR, $8

// func laneLimit8(q, v [][8]float64, k *laneCoef[[8]float64])
//
// One pass over the rows stores every row's v and queues its rejecting
// lanes at k's queue (R10), their indices row·8 + lane into v; BX counts
// them. VPCOMPRESSQ packs a row's rejecting indices into the low lanes of
// Z16, and the full-width store at the count writes at most entry 14 of
// the queue's 16. Once eight are queued, batch bounds them and entries
// 8–15 move down to 0–7. The last, partial batch runs under K2 = the
// lanes below the count: the masked index load and gathers leave the other
// lanes zero (no stale memory, so no NaN and no subnormal), and the
// scatter skips them. Each value takes mpBound's operations in mpBound's
// order on the same inputs, so it rounds as the per-row bound did.
TEXT ·laneLimit8(SB), NOSPLIT, $0-56
	MOVQ  q_base+0(FP), SI
	MOVQ  v_base+24(FP), DI
	MOVQ  v_len+32(FP), CX // interfaces
	MOVQ  k+48(FP), R9
	TESTQ CX, CX
	JZ    done

	MOVQ         SI, R13             // q
	MOVQ         DI, R12             // v
	LEAQ         456(R9), R10        // the queue
	XORQ         BX, BX              // queued
	VBROADCASTSD 448(R9), Z13        // mpEps
	VPTERNLOGQ   $0xff, Z14, Z14, Z14
	VPSLLQ       $63, Z14, Z14       // sign bits
	VPXORQ       Z15, Z15, Z15
	VMOVDQU64    laneIota<>(SB), Z17
	VMOVDQU64    Z17, Z18            // row·8 + lane
	VPBROADCASTQ laneEight<>(SB), Z19
	VMOVUPD      384(R9), Z20        // α

loop:
	VMOVUPD 0(SI), Z0   // m2
	VMOVUPD 64(SI), Z1  // m1
	VMOVUPD 128(SI), Z2 // c0
	VMOVUPD 192(SI), Z3 // p1
	VMOVUPD 256(SI), Z4 // p2

	VMULPD 0(R9), Z0, Z5
	VMULPD 64(R9), Z1, Z6
	VADDPD Z6, Z5, Z5
	VMULPD 128(R9), Z2, Z6
	VADDPD Z6, Z5, Z5
	VMULPD 192(R9), Z3, Z6
	VADDPD Z6, Z5, Z5
	VMULPD 256(R9), Z4, Z6
	VADDPD Z6, Z5, Z5 // v

	VSUBPD  Z2, Z3, Z6  // p1 − c0
	VSUBPD  Z1, Z2, Z7
	VMULPD  Z20, Z7, Z7 // α·(c0 − m1)
	MINMOD2(Z6, Z7, Z8, Z10)
	VADDPD  Z8, Z2, Z8  // fMP

	VSUBPD   Z2, Z5, Z9         // v − c0
	VSUBPD   Z8, Z5, Z10        // v − fMP
	VMULPD   Z10, Z9, Z9
	VCMPPD   $0x1e, Z13, Z9, K1 // > mpEps, GT_OQ: the lanes that reject
	VMOVUPD  Z5, (DI)
	KORTESTB K1, K1
	JNZ      queue

next:
	VPADDQ Z19, Z18, Z18
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   CX
	JNZ    loop

	TESTQ BX, BX
	JNZ   last

done:
	VZEROUPPER
	RET

// Queue the rejecting lanes K1 of the row; with eight queued, bound them.
queue:
	VPCOMPRESSQ.Z Z18, K1, Z16
	VMOVDQU64     Z16, (R10)(BX*8)
	KMOVB         K1, AX
	POPCNTL       AX, AX
	ADDQ          AX, BX
	CMPQ          BX, $8
	JLT           next
	KXNORB        K2, K2, K2
	JMP           batch

// The last, partial batch: K2 holds its BX lanes.
last:
	VPBROADCASTQ BX, Z16
	VPCMPUQ      $1, Z16, Z17, K2 // lane < BX

// mpBound on the queue's first eight entries, lanes K2, written back into
// v. As the row had them: m2 Z0, m1 Z1, c0 Z2, p1 Z3, p2 Z4 and v Z5,
// gathered from q and v, and α·(c0 − m1) Z7, recomputed; the index stays
// in Z21.
batch:
	VMOVDQU64.Z 0(R10), K2, Z21
	VPXORQ      Z0, Z0, Z0
	VPXORQ      Z1, Z1, Z1
	VPXORQ      Z2, Z2, Z2
	VPXORQ      Z3, Z3, Z3
	VPXORQ      Z4, Z4, Z4
	VPXORQ      Z5, Z5, Z5
	KMOVB       K2, K4
	VGATHERQPD  0(R13)(Z21*8), K4, Z0
	KMOVB       K2, K4
	VGATHERQPD  64(R13)(Z21*8), K4, Z1
	KMOVB       K2, K4
	VGATHERQPD  128(R13)(Z21*8), K4, Z2
	KMOVB       K2, K4
	VGATHERQPD  192(R13)(Z21*8), K4, Z3
	KMOVB       K2, K4
	VGATHERQPD  256(R13)(Z21*8), K4, Z4
	KMOVB       K2, K4
	VGATHERQPD  (R12)(Z21*8), K4, Z5
	VPERMPD     Z20, Z21, Z6 // α of each entry's lane, index & 7
	VSUBPD      Z1, Z2, Z7
	VMULPD      Z6, Z7, Z7   // α·(c0 − m1)

	VADDPD Z1, Z1, Z6
	VSUBPD Z6, Z0, Z6
	VADDPD Z2, Z6, Z6 // dm1 = m2 − 2·m1 + c0
	VADDPD Z3, Z3, Z0
	VSUBPD Z0, Z2, Z0
	VADDPD Z4, Z0, Z0 // dp1 = c0 − 2·p1 + p2
	VADDPD Z2, Z2, Z4
	VSUBPD Z4, Z1, Z4
	VADDPD Z3, Z4, Z4 // d0 = m1 − 2·c0 + p1

	// dMp = minmod4(4·d0 − dp1, 4·dp1 − d0, d0, dp1)
	VADDPD Z4, Z4, Z8
	VADDPD Z8, Z8, Z8
	VSUBPD Z0, Z8, Z8
	VADDPD Z0, Z0, Z10
	VADDPD Z10, Z10, Z10
	VSUBPD Z4, Z10, Z10
	MINMOD2(Z8, Z10, Z11, Z12)
	MINMOD2(Z4, Z0, Z8, Z10)
	MINMOD2(Z11, Z8, Z0, Z10)

	// dMm = minmod4(4·d0 − dm1, 4·dm1 − d0, d0, dm1)
	VADDPD Z4, Z4, Z8
	VADDPD Z8, Z8, Z8
	VSUBPD Z6, Z8, Z8
	VADDPD Z6, Z6, Z10
	VADDPD Z10, Z10, Z10
	VSUBPD Z4, Z10, Z10
	MINMOD2(Z8, Z10, Z11, Z12)
	MINMOD2(Z4, Z6, Z8, Z10)
	MINMOD2(Z11, Z8, Z4, Z10)

	VADDPD      Z7, Z2, Z7                // fUL = c0 + α·(c0 − m1)
	VADDPD      Z3, Z2, Z6
	VMULPD.BCST half<>(SB), Z6, Z6        // fAV = 0.5·(c0 + p1)
	VMULPD.BCST half<>(SB), Z0, Z0
	VSUBPD      Z0, Z6, Z6                // fMD = fAV − 0.5·dMp
	VSUBPD      Z1, Z2, Z0
	VMULPD.BCST half<>(SB), Z0, Z0
	VADDPD      Z0, Z2, Z0
	VMULPD.BCST fourThirds<>(SB), Z4, Z4
	VADDPD      Z4, Z0, Z0                // fLC = c0 + 0.5·(c0 − m1) + (4/3)·dMm

	GOMIN(Z2, Z3, Z1, Z4)
	GOMIN(Z1, Z6, Z8, Z4)   // min(c0, p1, fMD)
	GOMIN(Z2, Z7, Z1, Z4)
	GOMIN(Z1, Z0, Z10, Z4)  // min(c0, fUL, fLC)
	GOMAX(Z8, Z10, Z11, Z1) // fmin
	GOMAX(Z2, Z3, Z1, Z4)
	GOMAX(Z1, Z6, Z3, Z4)   // max(c0, p1, fMD)
	GOMAX(Z2, Z7, Z1, Z4)
	GOMAX(Z1, Z0, Z6, Z4)   // max(c0, fUL, fLC)
	GOMIN(Z3, Z6, Z10, Z4)  // fmax

	// median(v, fmin, fmax) = v + minmod2(fmin − v, fmax − v)
	VSUBPD  Z5, Z11, Z11
	VSUBPD  Z5, Z10, Z10
	MINMOD2(Z11, Z10, Z0, Z1)
	VADDPD  Z0, Z5, Z0

	VSCATTERQPD Z0, K2, (R12)(Z21*8)
	TESTQ       CX, CX
	JZ          done // the last batch

	VMOVDQU64 64(R10), Z16
	VMOVDQU64 Z16, 0(R10)
	SUBQ      $8, BX
	JMP       next

// func laneFlux8(q, v [][8]float64, k *laneCoef[[8]float64])
TEXT ·laneFlux8(SB), NOSPLIT, $0-56
	MOVQ  q_base+0(FP), SI
	MOVQ  v_base+24(FP), DI
	MOVQ  v_len+32(FP), CX // interfaces
	MOVQ  k+48(FP), R9
	TESTQ CX, CX
	JZ    done

	VMOVUPD 320(R9), Z0 // xi
	VPXORQ  Z15, Z15, Z15

	VMULPD  (DI), Z0, Z1
	VMAXPD  Z1, Z15, Z1
	VMOVUPD 128(SI), Z2 // c0 of interface 0
	VMINPD  Z1, Z2, Z1  // prev
	MOVQ    $1, AX
	CMPQ    AX, CX
	JGE     done

loop:
	VMULPD  64(DI), Z0, Z3 // v·ξ
	VMAXPD  Z3, Z15, Z3
	VMOVUPD 192(SI), Z2    // c0
	VMINPD  Z3, Z2, Z3     // flx
	VSUBPD  Z1, Z3, Z4
	VSUBPD  Z4, Z2, Z4     // c0 − (flx − prev)
	VMOVUPD Z4, (DI)
	VMOVAPD Z3, Z1

	ADDQ $64, SI
	ADDQ $64, DI
	INCQ AX
	CMPQ AX, CX
	JLT  loop

done:
	VZEROUPPER
	RET

// The kick's rows at eight lanes: a block of eight rows is one load of
// eight adjacent cells per lane and one 8×8 transpose, or the same the
// other way. With lane k's cells k0..k7 in Zk, VUNPCKLPD/VUNPCKHPD pair
// lanes 2j, 2j+1 within each 128-bit block ([00 10 | 02 12 | 04 14 | 06
// 16] and [01 11 | 03 13 | …] for lanes 0, 1), one VSHUFF64X2 round joins
// blocks 0, 2 and 1, 3 of lane pairs (0, 1) and (2, 3) ([00 10 | 04 14 |
// 20 30 | 24 34] …), and a second joins lane quads (0–3) and (4–7), which
// leaves row m = [0m 1m … 7m] in Z(8+m). The transpose is its own inverse:
// rows in Z0..Z7 leave lane k's cells in Z(8+k). Mirrored lines run down
// memory: a block's eight cells, loaded from the lowest, are its rows 7 …
// 0, so the rows go in and out reversed.
#define TRANSPOSE \
	VUNPCKLPD  Z1, Z0, Z8;         \
	VUNPCKHPD  Z1, Z0, Z9;         \
	VUNPCKLPD  Z3, Z2, Z10;        \
	VUNPCKHPD  Z3, Z2, Z11;        \
	VUNPCKLPD  Z5, Z4, Z12;        \
	VUNPCKHPD  Z5, Z4, Z13;        \
	VUNPCKLPD  Z7, Z6, Z14;        \
	VUNPCKHPD  Z7, Z6, Z15;        \
	VSHUFF64X2 $0x88, Z10, Z8, Z0; \
	VSHUFF64X2 $0xdd, Z10, Z8, Z1; \
	VSHUFF64X2 $0x88, Z11, Z9, Z2; \
	VSHUFF64X2 $0xdd, Z11, Z9, Z3; \
	VSHUFF64X2 $0x88, Z14, Z12, Z4; \
	VSHUFF64X2 $0xdd, Z14, Z12, Z5; \
	VSHUFF64X2 $0x88, Z15, Z13, Z6; \
	VSHUFF64X2 $0xdd, Z15, Z13, Z7; \
	VSHUFF64X2 $0x88, Z4, Z0, Z8;  \
	VSHUFF64X2 $0xdd, Z4, Z0, Z12; \
	VSHUFF64X2 $0x88, Z5, Z1, Z10; \
	VSHUFF64X2 $0xdd, Z5, Z1, Z14; \
	VSHUFF64X2 $0x88, Z6, Z2, Z9;  \
	VSHUFF64X2 $0xdd, Z6, Z2, Z13; \
	VSHUFF64X2 $0x88, Z7, Z3, Z11; \
	VSHUFF64X2 $0xdd, Z7, Z3, Z15

// LOADLANES loads lane k of a block, at SI + k·BX, into Zk; STORELANES
// stores Z(8+k) at DI + k·BX. R10 holds 3·BX; R11 is scratch.
#define LOADLANES \
	LEAQ    (SI)(BX*4), R11;     \
	VMOVUPD (SI), Z0;            \
	VMOVUPD (SI)(BX*1), Z1;      \
	VMOVUPD (SI)(BX*2), Z2;      \
	VMOVUPD (SI)(R10*1), Z3;     \
	VMOVUPD (R11), Z4;           \
	VMOVUPD (R11)(BX*1), Z5;     \
	VMOVUPD (R11)(BX*2), Z6;     \
	VMOVUPD (R11)(R10*1), Z7

#define STORELANES \
	LEAQ    (DI)(BX*4), R11;     \
	VMOVUPD Z8, (DI);            \
	VMOVUPD Z9, (DI)(BX*1);      \
	VMOVUPD Z10, (DI)(BX*2);     \
	VMOVUPD Z11, (DI)(R10*1);    \
	VMOVUPD Z12, (R11);          \
	VMOVUPD Z13, (R11)(BX*1);    \
	VMOVUPD Z14, (R11)(BX*2);    \
	VMOVUPD Z15, (R11)(R10*1)

// func laneIn8(rows [][8]float64, w []float64, laneStride int, mirrored bool)
TEXT ·laneIn8(SB), NOSPLIT, $0-57
	MOVQ    rows_base+0(FP), DI
	MOVQ    rows_len+8(FP), CX
	MOVQ    w_base+24(FP), SI
	MOVQ    laneStride+48(FP), BX
	MOVBLZX mirrored+56(FP), AX
	SHLQ    $3, BX
	LEAQ    (BX)(BX*2), R10
	SHRQ    $3, CX          // blocks
	JZ      done
	TESTL   AX, AX
	JNZ     rev

fwd:
	LOADLANES
	TRANSPOSE
	VMOVUPD Z8, 0(DI)
	VMOVUPD Z9, 64(DI)
	VMOVUPD Z10, 128(DI)
	VMOVUPD Z11, 192(DI)
	VMOVUPD Z12, 256(DI)
	VMOVUPD Z13, 320(DI)
	VMOVUPD Z14, 384(DI)
	VMOVUPD Z15, 448(DI)
	ADDQ    $64, SI
	ADDQ    $512, DI
	DECQ    CX
	JNZ     fwd
	JMP     done

rev:
	MOVQ CX, R8
	SHLQ $6, R8
	LEAQ -64(SI)(R8*1), SI // the lowest cells of block 0

revloop:
	LOADLANES
	TRANSPOSE
	VMOVUPD Z15, 0(DI)
	VMOVUPD Z14, 64(DI)
	VMOVUPD Z13, 128(DI)
	VMOVUPD Z12, 192(DI)
	VMOVUPD Z11, 256(DI)
	VMOVUPD Z10, 320(DI)
	VMOVUPD Z9, 384(DI)
	VMOVUPD Z8, 448(DI)
	SUBQ    $64, SI
	ADDQ    $512, DI
	DECQ    CX
	JNZ     revloop

done:
	VZEROUPPER
	RET

// func laneOut8(w []float64, laneStride int, mirrored bool, rows [][8]float64)
TEXT ·laneOut8(SB), NOSPLIT, $0-64
	MOVQ    w_base+0(FP), DI
	MOVQ    laneStride+24(FP), BX
	MOVBLZX mirrored+32(FP), AX
	MOVQ    rows_base+40(FP), SI
	MOVQ    rows_len+48(FP), CX
	SHLQ    $3, BX
	LEAQ    (BX)(BX*2), R10
	SHRQ    $3, CX          // blocks
	JZ      done
	TESTL   AX, AX
	JNZ     rev

fwd:
	VMOVUPD 0(SI), Z0
	VMOVUPD 64(SI), Z1
	VMOVUPD 128(SI), Z2
	VMOVUPD 192(SI), Z3
	VMOVUPD 256(SI), Z4
	VMOVUPD 320(SI), Z5
	VMOVUPD 384(SI), Z6
	VMOVUPD 448(SI), Z7
	TRANSPOSE
	STORELANES
	ADDQ    $512, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     fwd
	JMP     done

rev:
	MOVQ CX, R8
	SHLQ $6, R8
	LEAQ -64(DI)(R8*1), DI

revloop:
	VMOVUPD 448(SI), Z0
	VMOVUPD 384(SI), Z1
	VMOVUPD 320(SI), Z2
	VMOVUPD 256(SI), Z3
	VMOVUPD 192(SI), Z4
	VMOVUPD 128(SI), Z5
	VMOVUPD 64(SI), Z6
	VMOVUPD 0(SI), Z7
	TRANSPOSE
	STORELANES
	ADDQ    $512, SI
	SUBQ    $64, DI
	DECQ    CX
	JNZ     revloop

done:
	VZEROUPPER
	RET

// The drift's rows at eight lanes: a pad row is one 64-byte line of eight
// adjacent values, one VMOVUPD in and one out, and successive rows are
// step values apart (negative on mirrored lines). Go has checked every row
// against the slice.

// func laneLoad8(rows [][8]float64, src *float64, step int)
TEXT ·laneLoad8(SB), NOSPLIT, $0-40
	MOVQ  rows_base+0(FP), DI
	MOVQ  rows_len+8(FP), CX
	MOVQ  src+24(FP), SI
	MOVQ  step+32(FP), BX
	SHLQ  $3, BX
	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (SI), Z0
	VMOVUPD Z0, (DI)
	ADDQ    BX, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     loop

done:
	VZEROUPPER
	RET

// func laneStore8(dst *float64, step int, rows [][8]float64)
TEXT ·laneStore8(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), DI
	MOVQ  step+8(FP), BX
	MOVQ  rows_base+16(FP), SI
	MOVQ  rows_len+24(FP), CX
	SHLQ  $3, BX
	TESTQ CX, CX
	JZ    done

loop:
	VMOVUPD (SI), Z0
	VMOVUPD Z0, (DI)
	ADDQ    $64, SI
	ADDQ    BX, DI
	DECQ    CX
	JNZ     loop

done:
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

// func laneSweep8(k *laneCoef[[8]float64])
//
// laneSweep8 is laneSweep (lanes_amd64.s) on eight lanes.
TEXT ·laneSweep8(SB), NOSPLIT, $0-8
	MOVQ         k+0(FP), R9
	VMOVUPD      320(R9), Z0         // xi
	VBROADCASTSD sweepK<>+0(SB), Z15 // 1
	VBROADCASTSD sweepK<>+88(SB), Z14 // 120
	VMULPD       Z0, Z0, Z1          // x2 = xi·xi
	VSUBPD       Z0, Z15, Z2         // 1 − xi
	VBROADCASTSD sweepK<>+8(SB), Z3
	VSUBPD       Z0, Z3, Z3          // 2 − xi
	VMULPD       Z3, Z2, Z2
	VBROADCASTSD sweepK<>+16(SB), Z3
	VSUBPD       Z0, Z3, Z3          // 3 − xi
	VMULPD       Z3, Z2, Z2          // down = (1 − xi)·(2 − xi)·(3 − xi)
	VSUBPD       Z1, Z15, Z5         // 1 − x2
	VBROADCASTSD sweepK<>+24(SB), Z13 // 4

	VSUBPD  Z1, Z13, Z6
	VMULPD  Z6, Z5, Z6
	VDIVPD  Z14, Z6, Z6 // w0 = (1 − x2)·(4 − x2)/120
	VMOVUPD Z6, 0(R9)

	VBROADCASTSD sweepK<>+8(SB), Z6
	VADDPD       Z0, Z6, Z6 // 2 + xi
	VMULPD       Z6, Z5, Z6
	VMULPD       Z13, Z0, Z7 // 4·xi
	VBROADCASTSD sweepK<>+40(SB), Z8
	VSUBPD       Z8, Z7, Z8  // 4·xi − 13
	VMULPD       Z8, Z6, Z6
	VDIVPD       Z14, Z6, Z6 // w1 = (1 − x2)·(2 + xi)·(4·xi − 13)/120
	VMOVUPD      Z6, 64(R9)

	VBROADCASTSD sweepK<>+80(SB), Z6
	VMULPD       Z0, Z6, Z6 // 6·xi
	VBROADCASTSD sweepK<>+72(SB), Z8
	VADDPD       Z8, Z6, Z6
	VMULPD       Z6, Z0, Z6
	VBROADCASTSD sweepK<>+64(SB), Z8
	VADDPD       Z8, Z6, Z6
	VMULPD       Z6, Z0, Z6
	VBROADCASTSD sweepK<>+56(SB), Z8
	VADDPD       Z8, Z6, Z6
	VMULPD       Z6, Z0, Z6
	VBROADCASTSD sweepK<>+48(SB), Z8
	VADDPD       Z8, Z6, Z6
	VDIVPD       Z14, Z6, Z6 // w2 = (94 + xi·(75 + xi·(−40 + xi·(−15 + 6·xi))))/120
	VMOVUPD      Z6, 128(R9)

	VBROADCASTSD sweepK<>+32(SB), Z6
	VADDPD       Z7, Z6, Z6 // 9 + 4·xi
	VMULPD       Z6, Z2, Z6
	VDIVPD       Z14, Z6, Z6 // w3 = down·(9 + 4·xi)/120
	VMOVUPD      Z6, 192(R9)

	VBROADCASTSD sweepK<>+104(SB), Z6
	VPXORQ       Z6, Z2, Z2  // −down
	VADDPD       Z0, Z15, Z6 // 1 + xi
	VMULPD       Z6, Z2, Z6
	VDIVPD       Z14, Z6, Z6 // w4 = −down·(1 + xi)/120
	VMOVUPD      Z6, 256(R9)

	VSUBPD       Z0, Z15, Z6 // 1 − xi
	VBROADCASTSD sweepK<>+96(SB), Z8
	VMAXPD       Z8, Z0, Z8  // max(xi, 1e-12)
	VDIVPD       Z8, Z6, Z6
	VMINPD       Z6, Z13, Z6 // alpha > 4 takes 4
	VMOVUPD      Z6, 384(R9)
	VZEROUPPER
	RET
