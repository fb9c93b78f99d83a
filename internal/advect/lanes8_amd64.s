#include "textflag.h"

// The SL-MPP5 kernel of lanes_amd64.s eight values at once: eight lines,
// one per AVX-512 lane (laneLimit8, laneFlux8), or eight consecutive
// interfaces of one line (the line mode of the plasma kick: lineLimit8,
// one limit8 with laneLimit8 at a stencil stride of one value instead of
// one lane row; lineFlux8, which takes prev from the lane below by VALIGNQ
// and writes the cells straight into the line; lineIn8). A line mode has
// no 8×8 transpose and no rows left over. The same operations in the same order per value, with no FMA, so each
// rounds exactly as advance and mpBound do. What the 512-bit form changes
// is how masks are held, bits combined and the limiter's rejects bounded:
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
//     (VPTERNLOGQ) under a zeroing K-mask of the lanes where a ^ b has its
//     sign bit clear (VPTESTNMQ).
//   - GOMAX's XOR/AND/OR chain is one VPTERNLOGQ.
//
// Offsets into laneCoef[[8]float64]: w 0 (w_r at 64r), xi 320, alpha 384,
// eps 448, queue 456. Z0–Z15 and K1, K3 are used as in lanes_amd64.s;
// limit8 also holds its queue's indices and constants in Z16–Z21, the
// weights in Z22–Z26 and the batch mask in K2 (K4 is the gathers' copy of
// it). Every function that touches a Z register ends with VZEROUPPER.

DATA half<>+0(SB)/8, $0x3FE0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $8

DATA fourThirds<>+0(SB)/8, $0x3FF5555555555555
GLOBL fourThirds<>(SB), RODATA|NOPTR, $8

// MINMOD2 sets d = minmod2(a, b): d = min(|a|, |b|) | (a & sign) where a
// and b share their sign (K3, VPTESTNMQ of a ^ b), else 0 (the zeroing
// mask). t is scratch; d and t differ from a and b. Z14 holds the sign
// bits; K3 is clobbered.
#define MINMOD2(a, b, d, t) \
	VANDNPD        a, Z14, d;            \
	VANDNPD        b, Z14, t;            \
	VPMINUQ        t, d, d;              \
	VPXORQ         b, a, t;              \
	VPTESTNMQ      Z14, t, K3;           \
	VPTERNLOGQ.Z   $0xf8, Z14, a, K3, d

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

// func laneLimit8(q, v [][8]float64, k *laneCoef[[8]float64])
//
// A lane pad: row i, lane k at 8i + k, each lane its own line, weights
// and α. The limit itself is limit8<>, shared with lineLimit8.
TEXT ·laneLimit8(SB), NOSPLIT, $0-56
	MOVQ q_base+0(FP), SI
	MOVQ v_base+24(FP), DI
	MOVQ v_len+32(FP), CX
	MOVQ k+48(FP), R9
	MOVQ $8, R8
	MOVQ $-1, AX
	JMP  limit8<>(SB)

// func lineLimit8(q *float64, v [][8]float64, k *laneCoef[[8]float64], line int)
//
// One line's pad (the line mode): interface 8i + k at lane k of row i,
// every lane with lane line's weights and α, broadcast.
TEXT ·lineLimit8(SB), NOSPLIT, $0-48
	MOVQ q+0(FP), SI
	MOVQ v_base+8(FP), DI
	MOVQ v_len+16(FP), CX
	MOVQ k+32(FP), R9
	MOVQ $1, R8
	MOVQ line+40(FP), AX
	JMP  limit8<>(SB)

// limit8 takes q in SI, v's rows in DI and their count in CX, k in R9,
// the stencil's stride in values in R8 and the lane whose weights and α
// every lane takes in AX (all their own where AX < 0), and returns to the
// caller of laneLimit8 or lineLimit8.
//
// Interface i's stencil m2 … p2 is the five values stride apart from q +
// i·8 values' row start: stride 8 on a lane pad (row i, lane k at 8i + k),
// stride 1 on one line's pad (interface 8i + k at lane k). Either way the
// value of lane k of row i sits at 8i + k in v and 8i + k + r·stride in q,
// so the queue's index row·8 + lane addresses both. The weights and α are
// held in Z22–Z26 and Z20.
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
TEXT limit8<>(SB), NOSPLIT, $0
	TESTQ CX, CX
	JZ    done
	SHLQ  $3, R8          // the stencil's stride in bytes
	LEAQ  (R8)(R8*2), R11 // and three of them

	TESTQ        AX, AX
	JS           lanes
	LEAQ         (R9)(AX*8), DX
	VBROADCASTSD 0(DX), Z22
	VBROADCASTSD 64(DX), Z23
	VBROADCASTSD 128(DX), Z24
	VBROADCASTSD 192(DX), Z25
	VBROADCASTSD 256(DX), Z26
	VBROADCASTSD 384(DX), Z20 // α
	JMP          start

lanes:
	VMOVUPD 0(R9), Z22
	VMOVUPD 64(R9), Z23
	VMOVUPD 128(R9), Z24
	VMOVUPD 192(R9), Z25
	VMOVUPD 256(R9), Z26
	VMOVUPD 384(R9), Z20 // α

start:
	MOVQ         SI, R13             // q
	MOVQ         DI, R12             // v
	LEAQ         456(R9), R10        // the queue
	XORQ         BX, BX              // queued
	VBROADCASTSD 448(R9), Z13        // mpEps
	VPTERNLOGQ   $0xff, Z14, Z14, Z14
	VPSLLQ       $63, Z14, Z14       // sign bits
	VMOVDQU64    laneIota<>(SB), Z17

loop:
	VMOVUPD (SI), Z0        // m2
	VMOVUPD (SI)(R8*1), Z1  // m1
	VMOVUPD (SI)(R8*2), Z2  // c0
	VMOVUPD (SI)(R11*1), Z3 // p1
	VMOVUPD (SI)(R8*4), Z4  // p2

	VMULPD Z22, Z0, Z5
	VMULPD Z23, Z1, Z6
	VADDPD Z6, Z5, Z5
	VMULPD Z24, Z2, Z6
	VADDPD Z6, Z5, Z5
	VMULPD Z25, Z3, Z6
	VADDPD Z6, Z5, Z5
	VMULPD Z26, Z4, Z6
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
	MOVQ          DI, AX
	SUBQ          R12, AX
	SHRQ          $3, AX         // row·8
	VPBROADCASTQ  AX, Z18
	VPADDQ        Z17, Z18, Z18  // row·8 + lane
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
	VGATHERQPD  (R13)(Z21*8), K4, Z0
	LEAQ        (R13)(R8*1), DX
	KMOVB       K2, K4
	VGATHERQPD  (DX)(Z21*8), K4, Z1
	LEAQ        (R13)(R8*2), DX
	KMOVB       K2, K4
	VGATHERQPD  (DX)(Z21*8), K4, Z2
	LEAQ        (R13)(R11*1), DX
	KMOVB       K2, K4
	VGATHERQPD  (DX)(Z21*8), K4, Z3
	LEAQ        (R13)(R8*4), DX
	KMOVB       K2, K4
	VGATHERQPD  (DX)(Z21*8), K4, Z4
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

// laneReverse is 7, 6, …, 0: VPERMPD by it reverses a vector's lanes.
DATA laneReverse<>+0(SB)/8, $7
DATA laneReverse<>+8(SB)/8, $6
DATA laneReverse<>+16(SB)/8, $5
DATA laneReverse<>+24(SB)/8, $4
DATA laneReverse<>+32(SB)/8, $3
DATA laneReverse<>+40(SB)/8, $2
DATA laneReverse<>+48(SB)/8, $1
DATA laneReverse<>+56(SB)/8, $0
GLOBL laneReverse<>(SB), RODATA|NOPTR, $64

// func lineFlux8(q, v *float64, xi float64, dst *float64, n int, mirrored bool)
//
// One line's clipped fluxes and cells, eight cells j … j+7 a vector: cell
// j is c0 − (flx − prev) of interface j+1, whose flx is min(q[j+3],
// max(0, v[j+1]·ξ)), and prev is the flx of interface j, lane 7 of the
// vector before (VALIGNQ). The first vector's prev, and that of a last
// vector at n − 8 that overlaps the one before it (n % 8 ≠ 0; it rewrites
// the overlap with the same bits), is computed as a broadcast. Cell j
// lands at dst + j, or on a mirrored line reversed, at dst + n−1−j.
TEXT ·lineFlux8(SB), NOSPLIT, $0-41
	MOVQ         q+0(FP), SI
	MOVQ         v+8(FP), DI
	VBROADCASTSD xi+16(FP), Z0
	MOVQ         dst+24(FP), R8
	MOVQ         n+32(FP), DX
	MOVBLZX      mirrored+40(FP), BX
	SUBQ         $8, DX // the last vector's first cell
	VPXORQ       Z15, Z15, Z15
	VMOVDQU64    laneReverse<>(SB), Z14
	XORQ         AX, AX

first:
	VMULPD.BCST  (DI)(AX*8), Z0, Z5 // v·ξ of interface j
	VMAXPD       Z5, Z15, Z5
	VBROADCASTSD 16(SI)(AX*8), Z2   // its donor, q[j+2]
	VMINPD       Z5, Z2, Z5         // its flx, in every lane

loop:
	VMULPD  8(DI)(AX*8), Z0, Z3 // v·ξ of interfaces j+1 … j+8
	VMAXPD  Z3, Z15, Z3
	VMOVUPD 24(SI)(AX*8), Z2    // their donors, c0 = q[j+3] …
	VMINPD  Z3, Z2, Z3          // flx
	VALIGNQ $7, Z5, Z3, Z1      // prev: the flx of interfaces j … j+7
	VMOVAPD Z3, Z5
	VSUBPD  Z1, Z3, Z4
	VSUBPD  Z4, Z2, Z4          // c0 − (flx − prev)
	TESTL   BX, BX
	JNZ     rev
	VMOVUPD Z4, (R8)(AX*8)
	JMP     next

rev:
	VPERMPD Z4, Z14, Z4
	MOVQ    DX, R11
	SUBQ    AX, R11
	VMOVUPD Z4, (R8)(R11*8)

next:
	ADDQ $8, AX
	CMPQ AX, DX
	JLE  loop
	LEAQ 8(DX), R11
	CMPQ AX, R11
	JEQ  done
	MOVQ DX, AX
	JMP  first

done:
	VZEROUPPER
	RET

// func lineIn8(dst, src *float64, n int, mirrored bool)
//
// A line into its pad: dst[i] = src[i], or mirrored dst[n−1−i] = src[i],
// for i < n ≥ 8, eight values a vector, the last vector at n − 8 as in
// lineFlux8.
TEXT ·lineIn8(SB), NOSPLIT, $0-25
	MOVQ      dst+0(FP), DI
	MOVQ      src+8(FP), SI
	MOVQ      n+16(FP), DX
	MOVBLZX   mirrored+24(FP), BX
	SUBQ      $8, DX
	VMOVDQU64 laneReverse<>(SB), Z14
	XORQ      AX, AX
	TESTL     BX, BX
	JNZ       rev

fwd:
	VMOVUPD (SI)(AX*8), Z0
	VMOVUPD Z0, (DI)(AX*8)
	CMPQ    AX, DX
	JEQ     done
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLE     fwd
	MOVQ    DX, AX
	JMP     fwd

rev:
	VPERMPD (SI)(AX*8), Z14, Z0
	MOVQ    DX, R11
	SUBQ    AX, R11
	VMOVUPD Z0, (DI)(R11*8)
	CMPQ    AX, DX
	JEQ     done
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLE     rev
	MOVQ    DX, AX
	JMP     rev

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
