#include "textflag.h"

// affineSumAVX, synthetic's scored pass: the sum of (v·a + b) mod p over
// a column's base values, in float64 lanes whose every value is an integer
// below 2^53, so each operation below is exact and the sum is affineSumGo's
// to the bit. No operation rounds, so FMA could change nothing either.
//
// Per value v, split into 16-bit halves hi and lo (v = hi·2^16 + lo):
//
//   x = hi·a16 + lo·a + b, a16 = a·2^16 mod p, so x ≡ v·a + b (mod p).
//     Each product is below 2^16·p < 2^46, and x ≤ 131 071·(p−1), below
//     2^47: exact. Without the split v·a reaches 2^62, and float64 would
//     round it.
//   q = trunc(x·(1/p)), with 1/p the float64 nearest it, which is above it
//     (TestAffineSumMatchesApply pins that). So x·(1/p) ≥ x/p, which
//     rounds to no less than the integer floor(x/p) below it. And x/p is
//     below 131 071 < 2^17, so x·(1/p) exceeds it by less than 2^−35,
//     while an x that is no multiple of p sits at least 1/p > 2^−30 below
//     the next integer: where an ulp is at most 2^−35, rounding cannot
//     reach it. q is floor(x/p), and no correction step is needed.
//   r = x − q·p, q·p ≤ x: exact, and r = x mod p = (v·a + b) mod p.
//
// r is below p < 2^30, and a call sums at most sumChunk = 2^22 values, so
// every lane and their total stay below 2^52. Eight values take one pass,
// as two 4-lane accumulators; a length that is an odd multiple of 4 takes
// one more pass of four into the first.

// p, in all four lanes
DATA affmod<>+0(SB)/8, $0x41cdcd6503800000
DATA affmod<>+8(SB)/8, $0x41cdcd6503800000
DATA affmod<>+16(SB)/8, $0x41cdcd6503800000
DATA affmod<>+24(SB)/8, $0x41cdcd6503800000
GLOBL affmod<>(SB), RODATA|NOPTR, $32

// the float64 nearest 1/p, in all four lanes
DATA affinv<>+0(SB)/8, $0x3e112e0be6225452
DATA affinv<>+8(SB)/8, $0x3e112e0be6225452
DATA affinv<>+16(SB)/8, $0x3e112e0be6225452
DATA affinv<>+24(SB)/8, $0x3e112e0be6225452
GLOBL affinv<>(SB), RODATA|NOPTR, $32

// the low 16 bits of each of four uint32
DATA lo16<>+0(SB)/8, $0x0000ffff0000ffff
DATA lo16<>+8(SB)/8, $0x0000ffff0000ffff
GLOBL lo16<>(SB), RODATA|NOPTR, $16

// AFFINE4 sets ry to (v·a + b) mod p for the four uint32 v in vx,
// clobbering vx and the two halves tx and ty of another register.
#define AFFINE4(vx, ry, tx, ty) \
	VPSRLD $16, vx, tx; \
	VPAND X7, vx, vx; \
	VCVTDQ2PD tx, ty; \
	VCVTDQ2PD vx, ry; \
	VMULPD Y3, ty, ty; \
	VMULPD Y2, ry, ry; \
	VADDPD Y4, ry, ry; \
	VADDPD ty, ry, ry; \
	VMULPD Y6, ry, ty; \
	VROUNDPD $3, ty, ty; \
	VMULPD Y5, ty, ty; \
	VSUBPD ty, ry, ry

// func affineSumAVX(vals []uint32, a, a16, b float64) uint64
//
// Registers: Y0 and Y1 the accumulators, Y2 a, Y3 a16, Y4 b, Y5 p, Y6 1/p,
// X7 the low-half mask.
TEXT ·affineSumAVX(SB), NOSPLIT, $0-56
	MOVQ vals_base+0(FP), SI
	MOVQ vals_len+8(FP), CX
	VBROADCASTSD a+24(FP), Y2
	VBROADCASTSD a16+32(FP), Y3
	VBROADCASTSD b+40(FP), Y4
	VMOVUPD affmod<>(SB), Y5
	VMOVUPD affinv<>(SB), Y6
	VMOVDQU lo16<>(SB), X7
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ CX, R8
	ANDQ $-8, R8 // values in whole 8-blocks
	XORQ AX, AX

aff_block:
	CMPQ AX, R8
	JGE aff_four
	VMOVDQU (SI)(AX*4), X8
	VMOVDQU 16(SI)(AX*4), X9
	AFFINE4(X8, Y8, X10, Y10)
	AFFINE4(X9, Y9, X11, Y11)
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	ADDQ $8, AX
	JMP aff_block

aff_four:
	CMPQ AX, CX
	JGE aff_done
	VMOVDQU (SI)(AX*4), X8
	AFFINE4(X8, Y8, X10, Y10)
	VADDPD Y8, Y0, Y0

aff_done:
	VADDPD Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	VZEROUPPER
	CVTTSD2SQ X0, AX
	MOVQ AX, ret+48(FP)
	RET
