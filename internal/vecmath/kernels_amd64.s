#include "textflag.h"

// Two row kernels: expRowAVX, math.Exp over a row, and tanhRowAVX,
// math.Tanh over a row, four values per instruction.
//
// Both repeat exp_amd64.s value by value, on the sequence math.Exp runs in
// this process (the fused argument, see kernels_amd64.go): k = x·LOG2E
// rounded to an integer by VCVTPD2DQ, which rounds by MXCSR as CVTSD2SL
// does; r = (x − k·LN2U − k·LN2L)·0.0625; r times the Taylor chain in r;
// four times r·(r + 2); plus 1; times 2^k, whose exponent field k + 1023 is
// put in by an integer add and shift. On the plain path every product is
// rounded before it is added; on the fused one the instructions fuse where
// the avxfma branch does (VFNMADD231PD for the reduction, VFMADD213PD for
// the Taylor chain and the last square with its +1). Every lane the
// kernels store is computed from finite operands, with no NaN on the way,
// so the order of the operands of a sum or a product does not show. Go asm
// writes the sources in reverse: VSUBPD src2, src1, dst is dst = src1 −
// src2.
//
// A row's length past a multiple of 4 is one more block, the row's last
// four values, loaded before anything is stored: it overlaps the block
// before it, whose values it stores again, the same, and so does no harm
// when dst is src. A row shorter than 4 is left to the caller. No masked
// load or store: on the Xeon these kernels were measured on, a VMASKMOVPD
// pass over a 2-value row in its own 16-byte allocation took 29 ns against
// 6 ns over the same values at the start of a larger one.

// CONST4 is a float64 constant in all four lanes, given by its bits: the
// float64 Go rounds exp_amd64.s's and math.tanh's constants to.
#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(log2e, 0x3ff71547652b82fe)        // LOG2E
CONST4(ln2u, 0x3fe62e42fefa3000)         // LN2U, the upper half of ln 2
CONST4(ln2l, 0x3d53de6af278ece6)         // LN2L, the lower half
CONST4(sixteenth, 0x3fb0000000000000)    // 0.0625
CONST4(taylor8, 0x3efa01a01a01a01a)      // 1/8!
CONST4(taylor7, 0x3f2a01a01a01a01a)      // 1/7!
CONST4(taylor6, 0x3f56c16c16c16c17)      // 1/6!
CONST4(taylor5, 0x3f81111111111111)      // 1/5!
CONST4(taylor4, 0x3fa5555555555555)      // 1/4!
CONST4(taylor3, 0x3fc5555555555555)      // 1/3!
CONST4(half, 0x3fe0000000000000)         // 0.5
CONST4(one, 0x3ff0000000000000)          // 1
CONST4(two, 0x4000000000000000)          // 2
CONST4(absmask, 0x7fffffffffffffff)      // every bit but the sign
CONST4(signbit, 0x8000000000000000)      // the sign bit
CONST4(halfmaxlog, 0x404601e678fc457b)   // 0.5·MAXLOG
CONST4(fiveeighths, 0x3fe4000000000000)  // 0.625
CONST4(tanhp0, 0xbfeedc5baafd6f4b)       // tanhP[0]
CONST4(tanhp1, 0xc058d26a0e26682d)       // tanhP[1]
CONST4(tanhp2, 0xc0993ac030580563)       // tanhP[2]
CONST4(tanhq0, 0x405c33f28a581b86)       // tanhQ[0]
CONST4(tanhq1, 0x40a176fa0e5535fa)       // tanhQ[1]
CONST4(tanhq2, 0x40b2ec102442040c)       // tanhQ[2]

// Four int32 lanes each: the exponent bias, and the largest and smallest
// biased exponent of a normal float64.
DATA bias<>+0(SB)/8, $0x000003ff000003ff
DATA bias<>+8(SB)/8, $0x000003ff000003ff
GLOBL bias<>(SB), RODATA|NOPTR, $16
DATA emax<>+0(SB)/8, $0x000007fe000007fe
DATA emax<>+8(SB)/8, $0x000007fe000007fe
GLOBL emax<>(SB), RODATA|NOPTR, $16
DATA emin<>+0(SB)/8, $0x0000000100000001
DATA emin<>+8(SB)/8, $0x0000000100000001
GLOBL emin<>(SB), RODATA|NOPTR, $16

// EXP_K: from x in Y0, k = round(x·LOG2E) as four int32 in X2 and as
// float64 in Y1.
#define EXP_K \
	VMULPD log2e<>(SB), Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD X2, Y1

// EXP_POLY_PLAIN: from x in Y0 and k in Y1, the plain path's fraction,
// everything but the ×2^k, in Y3. Clobbers Y4.
#define EXP_POLY_PLAIN \
	VMULPD ln2u<>(SB), Y1, Y4; \
	VSUBPD Y4, Y0, Y3; \
	VMULPD ln2l<>(SB), Y1, Y4; \
	VSUBPD Y4, Y3, Y3; \
	VMULPD sixteenth<>(SB), Y3, Y3; \
	VMULPD taylor8<>(SB), Y3, Y4; \
	VADDPD taylor7<>(SB), Y4, Y4; \
	VMULPD Y3, Y4, Y4; \
	VADDPD taylor6<>(SB), Y4, Y4; \
	VMULPD Y3, Y4, Y4; \
	VADDPD taylor5<>(SB), Y4, Y4; \
	VMULPD Y3, Y4, Y4; \
	VADDPD taylor4<>(SB), Y4, Y4; \
	VMULPD Y3, Y4, Y4; \
	VADDPD taylor3<>(SB), Y4, Y4; \
	VMULPD Y3, Y4, Y4; \
	VADDPD half<>(SB), Y4, Y4; \
	VMULPD Y3, Y4, Y4; \
	VADDPD one<>(SB), Y4, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD two<>(SB), Y3, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD two<>(SB), Y3, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD two<>(SB), Y3, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD two<>(SB), Y3, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD one<>(SB), Y3, Y3

// EXP_POLY_FMA: the same on the fused path. VFNMADD231PD m, Y1, Y3 is
// Y3 = −(Y1·m) + Y3 and VFMADD213PD m, Y3, Y4 is Y4 = Y3·Y4 + m, each
// rounded once.
#define EXP_POLY_FMA \
	VMOVAPD Y0, Y3; \
	VFNMADD231PD ln2u<>(SB), Y1, Y3; \
	VFNMADD231PD ln2l<>(SB), Y1, Y3; \
	VMULPD sixteenth<>(SB), Y3, Y3; \
	VMOVUPD taylor8<>(SB), Y4; \
	VFMADD213PD taylor7<>(SB), Y3, Y4; \
	VFMADD213PD taylor6<>(SB), Y3, Y4; \
	VFMADD213PD taylor5<>(SB), Y3, Y4; \
	VFMADD213PD taylor4<>(SB), Y3, Y4; \
	VFMADD213PD taylor3<>(SB), Y3, Y4; \
	VFMADD213PD half<>(SB), Y3, Y4; \
	VFMADD213PD one<>(SB), Y3, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD two<>(SB), Y3, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD two<>(SB), Y3, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD two<>(SB), Y3, Y4; \
	VMULPD Y4, Y3, Y3; \
	VADDPD two<>(SB), Y3, Y4; \
	VFMADD213PD one<>(SB), Y4, Y3

// EXP_SCALE: Y3 times 2^k for k in X2, the float64 whose exponent field is
// k + 1023 and whose fraction is zero: (k + 1023) << 20 in the high int32
// of each lane, zero in the low one. Clobbers X5, X6 and Y7.
#define EXP_SCALE \
	VPADDD bias<>(SB), X2, X5; \
	VPSLLD $20, X5, X6; \
	VPXOR X7, X7, X7; \
	VPUNPCKHDQ X6, X7, X5; \
	VPUNPCKLDQ X6, X7, X7; \
	VINSERTF128 $1, X5, Y7, Y7; \
	VMULPD Y7, Y3, Y3

// func expRowAVX(dst, src []float64, fused bool) (done int)
//
// dst[i] = math.Exp(src[i]) for every i, until the first block holding a
// lane exp_amd64.s does not take through the sequence above: a lane with
// k + 1023 outside [1, 2046], whose e^x overflows or is subnormal or zero.
// Those are also the lanes whose x is not finite or above exp_amd64.s's
// Overflow bound: VCVTPD2DQ turns a NaN, an infinity and any x·LOG2E out of
// int32 range into −2^31, and an x above Overflow gives k >= 1024.
//
// Registers: Y0 x, Y1 k, X2 k as int32, Y3 the result, Y9 the last four
// values, X14 emin; AX the block's first value, BX where it is stored (the
// same but in the last, overlapping block), R8 fused.
TEXT ·expRowAVX(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVBLZX fused+48(FP), R8
	XORQ AX, AX
	CMPQ CX, $4
	JLT exp_stop
	VMOVUPD -32(SI)(CX*8), Y9 // the last four values
	VMOVDQU emin<>(SB), X14

exp_block:
	MOVQ CX, DX
	SUBQ AX, DX
	JLE exp_done
	MOVQ AX, BX
	CMPQ DX, $4
	JLT exp_last
	VMOVUPD (SI)(AX*8), Y0
	JMP exp_k

exp_last:
	VMOVAPD Y9, Y0
	LEAQ -4(CX), BX

exp_k:
	EXP_K
	VPADDD bias<>(SB), X2, X5   // k + 1023
	VPCMPGTD emax<>(SB), X5, X6 // k + 1023 > 2046
	VPCMPGTD X5, X14, X4        // 1 > k + 1023
	VPOR X4, X6, X6
	VMOVMSKPS X6, R11
	TESTL R11, R11
	JNE exp_stop
	TESTQ R8, R8
	JNE exp_fma
	EXP_POLY_PLAIN
	JMP exp_scale

exp_fma:
	EXP_POLY_FMA

exp_scale:
	EXP_SCALE
	VMOVUPD Y3, (DI)(BX*8)
	ADDQ $4, AX
	JMP exp_block

exp_done:
	MOVQ CX, AX

exp_stop:
	MOVQ AX, done+56(FP)
	VZEROUPPER
	RET

// func tanhRowAVX(dst, src []float64, fused bool) (done int)
//
// dst[i] = math.Tanh(src[i]) for every i, until the first block holding a
// NaN. Per lane, as math.tanh with z = |x|: ±1 where z > 0.5·MAXLOG;
// 1 − 2/(e^{2z} + 1) with x's sign where 0.625 <= z, e^{2z} by the
// sequence above (2z lies in [1.25, 88.03], so its e^{2z} is normal); x
// itself where x is ±0; and the rational polynomial otherwise, each
// product rounded before it is added, in Go's order: x + x·s·P(s)/Q(s),
// s = x·x (math.tanh is pure Go, unfused under GOAMD64=v1). Every lane
// takes all three formulas, and VBLENDVPD keeps the one its z picks; what
// the others compute there is thrown away.
//
// Registers: Y10 x, Y8 z, Y0 2z, Y1-Y7 the exponential, Y5 the middle
// formula, Y11 s, Y12 P(s), Y13 Q(s), Y14 the result, Y15 the last four
// values; AX, BX and R8 as in expRowAVX.
TEXT ·tanhRowAVX(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVBLZX fused+48(FP), R8
	XORQ AX, AX
	CMPQ CX, $4
	JLT tanh_stop
	VMOVUPD -32(SI)(CX*8), Y15 // the last four values

tanh_block:
	MOVQ CX, DX
	SUBQ AX, DX
	JLE tanh_done
	MOVQ AX, BX
	CMPQ DX, $4
	JLT tanh_last
	VMOVUPD (SI)(AX*8), Y10
	JMP tanh_x

tanh_last:
	VMOVAPD Y15, Y10
	LEAQ -4(CX), BX

tanh_x:
	VCMPPD $3, Y10, Y10, Y9 // unordered: a NaN
	VMOVMSKPD Y9, R11
	TESTL R11, R11
	JNE tanh_stop
	VANDPD absmask<>(SB), Y10, Y8 // z = |x|
	VADDPD Y8, Y8, Y0             // 2z, exact as 2·z is

	EXP_K
	TESTQ R8, R8
	JNE tanh_fma
	EXP_POLY_PLAIN
	JMP tanh_scale

tanh_fma:
	EXP_POLY_FMA

tanh_scale:
	EXP_SCALE                     // e^{2z}
	VADDPD one<>(SB), Y3, Y3      // e^{2z} + 1
	VMOVUPD two<>(SB), Y4
	VDIVPD Y3, Y4, Y4             // 2/(e^{2z} + 1)
	VMOVUPD one<>(SB), Y5
	VSUBPD Y4, Y5, Y5             // 1 − 2/(e^{2z} + 1), above 0.55
	VANDPD signbit<>(SB), Y10, Y6
	VORPD Y6, Y5, Y5              // negated where x < 0

	VMULPD Y10, Y10, Y11          // s = x·x
	VMULPD tanhp0<>(SB), Y11, Y12
	VADDPD tanhp1<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12
	VADDPD tanhp2<>(SB), Y12, Y12 // (P0·s + P1)·s + P2
	VADDPD tanhq0<>(SB), Y11, Y13
	VMULPD Y11, Y13, Y13
	VADDPD tanhq1<>(SB), Y13, Y13
	VMULPD Y11, Y13, Y13
	VADDPD tanhq2<>(SB), Y13, Y13 // ((s + Q0)·s + Q1)·s + Q2
	VMULPD Y11, Y10, Y14          // x·s
	VMULPD Y12, Y14, Y14          // ·P(s)
	VDIVPD Y13, Y14, Y14          // /Q(s)
	VADDPD Y14, Y10, Y14          // x + x·s·P(s)/Q(s)

	VXORPD Y4, Y4, Y4
	VCMPPD $0, Y4, Y10, Y9              // x == 0
	VBLENDVPD Y9, Y10, Y14, Y14         // x itself where x is ±0
	VCMPPD $0x1d, fiveeighths<>(SB), Y8, Y9 // 0.625 <= z
	VBLENDVPD Y9, Y5, Y14, Y14
	VCMPPD $0x1e, halfmaxlog<>(SB), Y8, Y9 // z > 0.5·MAXLOG
	VORPD one<>(SB), Y6, Y6             // ±1 with x's sign
	VBLENDVPD Y9, Y6, Y14, Y14
	VMOVUPD Y14, (DI)(BX*8)
	ADDQ $4, AX
	JMP tanh_block

tanh_done:
	MOVQ CX, AX

tanh_stop:
	MOVQ AX, done+56(FP)
	VZEROUPPER
	RET
