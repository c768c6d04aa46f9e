#include "textflag.h"

// Two row kernels of the fused density pass: uRowAVX, the scaled
// differences of every sample, and cosineRowAVX, the cosine kernel over the
// values inside the support.
//
// When both operands of an x86 arithmetic instruction are NaNs, the result
// is the first source's. uRowAVX takes as first sources the operands Go
// does in (x - xᵢ) / h, x and the difference, so even NaN payloads come out
// as uRowGo's: TestRowKernelsMatchGo holds them to it. cosineRowAVX flags
// a NaN lane, and its caller has math.Cos compute it. Go asm writes the
// sources in reverse: VSUBPD src2, src1, dst is dst = src1 - src2.
//
// A row's length past a multiple of 4 is one more 4-lane pass through the
// same instructions: VMASKMOVPD loads the 1 to 3 values left, zeros in the
// other lanes, and stores only theirs. tailmask+8·(3-k) is the mask of k
// values.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $48

// The constants of cosineRowAVX, each in all four lanes: the bits of the
// float64 Go rounds each of CosineTerm's and math.cos's constants to.

// π/2
DATA pio2<>+0(SB)/8, $0x3ff921fb54442d18
DATA pio2<>+8(SB)/8, $0x3ff921fb54442d18
DATA pio2<>+16(SB)/8, $0x3ff921fb54442d18
DATA pio2<>+24(SB)/8, $0x3ff921fb54442d18
GLOBL pio2<>(SB), RODATA|NOPTR, $32

// every bit but the sign
DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
DATA absmask<>+8(SB)/8, $0x7fffffffffffffff
DATA absmask<>+16(SB)/8, $0x7fffffffffffffff
DATA absmask<>+24(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $32

// reduceThreshold, 2^29
DATA thresh<>+0(SB)/8, $0x41c0000000000000
DATA thresh<>+8(SB)/8, $0x41c0000000000000
DATA thresh<>+16(SB)/8, $0x41c0000000000000
DATA thresh<>+24(SB)/8, $0x41c0000000000000
GLOBL thresh<>(SB), RODATA|NOPTR, $32

// 4/π
DATA fouroverpi<>+0(SB)/8, $0x3ff45f306dc9c883
DATA fouroverpi<>+8(SB)/8, $0x3ff45f306dc9c883
DATA fouroverpi<>+16(SB)/8, $0x3ff45f306dc9c883
DATA fouroverpi<>+24(SB)/8, $0x3ff45f306dc9c883
GLOBL fouroverpi<>(SB), RODATA|NOPTR, $32

// 0.5
DATA half<>+0(SB)/8, $0x3fe0000000000000
DATA half<>+8(SB)/8, $0x3fe0000000000000
DATA half<>+16(SB)/8, $0x3fe0000000000000
DATA half<>+24(SB)/8, $0x3fe0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $32

// 0.125
DATA eighth<>+0(SB)/8, $0x3fc0000000000000
DATA eighth<>+8(SB)/8, $0x3fc0000000000000
DATA eighth<>+16(SB)/8, $0x3fc0000000000000
DATA eighth<>+24(SB)/8, $0x3fc0000000000000
GLOBL eighth<>(SB), RODATA|NOPTR, $32

// 8
DATA eight<>+0(SB)/8, $0x4020000000000000
DATA eight<>+8(SB)/8, $0x4020000000000000
DATA eight<>+16(SB)/8, $0x4020000000000000
DATA eight<>+24(SB)/8, $0x4020000000000000
GLOBL eight<>(SB), RODATA|NOPTR, $32

// π/4 in three parts
DATA pi4a<>+0(SB)/8, $0x3fe921fb40000000
DATA pi4a<>+8(SB)/8, $0x3fe921fb40000000
DATA pi4a<>+16(SB)/8, $0x3fe921fb40000000
DATA pi4a<>+24(SB)/8, $0x3fe921fb40000000
GLOBL pi4a<>(SB), RODATA|NOPTR, $32
DATA pi4b<>+0(SB)/8, $0x3e64442d00000000
DATA pi4b<>+8(SB)/8, $0x3e64442d00000000
DATA pi4b<>+16(SB)/8, $0x3e64442d00000000
DATA pi4b<>+24(SB)/8, $0x3e64442d00000000
GLOBL pi4b<>(SB), RODATA|NOPTR, $32
DATA pi4c<>+0(SB)/8, $0x3ce8469898cc5170
DATA pi4c<>+8(SB)/8, $0x3ce8469898cc5170
DATA pi4c<>+16(SB)/8, $0x3ce8469898cc5170
DATA pi4c<>+24(SB)/8, $0x3ce8469898cc5170
GLOBL pi4c<>(SB), RODATA|NOPTR, $32

// math's sin polynomial
DATA sin0<>+0(SB)/8, $0x3de5d8fd1fd19ccd
DATA sin0<>+8(SB)/8, $0x3de5d8fd1fd19ccd
DATA sin0<>+16(SB)/8, $0x3de5d8fd1fd19ccd
DATA sin0<>+24(SB)/8, $0x3de5d8fd1fd19ccd
GLOBL sin0<>(SB), RODATA|NOPTR, $32
DATA sin1<>+0(SB)/8, $0xbe5ae5e5a9291f5d
DATA sin1<>+8(SB)/8, $0xbe5ae5e5a9291f5d
DATA sin1<>+16(SB)/8, $0xbe5ae5e5a9291f5d
DATA sin1<>+24(SB)/8, $0xbe5ae5e5a9291f5d
GLOBL sin1<>(SB), RODATA|NOPTR, $32
DATA sin2<>+0(SB)/8, $0x3ec71de3567d48a1
DATA sin2<>+8(SB)/8, $0x3ec71de3567d48a1
DATA sin2<>+16(SB)/8, $0x3ec71de3567d48a1
DATA sin2<>+24(SB)/8, $0x3ec71de3567d48a1
GLOBL sin2<>(SB), RODATA|NOPTR, $32
DATA sin3<>+0(SB)/8, $0xbf2a01a019bfdf03
DATA sin3<>+8(SB)/8, $0xbf2a01a019bfdf03
DATA sin3<>+16(SB)/8, $0xbf2a01a019bfdf03
DATA sin3<>+24(SB)/8, $0xbf2a01a019bfdf03
GLOBL sin3<>(SB), RODATA|NOPTR, $32
DATA sin4<>+0(SB)/8, $0x3f8111111110f7d0
DATA sin4<>+8(SB)/8, $0x3f8111111110f7d0
DATA sin4<>+16(SB)/8, $0x3f8111111110f7d0
DATA sin4<>+24(SB)/8, $0x3f8111111110f7d0
GLOBL sin4<>(SB), RODATA|NOPTR, $32
DATA sin5<>+0(SB)/8, $0xbfc5555555555548
DATA sin5<>+8(SB)/8, $0xbfc5555555555548
DATA sin5<>+16(SB)/8, $0xbfc5555555555548
DATA sin5<>+24(SB)/8, $0xbfc5555555555548
GLOBL sin5<>(SB), RODATA|NOPTR, $32

// math's cos polynomial
DATA cos0<>+0(SB)/8, $0xbda8fa49a0861a9b
DATA cos0<>+8(SB)/8, $0xbda8fa49a0861a9b
DATA cos0<>+16(SB)/8, $0xbda8fa49a0861a9b
DATA cos0<>+24(SB)/8, $0xbda8fa49a0861a9b
GLOBL cos0<>(SB), RODATA|NOPTR, $32
DATA cos1<>+0(SB)/8, $0x3e21ee9d7b4e3f05
DATA cos1<>+8(SB)/8, $0x3e21ee9d7b4e3f05
DATA cos1<>+16(SB)/8, $0x3e21ee9d7b4e3f05
DATA cos1<>+24(SB)/8, $0x3e21ee9d7b4e3f05
GLOBL cos1<>(SB), RODATA|NOPTR, $32
DATA cos2<>+0(SB)/8, $0xbe927e4f7eac4bc6
DATA cos2<>+8(SB)/8, $0xbe927e4f7eac4bc6
DATA cos2<>+16(SB)/8, $0xbe927e4f7eac4bc6
DATA cos2<>+24(SB)/8, $0xbe927e4f7eac4bc6
GLOBL cos2<>(SB), RODATA|NOPTR, $32
DATA cos3<>+0(SB)/8, $0x3efa01a019c844f5
DATA cos3<>+8(SB)/8, $0x3efa01a019c844f5
DATA cos3<>+16(SB)/8, $0x3efa01a019c844f5
DATA cos3<>+24(SB)/8, $0x3efa01a019c844f5
GLOBL cos3<>(SB), RODATA|NOPTR, $32
DATA cos4<>+0(SB)/8, $0xbf56c16c16c14f91
DATA cos4<>+8(SB)/8, $0xbf56c16c16c14f91
DATA cos4<>+16(SB)/8, $0xbf56c16c16c14f91
DATA cos4<>+24(SB)/8, $0xbf56c16c16c14f91
GLOBL cos4<>(SB), RODATA|NOPTR, $32
DATA cos5<>+0(SB)/8, $0x3fa555555555554b
DATA cos5<>+8(SB)/8, $0x3fa555555555554b
DATA cos5<>+16(SB)/8, $0x3fa555555555554b
DATA cos5<>+24(SB)/8, $0x3fa555555555554b
GLOBL cos5<>(SB), RODATA|NOPTR, $32

// 1
DATA one<>+0(SB)/8, $0x3ff0000000000000
DATA one<>+8(SB)/8, $0x3ff0000000000000
DATA one<>+16(SB)/8, $0x3ff0000000000000
DATA one<>+24(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $32

// 2
DATA two<>+0(SB)/8, $0x4000000000000000
DATA two<>+8(SB)/8, $0x4000000000000000
DATA two<>+16(SB)/8, $0x4000000000000000
DATA two<>+24(SB)/8, $0x4000000000000000
GLOBL two<>(SB), RODATA|NOPTR, $32

// 4
DATA four<>+0(SB)/8, $0x4010000000000000
DATA four<>+8(SB)/8, $0x4010000000000000
DATA four<>+16(SB)/8, $0x4010000000000000
DATA four<>+24(SB)/8, $0x4010000000000000
GLOBL four<>(SB), RODATA|NOPTR, $32

// 6
DATA six<>+0(SB)/8, $0x4018000000000000
DATA six<>+8(SB)/8, $0x4018000000000000
DATA six<>+16(SB)/8, $0x4018000000000000
DATA six<>+24(SB)/8, $0x4018000000000000
GLOBL six<>(SB), RODATA|NOPTR, $32

// the sign bit
DATA signbit<>+0(SB)/8, $0x8000000000000000
DATA signbit<>+8(SB)/8, $0x8000000000000000
DATA signbit<>+16(SB)/8, $0x8000000000000000
DATA signbit<>+24(SB)/8, $0x8000000000000000
GLOBL signbit<>(SB), RODATA|NOPTR, $32

// π/4
DATA pio4<>+0(SB)/8, $0x3fe921fb54442d18
DATA pio4<>+8(SB)/8, $0x3fe921fb54442d18
DATA pio4<>+16(SB)/8, $0x3fe921fb54442d18
DATA pio4<>+24(SB)/8, $0x3fe921fb54442d18
GLOBL pio4<>(SB), RODATA|NOPTR, $32

// func uRowAVX(u, samples []float64, x, h float64)
//
// u[i] = (x - samples[i]) / h, len(u) = len(samples).
TEXT ·uRowAVX(SB), NOSPLIT, $0-64
	MOVQ u_base+0(FP), DI
	MOVQ samples_base+24(FP), SI
	MOVQ samples_len+32(FP), CX
	VBROADCASTSD x+48(FP), Y1
	VBROADCASTSD h+56(FP), Y2
	MOVQ CX, R8
	ANDQ $-4, R8 // values in whole 4-blocks
	XORQ AX, AX

urow_block:
	CMPQ AX, R8
	JGE urow_tail
	VMOVUPD (SI)(AX*8), Y3
	VSUBPD Y3, Y1, Y3 // x - xᵢ
	VDIVPD Y2, Y3, Y3 // (x - xᵢ) / h
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ $4, AX
	JMP urow_block

urow_tail:
	SUBQ AX, CX // values left, 0 to 3
	JEQ urow_done
	MOVQ $3, R9
	SUBQ CX, R9
	LEAQ tailmask<>(SB), R10
	VMOVUPD (R10)(R9*8), Y4
	VMASKMOVPD (SI)(AX*8), Y4, Y3
	VSUBPD Y3, Y1, Y3
	VDIVPD Y2, Y3, Y3
	VMASKMOVPD Y3, Y4, (DI)(AX*8)

urow_done:
	VZEROUPPER
	RET

// func cosineRowAVX(c, u []float64) (special bool)
//
// c[i] = π/4·cos(π/2·u[i]), len(c) = len(u), computed as math.cos does for
// |π/2·u[i]| below 2^29: x = |π/2·u|; j = trunc(x·4/π), plus one if odd;
// z = ((x - j·π/4a) - j·π/4b) - j·π/4c; on the octant q = j mod 8, the sin
// polynomial of z where q is 2 or 6 and the cos polynomial elsewhere,
// negated where q is 2 or 4; then times π/4. j, q and the parity are
// float64 integers (trunc by VROUNDPD, halving and eighthing exact below
// 2^53), so no lane leaves the vector unit. Any lane with x not below
// 2^29, a NaN or an infinity among them, sets special; its c is the
// caller's to write.
//
// Registers: Y0 u, Y1 x then z, Y3 j, Y4 q, Y5 zz, Y6 the sin polynomial,
// Y7 the cos polynomial and the result, Y15 the lanes of the block, BX
// the lanes seen special.
TEXT ·cosineRowAVX(SB), NOSPLIT, $0-49
	MOVQ c_base+0(FP), DI
	MOVQ u_base+24(FP), SI
	MOVQ u_len+32(FP), CX
	XORQ BX, BX
	XORQ AX, AX
	VPCMPEQD X15, X15, X15
	VINSERTF128 $1, X15, Y15, Y15 // Y15: the mask of all four lanes

cos_block:
	MOVQ CX, DX
	SUBQ AX, DX
	JLE cos_done
	CMPQ DX, $4
	JGE cos_load
	MOVQ $3, R9
	SUBQ DX, R9
	LEAQ tailmask<>(SB), R10
	VMOVUPD (R10)(R9*8), Y15

cos_load:
	VMASKMOVPD (SI)(AX*8), Y15, Y0
	VMULPD pio2<>(SB), Y0, Y1 // π/2·u
	VANDPD absmask<>(SB), Y1, Y1 // x = |π/2·u|
	VCMPPD $0x11, thresh<>(SB), Y1, Y2 // x < 2^29, false for a NaN
	VMOVMSKPD Y2, R11
	XORL $15, R11
	ORL R11, BX

	VMULPD fouroverpi<>(SB), Y1, Y3
	VROUNDPD $3, Y3, Y3 // j = trunc(x·4/π)
	VMULPD half<>(SB), Y3, Y4
	VROUNDPD $3, Y4, Y4
	VADDPD Y4, Y4, Y4
	VSUBPD Y4, Y3, Y4 // j mod 2
	VADDPD Y4, Y3, Y3 // j, odd made even
	VMULPD eighth<>(SB), Y3, Y4
	VROUNDPD $3, Y4, Y4
	VMULPD eight<>(SB), Y4, Y4
	VSUBPD Y4, Y3, Y4 // q = j mod 8

	VMULPD pi4a<>(SB), Y3, Y2
	VSUBPD Y2, Y1, Y1 // x - j·π/4a
	VMULPD pi4b<>(SB), Y3, Y2
	VSUBPD Y2, Y1, Y1 // - j·π/4b
	VMULPD pi4c<>(SB), Y3, Y2
	VSUBPD Y2, Y1, Y1 // z = ... - j·π/4c
	VMULPD Y1, Y1, Y5 // zz

	// z + z·zz·((((((s0·zz)+s1)·zz+s2)·zz+s3)·zz+s4)·zz+s5)
	VMULPD sin0<>(SB), Y5, Y6
	VADDPD sin1<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD sin2<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD sin3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD sin4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD sin5<>(SB), Y6, Y6
	VMULPD Y5, Y1, Y2 // z·zz
	VMULPD Y6, Y2, Y2
	VADDPD Y2, Y1, Y6

	// 1 - 0.5·zz + zz·zz·((((((c0·zz)+c1)·zz+c2)·zz+c3)·zz+c4)·zz+c5)
	VMULPD cos0<>(SB), Y5, Y7
	VADDPD cos1<>(SB), Y7, Y7
	VMULPD Y5, Y7, Y7
	VADDPD cos2<>(SB), Y7, Y7
	VMULPD Y5, Y7, Y7
	VADDPD cos3<>(SB), Y7, Y7
	VMULPD Y5, Y7, Y7
	VADDPD cos4<>(SB), Y7, Y7
	VMULPD Y5, Y7, Y7
	VADDPD cos5<>(SB), Y7, Y7
	VMULPD Y5, Y5, Y2 // zz·zz
	VMULPD Y7, Y2, Y2
	VMULPD half<>(SB), Y5, Y8 // 0.5·zz
	VMOVUPD one<>(SB), Y7
	VSUBPD Y8, Y7, Y7 // 1 - 0.5·zz
	VADDPD Y2, Y7, Y7

	VCMPPD $0, two<>(SB), Y4, Y8 // q == 2
	VCMPPD $0, six<>(SB), Y4, Y9 // q == 6
	VORPD Y9, Y8, Y9
	VBLENDVPD Y9, Y6, Y7, Y7 // the sin polynomial where q is 2 or 6
	VCMPPD $0, four<>(SB), Y4, Y9 // q == 4
	VORPD Y9, Y8, Y8
	VANDPD signbit<>(SB), Y8, Y8
	VXORPD Y8, Y7, Y7 // negated where q is 2 or 4
	VMULPD pio4<>(SB), Y7, Y7 // π/4·cos
	VMASKMOVPD Y7, Y15, (DI)(AX*8)
	ADDQ $4, AX
	JMP cos_block

cos_done:
	TESTL BX, BX
	SETNE special+48(FP)
	VZEROUPPER
	RET
