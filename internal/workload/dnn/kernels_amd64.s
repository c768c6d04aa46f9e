#include "textflag.h"

// When both operands of an x86 arithmetic instruction are NaNs, the result
// is the first source's. Each instruction below takes as its first source
// the operand the Go compiler makes first in the same loop of
// axpyRowsGo/momentumRowsGo (the loaded array value in a product, the
// product in y's sum, w in w's), so even NaN payloads come out as Go's:
// TestRowKernelsMatchGo holds them to it. Go asm writes the sources in
// reverse: VMULPD src2, src1, dst.

// func axpyRowsAVX(y, w, a []float64)
//
// For every row r: y[i] += a[r]*w[r*n+i], n = len(y).
TEXT ·axpyRowsAVX(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ a_base+48(FP), DX
	MOVQ a_len+56(FP), BX
	MOVQ CX, R8
	ANDQ $-4, R8 // values in whole 4-blocks
	TESTQ BX, BX
	JEQ axpy_done

axpy_row:
	VBROADCASTSD (DX), Y0 // a[r]
	XORQ AX, AX

axpy_block:
	CMPQ AX, R8
	JGE axpy_tail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD Y0, Y1, Y1         // w * a[r]
	VADDPD (DI)(AX*8), Y1, Y1 // a[r]*w + y
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP axpy_block

axpy_tail:
	CMPQ AX, CX
	JGE axpy_next
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	JMP axpy_tail

axpy_next:
	LEAQ (SI)(CX*8), SI
	ADDQ $8, DX
	DECQ BX
	JNZ axpy_row

axpy_done:
	VZEROUPPER
	RET

// func momentumRowsAVX(w, vel, x, lrg []float64, momentum float64)
//
// For every row r and value i, at j = r*n+i with n = len(x):
// v = momentum*vel[j] - lrg[r]*x[i]; vel[j] = v; w[j] = w[j] + v.
TEXT ·momentumRowsAVX(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ vel_base+24(FP), SI
	MOVQ x_base+48(FP), R9
	MOVQ x_len+56(FP), CX
	MOVQ lrg_base+72(FP), DX
	MOVQ lrg_len+80(FP), BX
	VBROADCASTSD momentum+96(FP), Y3
	MOVQ CX, R8
	ANDQ $-4, R8 // values in whole 4-blocks
	TESTQ BX, BX
	JEQ mom_done

mom_row:
	VBROADCASTSD (DX), Y0 // lrg[r]
	XORQ AX, AX

mom_block:
	CMPQ AX, R8
	JGE mom_tail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD Y3, Y1, Y1 // vel * momentum
	VMOVUPD (R9)(AX*8), Y2
	VMULPD Y0, Y2, Y2 // x * lrg[r]
	VSUBPD Y2, Y1, Y1 // v = momentum*vel - lrg[r]*x
	VMOVUPD Y1, (SI)(AX*8)
	VMOVUPD (DI)(AX*8), Y2
	VADDPD Y1, Y2, Y2 // w + v
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP mom_block

mom_tail:
	CMPQ AX, CX
	JGE mom_next
	VMOVSD (SI)(AX*8), X1
	VMULSD X3, X1, X1
	VMOVSD (R9)(AX*8), X2
	VMULSD X0, X2, X2
	VSUBSD X2, X1, X1
	VMOVSD X1, (SI)(AX*8)
	VMOVSD (DI)(AX*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP mom_tail

mom_next:
	LEAQ (DI)(CX*8), DI
	LEAQ (SI)(CX*8), SI
	ADDQ $8, DX
	DECQ BX
	JNZ mom_row

mom_done:
	VZEROUPPER
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
