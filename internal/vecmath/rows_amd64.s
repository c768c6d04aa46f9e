#include "textflag.h"

// Five matrix kernels: dotRowsAVX and dotColsAVX (the forward pass),
// axpyRowsAVX, momentumRowsAVX and momentumColsAVX (the backward pass).
//
// When both operands of an x86 arithmetic instruction are NaNs, the result
// is the first source's. Each instruction below takes as its first source
// the operand the Go compiler makes first in the same loop of the Go
// reference: w in a dot's product, the running sum in a dot's sum, the
// product in AxpyRows' sum, vel in momentum·vel, x in lrg·x, w in w + v.
// So even NaN payloads come out as Go's: TestRowKernelsMatchGo holds them
// to it, and TestColsMatchRows the column kernels to the row ones. Go asm
// writes the sources in reverse: VMULPD src2, src1, dst.
//
// The 4-wide loops of axpyRowsAVX, momentumRowsAVX, dotColsAVX and
// momentumColsAVX start on a 64-byte boundary (PCALIGN). Unaligned, their speed followed where the linker put
// the functions: padding the code before them 32 bytes at a time moved a
// dnn job between 11.4 and 10.6 ms on a 2-vCPU Intel Xeon; aligned, it
// reads 10.4-10.7 ms.

// func dotRowsAVX(y, w, x []float64)
//
// For every row r: y[r] += w[r*n+i]*x[i] for i ascending, n = len(x).
//
// Eight rows take one pass over x, as two 4-lane accumulators (rows r..r+3
// in Y0, r+4..r+7 in Y1): two independent chains of additions. Each 4×4
// block of w (four rows, four columns) is transposed in registers into one
// vector per column, which is multiplied by that column's broadcast x[i]
// and added to the accumulator, column by column, so every lane adds its
// row's products in ascending order. Columns past a multiple of 4 are
// gathered one value per row. Of the rows past a multiple of 8, four take
// one pass the same way in Y0 alone, two one pass as the lanes of X0, and
// the last one a scalar loop: the leftover rows of a layer are independent
// chains too.
//
// Registers: R11 walks row r and R12 row r+4 along the columns, R10 is the
// row stride in bytes and R13 three strides, so rows r+1, r+2 and r+3 are
// (R11)(R10*1), (R11)(R10*2) and (R11)(R13*1).
TEXT ·dotRowsAVX(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), BX
	MOVQ w_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	MOVQ CX, R8
	ANDQ $-4, R8 // columns in whole 4-blocks
	LEAQ (CX*8), R10
	LEAQ (R10)(R10*2), R13
	CMPQ BX, $8
	JLT dot_rows4

dot_rows8:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ SI, R11
	LEAQ (SI)(R10*4), R12
	MOVQ DX, R9
	XORQ AX, AX

dot_block:
	CMPQ AX, R8
	JGE dot_tail
	VBROADCASTSD (R9), Y12
	VBROADCASTSD 8(R9), Y13
	VBROADCASTSD 16(R9), Y14
	VBROADCASTSD 24(R9), Y11

	// Rows r..r+3: Y2 = (w0[i], w0[i+1], w2[i], w2[i+1]), Y3 the same of
	// rows 1 and 3; unpacked, columns i and i+1. Then columns i+2, i+3.
	VMOVUPD (R11), X2
	VINSERTF128 $1, (R11)(R10*2), Y2, Y2
	VMOVUPD (R11)(R10*1), X3
	VINSERTF128 $1, (R11)(R13*1), Y3, Y3
	VUNPCKLPD Y3, Y2, Y4 // column i
	VUNPCKHPD Y3, Y2, Y5 // column i+1
	VMOVUPD 16(R11), X2
	VINSERTF128 $1, 16(R11)(R10*2), Y2, Y2
	VMOVUPD 16(R11)(R10*1), X3
	VINSERTF128 $1, 16(R11)(R13*1), Y3, Y3
	VUNPCKLPD Y3, Y2, Y6 // column i+2
	VUNPCKHPD Y3, Y2, Y7 // column i+3
	VMULPD Y12, Y4, Y4   // w * x[i]
	VADDPD Y4, Y0, Y0    // sum + w*x[i]
	VMULPD Y13, Y5, Y5
	VADDPD Y5, Y0, Y0
	VMULPD Y14, Y6, Y6
	VADDPD Y6, Y0, Y0
	VMULPD Y11, Y7, Y7
	VADDPD Y7, Y0, Y0

	// Rows r+4..r+7, the same way.
	VMOVUPD (R12), X8
	VINSERTF128 $1, (R12)(R10*2), Y8, Y8
	VMOVUPD (R12)(R10*1), X9
	VINSERTF128 $1, (R12)(R13*1), Y9, Y9
	VUNPCKLPD Y9, Y8, Y4
	VUNPCKHPD Y9, Y8, Y5
	VMOVUPD 16(R12), X8
	VINSERTF128 $1, 16(R12)(R10*2), Y8, Y8
	VMOVUPD 16(R12)(R10*1), X9
	VINSERTF128 $1, 16(R12)(R13*1), Y9, Y9
	VUNPCKLPD Y9, Y8, Y6
	VUNPCKHPD Y9, Y8, Y7
	VMULPD Y12, Y4, Y4
	VADDPD Y4, Y1, Y1
	VMULPD Y13, Y5, Y5
	VADDPD Y5, Y1, Y1
	VMULPD Y14, Y6, Y6
	VADDPD Y6, Y1, Y1
	VMULPD Y11, Y7, Y7
	VADDPD Y7, Y1, Y1

	ADDQ $32, R11
	ADDQ $32, R12
	ADDQ $32, R9
	ADDQ $4, AX
	JMP dot_block

dot_tail:
	// One column at a time: rows r..r+3 gathered as (w0, w1) and (w2, w3)
	// halves, rows r+4..r+7 the same.
	CMPQ AX, CX
	JGE dot_next8
	VBROADCASTSD (R9), Y12
	VMOVSD (R11), X2
	VMOVHPD (R11)(R10*1), X2, X2
	VMOVSD (R11)(R10*2), X3
	VMOVHPD (R11)(R13*1), X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMULPD Y12, Y2, Y2
	VADDPD Y2, Y0, Y0
	VMOVSD (R12), X8
	VMOVHPD (R12)(R10*1), X8, X8
	VMOVSD (R12)(R10*2), X9
	VMOVHPD (R12)(R13*1), X9, X9
	VINSERTF128 $1, X9, Y8, Y8
	VMULPD Y12, Y8, Y8
	VADDPD Y8, Y1, Y1
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R9
	INCQ AX
	JMP dot_tail

dot_next8:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	LEAQ (SI)(R10*8), SI
	ADDQ $64, DI
	SUBQ $8, BX
	CMPQ BX, $8
	JGE dot_rows8

dot_rows4:
	// Four of the rows past a multiple of 8: rows r..r+3 of dot_block and
	// dot_tail, Y0 alone.
	CMPQ BX, $4
	JLT dot_rows2
	VMOVUPD (DI), Y0
	MOVQ SI, R11
	MOVQ DX, R9
	XORQ AX, AX

dot_block4:
	CMPQ AX, R8
	JGE dot_tail4
	VBROADCASTSD (R9), Y12
	VBROADCASTSD 8(R9), Y13
	VBROADCASTSD 16(R9), Y14
	VBROADCASTSD 24(R9), Y11
	VMOVUPD (R11), X2
	VINSERTF128 $1, (R11)(R10*2), Y2, Y2
	VMOVUPD (R11)(R10*1), X3
	VINSERTF128 $1, (R11)(R13*1), Y3, Y3
	VUNPCKLPD Y3, Y2, Y4
	VUNPCKHPD Y3, Y2, Y5
	VMOVUPD 16(R11), X2
	VINSERTF128 $1, 16(R11)(R10*2), Y2, Y2
	VMOVUPD 16(R11)(R10*1), X3
	VINSERTF128 $1, 16(R11)(R13*1), Y3, Y3
	VUNPCKLPD Y3, Y2, Y6
	VUNPCKHPD Y3, Y2, Y7
	VMULPD Y12, Y4, Y4
	VADDPD Y4, Y0, Y0
	VMULPD Y13, Y5, Y5
	VADDPD Y5, Y0, Y0
	VMULPD Y14, Y6, Y6
	VADDPD Y6, Y0, Y0
	VMULPD Y11, Y7, Y7
	VADDPD Y7, Y0, Y0
	ADDQ $32, R11
	ADDQ $32, R9
	ADDQ $4, AX
	JMP dot_block4

dot_tail4:
	CMPQ AX, CX
	JGE dot_next4
	VBROADCASTSD (R9), Y12
	VMOVSD (R11), X2
	VMOVHPD (R11)(R10*1), X2, X2
	VMOVSD (R11)(R10*2), X3
	VMOVHPD (R11)(R13*1), X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMULPD Y12, Y2, Y2
	VADDPD Y2, Y0, Y0
	ADDQ $8, R11
	ADDQ $8, R9
	INCQ AX
	JMP dot_tail4

dot_next4:
	VMOVUPD Y0, (DI)
	LEAQ (SI)(R10*4), SI
	ADDQ $32, DI
	SUBQ $4, BX

dot_rows2:
	// Two rows as the lanes of X0, (w_r[i], w_r+1[i]) times x[i] broadcast.
	CMPQ BX, $2
	JLT dot_rows1
	VMOVUPD (DI), X0
	MOVQ SI, R11
	XORQ AX, AX

dot_col2:
	CMPQ AX, CX
	JGE dot_next2
	VMOVDDUP (DX)(AX*8), X12
	VMOVSD (R11), X2
	VMOVHPD (R11)(R10*1), X2, X2
	VMULPD X12, X2, X2 // w * x[i]
	VADDPD X2, X0, X0  // sum + w*x[i]
	ADDQ $8, R11
	INCQ AX
	JMP dot_col2

dot_next2:
	VMOVUPD X0, (DI)
	LEAQ (SI)(R10*2), SI
	ADDQ $16, DI
	SUBQ $2, BX

dot_rows1:
	// The last row, if any.
	TESTQ BX, BX
	JEQ dot_done
	VMOVSD (DI), X0
	XORQ AX, AX

dot_col1:
	CMPQ AX, CX
	JGE dot_next1
	VMOVSD (SI)(AX*8), X2
	VMULSD (DX)(AX*8), X2, X2 // w * x[i]
	VADDSD X2, X0, X0         // sum + w*x[i]
	INCQ AX
	JMP dot_col1

dot_next1:
	VMOVSD X0, (DI)
	ADDQ R10, SI
	ADDQ $8, DI
	DECQ BX
	JMP dot_rows1

dot_done:
	VZEROUPPER
	RET

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

	PCALIGN $64
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

	PCALIGN $64
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

// func dotColsAVX(y, w, x []float64)
//
// For every column c: y[c] += w[i*m+c]*x[i] for i ascending, m = len(y).
//
// Twenty-four columns take one pass down the rows, as six 4-lane
// accumulators (Y0-Y5): six independent chains of additions, which is what
// keeps dnn's 24 hidden sums in registers. Each row adds its 24 values times
// its broadcast x[i]. The columns past a multiple of 24 go four at a time
// in Y0 alone, and the last 1 to 3 one at a time, each a scalar loop down
// the rows.
//
// Registers: R10 is the row stride in bytes, R11 walks the pass's columns
// down the rows and R9 walks x.
TEXT ·dotColsAVX(SB), NOSPLIT, $0-72
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), BX
	MOVQ w_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX
	LEAQ (BX*8), R10

dcol_pass24:
	CMPQ BX, $24
	JLT dcol_pass4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	MOVQ SI, R11
	MOVQ DX, R9
	MOVQ CX, AX
	TESTQ AX, AX
	JEQ dcol_store24

	PCALIGN $64
dcol_row24:
	VBROADCASTSD (R9), Y12
	VMOVUPD (R11), Y6
	VMOVUPD 32(R11), Y7
	VMOVUPD 64(R11), Y8
	VMOVUPD 96(R11), Y9
	VMOVUPD 128(R11), Y10
	VMOVUPD 160(R11), Y11
	VMULPD Y12, Y6, Y6 // w * x[i]
	VMULPD Y12, Y7, Y7
	VMULPD Y12, Y8, Y8
	VMULPD Y12, Y9, Y9
	VMULPD Y12, Y10, Y10
	VMULPD Y12, Y11, Y11
	VADDPD Y6, Y0, Y0 // sum + w*x[i]
	VADDPD Y7, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3
	VADDPD Y10, Y4, Y4
	VADDPD Y11, Y5, Y5
	ADDQ R10, R11
	ADDQ $8, R9
	DECQ AX
	JNZ dcol_row24

dcol_store24:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	ADDQ $192, DI
	ADDQ $192, SI
	SUBQ $24, BX
	JMP dcol_pass24

dcol_pass4:
	CMPQ BX, $4
	JLT dcol_pass1
	VMOVUPD (DI), Y0
	MOVQ SI, R11
	MOVQ DX, R9
	MOVQ CX, AX
	TESTQ AX, AX
	JEQ dcol_store4

	PCALIGN $64
dcol_row4:
	VBROADCASTSD (R9), Y12
	VMOVUPD (R11), Y6
	VMULPD Y12, Y6, Y6
	VADDPD Y6, Y0, Y0
	ADDQ R10, R11
	ADDQ $8, R9
	DECQ AX
	JNZ dcol_row4

dcol_store4:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, BX
	JMP dcol_pass4

dcol_pass1:
	TESTQ BX, BX
	JEQ dcol_done
	VMOVSD (DI), X0
	MOVQ SI, R11
	MOVQ DX, R9
	MOVQ CX, AX
	TESTQ AX, AX
	JEQ dcol_store1

dcol_row1:
	VMOVSD (R11), X6
	VMULSD (R9), X6, X6 // w * x[i]
	VADDSD X6, X0, X0   // sum + w*x[i]
	ADDQ R10, R11
	ADDQ $8, R9
	DECQ AX
	JNZ dcol_row1

dcol_store1:
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	DECQ BX
	JMP dcol_pass1

dcol_done:
	VZEROUPPER
	RET

// func momentumColsAVX(w, vel, x, lrg []float64, momentum float64)
//
// For every row i and column c, at j = i*m+c with m = len(lrg):
// v = momentum*vel[j] - lrg[c]*x[i]; vel[j] = v; w[j] = w[j] + v.
//
// Twenty-four columns take one pass down the rows with their lrg in six
// registers (Y4-Y9) and x[i] broadcast per row, so a row of dnn's first
// layer is straight-line code: two loads and two stores per four values.
// The columns past a multiple of 24 go row by row, four at a time with a
// scalar tail, lrg read along the row.
//
// Registers: R10 is the row stride in bytes; in the 24-column pass R11
// walks w, R12 vel and R13 x down the rows.
TEXT ·momentumColsAVX(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ vel_base+24(FP), SI
	MOVQ x_base+48(FP), R9
	MOVQ x_len+56(FP), BX
	MOVQ lrg_base+72(FP), DX
	MOVQ lrg_len+80(FP), CX
	VBROADCASTSD momentum+96(FP), Y3
	LEAQ (CX*8), R10

mcol_pass24:
	CMPQ CX, $24
	JLT mcol_rest
	VMOVUPD (DX), Y4
	VMOVUPD 32(DX), Y5
	VMOVUPD 64(DX), Y6
	VMOVUPD 96(DX), Y7
	VMOVUPD 128(DX), Y8
	VMOVUPD 160(DX), Y9
	MOVQ DI, R11
	MOVQ SI, R12
	MOVQ R9, R13
	MOVQ BX, AX
	TESTQ AX, AX
	JEQ mcol_next24

	PCALIGN $64
mcol_row24:
	VBROADCASTSD (R13), Y0 // x[i]
	VMOVUPD (R12), Y1
	VMULPD Y3, Y1, Y1      // vel * momentum
	VMULPD Y4, Y0, Y2      // x[i] * lrg
	VSUBPD Y2, Y1, Y1      // v = momentum*vel - lrg*x[i]
	VMOVUPD Y1, (R12)
	VMOVUPD (R11), Y2
	VADDPD Y1, Y2, Y2      // w + v
	VMOVUPD Y2, (R11)
	VMOVUPD 32(R12), Y1
	VMULPD Y3, Y1, Y1
	VMULPD Y5, Y0, Y2
	VSUBPD Y2, Y1, Y1
	VMOVUPD Y1, 32(R12)
	VMOVUPD 32(R11), Y2
	VADDPD Y1, Y2, Y2
	VMOVUPD Y2, 32(R11)
	VMOVUPD 64(R12), Y1
	VMULPD Y3, Y1, Y1
	VMULPD Y6, Y0, Y2
	VSUBPD Y2, Y1, Y1
	VMOVUPD Y1, 64(R12)
	VMOVUPD 64(R11), Y2
	VADDPD Y1, Y2, Y2
	VMOVUPD Y2, 64(R11)
	VMOVUPD 96(R12), Y1
	VMULPD Y3, Y1, Y1
	VMULPD Y7, Y0, Y2
	VSUBPD Y2, Y1, Y1
	VMOVUPD Y1, 96(R12)
	VMOVUPD 96(R11), Y2
	VADDPD Y1, Y2, Y2
	VMOVUPD Y2, 96(R11)
	VMOVUPD 128(R12), Y1
	VMULPD Y3, Y1, Y1
	VMULPD Y8, Y0, Y2
	VSUBPD Y2, Y1, Y1
	VMOVUPD Y1, 128(R12)
	VMOVUPD 128(R11), Y2
	VADDPD Y1, Y2, Y2
	VMOVUPD Y2, 128(R11)
	VMOVUPD 160(R12), Y1
	VMULPD Y3, Y1, Y1
	VMULPD Y9, Y0, Y2
	VSUBPD Y2, Y1, Y1
	VMOVUPD Y1, 160(R12)
	VMOVUPD 160(R11), Y2
	VADDPD Y1, Y2, Y2
	VMOVUPD Y2, 160(R11)
	ADDQ R10, R11
	ADDQ R10, R12
	ADDQ $8, R13
	DECQ AX
	JNZ mcol_row24

mcol_next24:
	ADDQ $192, DI
	ADDQ $192, SI
	ADDQ $192, DX
	SUBQ $24, CX
	JMP mcol_pass24

mcol_rest:
	TESTQ CX, CX
	JEQ mcol_done
	TESTQ BX, BX
	JEQ mcol_done
	MOVQ CX, R8
	ANDQ $-4, R8 // values in whole 4-blocks

mcol_row:
	VBROADCASTSD (R9), Y0 // x[i]
	XORQ AX, AX

	PCALIGN $64
mcol_block:
	CMPQ AX, R8
	JGE mcol_tail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD Y3, Y1, Y1         // vel * momentum
	VMULPD (DX)(AX*8), Y0, Y2 // x[i] * lrg
	VSUBPD Y2, Y1, Y1         // v = momentum*vel - lrg*x[i]
	VMOVUPD Y1, (SI)(AX*8)
	VMOVUPD (DI)(AX*8), Y2
	VADDPD Y1, Y2, Y2         // w + v
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP mcol_block

mcol_tail:
	CMPQ AX, CX
	JGE mcol_next
	VMOVSD (SI)(AX*8), X1
	VMULSD X3, X1, X1
	VMULSD (DX)(AX*8), X0, X2
	VSUBSD X2, X1, X1
	VMOVSD X1, (SI)(AX*8)
	VMOVSD (DI)(AX*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ AX
	JMP mcol_tail

mcol_next:
	ADDQ R10, DI
	ADDQ R10, SI
	ADDQ $8, R9
	DECQ BX
	JNZ mcol_row

mcol_done:
	VZEROUPPER
	RET
