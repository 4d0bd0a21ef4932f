#include "textflag.h"

// func sweepAVX2(y, d, x []float64, rows []int)
//
// y[j] = y[j] + d[0]·x[rows[0]·n+j] + d[1]·x[rows[1]·n+j] + … for the
// len(d) terms, n = len(y). y goes in blocks: 32 elements in Y0–Y7, then 4
// in Y0, then one at a time in X0. A block is loaded once, takes every term
// in order (broadcast d[k], multiply by the block of row rows[k], add: each
// rounded, never fused) and is stored once. AX is the block's byte offset,
// the same in y and in every row; R12 is a row's length in bytes.
TEXT ·sweepAVX2(SB), NOSPLIT, $0-96
	MOVQ y_base+0(FP), DX
	MOVQ y_len+8(FP), CX
	MOVQ d_base+24(FP), BX
	MOVQ x_base+48(FP), SI
	MOVQ rows_base+72(FP), R10
	MOVQ rows_len+80(FP), R8
	MOVQ CX, R12
	SHLQ $3, R12
	XORQ AX, AX

block32:
	CMPQ    CX, $32
	JLT     block4
	VMOVUPD 0(DX)(AX*1), Y0
	VMOVUPD 32(DX)(AX*1), Y1
	VMOVUPD 64(DX)(AX*1), Y2
	VMOVUPD 96(DX)(AX*1), Y3
	VMOVUPD 128(DX)(AX*1), Y4
	VMOVUPD 160(DX)(AX*1), Y5
	VMOVUPD 192(DX)(AX*1), Y6
	VMOVUPD 224(DX)(AX*1), Y7
	XORQ    R9, R9          // k
	TESTQ   R8, R8
	JZ      store32

term32:
	MOVQ         (R10)(R9*8), R11
	IMULQ        R12, R11
	ADDQ         SI, R11
	ADDQ         AX, R11
	VBROADCASTSD (BX)(R9*8), Y8
	VMULPD       0(R11), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       32(R11), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       64(R11), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       96(R11), Y8, Y12
	VADDPD       Y12, Y3, Y3
	VMULPD       128(R11), Y8, Y13
	VADDPD       Y13, Y4, Y4
	VMULPD       160(R11), Y8, Y14
	VADDPD       Y14, Y5, Y5
	VMULPD       192(R11), Y8, Y15
	VADDPD       Y15, Y6, Y6
	VMULPD       224(R11), Y8, Y9
	VADDPD       Y9, Y7, Y7
	INCQ         R9
	CMPQ         R9, R8
	JLT          term32

store32:
	VMOVUPD Y0, 0(DX)(AX*1)
	VMOVUPD Y1, 32(DX)(AX*1)
	VMOVUPD Y2, 64(DX)(AX*1)
	VMOVUPD Y3, 96(DX)(AX*1)
	VMOVUPD Y4, 128(DX)(AX*1)
	VMOVUPD Y5, 160(DX)(AX*1)
	VMOVUPD Y6, 192(DX)(AX*1)
	VMOVUPD Y7, 224(DX)(AX*1)
	ADDQ    $256, AX
	SUBQ    $32, CX
	JMP     block32

block4:
	CMPQ    CX, $4
	JLT     tail
	VMOVUPD (DX)(AX*1), Y0
	XORQ    R9, R9
	TESTQ   R8, R8
	JZ      store4

term4:
	MOVQ         (R10)(R9*8), R11
	IMULQ        R12, R11
	ADDQ         SI, R11
	VBROADCASTSD (BX)(R9*8), Y8
	VMULPD       (R11)(AX*1), Y8, Y9
	VADDPD       Y9, Y0, Y0
	INCQ         R9
	CMPQ         R9, R8
	JLT          term4

store4:
	VMOVUPD Y0, (DX)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX
	JMP     block4

tail:
	TESTQ  CX, CX
	JZ     done
	VMOVSD (DX)(AX*1), X0
	XORQ   R9, R9
	TESTQ  R8, R8
	JZ     store1

term1:
	MOVQ   (R10)(R9*8), R11
	IMULQ  R12, R11
	ADDQ   SI, R11
	VMOVSD (BX)(R9*8), X8
	VMULSD (R11)(AX*1), X8, X9
	VADDSD X9, X0, X0
	INCQ   R9
	CMPQ   R9, R8
	JLT    term1

store1:
	VMOVSD X0, (DX)(AX*1)
	ADDQ   $8, AX
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

// func stepAVX2(w, vw, g []float64, scale, l2, mu, lr float64)
//
// Per element: grad = g·scale + l2·w, vw = mu·vw − lr·grad, w = w + vw, each
// product and sum rounded on its own; eight elements per pass in two
// independent chains of four lanes, then one at a time.
TEXT ·stepAVX2(SB), NOSPLIT, $0-104
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         vw_base+24(FP), SI
	MOVQ         g_base+48(FP), DX
	VBROADCASTSD scale+72(FP), Y12
	VBROADCASTSD l2+80(FP), Y13
	VBROADCASTSD mu+88(FP), Y14
	VBROADCASTSD lr+96(FP), Y15
	XORQ         AX, AX

step8:
	CMPQ    CX, $8
	JLT     step1
	VMOVUPD (DX)(AX*1), Y0
	VMOVUPD 32(DX)(AX*1), Y4
	VMULPD  Y12, Y0, Y0     // g·scale
	VMULPD  Y12, Y4, Y4
	VMOVUPD (DI)(AX*1), Y1
	VMOVUPD 32(DI)(AX*1), Y5
	VMULPD  Y13, Y1, Y2     // l2·w
	VMULPD  Y13, Y5, Y6
	VADDPD  Y2, Y0, Y0      // grad
	VADDPD  Y6, Y4, Y4
	VMOVUPD (SI)(AX*1), Y3
	VMOVUPD 32(SI)(AX*1), Y7
	VMULPD  Y14, Y3, Y3     // mu·vw
	VMULPD  Y14, Y7, Y7
	VMULPD  Y15, Y0, Y0     // lr·grad
	VMULPD  Y15, Y4, Y4
	VSUBPD  Y0, Y3, Y3      // mu·vw − lr·grad
	VSUBPD  Y4, Y7, Y7
	VMOVUPD Y3, (SI)(AX*1)
	VMOVUPD Y7, 32(SI)(AX*1)
	VADDPD  Y3, Y1, Y1      // w + vw
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y1, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	ADDQ    $64, AX
	SUBQ    $8, CX
	JMP     step8

step1:
	TESTQ  CX, CX
	JZ     stepdone
	VMOVSD (DX)(AX*1), X0
	VMULSD X12, X0, X0
	VMOVSD (DI)(AX*1), X1
	VMULSD X13, X1, X2
	VADDSD X2, X0, X0
	VMOVSD (SI)(AX*1), X3
	VMULSD X14, X3, X3
	VMULSD X15, X0, X0
	VSUBSD X0, X3, X3
	VMOVSD X3, (SI)(AX*1)
	VADDSD X3, X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   CX
	JMP    step1

stepdone:
	VZEROUPPER
	RET
