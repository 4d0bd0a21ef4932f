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

// func affineAVX2(w, b, in, out []float64)
//
// One tile of eight rows through one layer: out[o·8+r] = Σ_j w[o·n+j]·in[j·8+r]
// + b[o], with n = len(in)/8 inputs and len(b) outputs. Output neurons are
// taken four at a time, Y0–Y7 holding their eight rows each (Y0/Y1 neuron o,
// Y2/Y3 neuron o+1, …); a last neuron or three go one at a time in Y0/Y1.
// For each input j in ascending order, w[o][j] is broadcast and every lane
// adds w[o][j]·x[j] as a multiply and an add, each rounded, to a sum that
// starts at +0; the bias is added last. That is affineGo's sequence, lane by
// lane.
TEXT ·affineAVX2(SB), NOSPLIT, $0-96
	MOVQ w_base+0(FP), R8
	MOVQ b_base+24(FP), BX
	MOVQ b_len+32(FP), CX
	MOVQ in_base+48(FP), SI
	MOVQ in_len+56(FP), R11 // 8n elements: n·8 bytes, the stride of w's rows
	MOVQ out_base+72(FP), DX

quad:
	CMPQ CX, $4
	JLT  single
	LEAQ (R8)(R11*1), R9
	LEAQ (R9)(R11*1), R10
	LEAQ (R10)(R11*1), R12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	XORQ   DI, DI
	MOVQ   SI, AX
	TESTQ  R11, R11
	JZ     quadbias

quadloop:
	VMOVUPD      0(AX), Y8
	VMOVUPD      32(AX), Y9
	VBROADCASTSD (R8)(DI*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (R9)(DI*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (R10)(DI*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y4, Y4
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (R12)(DI*1), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y12
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         $64, AX
	ADDQ         $8, DI
	CMPQ         DI, R11
	JLT          quadloop

quadbias:
	VBROADCASTSD 0(BX), Y10
	VADDPD       Y10, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VMOVUPD      Y0, 0(DX)
	VMOVUPD      Y1, 32(DX)
	VBROADCASTSD 8(BX), Y10
	VADDPD       Y10, Y2, Y2
	VADDPD       Y10, Y3, Y3
	VMOVUPD      Y2, 64(DX)
	VMOVUPD      Y3, 96(DX)
	VBROADCASTSD 16(BX), Y10
	VADDPD       Y10, Y4, Y4
	VADDPD       Y10, Y5, Y5
	VMOVUPD      Y4, 128(DX)
	VMOVUPD      Y5, 160(DX)
	VBROADCASTSD 24(BX), Y10
	VADDPD       Y10, Y6, Y6
	VADDPD       Y10, Y7, Y7
	VMOVUPD      Y6, 192(DX)
	VMOVUPD      Y7, 224(DX)
	ADDQ         $32, BX
	ADDQ         $256, DX
	LEAQ         (R12)(R11*1), R8
	SUBQ         $4, CX
	JMP          quad

single:
	TESTQ  CX, CX
	JZ     done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   DI, DI
	MOVQ   SI, AX
	TESTQ  R11, R11
	JZ     singlebias

singleloop:
	VBROADCASTSD (R8)(DI*1), Y10
	VMULPD       0(AX), Y10, Y11
	VMULPD       32(AX), Y10, Y12
	VADDPD       Y11, Y0, Y0
	VADDPD       Y12, Y1, Y1
	ADDQ         $64, AX
	ADDQ         $8, DI
	CMPQ         DI, R11
	JLT          singleloop

singlebias:
	VBROADCASTSD 0(BX), Y10
	VADDPD       Y10, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VMOVUPD      Y0, 0(DX)
	VMOVUPD      Y1, 32(DX)
	ADDQ         $8, BX
	ADDQ         $64, DX
	ADDQ         R11, R8
	DECQ         CX
	JMP          single

done:
	VZEROUPPER
	RET

// func sqDistsAVX2(q, blk []float64, bound float64, out *[DistLanes]float64) uint32
//
// Y0–Y3 accumulate lanes 0–3, 4–7, 8–11 and 12–15. For each dimension j in
// ascending order, q[j] is broadcast and every lane adds (q[j] − p[j])² as a
// subtract, a multiply and an add, each rounded: SqDist's sequence.
TEXT ·sqDistsAVX2(SB), NOSPLIT, $0-68
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ blk_base+24(FP), DI
	MOVQ out+56(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ CX, CX
	JZ    done

loop:
	VBROADCASTSD (SI), Y4
	VSUBPD  0(DI), Y4, Y5
	VSUBPD  32(DI), Y4, Y6
	VSUBPD  64(DI), Y4, Y7
	VSUBPD  96(DI), Y4, Y8
	VMULPD  Y5, Y5, Y5
	VMULPD  Y6, Y6, Y6
	VMULPD  Y7, Y7, Y7
	VMULPD  Y8, Y8, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $8, SI
	ADDQ    $128, DI
	DECQ    CX
	JNZ     loop

done:
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)

	// Lanes strictly below bound; 0x11 is LT_OQ (false for NaN).
	VBROADCASTSD bound+48(FP), Y4
	VCMPPD    $0x11, Y4, Y0, Y5
	VMOVMSKPD Y5, AX
	VCMPPD    $0x11, Y4, Y1, Y6
	VMOVMSKPD Y6, BX
	SHLL      $4, BX
	ORL       BX, AX
	VCMPPD    $0x11, Y4, Y2, Y7
	VMOVMSKPD Y7, BX
	SHLL      $8, BX
	ORL       BX, AX
	VCMPPD    $0x11, Y4, Y3, Y8
	VMOVMSKPD Y8, BX
	SHLL      $12, BX
	ORL       BX, AX
	VZEROUPPER
	MOVL AX, ret+64(FP)
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
