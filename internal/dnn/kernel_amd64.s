#include "textflag.h"

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
