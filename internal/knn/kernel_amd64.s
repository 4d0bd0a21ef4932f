#include "textflag.h"

// func sqDistsAVX2(q, blk []float64, bound float64, out *[lanes]float64) uint32
//
// Y0–Y3 accumulate lanes 0–3, 4–7, 8–11 and 12–15. For each dimension j in
// ascending order, q[j] is broadcast and every lane adds (q[j] − p[j])² as a
// subtract, a multiply and an add, each rounded: mathx.SqDist's sequence.
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
