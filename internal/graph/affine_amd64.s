// AVX2 body for the wide-batch affine row kernel (see affine_amd64.go).
// The per-element expression tree matches applyRowAffineKernel exactly —
// one VMULPD/VADDPD per scalar MUL/ADD in the same order — so outputs are
// bit-for-bit identical to the pure-Go kernel (IEEE ops are deterministic
// elementwise and addition commutes in value). The scalar tails use the VEX
// encodings (VMOVSD/VMULSD/VADDSD) too: a legacy-SSE instruction issued while
// the YMM upper halves are dirty stalls on every tail element, and at B=1
// every element is a tail element.

#include "textflag.h"

// func x86HasAVX2() bool
TEXT ·x86HasAVX2(SB), NOSPLIT, $0-1
	// CPUID.1:ECX — OSXSAVE (27) and AVX (28) must both be set.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<27 | 1<<28), CX
	CMPL CX, $(1<<27 | 1<<28)
	JNE  no
	// XCR0 bits 1,2: OS saves XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID.7.0:EBX bit 5 — AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func affineRowAVX2(dst []float64, coeff float64, nbrs []int, ws []float64, src []float64, stride int, tele float64, e0 []float64)
//
// dst = tele*e0 + coeff * Σ_i ws[i] * src[nbrs[i]*stride : ...][0:len(dst)]
// with edges consumed four at a time exactly like applyRowAffineKernel.
//
// Register plan: DI=dst CX=width SI=nbrs R8=deg R9=ws R10=src R11=stride(bytes)
// BX=width&^3 DX=edge index AX=j/scratch R13,R14,R15,R12=the four row pointers
// (R12 doubles as the e0 base during the init pass — e0 is dead afterwards).
// Y14=coeff Y15=tele broadcast; Y10..Y13 = the four edge weights.
TEXT ·affineRowAVX2(SB), NOSPLIT, $0-144
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ nbrs_base+32(FP), SI
	MOVQ nbrs_len+40(FP), R8
	MOVQ ws_base+56(FP), R9
	MOVQ src_base+80(FP), R10
	MOVQ stride+104(FP), R11
	SHLQ $3, R11
	MOVQ e0_base+120(FP), R12
	VBROADCASTSD coeff+24(FP), Y14
	VBROADCASTSD tele+112(FP), Y15

	// dst[j] = tele * e0[j]
	MOVQ CX, BX
	ANDQ $-4, BX
	XORQ AX, AX
init4:
	CMPQ AX, BX
	JGE  init_tail
	VMOVUPD (R12)(AX*8), Y0
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  init4
init_tail:
	CMPQ AX, CX
	JGE  edges
	VMOVSD (R12)(AX*8), X0
	VMULSD X15, X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  init_tail

edges:
	XORQ DX, DX
quad:
	LEAQ 3(DX), AX
	CMPQ AX, R8
	JGE  rem

	// Four row pointers from the CSR neighbor ids.
	MOVQ  (SI)(DX*8), AX
	IMULQ R11, AX
	LEAQ  (R10)(AX*1), R13
	MOVQ  8(SI)(DX*8), AX
	IMULQ R11, AX
	LEAQ  (R10)(AX*1), R14
	MOVQ  16(SI)(DX*8), AX
	IMULQ R11, AX
	LEAQ  (R10)(AX*1), R15
	MOVQ  24(SI)(DX*8), AX
	IMULQ R11, AX
	LEAQ  (R10)(AX*1), R12

	// w_k = coeff * ws[i+k], broadcast.
	VBROADCASTSD (R9)(DX*8), Y10
	VMULPD       Y14, Y10, Y10
	VBROADCASTSD 8(R9)(DX*8), Y11
	VMULPD       Y14, Y11, Y11
	VBROADCASTSD 16(R9)(DX*8), Y12
	VMULPD       Y14, Y12, Y12
	VBROADCASTSD 24(R9)(DX*8), Y13
	VMULPD       Y14, Y13, Y13

	XORQ AX, AX
quad4:
	CMPQ AX, BX
	JGE  quad_tail
	// d[j] += ((w1*r1 + w2*r2) + w3*r3) + w4*r4 — scalar kernel order.
	VMOVUPD (R13)(AX*8), Y0
	VMULPD  Y10, Y0, Y0
	VMOVUPD (R14)(AX*8), Y1
	VMULPD  Y11, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (R15)(AX*8), Y1
	VMULPD  Y12, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (R12)(AX*8), Y1
	VMULPD  Y13, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VADDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  quad4
quad_tail:
	CMPQ AX, CX
	JGE  quad_next
	VMOVSD (R13)(AX*8), X0
	VMULSD X10, X0, X0
	VMOVSD (R14)(AX*8), X1
	VMULSD X11, X1, X1
	VADDSD X1, X0, X0
	VMOVSD (R15)(AX*8), X1
	VMULSD X12, X1, X1
	VADDSD X1, X0, X0
	VMOVSD (R12)(AX*8), X1
	VMULSD X13, X1, X1
	VADDSD X1, X0, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  quad_tail
quad_next:
	ADDQ $4, DX
	JMP  quad

	// Remainder edges, one at a time: d[j] += w * r[j].
rem:
	CMPQ DX, R8
	JGE  done
	VBROADCASTSD (R9)(DX*8), Y10
	VMULPD       Y14, Y10, Y10
	MOVQ  (SI)(DX*8), AX
	IMULQ R11, AX
	LEAQ  (R10)(AX*1), R13
	XORQ AX, AX
rem4:
	CMPQ AX, BX
	JGE  rem_tail
	VMOVUPD (R13)(AX*8), Y0
	VMULPD  Y10, Y0, Y0
	VADDPD  (DI)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  rem4
rem_tail:
	CMPQ AX, CX
	JGE  rem_next
	VMOVSD (R13)(AX*8), X0
	VMULSD X10, X0, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  rem_tail
rem_next:
	INCQ DX
	JMP  rem

done:
	VZEROUPPER
	RET
