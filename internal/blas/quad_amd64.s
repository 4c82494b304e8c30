//go:build amd64 && !purego

#include "textflag.h"

// AVX2 forms of syrkQuadGo, gemmQuadGo and scatterRowsGo (quad.go). They
// must agree with the Go loops bit for bit, so each output element gets
// the Go loop's arithmetic exactly: separate VMULPD/VADDPD/VSUBPD (never
// FMA), summed ((p0 + p1) + p2) + p3 and then added to (subtracted from)
// the output, with the four vector lanes over four independent output
// columns j.
// Columns left over from the 4-wide loop take the same steps in scalar
// VEX form. Strides arrive in elements and are scaled to bytes.

// func cpuHasAVX2() bool
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  noavx2
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 27: OSXSAVE, bit 28: AVX.
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  noavx2
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	// EBX bit 5: AVX2.
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)

noavx2:
	RET

// func syrkQuadAVX2(acc *float64, accStride int, b *float64, bStride int, n, iLo, iHi int)
//
// Registers: R10–R13 the quad's rows of B, DI and SI accumulator rows i
// and i+1, AX the output row i, CX the column j, DX n, R9 n-4, BX iHi.
// Y8–Y11 hold B[0..3][i] and Y12–Y15 B[0..3][i+1] in every lane.
TEXT ·syrkQuadAVX2(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ accStride+8(FP), R8
	SHLQ $3, R8
	MOVQ b+16(FP), R10
	MOVQ bStride+24(FP), R9
	SHLQ $3, R9
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ n+32(FP), DX
	LEAQ -4(DX), R9
	MOVQ iLo+40(FP), AX
	MOVQ iHi+48(FP), BX
	MOVQ AX, CX
	IMULQ R8, CX
	ADDQ CX, DI

syrkpair:
	LEAQ 2(AX), CX
	CMPQ CX, BX
	JGT  syrkodd
	LEAQ (DI)(R8*1), SI
	VBROADCASTSD (R10)(AX*8), Y8
	VBROADCASTSD (R11)(AX*8), Y9
	VBROADCASTSD (R12)(AX*8), Y10
	VBROADCASTSD (R13)(AX*8), Y11
	VBROADCASTSD 8(R10)(AX*8), Y12
	VBROADCASTSD 8(R11)(AX*8), Y13
	VBROADCASTSD 8(R12)(AX*8), Y14
	VBROADCASTSD 8(R13)(AX*8), Y15

	// The 2×2 diagonal block: acc[i][i], acc[i][i+1], acc[i+1][i+1].
	VMULSD X8, X8, X0
	VMULSD X9, X9, X1
	VADDSD X1, X0, X0
	VMULSD X10, X10, X1
	VADDSD X1, X0, X0
	VMULSD X11, X11, X1
	VADDSD X1, X0, X0
	VADDSD (DI)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)

	VMULSD X12, X8, X0
	VMULSD X13, X9, X1
	VADDSD X1, X0, X0
	VMULSD X14, X10, X1
	VADDSD X1, X0, X0
	VMULSD X15, X11, X1
	VADDSD X1, X0, X0
	VADDSD 8(DI)(AX*8), X0, X0
	VMOVSD X0, 8(DI)(AX*8)

	VMULSD X12, X12, X0
	VMULSD X13, X13, X1
	VADDSD X1, X0, X0
	VMULSD X14, X14, X1
	VADDSD X1, X0, X0
	VMULSD X15, X15, X1
	VADDSD X1, X0, X0
	VADDSD 8(SI)(AX*8), X0, X0
	VMOVSD X0, 8(SI)(AX*8)

	// Columns j ≥ i+2 of both rows; CX = i+2 already.
syrkpairvec:
	CMPQ CX, R9
	JGT  syrkpairtail
	VMOVUPD (R10)(CX*8), Y0
	VMOVUPD (R11)(CX*8), Y1
	VMOVUPD (R12)(CX*8), Y2
	VMOVUPD (R13)(CX*8), Y3
	VMULPD  Y0, Y8, Y4
	VMULPD  Y1, Y9, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y2, Y10, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y3, Y11, Y5
	VADDPD  Y5, Y4, Y4
	VADDPD  (DI)(CX*8), Y4, Y4
	VMOVUPD Y4, (DI)(CX*8)
	VMULPD  Y0, Y12, Y6
	VMULPD  Y1, Y13, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  Y2, Y14, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  Y3, Y15, Y7
	VADDPD  Y7, Y6, Y6
	VADDPD  (SI)(CX*8), Y6, Y6
	VMOVUPD Y6, (SI)(CX*8)
	ADDQ    $4, CX
	JMP     syrkpairvec

syrkpairtail:
	CMPQ   CX, DX
	JGE    syrkpairnext
	VMOVSD (R10)(CX*8), X0
	VMOVSD (R11)(CX*8), X1
	VMOVSD (R12)(CX*8), X2
	VMOVSD (R13)(CX*8), X3
	VMULSD X0, X8, X4
	VMULSD X1, X9, X5
	VADDSD X5, X4, X4
	VMULSD X2, X10, X5
	VADDSD X5, X4, X4
	VMULSD X3, X11, X5
	VADDSD X5, X4, X4
	VADDSD (DI)(CX*8), X4, X4
	VMOVSD X4, (DI)(CX*8)
	VMULSD X0, X12, X6
	VMULSD X1, X13, X7
	VADDSD X7, X6, X6
	VMULSD X2, X14, X7
	VADDSD X7, X6, X6
	VMULSD X3, X15, X7
	VADDSD X7, X6, X6
	VADDSD (SI)(CX*8), X6, X6
	VMOVSD X6, (SI)(CX*8)
	INCQ   CX
	JMP    syrkpairtail

syrkpairnext:
	LEAQ (DI)(R8*2), DI
	ADDQ $2, AX
	JMP  syrkpair

	// A last unpaired output row i (iHi odd): columns j ≥ i.
syrkodd:
	CMPQ AX, BX
	JGE  syrkdone
	VBROADCASTSD (R10)(AX*8), Y8
	VBROADCASTSD (R11)(AX*8), Y9
	VBROADCASTSD (R12)(AX*8), Y10
	VBROADCASTSD (R13)(AX*8), Y11
	MOVQ AX, CX

syrkoddvec:
	CMPQ CX, R9
	JGT  syrkoddtail
	VMOVUPD (R10)(CX*8), Y0
	VMOVUPD (R11)(CX*8), Y1
	VMOVUPD (R12)(CX*8), Y2
	VMOVUPD (R13)(CX*8), Y3
	VMULPD  Y0, Y8, Y4
	VMULPD  Y1, Y9, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y2, Y10, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y3, Y11, Y5
	VADDPD  Y5, Y4, Y4
	VADDPD  (DI)(CX*8), Y4, Y4
	VMOVUPD Y4, (DI)(CX*8)
	ADDQ    $4, CX
	JMP     syrkoddvec

syrkoddtail:
	CMPQ   CX, DX
	JGE    syrkdone
	VMOVSD (R10)(CX*8), X0
	VMOVSD (R11)(CX*8), X1
	VMOVSD (R12)(CX*8), X2
	VMOVSD (R13)(CX*8), X3
	VMULSD X0, X8, X4
	VMULSD X1, X9, X5
	VADDSD X5, X4, X4
	VMULSD X2, X10, X5
	VADDSD X5, X4, X4
	VMULSD X3, X11, X5
	VADDSD X5, X4, X4
	VADDSD (DI)(CX*8), X4, X4
	VMOVSD X4, (DI)(CX*8)
	INCQ   CX
	JMP    syrkoddtail

syrkdone:
	VZEROUPPER
	RET

// func gemmQuadAVX2(x *float64, xStride int, r *float64, rStride int, v *[16]float64, j0, n int)
//
// Registers: R10–R13 the four rows of R, DI and SI the pair of X
// rows being updated, AX the pair's 8 entries of v, CX the column j,
// DX n, R9 n-4, BX the pairs left. Y8–Y11 hold v[4s..4s+3] for the
// first row of the pair and Y12–Y15 for the second, in every lane.
TEXT ·gemmQuadAVX2(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), DI
	MOVQ xStride+8(FP), R8
	SHLQ $3, R8
	MOVQ r+16(FP), R10
	MOVQ rStride+24(FP), R9
	SHLQ $3, R9
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	MOVQ v+32(FP), AX
	MOVQ n+48(FP), DX
	LEAQ -4(DX), R9
	MOVQ $2, BX

gemmpair:
	LEAQ (DI)(R8*1), SI
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
	MOVQ j0+40(FP), CX

gemmvec:
	CMPQ CX, R9
	JGT  gemmtail
	VMOVUPD (R10)(CX*8), Y0
	VMOVUPD (R11)(CX*8), Y1
	VMOVUPD (R12)(CX*8), Y2
	VMOVUPD (R13)(CX*8), Y3
	VMULPD  Y0, Y8, Y4
	VMULPD  Y1, Y9, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y2, Y10, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  Y3, Y11, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (DI)(CX*8), Y5
	VSUBPD  Y4, Y5, Y5
	VMOVUPD Y5, (DI)(CX*8)
	VMULPD  Y0, Y12, Y6
	VMULPD  Y1, Y13, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  Y2, Y14, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  Y3, Y15, Y7
	VADDPD  Y7, Y6, Y6
	VMOVUPD (SI)(CX*8), Y7
	VSUBPD  Y6, Y7, Y7
	VMOVUPD Y7, (SI)(CX*8)
	ADDQ    $4, CX
	JMP     gemmvec

gemmtail:
	CMPQ   CX, DX
	JGE    gemmnext
	VMOVSD (R10)(CX*8), X0
	VMOVSD (R11)(CX*8), X1
	VMOVSD (R12)(CX*8), X2
	VMOVSD (R13)(CX*8), X3
	VMULSD X0, X8, X4
	VMULSD X1, X9, X5
	VADDSD X5, X4, X4
	VMULSD X2, X10, X5
	VADDSD X5, X4, X4
	VMULSD X3, X11, X5
	VADDSD X5, X4, X4
	VMOVSD (DI)(CX*8), X5
	VSUBSD X4, X5, X5
	VMOVSD X5, (DI)(CX*8)
	VMULSD X0, X12, X6
	VMULSD X1, X13, X7
	VADDSD X7, X6, X6
	VMULSD X2, X14, X7
	VADDSD X7, X6, X6
	VMULSD X3, X15, X7
	VADDSD X7, X6, X6
	VMOVSD (SI)(CX*8), X7
	VSUBSD X6, X7, X7
	VMOVSD X7, (SI)(CX*8)
	INCQ   CX
	JMP    gemmtail

gemmnext:
	LEAQ (DI)(R8*2), DI
	ADDQ $64, AX
	DECQ BX
	JNZ  gemmpair
	VZEROUPPER
	RET

// func scatterRowsAVX2(acc *float64, accStride int, row *float64, n int, t *int, w *float64, count int)
//
// Registers: DI accumulator row 0, SI the source row, R10 and R11 the
// next target and weight, BX the targets left, AX the target row, CX the
// column j, DX n, R9 n-16, R12 n-4. Y8 holds the weight in every lane.
// Each element gets w·row[j] (VMULPD) added to it (VADDPD); targets are
// taken in order, so a repeated target sees the earlier update.
TEXT ·scatterRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ accStride+8(FP), R8
	SHLQ $3, R8
	MOVQ row+16(FP), SI
	MOVQ n+24(FP), DX
	MOVQ t+32(FP), R10
	MOVQ w+40(FP), R11
	MOVQ count+48(FP), BX
	LEAQ -16(DX), R9
	LEAQ -4(DX), R12

scatterrow:
	MOVQ         (R10), AX
	IMULQ        R8, AX
	ADDQ         DI, AX
	VBROADCASTSD (R11), Y8
	XORQ         CX, CX

scatter16:
	CMPQ    CX, R9
	JGT     scatter4
	VMULPD  (SI)(CX*8), Y8, Y0
	VMULPD  32(SI)(CX*8), Y8, Y1
	VMULPD  64(SI)(CX*8), Y8, Y2
	VMULPD  96(SI)(CX*8), Y8, Y3
	VADDPD  (AX)(CX*8), Y0, Y0
	VADDPD  32(AX)(CX*8), Y1, Y1
	VADDPD  64(AX)(CX*8), Y2, Y2
	VADDPD  96(AX)(CX*8), Y3, Y3
	VMOVUPD Y0, (AX)(CX*8)
	VMOVUPD Y1, 32(AX)(CX*8)
	VMOVUPD Y2, 64(AX)(CX*8)
	VMOVUPD Y3, 96(AX)(CX*8)
	ADDQ    $16, CX
	JMP     scatter16

scatter4:
	CMPQ    CX, R12
	JGT     scatter1
	VMULPD  (SI)(CX*8), Y8, Y0
	VADDPD  (AX)(CX*8), Y0, Y0
	VMOVUPD Y0, (AX)(CX*8)
	ADDQ    $4, CX
	JMP     scatter4

scatter1:
	CMPQ   CX, DX
	JGE    scatternext
	VMULSD (SI)(CX*8), X8, X0
	VADDSD (AX)(CX*8), X0, X0
	VMOVSD X0, (AX)(CX*8)
	INCQ   CX
	JMP    scatter1

scatternext:
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ BX
	JNZ  scatterrow
	VZEROUPPER
	RET
