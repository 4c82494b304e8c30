//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA forms of the Go loops in quad.go. Every output element is one
// fused multiply-add chain over its summation index t, ascending, exactly
// as in the Go loops: loads and stores are exact, so holding a tile of C
// in registers across the whole t loop changes no bit. The four vector
// lanes run over four independent output columns. Strides arrive in
// elements and are scaled to bytes.
//
// The tile kernels keep a 4-row tile of C in Y0–Y11: register Y(3s+q)
// holds row s, columns 4q..4q+3. A tile is 4, 8 or 12 columns wide
// (nc = 4·nv); Y12–Y14 take the nv vectors of one row of B, Y15 the
// broadcast entry of A (or V).

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
	// ECX bit 12: FMA, bit 27: OSXSAVE, bit 28: AVX.
	ANDL $0x18001000, CX
	CMPL CX, $0x18001000
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

// Tile loads and stores: DI, R9, R10 and R11 point at the tile's rows.
#define LOADC1 \
	VMOVUPD (DI), Y0; VMOVUPD (R9), Y3; VMOVUPD (R10), Y6; VMOVUPD (R11), Y9

#define LOADC2 \
	LOADC1; \
	VMOVUPD 32(DI), Y1; VMOVUPD 32(R9), Y4; VMOVUPD 32(R10), Y7; VMOVUPD 32(R11), Y10

#define LOADC3 \
	LOADC2; \
	VMOVUPD 64(DI), Y2; VMOVUPD 64(R9), Y5; VMOVUPD 64(R10), Y8; VMOVUPD 64(R11), Y11

#define STOREC1 \
	VMOVUPD Y0, (DI); VMOVUPD Y3, (R9); VMOVUPD Y6, (R10); VMOVUPD Y9, (R11)

#define STOREC2 \
	STOREC1; \
	VMOVUPD Y1, 32(DI); VMOVUPD Y4, 32(R9); VMOVUPD Y7, 32(R10); VMOVUPD Y10, 32(R11)

#define STOREC3 \
	STOREC2; \
	VMOVUPD Y2, 64(DI); VMOVUPD Y5, 64(R9); VMOVUPD Y8, 64(R10); VMOVUPD Y11, 64(R11)

// One t step: row t of B at DX, entries (s, t) of A at SI + s·AX (AX
// and R14 = 3·AX in bytes), then SI and DX step to t+1 by R12 and R13.
// FMA is VFMADD231PD (C += a·b) or VFNMADD231PD (C −= v·b).
#define STEP1(FMA) \
	VMOVUPD (DX), Y12; \
	VBROADCASTSD (SI), Y15; FMA Y12, Y15, Y0; \
	VBROADCASTSD (SI)(AX*1), Y15; FMA Y12, Y15, Y3; \
	VBROADCASTSD (SI)(AX*2), Y15; FMA Y12, Y15, Y6; \
	VBROADCASTSD (SI)(R14*1), Y15; FMA Y12, Y15, Y9; \
	ADDQ R12, SI; ADDQ R13, DX

#define STEP2(FMA) \
	VMOVUPD (DX), Y12; VMOVUPD 32(DX), Y13; \
	VBROADCASTSD (SI), Y15; FMA Y12, Y15, Y0; FMA Y13, Y15, Y1; \
	VBROADCASTSD (SI)(AX*1), Y15; FMA Y12, Y15, Y3; FMA Y13, Y15, Y4; \
	VBROADCASTSD (SI)(AX*2), Y15; FMA Y12, Y15, Y6; FMA Y13, Y15, Y7; \
	VBROADCASTSD (SI)(R14*1), Y15; FMA Y12, Y15, Y9; FMA Y13, Y15, Y10; \
	ADDQ R12, SI; ADDQ R13, DX

#define STEP3(FMA) \
	VMOVUPD (DX), Y12; VMOVUPD 32(DX), Y13; VMOVUPD 64(DX), Y14; \
	VBROADCASTSD (SI), Y15; FMA Y12, Y15, Y0; FMA Y13, Y15, Y1; FMA Y14, Y15, Y2; \
	VBROADCASTSD (SI)(AX*1), Y15; FMA Y12, Y15, Y3; FMA Y13, Y15, Y4; FMA Y14, Y15, Y5; \
	VBROADCASTSD (SI)(AX*2), Y15; FMA Y12, Y15, Y6; FMA Y13, Y15, Y7; FMA Y14, Y15, Y8; \
	VBROADCASTSD (SI)(R14*1), Y15; FMA Y12, Y15, Y9; FMA Y13, Y15, Y10; FMA Y14, Y15, Y11; \
	ADDQ R12, SI; ADDQ R13, DX

// Row pointers of the C tile from DI and the row stride R8 (bytes).
#define TILEROWS \
	LEAQ (DI)(R8*1), R9; LEAQ (DI)(R8*2), R10; LEAQ (R9)(R8*2), R11

// func tileTNAVX2(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, k, nc int, upper bool)
//
// C[s][j] = fma(A[t][s], B[t][j], C[s][j]) for t = 0..k−1, s < 4,
// j < nc. With upper set, the entries below the tile's diagonal (j < s)
// are computed but not stored. k ≥ 1.
TEXT ·tileTNAVX2(SB), NOSPLIT, $0-65
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $3, R8
	TILEROWS
	MOVQ a+16(FP), SI
	MOVQ $8, AX
	MOVQ $24, R14
	MOVQ lda+24(FP), R12
	SHLQ $3, R12
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R13
	SHLQ $3, R13
	MOVQ k+48(FP), CX
	MOVQ nc+56(FP), BX
	CMPQ BX, $8
	JEQ  tn8
	JGT  tn12
	LOADC1

tn4loop:
	STEP1(VFMADD231PD)
	DECQ CX
	JNZ  tn4loop
	JMP  tnstore0

tn8:
	LOADC2

tn8loop:
	STEP2(VFMADD231PD)
	DECQ CX
	JNZ  tn8loop
	VMOVUPD Y1, 32(DI); VMOVUPD Y4, 32(R9); VMOVUPD Y7, 32(R10); VMOVUPD Y10, 32(R11)
	JMP  tnstore0

tn12:
	LOADC3

tn12loop:
	STEP3(VFMADD231PD)
	DECQ CX
	JNZ  tn12loop
	VMOVUPD Y1, 32(DI); VMOVUPD Y4, 32(R9); VMOVUPD Y7, 32(R10); VMOVUPD Y10, 32(R11)
	VMOVUPD Y2, 64(DI); VMOVUPD Y5, 64(R9); VMOVUPD Y8, 64(R10); VMOVUPD Y11, 64(R11)

	// Columns 0–3. Under upper, row s keeps lanes s..3 only: Y14 is the
	// lane mask (all ones in Y12, zero in Y13).
tnstore0:
	VMOVUPD Y0, (DI)
	CMPB    upper+64(FP), $0
	JNE     tnupper
	VMOVUPD Y3, (R9)
	VMOVUPD Y6, (R10)
	VMOVUPD Y9, (R11)
	VZEROUPPER
	RET

tnupper:
	VPCMPEQQ   Y12, Y12, Y12
	VXORPD     Y13, Y13, Y13
	VBLENDPD   $1, Y13, Y12, Y14
	VMASKMOVPD Y3, Y14, (R9)
	VBLENDPD   $3, Y13, Y12, Y14
	VMASKMOVPD Y6, Y14, (R10)
	VBLENDPD   $7, Y13, Y12, Y14
	VMASKMOVPD Y9, Y14, (R11)
	VZEROUPPER
	RET

// func tileNNAVX2(c *float64, ldc int, v *float64, ldv int, b *float64, ldb int, k, nc int)
//
// C[s][j] = fma(−V[s][t], B[t][j], C[s][j]) for t = 0..k−1, s < 4,
// j < nc. k ≥ 1.
TEXT ·tileNNAVX2(SB), NOSPLIT, $0-64
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $3, R8
	TILEROWS
	MOVQ v+16(FP), SI
	MOVQ ldv+24(FP), AX
	SHLQ $3, AX
	LEAQ (AX)(AX*2), R14
	MOVQ $8, R12
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R13
	SHLQ $3, R13
	MOVQ k+48(FP), CX
	MOVQ nc+56(FP), BX
	CMPQ BX, $8
	JEQ  nn8
	JGT  nn12
	LOADC1

nn4loop:
	STEP1(VFNMADD231PD)
	DECQ CX
	JNZ  nn4loop
	STOREC1
	VZEROUPPER
	RET

nn8:
	LOADC2

nn8loop:
	STEP2(VFNMADD231PD)
	DECQ CX
	JNZ  nn8loop
	STOREC2
	VZEROUPPER
	RET

nn12:
	LOADC3

nn12loop:
	STEP3(VFNMADD231PD)
	DECQ CX
	JNZ  nn12loop
	STOREC3
	VZEROUPPER
	RET

// TRANSPOSE4 transposes the 4×4 block held in rows a, b, c, d through
// Y12–Y15: afterwards a, b, c, d hold its columns. Applied to the tile's
// block q (Y(q), Y(3+q), Y(6+q), Y(9+q)) it leaves column 4q+s in
// Y(3s+q), and applied again it restores the rows.
#define TRANSPOSE4(a, b, c, d) \
	VUNPCKLPD  b, a, Y12; \
	VUNPCKHPD  b, a, Y13; \
	VUNPCKLPD  d, c, Y14; \
	VUNPCKHPD  d, c, Y15; \
	VPERM2F128 $0x20, Y14, Y12, a; \
	VPERM2F128 $0x20, Y15, Y13, b; \
	VPERM2F128 $0x31, Y14, Y12, c; \
	VPERM2F128 $0x31, Y15, Y13, d

// TERM is one step of a column's chain in the diagonal block,
// c = fma(−x, R[t][j], c) on four rows at once; SCALE is the solve,
// c = c·(1/R[j][j]).
#define TERM(r, x, c) \
	VBROADCASTSD r, Y12; VFNMADD231PD Y12, x, c

#define SCALE(inv, c) \
	VBROADCASTSD inv, Y12; VMULPD Y12, c, c

// func trsmTileAVX2(x *float64, ldx int, r *float64, ldr int, inv *float64, j0, nc int)
//
// Solves columns j0..j0+nc−1 of four rows of X (x points at row 0,
// column 0) against the upper triangular R, left-looking: the tile first
// takes every term from the solved columns t < j0 (tileNN with V = X),
// then is transposed so each register holds one column of the four rows,
// and the diagonal block is solved column by column, continuing each
// chain over t = j0..j−1 and multiplying by inv[j] = 1/R[j][j].
TEXT ·trsmTileAVX2(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	MOVQ ldx+8(FP), AX
	SHLQ $3, AX
	LEAQ (AX)(AX*2), R14
	MOVQ AX, R8
	MOVQ j0+40(FP), CX
	LEAQ (SI)(CX*8), DI
	TILEROWS
	MOVQ $8, R12
	MOVQ ldr+24(FP), R13
	SHLQ $3, R13
	MOVQ r+16(FP), DX
	LEAQ (DX)(CX*8), DX
	MOVQ nc+48(FP), BX
	CMPQ BX, $8
	JEQ  ts8
	JGT  ts12
	LOADC1
	TESTQ CX, CX
	JZ    trsmdiag

ts4loop:
	STEP1(VFNMADD231PD)
	DECQ CX
	JNZ  ts4loop
	JMP  trsmdiag

ts8:
	LOADC2
	TESTQ CX, CX
	JZ    trsmdiag

ts8loop:
	STEP2(VFNMADD231PD)
	DECQ CX
	JNZ  ts8loop
	JMP  trsmdiag

ts12:
	LOADC3
	TESTQ CX, CX
	JZ    trsmdiag

ts12loop:
	STEP3(VFNMADD231PD)
	DECQ CX
	JNZ  ts12loop

	// DX now points at R[j0][j0]. Row t of the diagonal block is at
	// SI, AX, R14 or R12 (t/3 = 0..3) plus (t mod 3)·R13; DX moves to
	// inv[j0].
trsmdiag:
	MOVQ DX, SI
	LEAQ (R13)(R13*2), CX
	LEAQ (SI)(CX*1), AX
	LEAQ (AX)(CX*1), R14
	LEAQ (R14)(CX*1), R12
	MOVQ inv+32(FP), DX
	MOVQ j0+40(FP), CX
	LEAQ (DX)(CX*8), DX
	TRANSPOSE4(Y0, Y3, Y6, Y9)
	CMPQ BX, $4
	JEQ  trsmsolve
	TRANSPOSE4(Y1, Y4, Y7, Y10)
	CMPQ BX, $8
	JEQ  trsmsolve
	TRANSPOSE4(Y2, Y5, Y8, Y11)

trsmsolve:
	// column 0
	SCALE((DX), Y0)
	// column 1
	TERM(8(SI), Y0, Y3)
	SCALE(8(DX), Y3)
	// column 2
	TERM(16(SI), Y0, Y6)
	TERM(16(SI)(R13*1), Y3, Y6)
	SCALE(16(DX), Y6)
	// column 3
	TERM(24(SI), Y0, Y9)
	TERM(24(SI)(R13*1), Y3, Y9)
	TERM(24(SI)(R13*2), Y6, Y9)
	SCALE(24(DX), Y9)
	CMPQ BX, $4
	JEQ  trsmback
	// column 4
	TERM(32(SI), Y0, Y1)
	TERM(32(SI)(R13*1), Y3, Y1)
	TERM(32(SI)(R13*2), Y6, Y1)
	TERM(32(AX), Y9, Y1)
	SCALE(32(DX), Y1)
	// column 5
	TERM(40(SI), Y0, Y4)
	TERM(40(SI)(R13*1), Y3, Y4)
	TERM(40(SI)(R13*2), Y6, Y4)
	TERM(40(AX), Y9, Y4)
	TERM(40(AX)(R13*1), Y1, Y4)
	SCALE(40(DX), Y4)
	// column 6
	TERM(48(SI), Y0, Y7)
	TERM(48(SI)(R13*1), Y3, Y7)
	TERM(48(SI)(R13*2), Y6, Y7)
	TERM(48(AX), Y9, Y7)
	TERM(48(AX)(R13*1), Y1, Y7)
	TERM(48(AX)(R13*2), Y4, Y7)
	SCALE(48(DX), Y7)
	// column 7
	TERM(56(SI), Y0, Y10)
	TERM(56(SI)(R13*1), Y3, Y10)
	TERM(56(SI)(R13*2), Y6, Y10)
	TERM(56(AX), Y9, Y10)
	TERM(56(AX)(R13*1), Y1, Y10)
	TERM(56(AX)(R13*2), Y4, Y10)
	TERM(56(R14), Y7, Y10)
	SCALE(56(DX), Y10)
	CMPQ BX, $8
	JEQ  trsmback
	// column 8
	TERM(64(SI), Y0, Y2)
	TERM(64(SI)(R13*1), Y3, Y2)
	TERM(64(SI)(R13*2), Y6, Y2)
	TERM(64(AX), Y9, Y2)
	TERM(64(AX)(R13*1), Y1, Y2)
	TERM(64(AX)(R13*2), Y4, Y2)
	TERM(64(R14), Y7, Y2)
	TERM(64(R14)(R13*1), Y10, Y2)
	SCALE(64(DX), Y2)
	// column 9
	TERM(72(SI), Y0, Y5)
	TERM(72(SI)(R13*1), Y3, Y5)
	TERM(72(SI)(R13*2), Y6, Y5)
	TERM(72(AX), Y9, Y5)
	TERM(72(AX)(R13*1), Y1, Y5)
	TERM(72(AX)(R13*2), Y4, Y5)
	TERM(72(R14), Y7, Y5)
	TERM(72(R14)(R13*1), Y10, Y5)
	TERM(72(R14)(R13*2), Y2, Y5)
	SCALE(72(DX), Y5)
	// column 10
	TERM(80(SI), Y0, Y8)
	TERM(80(SI)(R13*1), Y3, Y8)
	TERM(80(SI)(R13*2), Y6, Y8)
	TERM(80(AX), Y9, Y8)
	TERM(80(AX)(R13*1), Y1, Y8)
	TERM(80(AX)(R13*2), Y4, Y8)
	TERM(80(R14), Y7, Y8)
	TERM(80(R14)(R13*1), Y10, Y8)
	TERM(80(R14)(R13*2), Y2, Y8)
	TERM(80(R12), Y5, Y8)
	SCALE(80(DX), Y8)
	// column 11
	TERM(88(SI), Y0, Y11)
	TERM(88(SI)(R13*1), Y3, Y11)
	TERM(88(SI)(R13*2), Y6, Y11)
	TERM(88(AX), Y9, Y11)
	TERM(88(AX)(R13*1), Y1, Y11)
	TERM(88(AX)(R13*2), Y4, Y11)
	TERM(88(R14), Y7, Y11)
	TERM(88(R14)(R13*1), Y10, Y11)
	TERM(88(R14)(R13*2), Y2, Y11)
	TERM(88(R12), Y5, Y11)
	TERM(88(R12)(R13*1), Y8, Y11)
	SCALE(88(DX), Y11)

trsmback:
	TRANSPOSE4(Y0, Y3, Y6, Y9)
	CMPQ BX, $4
	JEQ  trsmstore4
	TRANSPOSE4(Y1, Y4, Y7, Y10)
	CMPQ BX, $8
	JEQ  trsmstore8
	TRANSPOSE4(Y2, Y5, Y8, Y11)
	STOREC3
	VZEROUPPER
	RET

trsmstore8:
	STOREC2
	VZEROUPPER
	RET

trsmstore4:
	STOREC1
	VZEROUPPER
	RET

// func scatterRowsAVX2(acc *float64, accStride int, row *float64, n int, t *int, w *float64, count int)
//
// Registers: DI accumulator row 0, SI the source row, R10 and R11 the
// next target and weight, BX the targets left, AX the target row, CX the
// column j, DX n, R9 n-16, R12 n-4. Y8 holds the weight in every lane.
// Each element becomes fma(w, row[j], acc[j]) (VFMADD231PD); targets are
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
	CMPQ        CX, R9
	JGT         scatter4
	VMOVUPD     (AX)(CX*8), Y0
	VMOVUPD     32(AX)(CX*8), Y1
	VMOVUPD     64(AX)(CX*8), Y2
	VMOVUPD     96(AX)(CX*8), Y3
	VFMADD231PD (SI)(CX*8), Y8, Y0
	VFMADD231PD 32(SI)(CX*8), Y8, Y1
	VFMADD231PD 64(SI)(CX*8), Y8, Y2
	VFMADD231PD 96(SI)(CX*8), Y8, Y3
	VMOVUPD     Y0, (AX)(CX*8)
	VMOVUPD     Y1, 32(AX)(CX*8)
	VMOVUPD     Y2, 64(AX)(CX*8)
	VMOVUPD     Y3, 96(AX)(CX*8)
	ADDQ        $16, CX
	JMP         scatter16

scatter4:
	CMPQ        CX, R12
	JGT         scatter1
	VMOVUPD     (AX)(CX*8), Y0
	VFMADD231PD (SI)(CX*8), Y8, Y0
	VMOVUPD     Y0, (AX)(CX*8)
	ADDQ        $4, CX
	JMP         scatter4

scatter1:
	CMPQ        CX, DX
	JGE         scatternext
	VMOVSD      (AX)(CX*8), X0
	VFMADD231SD (SI)(CX*8), X8, X0
	VMOVSD      X0, (AX)(CX*8)
	INCQ        CX
	JMP         scatter1

scatternext:
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ BX
	JNZ  scatterrow
	VZEROUPPER
	RET

// func fmaPeakAVX2(iters int)
//
// iters steps of 12 independent VFMADD231PD chains (Y0–Y11 += Y12·Y13,
// all zero): 96 flops a step with no dependence between the chains
// inside a step, enough to fill both FMA ports past their latency.
TEXT ·fmaPeakAVX2(SB), NOSPLIT, $0-8
	MOVQ   iters+0(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13

fmapeak:
	VFMADD231PD Y12, Y13, Y0
	VFMADD231PD Y12, Y13, Y1
	VFMADD231PD Y12, Y13, Y2
	VFMADD231PD Y12, Y13, Y3
	VFMADD231PD Y12, Y13, Y4
	VFMADD231PD Y12, Y13, Y5
	VFMADD231PD Y12, Y13, Y6
	VFMADD231PD Y12, Y13, Y7
	VFMADD231PD Y12, Y13, Y8
	VFMADD231PD Y12, Y13, Y9
	VFMADD231PD Y12, Y13, Y10
	VFMADD231PD Y12, Y13, Y11
	DECQ        CX
	JNZ         fmapeak
	VZEROUPPER
	RET
