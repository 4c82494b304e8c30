//go:build amd64 && !purego

#include "textflag.h"

// AVX2+FMA and AVX-512 forms of the Go loops in quad.go. Every output
// element is one fused multiply-add chain over its summation index t,
// ascending, exactly as in the Go loops: loads and stores are exact, so
// holding a tile of C in registers across the whole t loop changes no
// bit. The four (ymm) or eight (zmm) vector lanes run over independent
// output columns. Strides arrive in elements and are scaled to bytes.
//
// The AVX2 tiles keep a 4-row tile of C in Y0–Y11: register Y(3s+q)
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
	// EBX bit 3: BMI1, bit 5: AVX2.
	ANDL  $0x28, BX
	CMPL  BX, $0x28
	SETEQ ret+0(FP)

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

// func signRowsAVX2(c *float64, ldc int, b *float64, ldb, n int, rows, neg *uint64, w *[2]float64, count int)
//
// For each output row with a set bit, the columns go 32 at a time
// (Y0–Y7), then 16 (Y0–Y3), 4 (Y0) and 1 (X0); each group of columns of
// C is loaded once, takes every set bit of the row in ascending order,
// and is stored once. Each element becomes fma(w[s], B[i][j], C[t][j])
// (VFMADD231PD), s the bit i of neg[t]. Registers: DI row t of C and R13
// its current columns, R8 and R9 the strides of C and B in bytes, SI B
// and DX its current columns, R10 and R11 rows[t] and neg[t], AX neg[t]
// itself, R12 w, BX the bits left, CX the lowest (TZCNT, then cleared
// by BLSR) and then the offset of B's row i, R14 the offset of its
// weight, and Y8 the weight in every lane. The end of rows is kept in
// count's argument slot.
#define SIGNENTRY(z) SIGNENTRYOF(BX, AX, z)

// SIGNENTRYOF takes the lowest set bit i of bits, clears it, broadcasts
// the weight that bit i of negw selects into z, and leaves the offset of
// B's row i in CX.
#define SIGNENTRYOF(bits, negw, z) \
	TZCNTQ       bits, CX; \
	BLSRQ        bits, bits; \
	BTQ          CX, negw; \
	SBBQ         R14, R14; \
	ANDQ         $8, R14; \
	VBROADCASTSD (R12)(R14*1), z; \
	IMULQ        R9, CX

TEXT ·signRowsAVX2(SB), NOSPLIT, $0-72
// SIGNROW points R13 and DX at column 0 of the row and loads neg[t];
// SIGNLEFT sets R14 to the columns left, in bytes, past R13; SIGNNEXT
// steps to the next row. They read arguments, so they are defined
// inside the function, where go vet checks the offsets.
#define SIGNROW \
	MOVQ DI, R13; \
	MOVQ SI, DX; \
	MOVQ (R11), AX

#define SIGNLEFT \
	MOVQ n+32(FP), R14; \
	SHLQ $3, R14; \
	ADDQ DI, R14; \
	SUBQ R13, R14

#define SIGNNEXT(loop) \
	ADDQ R8, DI; \
	ADDQ $8, R10; \
	ADDQ $8, R11; \
	CMPQ R10, count+64(FP); \
	JLT  loop

	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	SHLQ $3, R8
	MOVQ b+16(FP), SI
	MOVQ ldb+24(FP), R9
	SHLQ $3, R9
	MOVQ rows+40(FP), R10
	MOVQ neg+48(FP), R11
	MOVQ w+56(FP), R12
	MOVQ count+64(FP), R13
	LEAQ (R10)(R13*8), R13
	MOVQ R13, count+64(FP)

ysignrow:
	CMPQ (R10), $0
	JEQ  ysignnext
	SIGNROW

ysign32:
	SIGNLEFT
	CMPQ    R14, $256
	JLT     ysign16
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VMOVUPD 64(R13), Y2
	VMOVUPD 96(R13), Y3
	VMOVUPD 128(R13), Y4
	VMOVUPD 160(R13), Y5
	VMOVUPD 192(R13), Y6
	VMOVUPD 224(R13), Y7
	MOVQ    (R10), BX

ysign32k:
	SIGNENTRY(Y8)
	VFMADD231PD (DX)(CX*1), Y8, Y0
	VFMADD231PD 32(DX)(CX*1), Y8, Y1
	VFMADD231PD 64(DX)(CX*1), Y8, Y2
	VFMADD231PD 96(DX)(CX*1), Y8, Y3
	VFMADD231PD 128(DX)(CX*1), Y8, Y4
	VFMADD231PD 160(DX)(CX*1), Y8, Y5
	VFMADD231PD 192(DX)(CX*1), Y8, Y6
	VFMADD231PD 224(DX)(CX*1), Y8, Y7
	TESTQ       BX, BX
	JNZ         ysign32k
	VMOVUPD     Y0, (R13)
	VMOVUPD     Y1, 32(R13)
	VMOVUPD     Y2, 64(R13)
	VMOVUPD     Y3, 96(R13)
	VMOVUPD     Y4, 128(R13)
	VMOVUPD     Y5, 160(R13)
	VMOVUPD     Y6, 192(R13)
	VMOVUPD     Y7, 224(R13)
	ADDQ        $256, R13
	ADDQ        $256, DX
	JMP         ysign32

ysign16:
	CMPQ    R14, $128
	JLT     ysign4
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VMOVUPD 64(R13), Y2
	VMOVUPD 96(R13), Y3
	MOVQ    (R10), BX

ysign16k:
	SIGNENTRY(Y8)
	VFMADD231PD (DX)(CX*1), Y8, Y0
	VFMADD231PD 32(DX)(CX*1), Y8, Y1
	VFMADD231PD 64(DX)(CX*1), Y8, Y2
	VFMADD231PD 96(DX)(CX*1), Y8, Y3
	TESTQ       BX, BX
	JNZ         ysign16k
	VMOVUPD     Y0, (R13)
	VMOVUPD     Y1, 32(R13)
	VMOVUPD     Y2, 64(R13)
	VMOVUPD     Y3, 96(R13)
	ADDQ        $128, R13
	ADDQ        $128, DX
	SIGNLEFT

ysign4:
	CMPQ    R14, $32
	JLT     ysign1
	VMOVUPD (R13), Y0
	MOVQ    (R10), BX

ysign4k:
	SIGNENTRY(Y8)
	VFMADD231PD (DX)(CX*1), Y8, Y0
	TESTQ       BX, BX
	JNZ         ysign4k
	VMOVUPD     Y0, (R13)
	ADDQ        $32, R13
	ADDQ        $32, DX
	SIGNLEFT
	JMP         ysign4

ysign1:
	CMPQ   R14, $0
	JEQ    ysignnext
	VMOVSD (R13), X0
	MOVQ   (R10), BX

ysign1k:
	SIGNENTRY(Y8)
	VFMADD231SD (DX)(CX*1), X8, X0
	TESTQ       BX, BX
	JNZ         ysign1k
	VMOVSD      X0, (R13)
	ADDQ        $8, R13
	ADDQ        $8, DX
	SIGNLEFT
	JMP         ysign1

ysignnext:
	SIGNNEXT(ysignrow)
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

// func cpuHasAVX512() bool
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  noavx512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	// ECX bit 27: OSXSAVE.
	BTL  $27, CX
	JCC  noavx512
	// XCR0 bits 1, 2 and 5–7: the OS saves the XMM, YMM, opmask,
	// ZMM_Hi256 and Hi16_ZMM state.
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  noavx512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	// EBX bit 16: AVX512F, bit 31: AVX512VL.
	SHRL $16, BX
	ANDL $0x8001, BX
	CMPL BX, $0x8001
	JNE  noavx512
	MOVB $1, ret+0(FP)

noavx512:
	RET

// func cpuHasAVX512DQ() bool
TEXT ·cpuHasAVX512DQ(SB), NOSPLIT, $0-1
	MOVL $7, AX
	XORL CX, CX
	CPUID
	// EBX bit 17: AVX512DQ.
	SHRL $17, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

// The AVX-512 tiles hold an 8-row tile of C in Z0–Z23: register Z(3s+q)
// holds row s, columns 8q..8q+7. A tile is 1 to 24 columns wide,
// nv = ⌈nc/8⌉ vectors. K1 masks the lanes of the last vector that lie
// inside the tile: its loads are zero-masked, so they touch no memory
// past the tile, and its stores merge-masked, so every stored element is
// the chain of the Go loop and no other is written. Z24–Z26 take the nv
// vectors of one row of B, Z27 the broadcast entry of A (or V). Row s of
// the tile is at (DI), (DI)(R8*1), (DI)(R8*2), (R9), (DI)(R8*4),
// (R9)(R8*2), (R10) or (R9)(R8*4): ZROWS points R9 and R10 at rows 3
// and 6, given row 0 in DI and the row stride in R8 (elements, scaled
// to bytes).
#define ZROWS \
	SHLQ $3, R8; \
	LEAQ (DI)(R8*2), R9; \
	ADDQ R8, R9; \
	LEAQ (R9)(R8*2), R10; \
	ADDQ R8, R10

// TAILMASK sets K1 to the lanes of the last vector inside an nc-column
// tile (nc in BX, 1 ≤ nc ≤ 24) and leaves nv−1 in BX. Clobbers AX, CX.
#define TAILMASK \
	LEAQ  -1(BX), CX; \
	ANDQ  $7, CX; \
	MOVL  $2, AX; \
	SHLL  CX, AX; \
	DECL  AX; \
	KMOVW AX, K1; \
	DECQ  BX; \
	SHRQ  $3, BX

// ZLOAD and ZSTORE move the eight rows of one vector of the tile, at
// byte offset off, to and from r0–r7; the M forms take the masked last
// vector.
#define ZLOAD(off, r0, r1, r2, r3, r4, r5, r6, r7) \
	VMOVUPD off(DI), r0; \
	VMOVUPD off(DI)(R8*1), r1; \
	VMOVUPD off(DI)(R8*2), r2; \
	VMOVUPD off(R9), r3; \
	VMOVUPD off(DI)(R8*4), r4; \
	VMOVUPD off(R9)(R8*2), r5; \
	VMOVUPD off(R10), r6; \
	VMOVUPD off(R9)(R8*4), r7

#define ZLOADM(off, r0, r1, r2, r3, r4, r5, r6, r7) \
	VMOVUPD.Z off(DI), K1, r0; \
	VMOVUPD.Z off(DI)(R8*1), K1, r1; \
	VMOVUPD.Z off(DI)(R8*2), K1, r2; \
	VMOVUPD.Z off(R9), K1, r3; \
	VMOVUPD.Z off(DI)(R8*4), K1, r4; \
	VMOVUPD.Z off(R9)(R8*2), K1, r5; \
	VMOVUPD.Z off(R10), K1, r6; \
	VMOVUPD.Z off(R9)(R8*4), K1, r7

#define ZSTORE(off, r0, r1, r2, r3, r4, r5, r6, r7) \
	VMOVUPD r0, off(DI); \
	VMOVUPD r1, off(DI)(R8*1); \
	VMOVUPD r2, off(DI)(R8*2); \
	VMOVUPD r3, off(R9); \
	VMOVUPD r4, off(DI)(R8*4); \
	VMOVUPD r5, off(R9)(R8*2); \
	VMOVUPD r6, off(R10); \
	VMOVUPD r7, off(R9)(R8*4)

#define ZSTOREM(off, r0, r1, r2, r3, r4, r5, r6, r7) \
	VMOVUPD r0, K1, off(DI); \
	VMOVUPD r1, K1, off(DI)(R8*1); \
	VMOVUPD r2, K1, off(DI)(R8*2); \
	VMOVUPD r3, K1, off(R9); \
	VMOVUPD r4, K1, off(DI)(R8*4); \
	VMOVUPD r5, K1, off(R9)(R8*2); \
	VMOVUPD r6, K1, off(R10); \
	VMOVUPD r7, K1, off(R9)(R8*4)

#define ZLOADC1 \
	ZLOADM(0, Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21)

#define ZLOADC2 \
	ZLOAD(0, Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21); \
	ZLOADM(64, Z1, Z4, Z7, Z10, Z13, Z16, Z19, Z22)

#define ZLOADC3 \
	ZLOAD(0, Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21); \
	ZLOAD(64, Z1, Z4, Z7, Z10, Z13, Z16, Z19, Z22); \
	ZLOADM(128, Z2, Z5, Z8, Z11, Z14, Z17, Z20, Z23)

#define ZSTOREC1 \
	ZSTOREM(0, Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21)

#define ZSTOREC2 \
	ZSTORE(0, Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21); \
	ZSTOREM(64, Z1, Z4, Z7, Z10, Z13, Z16, Z19, Z22)

#define ZSTOREC3 \
	ZSTORE(0, Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21); \
	ZSTORE(64, Z1, Z4, Z7, Z10, Z13, Z16, Z19, Z22); \
	ZSTOREM(128, Z2, Z5, Z8, Z11, Z14, Z17, Z20, Z23)

// One t step: row t of B at DX into Z24–Z26, then for each row s the
// entry of A (or V) at as, broadcast into Z27, and one fma into each of
// the row's vectors. FMA is VFMADD231PD (C += a·b) or VFNMADD231PD
// (C −= v·b). The caller steps the pointers.
#define ZROW1(FMA, a, r0) \
	VBROADCASTSD a, Z27; \
	FMA Z24, Z27, r0

#define ZROW2(FMA, a, r0, r1) \
	VBROADCASTSD a, Z27; \
	FMA Z24, Z27, r0; \
	FMA Z25, Z27, r1

#define ZROW3(FMA, a, r0, r1, r2) \
	VBROADCASTSD a, Z27; \
	FMA Z24, Z27, r0; \
	FMA Z25, Z27, r1; \
	FMA Z26, Z27, r2

#define ZSTEP1(FMA, a0, a1, a2, a3, a4, a5, a6, a7) \
	VMOVUPD.Z 0(DX), K1, Z24; \
	ZROW1(FMA, a0, Z0); \
	ZROW1(FMA, a1, Z3); \
	ZROW1(FMA, a2, Z6); \
	ZROW1(FMA, a3, Z9); \
	ZROW1(FMA, a4, Z12); \
	ZROW1(FMA, a5, Z15); \
	ZROW1(FMA, a6, Z18); \
	ZROW1(FMA, a7, Z21)

#define ZSTEP2(FMA, a0, a1, a2, a3, a4, a5, a6, a7) \
	VMOVUPD 0(DX), Z24; \
	VMOVUPD.Z 64(DX), K1, Z25; \
	ZROW2(FMA, a0, Z0, Z1); \
	ZROW2(FMA, a1, Z3, Z4); \
	ZROW2(FMA, a2, Z6, Z7); \
	ZROW2(FMA, a3, Z9, Z10); \
	ZROW2(FMA, a4, Z12, Z13); \
	ZROW2(FMA, a5, Z15, Z16); \
	ZROW2(FMA, a6, Z18, Z19); \
	ZROW2(FMA, a7, Z21, Z22)

#define ZSTEP3(FMA, a0, a1, a2, a3, a4, a5, a6, a7) \
	VMOVUPD 0(DX), Z24; \
	VMOVUPD 64(DX), Z25; \
	VMOVUPD.Z 128(DX), K1, Z26; \
	ZROW3(FMA, a0, Z0, Z1, Z2); \
	ZROW3(FMA, a1, Z3, Z4, Z5); \
	ZROW3(FMA, a2, Z6, Z7, Z8); \
	ZROW3(FMA, a3, Z9, Z10, Z11); \
	ZROW3(FMA, a4, Z12, Z13, Z14); \
	ZROW3(FMA, a5, Z15, Z16, Z17); \
	ZROW3(FMA, a6, Z18, Z19, Z20); \
	ZROW3(FMA, a7, Z21, Z22, Z23)

// func tileTNAVX512(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, k, nc int, upper bool)
//
// tileTNAVX2 for an 8-row tile, 1 ≤ nc ≤ 24: entries (t, s) of A at
// SI + 8s. With upper set, row s stores lanes s..7 of its first vector
// only, so the strict lower triangle is never written.
TEXT ·tileTNAVX512(SB), NOSPLIT, $0-65
	MOVQ nc+56(FP), BX
	TAILMASK
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	ZROWS
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R11
	SHLQ $3, R11
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R13
	SHLQ $3, R13
	MOVQ k+48(FP), CX
	CMPQ BX, $1
	JEQ  tnz2
	JGT  tnz3
	ZLOADC1

tnz1loop:
	ZSTEP1(VFMADD231PD, (SI), 8(SI), 16(SI), 24(SI), 32(SI), 40(SI), 48(SI), 56(SI))
	ADDQ R11, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  tnz1loop
	KMOVW K1, AX
	JMP  tnzstore0

tnz2:
	ZLOADC2

tnz2loop:
	ZSTEP2(VFMADD231PD, (SI), 8(SI), 16(SI), 24(SI), 32(SI), 40(SI), 48(SI), 56(SI))
	ADDQ R11, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  tnz2loop
	ZSTOREM(64, Z1, Z4, Z7, Z10, Z13, Z16, Z19, Z22)
	MOVL $0xff, AX
	JMP  tnzstore0

tnz3:
	ZLOADC3

tnz3loop:
	ZSTEP3(VFMADD231PD, (SI), 8(SI), 16(SI), 24(SI), 32(SI), 40(SI), 48(SI), 56(SI))
	ADDQ R11, SI
	ADDQ R13, DX
	DECQ CX
	JNZ  tnz3loop
	ZSTORE(64, Z1, Z4, Z7, Z10, Z13, Z16, Z19, Z22)
	ZSTOREM(128, Z2, Z5, Z8, Z11, Z14, Z17, Z20, Z23)
	MOVL $0xff, AX

	// The first vector of each row, AX its lane mask. Under upper, row s
	// keeps lanes s..7 of it.
tnzstore0:
	KMOVW   AX, K2
	VMOVUPD Z0, K2, (DI)
	CMPB    upper+64(FP), $0
	JNE     tnzupper
	VMOVUPD Z3, K2, (DI)(R8*1)
	VMOVUPD Z6, K2, (DI)(R8*2)
	VMOVUPD Z9, K2, (R9)
	VMOVUPD Z12, K2, (DI)(R8*4)
	VMOVUPD Z15, K2, (R9)(R8*2)
	VMOVUPD Z18, K2, (R10)
	VMOVUPD Z21, K2, (R9)(R8*4)
	VZEROUPPER
	RET

tnzupper:
	ANDL    $0xfe, AX
	KMOVW   AX, K2
	VMOVUPD Z3, K2, (DI)(R8*1)
	ANDL    $0xfc, AX
	KMOVW   AX, K2
	VMOVUPD Z6, K2, (DI)(R8*2)
	ANDL    $0xf8, AX
	KMOVW   AX, K2
	VMOVUPD Z9, K2, (R9)
	ANDL    $0xf0, AX
	KMOVW   AX, K2
	VMOVUPD Z12, K2, (DI)(R8*4)
	ANDL    $0xe0, AX
	KMOVW   AX, K2
	VMOVUPD Z15, K2, (R9)(R8*2)
	ANDL    $0xc0, AX
	KMOVW   AX, K2
	VMOVUPD Z18, K2, (R10)
	ANDL    $0x80, AX
	KMOVW   AX, K2
	VMOVUPD Z21, K2, (R9)(R8*4)
	VZEROUPPER
	RET

// func tileNNAVX512(c *float64, ldc int, v *float64, ldv int, b *float64, ldb int, k, nc int)
//
// tileNNAVX2 for an 8-row tile, 1 ≤ nc ≤ 24: rows s < 4 of V at
// SI + s·AX, rows s ≥ 4 at R12 + (s−4)·AX (R14 = 3·AX).
TEXT ·tileNNAVX512(SB), NOSPLIT, $0-64
	MOVQ nc+56(FP), BX
	TAILMASK
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	ZROWS
	MOVQ v+16(FP), SI
	MOVQ ldv+24(FP), AX
	SHLQ $3, AX
	LEAQ (AX)(AX*2), R14
	LEAQ (SI)(AX*4), R12
	MOVQ b+32(FP), DX
	MOVQ ldb+40(FP), R13
	SHLQ $3, R13
	MOVQ k+48(FP), CX
	CMPQ BX, $1
	JEQ  nnz2
	JGT  nnz3
	ZLOADC1

nnz1loop:
	ZSTEP1(VFNMADD231PD, (SI), (SI)(AX*1), (SI)(AX*2), (SI)(R14*1), (R12), (R12)(AX*1), (R12)(AX*2), (R12)(R14*1))
	ADDQ $8, SI
	ADDQ $8, R12
	ADDQ R13, DX
	DECQ CX
	JNZ  nnz1loop
	ZSTOREC1
	VZEROUPPER
	RET

nnz2:
	ZLOADC2

nnz2loop:
	ZSTEP2(VFNMADD231PD, (SI), (SI)(AX*1), (SI)(AX*2), (SI)(R14*1), (R12), (R12)(AX*1), (R12)(AX*2), (R12)(R14*1))
	ADDQ $8, SI
	ADDQ $8, R12
	ADDQ R13, DX
	DECQ CX
	JNZ  nnz2loop
	ZSTOREC2
	VZEROUPPER
	RET

nnz3:
	ZLOADC3

nnz3loop:
	ZSTEP3(VFNMADD231PD, (SI), (SI)(AX*1), (SI)(AX*2), (SI)(R14*1), (R12), (R12)(AX*1), (R12)(AX*2), (R12)(R14*1))
	ADDQ $8, SI
	ADDQ $8, R12
	ADDQ R13, DX
	DECQ CX
	JNZ  nnz3loop
	ZSTOREC3
	VZEROUPPER
	RET

// ZTRANSPOSE transposes the 8×8 block held as rows in r0–r7 through
// Z24–Z31: afterwards r_l holds its column l. Applied again it restores
// the rows.
#define ZTRANSPOSE(r0, r1, r2, r3, r4, r5, r6, r7) \
	VUNPCKLPD r1, r0, Z24; \
	VUNPCKHPD r1, r0, Z25; \
	VUNPCKLPD r3, r2, Z26; \
	VUNPCKHPD r3, r2, Z27; \
	VUNPCKLPD r5, r4, Z28; \
	VUNPCKHPD r5, r4, Z29; \
	VUNPCKLPD r7, r6, Z30; \
	VUNPCKHPD r7, r6, Z31; \
	VSHUFF64X2 $0x88, Z26, Z24, r0; \
	VSHUFF64X2 $0x88, Z27, Z25, r1; \
	VSHUFF64X2 $0xdd, Z26, Z24, r2; \
	VSHUFF64X2 $0xdd, Z27, Z25, r3; \
	VSHUFF64X2 $0x88, Z30, Z28, r4; \
	VSHUFF64X2 $0x88, Z31, Z29, r5; \
	VSHUFF64X2 $0xdd, Z30, Z28, r6; \
	VSHUFF64X2 $0xdd, Z31, Z29, r7; \
	VSHUFF64X2 $0x88, r4, r0, Z24; \
	VSHUFF64X2 $0xdd, r4, r0, Z28; \
	VSHUFF64X2 $0x88, r5, r1, Z25; \
	VSHUFF64X2 $0xdd, r5, r1, Z29; \
	VSHUFF64X2 $0x88, r6, r2, Z26; \
	VSHUFF64X2 $0xdd, r6, r2, Z30; \
	VSHUFF64X2 $0x88, r7, r3, Z27; \
	VSHUFF64X2 $0xdd, r7, r3, Z31; \
	VMOVAPD Z24, r0; \
	VMOVAPD Z25, r1; \
	VMOVAPD Z26, r2; \
	VMOVAPD Z27, r3; \
	VMOVAPD Z28, r4; \
	VMOVAPD Z29, r5; \
	VMOVAPD Z30, r6; \
	VMOVAPD Z31, r7

// func trsmTileAVX512(x *float64, ldx int, r *float64, ldr int, inv *float64, j0, nc int)
//
// trsmTileAVX2 for eight rows, 1 ≤ nc ≤ 24. The tile X[:, j0:j0+nc]
// first takes every term from the solved columns t < j0, as
// tileNNAVX512 with V = X and B = R[:, j0:]. ZTRANSPOSE then leaves
// column 8q+l of the eight rows in Z(3l+q), and the diagonal block is
// solved column by column, each term one fma with R's entry as an
// embedded broadcast, continuing each chain over t = j0..j−1 and
// multiplying by inv[j]. Row t = 3g+i of the diagonal block of R is read
// at base g plus i·R13, the bases being SI, AX, R14, R12, DI, R8, R9
// and R10; R11 points at inv[j0]. The tile is transposed back and stored
// through row pointers rebuilt from the arguments.
TEXT ·trsmTileAVX512(SB), NOSPLIT, $0-56
	MOVQ nc+48(FP), BX
	TAILMASK
	MOVQ x+0(FP), DI
	MOVQ j0+40(FP), CX
	LEAQ (DI)(CX*8), DI
	MOVQ ldx+8(FP), R8
	ZROWS
	MOVQ x+0(FP), SI
	MOVQ ldx+8(FP), AX
	SHLQ $3, AX
	LEAQ (AX)(AX*2), R14
	LEAQ (SI)(AX*4), R12
	MOVQ ldr+24(FP), R13
	SHLQ $3, R13
	MOVQ j0+40(FP), CX
	MOVQ r+16(FP), DX
	LEAQ (DX)(CX*8), DX
	CMPQ BX, $1
	JEQ  tsz2
	JGT  tsz3
	ZLOADC1
	TESTQ CX, CX
	JZ    tszcols1

tsz1loop:
	ZSTEP1(VFNMADD231PD, (SI), (SI)(AX*1), (SI)(AX*2), (SI)(R14*1), (R12), (R12)(AX*1), (R12)(AX*2), (R12)(R14*1))
	ADDQ $8, SI
	ADDQ $8, R12
	ADDQ R13, DX
	DECQ CX
	JNZ  tsz1loop

tszcols1:
	ZTRANSPOSE(Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21)
	JMP  tszdiag

tsz2:
	ZLOADC2
	TESTQ CX, CX
	JZ    tszcols2

tsz2loop:
	ZSTEP2(VFNMADD231PD, (SI), (SI)(AX*1), (SI)(AX*2), (SI)(R14*1), (R12), (R12)(AX*1), (R12)(AX*2), (R12)(R14*1))
	ADDQ $8, SI
	ADDQ $8, R12
	ADDQ R13, DX
	DECQ CX
	JNZ  tsz2loop

tszcols2:
	ZTRANSPOSE(Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21)
	ZTRANSPOSE(Z1, Z4, Z7, Z10, Z13, Z16, Z19, Z22)
	JMP  tszdiag

tsz3:
	ZLOADC3
	TESTQ CX, CX
	JZ    tszcols3

tsz3loop:
	ZSTEP3(VFNMADD231PD, (SI), (SI)(AX*1), (SI)(AX*2), (SI)(R14*1), (R12), (R12)(AX*1), (R12)(AX*2), (R12)(R14*1))
	ADDQ $8, SI
	ADDQ $8, R12
	ADDQ R13, DX
	DECQ CX
	JNZ  tsz3loop

tszcols3:
	ZTRANSPOSE(Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21)
	ZTRANSPOSE(Z1, Z4, Z7, Z10, Z13, Z16, Z19, Z22)
	ZTRANSPOSE(Z2, Z5, Z8, Z11, Z14, Z17, Z20, Z23)

	// DX points at R[j0][j0].
tszdiag:
	MOVQ DX, SI
	LEAQ (R13)(R13*2), CX
	LEAQ (SI)(CX*1), AX
	LEAQ (AX)(CX*1), R14
	LEAQ (R14)(CX*1), R12
	LEAQ (R12)(CX*1), DI
	LEAQ (DI)(CX*1), R8
	LEAQ (R8)(CX*1), R9
	LEAQ (R9)(CX*1), R10
	MOVQ inv+32(FP), R11
	MOVQ j0+40(FP), CX
	LEAQ (R11)(CX*8), R11
	MOVQ nc+48(FP), BX
	// column 0
	VMULPD.BCST       0(R11), Z0, Z0
	CMPQ BX, $1
	JEQ  tszback
	// column 1
	VFNMADD231PD.BCST 8(SI), Z0, Z3
	VMULPD.BCST       8(R11), Z3, Z3
	CMPQ BX, $2
	JEQ  tszback
	// column 2
	VFNMADD231PD.BCST 16(SI), Z0, Z6
	VFNMADD231PD.BCST 16(SI)(R13*1), Z3, Z6
	VMULPD.BCST       16(R11), Z6, Z6
	CMPQ BX, $3
	JEQ  tszback
	// column 3
	VFNMADD231PD.BCST 24(SI), Z0, Z9
	VFNMADD231PD.BCST 24(SI)(R13*1), Z3, Z9
	VFNMADD231PD.BCST 24(SI)(R13*2), Z6, Z9
	VMULPD.BCST       24(R11), Z9, Z9
	CMPQ BX, $4
	JEQ  tszback
	// column 4
	VFNMADD231PD.BCST 32(SI), Z0, Z12
	VFNMADD231PD.BCST 32(SI)(R13*1), Z3, Z12
	VFNMADD231PD.BCST 32(SI)(R13*2), Z6, Z12
	VFNMADD231PD.BCST 32(AX), Z9, Z12
	VMULPD.BCST       32(R11), Z12, Z12
	CMPQ BX, $5
	JEQ  tszback
	// column 5
	VFNMADD231PD.BCST 40(SI), Z0, Z15
	VFNMADD231PD.BCST 40(SI)(R13*1), Z3, Z15
	VFNMADD231PD.BCST 40(SI)(R13*2), Z6, Z15
	VFNMADD231PD.BCST 40(AX), Z9, Z15
	VFNMADD231PD.BCST 40(AX)(R13*1), Z12, Z15
	VMULPD.BCST       40(R11), Z15, Z15
	CMPQ BX, $6
	JEQ  tszback
	// column 6
	VFNMADD231PD.BCST 48(SI), Z0, Z18
	VFNMADD231PD.BCST 48(SI)(R13*1), Z3, Z18
	VFNMADD231PD.BCST 48(SI)(R13*2), Z6, Z18
	VFNMADD231PD.BCST 48(AX), Z9, Z18
	VFNMADD231PD.BCST 48(AX)(R13*1), Z12, Z18
	VFNMADD231PD.BCST 48(AX)(R13*2), Z15, Z18
	VMULPD.BCST       48(R11), Z18, Z18
	CMPQ BX, $7
	JEQ  tszback
	// column 7
	VFNMADD231PD.BCST 56(SI), Z0, Z21
	VFNMADD231PD.BCST 56(SI)(R13*1), Z3, Z21
	VFNMADD231PD.BCST 56(SI)(R13*2), Z6, Z21
	VFNMADD231PD.BCST 56(AX), Z9, Z21
	VFNMADD231PD.BCST 56(AX)(R13*1), Z12, Z21
	VFNMADD231PD.BCST 56(AX)(R13*2), Z15, Z21
	VFNMADD231PD.BCST 56(R14), Z18, Z21
	VMULPD.BCST       56(R11), Z21, Z21
	CMPQ BX, $8
	JEQ  tszback
	// column 8
	VFNMADD231PD.BCST 64(SI), Z0, Z1
	VFNMADD231PD.BCST 64(SI)(R13*1), Z3, Z1
	VFNMADD231PD.BCST 64(SI)(R13*2), Z6, Z1
	VFNMADD231PD.BCST 64(AX), Z9, Z1
	VFNMADD231PD.BCST 64(AX)(R13*1), Z12, Z1
	VFNMADD231PD.BCST 64(AX)(R13*2), Z15, Z1
	VFNMADD231PD.BCST 64(R14), Z18, Z1
	VFNMADD231PD.BCST 64(R14)(R13*1), Z21, Z1
	VMULPD.BCST       64(R11), Z1, Z1
	CMPQ BX, $9
	JEQ  tszback
	// column 9
	VFNMADD231PD.BCST 72(SI), Z0, Z4
	VFNMADD231PD.BCST 72(SI)(R13*1), Z3, Z4
	VFNMADD231PD.BCST 72(SI)(R13*2), Z6, Z4
	VFNMADD231PD.BCST 72(AX), Z9, Z4
	VFNMADD231PD.BCST 72(AX)(R13*1), Z12, Z4
	VFNMADD231PD.BCST 72(AX)(R13*2), Z15, Z4
	VFNMADD231PD.BCST 72(R14), Z18, Z4
	VFNMADD231PD.BCST 72(R14)(R13*1), Z21, Z4
	VFNMADD231PD.BCST 72(R14)(R13*2), Z1, Z4
	VMULPD.BCST       72(R11), Z4, Z4
	CMPQ BX, $10
	JEQ  tszback
	// column 10
	VFNMADD231PD.BCST 80(SI), Z0, Z7
	VFNMADD231PD.BCST 80(SI)(R13*1), Z3, Z7
	VFNMADD231PD.BCST 80(SI)(R13*2), Z6, Z7
	VFNMADD231PD.BCST 80(AX), Z9, Z7
	VFNMADD231PD.BCST 80(AX)(R13*1), Z12, Z7
	VFNMADD231PD.BCST 80(AX)(R13*2), Z15, Z7
	VFNMADD231PD.BCST 80(R14), Z18, Z7
	VFNMADD231PD.BCST 80(R14)(R13*1), Z21, Z7
	VFNMADD231PD.BCST 80(R14)(R13*2), Z1, Z7
	VFNMADD231PD.BCST 80(R12), Z4, Z7
	VMULPD.BCST       80(R11), Z7, Z7
	CMPQ BX, $11
	JEQ  tszback
	// column 11
	VFNMADD231PD.BCST 88(SI), Z0, Z10
	VFNMADD231PD.BCST 88(SI)(R13*1), Z3, Z10
	VFNMADD231PD.BCST 88(SI)(R13*2), Z6, Z10
	VFNMADD231PD.BCST 88(AX), Z9, Z10
	VFNMADD231PD.BCST 88(AX)(R13*1), Z12, Z10
	VFNMADD231PD.BCST 88(AX)(R13*2), Z15, Z10
	VFNMADD231PD.BCST 88(R14), Z18, Z10
	VFNMADD231PD.BCST 88(R14)(R13*1), Z21, Z10
	VFNMADD231PD.BCST 88(R14)(R13*2), Z1, Z10
	VFNMADD231PD.BCST 88(R12), Z4, Z10
	VFNMADD231PD.BCST 88(R12)(R13*1), Z7, Z10
	VMULPD.BCST       88(R11), Z10, Z10
	CMPQ BX, $12
	JEQ  tszback
	// column 12
	VFNMADD231PD.BCST 96(SI), Z0, Z13
	VFNMADD231PD.BCST 96(SI)(R13*1), Z3, Z13
	VFNMADD231PD.BCST 96(SI)(R13*2), Z6, Z13
	VFNMADD231PD.BCST 96(AX), Z9, Z13
	VFNMADD231PD.BCST 96(AX)(R13*1), Z12, Z13
	VFNMADD231PD.BCST 96(AX)(R13*2), Z15, Z13
	VFNMADD231PD.BCST 96(R14), Z18, Z13
	VFNMADD231PD.BCST 96(R14)(R13*1), Z21, Z13
	VFNMADD231PD.BCST 96(R14)(R13*2), Z1, Z13
	VFNMADD231PD.BCST 96(R12), Z4, Z13
	VFNMADD231PD.BCST 96(R12)(R13*1), Z7, Z13
	VFNMADD231PD.BCST 96(R12)(R13*2), Z10, Z13
	VMULPD.BCST       96(R11), Z13, Z13
	CMPQ BX, $13
	JEQ  tszback
	// column 13
	VFNMADD231PD.BCST 104(SI), Z0, Z16
	VFNMADD231PD.BCST 104(SI)(R13*1), Z3, Z16
	VFNMADD231PD.BCST 104(SI)(R13*2), Z6, Z16
	VFNMADD231PD.BCST 104(AX), Z9, Z16
	VFNMADD231PD.BCST 104(AX)(R13*1), Z12, Z16
	VFNMADD231PD.BCST 104(AX)(R13*2), Z15, Z16
	VFNMADD231PD.BCST 104(R14), Z18, Z16
	VFNMADD231PD.BCST 104(R14)(R13*1), Z21, Z16
	VFNMADD231PD.BCST 104(R14)(R13*2), Z1, Z16
	VFNMADD231PD.BCST 104(R12), Z4, Z16
	VFNMADD231PD.BCST 104(R12)(R13*1), Z7, Z16
	VFNMADD231PD.BCST 104(R12)(R13*2), Z10, Z16
	VFNMADD231PD.BCST 104(DI), Z13, Z16
	VMULPD.BCST       104(R11), Z16, Z16
	CMPQ BX, $14
	JEQ  tszback
	// column 14
	VFNMADD231PD.BCST 112(SI), Z0, Z19
	VFNMADD231PD.BCST 112(SI)(R13*1), Z3, Z19
	VFNMADD231PD.BCST 112(SI)(R13*2), Z6, Z19
	VFNMADD231PD.BCST 112(AX), Z9, Z19
	VFNMADD231PD.BCST 112(AX)(R13*1), Z12, Z19
	VFNMADD231PD.BCST 112(AX)(R13*2), Z15, Z19
	VFNMADD231PD.BCST 112(R14), Z18, Z19
	VFNMADD231PD.BCST 112(R14)(R13*1), Z21, Z19
	VFNMADD231PD.BCST 112(R14)(R13*2), Z1, Z19
	VFNMADD231PD.BCST 112(R12), Z4, Z19
	VFNMADD231PD.BCST 112(R12)(R13*1), Z7, Z19
	VFNMADD231PD.BCST 112(R12)(R13*2), Z10, Z19
	VFNMADD231PD.BCST 112(DI), Z13, Z19
	VFNMADD231PD.BCST 112(DI)(R13*1), Z16, Z19
	VMULPD.BCST       112(R11), Z19, Z19
	CMPQ BX, $15
	JEQ  tszback
	// column 15
	VFNMADD231PD.BCST 120(SI), Z0, Z22
	VFNMADD231PD.BCST 120(SI)(R13*1), Z3, Z22
	VFNMADD231PD.BCST 120(SI)(R13*2), Z6, Z22
	VFNMADD231PD.BCST 120(AX), Z9, Z22
	VFNMADD231PD.BCST 120(AX)(R13*1), Z12, Z22
	VFNMADD231PD.BCST 120(AX)(R13*2), Z15, Z22
	VFNMADD231PD.BCST 120(R14), Z18, Z22
	VFNMADD231PD.BCST 120(R14)(R13*1), Z21, Z22
	VFNMADD231PD.BCST 120(R14)(R13*2), Z1, Z22
	VFNMADD231PD.BCST 120(R12), Z4, Z22
	VFNMADD231PD.BCST 120(R12)(R13*1), Z7, Z22
	VFNMADD231PD.BCST 120(R12)(R13*2), Z10, Z22
	VFNMADD231PD.BCST 120(DI), Z13, Z22
	VFNMADD231PD.BCST 120(DI)(R13*1), Z16, Z22
	VFNMADD231PD.BCST 120(DI)(R13*2), Z19, Z22
	VMULPD.BCST       120(R11), Z22, Z22
	CMPQ BX, $16
	JEQ  tszback
	// column 16
	VFNMADD231PD.BCST 128(SI), Z0, Z2
	VFNMADD231PD.BCST 128(SI)(R13*1), Z3, Z2
	VFNMADD231PD.BCST 128(SI)(R13*2), Z6, Z2
	VFNMADD231PD.BCST 128(AX), Z9, Z2
	VFNMADD231PD.BCST 128(AX)(R13*1), Z12, Z2
	VFNMADD231PD.BCST 128(AX)(R13*2), Z15, Z2
	VFNMADD231PD.BCST 128(R14), Z18, Z2
	VFNMADD231PD.BCST 128(R14)(R13*1), Z21, Z2
	VFNMADD231PD.BCST 128(R14)(R13*2), Z1, Z2
	VFNMADD231PD.BCST 128(R12), Z4, Z2
	VFNMADD231PD.BCST 128(R12)(R13*1), Z7, Z2
	VFNMADD231PD.BCST 128(R12)(R13*2), Z10, Z2
	VFNMADD231PD.BCST 128(DI), Z13, Z2
	VFNMADD231PD.BCST 128(DI)(R13*1), Z16, Z2
	VFNMADD231PD.BCST 128(DI)(R13*2), Z19, Z2
	VFNMADD231PD.BCST 128(R8), Z22, Z2
	VMULPD.BCST       128(R11), Z2, Z2
	CMPQ BX, $17
	JEQ  tszback
	// column 17
	VFNMADD231PD.BCST 136(SI), Z0, Z5
	VFNMADD231PD.BCST 136(SI)(R13*1), Z3, Z5
	VFNMADD231PD.BCST 136(SI)(R13*2), Z6, Z5
	VFNMADD231PD.BCST 136(AX), Z9, Z5
	VFNMADD231PD.BCST 136(AX)(R13*1), Z12, Z5
	VFNMADD231PD.BCST 136(AX)(R13*2), Z15, Z5
	VFNMADD231PD.BCST 136(R14), Z18, Z5
	VFNMADD231PD.BCST 136(R14)(R13*1), Z21, Z5
	VFNMADD231PD.BCST 136(R14)(R13*2), Z1, Z5
	VFNMADD231PD.BCST 136(R12), Z4, Z5
	VFNMADD231PD.BCST 136(R12)(R13*1), Z7, Z5
	VFNMADD231PD.BCST 136(R12)(R13*2), Z10, Z5
	VFNMADD231PD.BCST 136(DI), Z13, Z5
	VFNMADD231PD.BCST 136(DI)(R13*1), Z16, Z5
	VFNMADD231PD.BCST 136(DI)(R13*2), Z19, Z5
	VFNMADD231PD.BCST 136(R8), Z22, Z5
	VFNMADD231PD.BCST 136(R8)(R13*1), Z2, Z5
	VMULPD.BCST       136(R11), Z5, Z5
	CMPQ BX, $18
	JEQ  tszback
	// column 18
	VFNMADD231PD.BCST 144(SI), Z0, Z8
	VFNMADD231PD.BCST 144(SI)(R13*1), Z3, Z8
	VFNMADD231PD.BCST 144(SI)(R13*2), Z6, Z8
	VFNMADD231PD.BCST 144(AX), Z9, Z8
	VFNMADD231PD.BCST 144(AX)(R13*1), Z12, Z8
	VFNMADD231PD.BCST 144(AX)(R13*2), Z15, Z8
	VFNMADD231PD.BCST 144(R14), Z18, Z8
	VFNMADD231PD.BCST 144(R14)(R13*1), Z21, Z8
	VFNMADD231PD.BCST 144(R14)(R13*2), Z1, Z8
	VFNMADD231PD.BCST 144(R12), Z4, Z8
	VFNMADD231PD.BCST 144(R12)(R13*1), Z7, Z8
	VFNMADD231PD.BCST 144(R12)(R13*2), Z10, Z8
	VFNMADD231PD.BCST 144(DI), Z13, Z8
	VFNMADD231PD.BCST 144(DI)(R13*1), Z16, Z8
	VFNMADD231PD.BCST 144(DI)(R13*2), Z19, Z8
	VFNMADD231PD.BCST 144(R8), Z22, Z8
	VFNMADD231PD.BCST 144(R8)(R13*1), Z2, Z8
	VFNMADD231PD.BCST 144(R8)(R13*2), Z5, Z8
	VMULPD.BCST       144(R11), Z8, Z8
	CMPQ BX, $19
	JEQ  tszback
	// column 19
	VFNMADD231PD.BCST 152(SI), Z0, Z11
	VFNMADD231PD.BCST 152(SI)(R13*1), Z3, Z11
	VFNMADD231PD.BCST 152(SI)(R13*2), Z6, Z11
	VFNMADD231PD.BCST 152(AX), Z9, Z11
	VFNMADD231PD.BCST 152(AX)(R13*1), Z12, Z11
	VFNMADD231PD.BCST 152(AX)(R13*2), Z15, Z11
	VFNMADD231PD.BCST 152(R14), Z18, Z11
	VFNMADD231PD.BCST 152(R14)(R13*1), Z21, Z11
	VFNMADD231PD.BCST 152(R14)(R13*2), Z1, Z11
	VFNMADD231PD.BCST 152(R12), Z4, Z11
	VFNMADD231PD.BCST 152(R12)(R13*1), Z7, Z11
	VFNMADD231PD.BCST 152(R12)(R13*2), Z10, Z11
	VFNMADD231PD.BCST 152(DI), Z13, Z11
	VFNMADD231PD.BCST 152(DI)(R13*1), Z16, Z11
	VFNMADD231PD.BCST 152(DI)(R13*2), Z19, Z11
	VFNMADD231PD.BCST 152(R8), Z22, Z11
	VFNMADD231PD.BCST 152(R8)(R13*1), Z2, Z11
	VFNMADD231PD.BCST 152(R8)(R13*2), Z5, Z11
	VFNMADD231PD.BCST 152(R9), Z8, Z11
	VMULPD.BCST       152(R11), Z11, Z11
	CMPQ BX, $20
	JEQ  tszback
	// column 20
	VFNMADD231PD.BCST 160(SI), Z0, Z14
	VFNMADD231PD.BCST 160(SI)(R13*1), Z3, Z14
	VFNMADD231PD.BCST 160(SI)(R13*2), Z6, Z14
	VFNMADD231PD.BCST 160(AX), Z9, Z14
	VFNMADD231PD.BCST 160(AX)(R13*1), Z12, Z14
	VFNMADD231PD.BCST 160(AX)(R13*2), Z15, Z14
	VFNMADD231PD.BCST 160(R14), Z18, Z14
	VFNMADD231PD.BCST 160(R14)(R13*1), Z21, Z14
	VFNMADD231PD.BCST 160(R14)(R13*2), Z1, Z14
	VFNMADD231PD.BCST 160(R12), Z4, Z14
	VFNMADD231PD.BCST 160(R12)(R13*1), Z7, Z14
	VFNMADD231PD.BCST 160(R12)(R13*2), Z10, Z14
	VFNMADD231PD.BCST 160(DI), Z13, Z14
	VFNMADD231PD.BCST 160(DI)(R13*1), Z16, Z14
	VFNMADD231PD.BCST 160(DI)(R13*2), Z19, Z14
	VFNMADD231PD.BCST 160(R8), Z22, Z14
	VFNMADD231PD.BCST 160(R8)(R13*1), Z2, Z14
	VFNMADD231PD.BCST 160(R8)(R13*2), Z5, Z14
	VFNMADD231PD.BCST 160(R9), Z8, Z14
	VFNMADD231PD.BCST 160(R9)(R13*1), Z11, Z14
	VMULPD.BCST       160(R11), Z14, Z14
	CMPQ BX, $21
	JEQ  tszback
	// column 21
	VFNMADD231PD.BCST 168(SI), Z0, Z17
	VFNMADD231PD.BCST 168(SI)(R13*1), Z3, Z17
	VFNMADD231PD.BCST 168(SI)(R13*2), Z6, Z17
	VFNMADD231PD.BCST 168(AX), Z9, Z17
	VFNMADD231PD.BCST 168(AX)(R13*1), Z12, Z17
	VFNMADD231PD.BCST 168(AX)(R13*2), Z15, Z17
	VFNMADD231PD.BCST 168(R14), Z18, Z17
	VFNMADD231PD.BCST 168(R14)(R13*1), Z21, Z17
	VFNMADD231PD.BCST 168(R14)(R13*2), Z1, Z17
	VFNMADD231PD.BCST 168(R12), Z4, Z17
	VFNMADD231PD.BCST 168(R12)(R13*1), Z7, Z17
	VFNMADD231PD.BCST 168(R12)(R13*2), Z10, Z17
	VFNMADD231PD.BCST 168(DI), Z13, Z17
	VFNMADD231PD.BCST 168(DI)(R13*1), Z16, Z17
	VFNMADD231PD.BCST 168(DI)(R13*2), Z19, Z17
	VFNMADD231PD.BCST 168(R8), Z22, Z17
	VFNMADD231PD.BCST 168(R8)(R13*1), Z2, Z17
	VFNMADD231PD.BCST 168(R8)(R13*2), Z5, Z17
	VFNMADD231PD.BCST 168(R9), Z8, Z17
	VFNMADD231PD.BCST 168(R9)(R13*1), Z11, Z17
	VFNMADD231PD.BCST 168(R9)(R13*2), Z14, Z17
	VMULPD.BCST       168(R11), Z17, Z17
	CMPQ BX, $22
	JEQ  tszback
	// column 22
	VFNMADD231PD.BCST 176(SI), Z0, Z20
	VFNMADD231PD.BCST 176(SI)(R13*1), Z3, Z20
	VFNMADD231PD.BCST 176(SI)(R13*2), Z6, Z20
	VFNMADD231PD.BCST 176(AX), Z9, Z20
	VFNMADD231PD.BCST 176(AX)(R13*1), Z12, Z20
	VFNMADD231PD.BCST 176(AX)(R13*2), Z15, Z20
	VFNMADD231PD.BCST 176(R14), Z18, Z20
	VFNMADD231PD.BCST 176(R14)(R13*1), Z21, Z20
	VFNMADD231PD.BCST 176(R14)(R13*2), Z1, Z20
	VFNMADD231PD.BCST 176(R12), Z4, Z20
	VFNMADD231PD.BCST 176(R12)(R13*1), Z7, Z20
	VFNMADD231PD.BCST 176(R12)(R13*2), Z10, Z20
	VFNMADD231PD.BCST 176(DI), Z13, Z20
	VFNMADD231PD.BCST 176(DI)(R13*1), Z16, Z20
	VFNMADD231PD.BCST 176(DI)(R13*2), Z19, Z20
	VFNMADD231PD.BCST 176(R8), Z22, Z20
	VFNMADD231PD.BCST 176(R8)(R13*1), Z2, Z20
	VFNMADD231PD.BCST 176(R8)(R13*2), Z5, Z20
	VFNMADD231PD.BCST 176(R9), Z8, Z20
	VFNMADD231PD.BCST 176(R9)(R13*1), Z11, Z20
	VFNMADD231PD.BCST 176(R9)(R13*2), Z14, Z20
	VFNMADD231PD.BCST 176(R10), Z17, Z20
	VMULPD.BCST       176(R11), Z20, Z20
	CMPQ BX, $23
	JEQ  tszback
	// column 23
	VFNMADD231PD.BCST 184(SI), Z0, Z23
	VFNMADD231PD.BCST 184(SI)(R13*1), Z3, Z23
	VFNMADD231PD.BCST 184(SI)(R13*2), Z6, Z23
	VFNMADD231PD.BCST 184(AX), Z9, Z23
	VFNMADD231PD.BCST 184(AX)(R13*1), Z12, Z23
	VFNMADD231PD.BCST 184(AX)(R13*2), Z15, Z23
	VFNMADD231PD.BCST 184(R14), Z18, Z23
	VFNMADD231PD.BCST 184(R14)(R13*1), Z21, Z23
	VFNMADD231PD.BCST 184(R14)(R13*2), Z1, Z23
	VFNMADD231PD.BCST 184(R12), Z4, Z23
	VFNMADD231PD.BCST 184(R12)(R13*1), Z7, Z23
	VFNMADD231PD.BCST 184(R12)(R13*2), Z10, Z23
	VFNMADD231PD.BCST 184(DI), Z13, Z23
	VFNMADD231PD.BCST 184(DI)(R13*1), Z16, Z23
	VFNMADD231PD.BCST 184(DI)(R13*2), Z19, Z23
	VFNMADD231PD.BCST 184(R8), Z22, Z23
	VFNMADD231PD.BCST 184(R8)(R13*1), Z2, Z23
	VFNMADD231PD.BCST 184(R8)(R13*2), Z5, Z23
	VFNMADD231PD.BCST 184(R9), Z8, Z23
	VFNMADD231PD.BCST 184(R9)(R13*1), Z11, Z23
	VFNMADD231PD.BCST 184(R9)(R13*2), Z14, Z23
	VFNMADD231PD.BCST 184(R10), Z17, Z23
	VFNMADD231PD.BCST 184(R10)(R13*1), Z20, Z23
	VMULPD.BCST       184(R11), Z23, Z23

tszback:
	MOVQ x+0(FP), DI
	MOVQ j0+40(FP), CX
	LEAQ (DI)(CX*8), DI
	MOVQ ldx+8(FP), R8
	ZROWS
	CMPQ BX, $8
	JLE  tszstore1
	CMPQ BX, $16
	JLE  tszstore2
	ZTRANSPOSE(Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21)
	ZTRANSPOSE(Z1, Z4, Z7, Z10, Z13, Z16, Z19, Z22)
	ZTRANSPOSE(Z2, Z5, Z8, Z11, Z14, Z17, Z20, Z23)
	ZSTOREC3
	VZEROUPPER
	RET

tszstore2:
	ZTRANSPOSE(Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21)
	ZTRANSPOSE(Z1, Z4, Z7, Z10, Z13, Z16, Z19, Z22)
	ZSTOREC2
	VZEROUPPER
	RET

tszstore1:
	ZTRANSPOSE(Z0, Z3, Z6, Z9, Z12, Z15, Z18, Z21)
	ZSTOREC1
	VZEROUPPER
	RET

// func gatherRowsAVX512(dst *float64, ldd int, src *float64, lds int, idx *int, w, rows int)
//
// Sets dst[i·ldd + v] = src[i·lds + idx[v]] for rows i < rows and
// columns v < w, 1 ≤ w ≤ 64: the column gather of gatherColsGo, eight
// lanes a VGATHERQPD. The w columns split into nf = ⌈w/8⌉−1 full
// vectors, whose indices Z16–Z22 and data Z0–Z6 hold, and a last vector
// at byte offset R11 = 64·nf under the mask K1, index Z23 and data Z7;
// its index load is zero-masked and its store merge-masked, so nothing
// past idx or the row's w columns is touched. The indices are loaded
// once a call. Each row is gathered whole into Z0–Z7 before any of it
// is stored, so dst may be src (in place). A gather clears its mask as
// it goes, so each one takes a copy in K2 (of K1, or of the full mask
// K3), and its destination is zeroed first so it does not wait on the
// previous row's gather into the same register. Registers: DI and SI
// the dst and src rows, R8 and R9 their strides in bytes, BX nf, CX the
// rows left.
#define GATHERFULL(idx, z) \
	KMOVW      K3, K2; \
	VPXORQ     z, z, z; \
	VGATHERQPD (SI)(idx*8), K2, z

TEXT ·gatherRowsAVX512(SB), NOSPLIT, $0-56
	MOVQ      w+40(FP), BX
	TAILMASK
	MOVQ      dst+0(FP), DI
	MOVQ      ldd+8(FP), R8
	SHLQ      $3, R8
	MOVQ      src+16(FP), SI
	MOVQ      lds+24(FP), R9
	SHLQ      $3, R9
	MOVQ      idx+32(FP), DX
	MOVQ      rows+48(FP), CX
	MOVQ      BX, R11
	SHLQ      $6, R11
	MOVL      $0xff, AX
	KMOVW     AX, K3
	VMOVDQU64.Z (DX)(R11*1), K1, Z23
	CMPQ      BX, $1
	JLT       gatherrow
	VMOVDQU64 (DX), Z16
	CMPQ      BX, $2
	JLT       gatherrow
	VMOVDQU64 64(DX), Z17
	CMPQ      BX, $3
	JLT       gatherrow
	VMOVDQU64 128(DX), Z18
	CMPQ      BX, $4
	JLT       gatherrow
	VMOVDQU64 192(DX), Z19
	CMPQ      BX, $5
	JLT       gatherrow
	VMOVDQU64 256(DX), Z20
	CMPQ      BX, $6
	JLT       gatherrow
	VMOVDQU64 320(DX), Z21
	CMPQ      BX, $7
	JLT       gatherrow
	VMOVDQU64 384(DX), Z22

gatherrow:
	KMOVW      K1, K2
	VPXORQ     Z7, Z7, Z7
	VGATHERQPD (SI)(Z23*8), K2, Z7
	CMPQ       BX, $1
	JLT        gatherstore
	GATHERFULL(Z16, Z0)
	CMPQ       BX, $2
	JLT        gatherstore
	GATHERFULL(Z17, Z1)
	CMPQ       BX, $3
	JLT        gatherstore
	GATHERFULL(Z18, Z2)
	CMPQ       BX, $4
	JLT        gatherstore
	GATHERFULL(Z19, Z3)
	CMPQ       BX, $5
	JLT        gatherstore
	GATHERFULL(Z20, Z4)
	CMPQ       BX, $6
	JLT        gatherstore
	GATHERFULL(Z21, Z5)
	CMPQ       BX, $7
	JLT        gatherstore
	GATHERFULL(Z22, Z6)

gatherstore:
	VMOVUPD Z7, K1, (DI)(R11*1)
	CMPQ    BX, $1
	JLT     gathernext
	VMOVUPD Z0, (DI)
	CMPQ    BX, $2
	JLT     gathernext
	VMOVUPD Z1, 64(DI)
	CMPQ    BX, $3
	JLT     gathernext
	VMOVUPD Z2, 128(DI)
	CMPQ    BX, $4
	JLT     gathernext
	VMOVUPD Z3, 192(DI)
	CMPQ    BX, $5
	JLT     gathernext
	VMOVUPD Z4, 256(DI)
	CMPQ    BX, $6
	JLT     gathernext
	VMOVUPD Z5, 320(DI)
	CMPQ    BX, $7
	JLT     gathernext
	VMOVUPD Z6, 384(DI)

gathernext:
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ CX
	JNZ  gatherrow
	VZEROUPPER
	RET

// func signRowsAVX512(c *float64, ldc int, b *float64, ldb, n int, rows, neg *uint64, w *[2]float64, count int)
//
// signRowsAVX2 on zmm, with the loops the other way round: the columns
// go 64 at a time, and each chunk of nv = 1 to 8 vectors runs over all
// output rows, so the chunk's shape is set up once a call for n ≤ 64.
// The last vector of a chunk is under the mask K1 (its loads
// zero-masked, with their faults suppressed, its store merge-masked, so
// nothing past the row is touched). One row's chain of fmas waits on
// the fma latency when it holds few vectors, so for nv ≤ 4 the output
// rows go in pairs, t in Z0–Z3 and t+1 in Z4–Z7, their bits taken in
// turn while both have some, then the rest of either; each element's
// chain is unchanged. Z8 and Z9 hold the weights. Registers as in
// signRowsAVX2, with R13 the chunk of row t of C, DX the chunk of B, R10
// and R11 starting over from the arguments each chunk, and for a pair
// SI and DI rows[t+1] and neg[t+1] themselves.
#define ZSIGNLOAD(off, z) VMOVUPD off(R13), z
#define ZSIGNLOADM(off, z) VMOVUPD.Z off(R13), K1, z
#define ZSIGNSTORE(off, z) VMOVUPD z, off(R13)
#define ZSIGNSTOREM(off, z) VMOVUPD z, K1, off(R13)
#define ZSIGNFMA(off, z) VFMADD231PD off(DX)(CX*1), Z8, z
#define ZSIGNFMAM(off, z) VFMADD231PD.Z off(DX)(CX*1), Z8, K1, z
#define ZSIGNLOAD2(off, z) VMOVUPD off(R13)(R8*1), z
#define ZSIGNLOADM2(off, z) VMOVUPD.Z off(R13)(R8*1), K1, z
#define ZSIGNSTORE2(off, z) VMOVUPD z, off(R13)(R8*1)
#define ZSIGNSTOREM2(off, z) VMOVUPD z, K1, off(R13)(R8*1)
#define ZSIGNFMA2(off, z) VFMADD231PD off(DX)(CX*1), Z9, z
#define ZSIGNFMAM2(off, z) VFMADD231PD.Z off(DX)(CX*1), Z9, K1, z

TEXT ·signRowsAVX512(SB), NOSPLIT, $0-72
	MOVQ ldc+8(FP), R8
	SHLQ $3, R8
	MOVQ ldb+24(FP), R9
	SHLQ $3, R9
	MOVQ w+56(FP), R12
	MOVQ rows+40(FP), R10
	MOVQ count+64(FP), R13
	LEAQ (R10)(R13*8), R13
	MOVQ R13, count+64(FP)
	MOVQ c+0(FP), R13
	MOVQ b+16(FP), DX

zsignchunk:
	// R13 and DX at the chunk's column in row 0 of C and of B; R10 and
	// R11 at the first masks. CX = the columns left; a full chunk of 64
	// takes eight vectors.
	MOVQ  rows+40(FP), R10
	MOVQ  neg+48(FP), R11
	MOVQ  n+32(FP), CX
	SHLQ  $3, CX
	ADDQ  b+16(FP), CX
	SUBQ  DX, CX
	SHRQ  $3, CX
	CMPQ  CX, $64
	JLT   zsignpart
	MOVL  $0xff, BX
	KMOVW BX, K1
	JMP   zsign8

zsignpart:
	// K1 = the lanes of the last of nv = ⌈CX/8⌉ vectors, R14 = nv−1.
	DECQ  CX
	MOVQ  CX, R14
	ANDQ  $7, CX
	MOVL  $2, BX
	SHLL  CX, BX
	DECL  BX
	KMOVW BX, K1
	SHRQ  $3, R14
	CMPQ  R14, $1
	JLT   zpair1
	JEQ   zpair2
	CMPQ  R14, $3
	JLT   zpair3
	JEQ   zpair4
	CMPQ  R14, $5
	JLT   zsign5
	JEQ   zsign6
	CMPQ  R14, $7
	JLT   zsign7
	JMP   zsign8

zpair1:
	// A pair needs rows t and t+1; a last single row goes on its own.
	LEAQ 8(R10), CX
	CMPQ CX, count+64(FP)
	JGE  zsign1
	MOVQ (R10), BX
	MOVQ 8(R10), SI
	MOVQ (R11), AX
	MOVQ 8(R11), DI
	ZSIGNLOADM(0, Z0)
	ZSIGNLOADM2(0, Z4)
	TESTQ BX, BX
	JZ    zpair1b
	TESTQ SI, SI
	JZ    zpair1a

zpair1ab:
	SIGNENTRYOF(BX, AX, Z8)
	ZSIGNFMAM(0, Z0)
	SIGNENTRYOF(SI, DI, Z9)
	ZSIGNFMAM2(0, Z4)
	TESTQ BX, BX
	JZ    zpair1b
	TESTQ SI, SI
	JNZ   zpair1ab

zpair1a:
	SIGNENTRYOF(BX, AX, Z8)
	ZSIGNFMAM(0, Z0)
	TESTQ BX, BX
	JNZ   zpair1a
	JMP   zpair1store

zpair1b:
	TESTQ SI, SI
	JZ    zpair1store

zpair1bk:
	SIGNENTRYOF(SI, DI, Z9)
	ZSIGNFMAM2(0, Z4)
	TESTQ SI, SI
	JNZ   zpair1bk

zpair1store:
	ZSIGNSTOREM(0, Z0)
	ZSIGNSTOREM2(0, Z4)
	LEAQ (R13)(R8*2), R13
	ADDQ $16, R10
	ADDQ $16, R11
	CMPQ R10, count+64(FP)
	JLT  zpair1
	JMP  zsignchunkdone

zpair2:
	// A pair needs rows t and t+1; a last single row goes on its own.
	LEAQ 8(R10), CX
	CMPQ CX, count+64(FP)
	JGE  zsign2
	MOVQ (R10), BX
	MOVQ 8(R10), SI
	MOVQ (R11), AX
	MOVQ 8(R11), DI
	ZSIGNLOAD(0, Z0)
	ZSIGNLOAD2(0, Z4)
	ZSIGNLOADM(64, Z1)
	ZSIGNLOADM2(64, Z5)
	TESTQ BX, BX
	JZ    zpair2b
	TESTQ SI, SI
	JZ    zpair2a

zpair2ab:
	SIGNENTRYOF(BX, AX, Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMAM(64, Z1)
	SIGNENTRYOF(SI, DI, Z9)
	ZSIGNFMA2(0, Z4)
	ZSIGNFMAM2(64, Z5)
	TESTQ BX, BX
	JZ    zpair2b
	TESTQ SI, SI
	JNZ   zpair2ab

zpair2a:
	SIGNENTRYOF(BX, AX, Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMAM(64, Z1)
	TESTQ BX, BX
	JNZ   zpair2a
	JMP   zpair2store

zpair2b:
	TESTQ SI, SI
	JZ    zpair2store

zpair2bk:
	SIGNENTRYOF(SI, DI, Z9)
	ZSIGNFMA2(0, Z4)
	ZSIGNFMAM2(64, Z5)
	TESTQ SI, SI
	JNZ   zpair2bk

zpair2store:
	ZSIGNSTORE(0, Z0)
	ZSIGNSTORE2(0, Z4)
	ZSIGNSTOREM(64, Z1)
	ZSIGNSTOREM2(64, Z5)
	LEAQ (R13)(R8*2), R13
	ADDQ $16, R10
	ADDQ $16, R11
	CMPQ R10, count+64(FP)
	JLT  zpair2
	JMP  zsignchunkdone

zpair3:
	// A pair needs rows t and t+1; a last single row goes on its own.
	LEAQ 8(R10), CX
	CMPQ CX, count+64(FP)
	JGE  zsign3
	MOVQ (R10), BX
	MOVQ 8(R10), SI
	MOVQ (R11), AX
	MOVQ 8(R11), DI
	ZSIGNLOAD(0, Z0)
	ZSIGNLOAD2(0, Z4)
	ZSIGNLOAD(64, Z1)
	ZSIGNLOAD2(64, Z5)
	ZSIGNLOADM(128, Z2)
	ZSIGNLOADM2(128, Z6)
	TESTQ BX, BX
	JZ    zpair3b
	TESTQ SI, SI
	JZ    zpair3a

zpair3ab:
	SIGNENTRYOF(BX, AX, Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMA(64, Z1)
	ZSIGNFMAM(128, Z2)
	SIGNENTRYOF(SI, DI, Z9)
	ZSIGNFMA2(0, Z4)
	ZSIGNFMA2(64, Z5)
	ZSIGNFMAM2(128, Z6)
	TESTQ BX, BX
	JZ    zpair3b
	TESTQ SI, SI
	JNZ   zpair3ab

zpair3a:
	SIGNENTRYOF(BX, AX, Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMA(64, Z1)
	ZSIGNFMAM(128, Z2)
	TESTQ BX, BX
	JNZ   zpair3a
	JMP   zpair3store

zpair3b:
	TESTQ SI, SI
	JZ    zpair3store

zpair3bk:
	SIGNENTRYOF(SI, DI, Z9)
	ZSIGNFMA2(0, Z4)
	ZSIGNFMA2(64, Z5)
	ZSIGNFMAM2(128, Z6)
	TESTQ SI, SI
	JNZ   zpair3bk

zpair3store:
	ZSIGNSTORE(0, Z0)
	ZSIGNSTORE2(0, Z4)
	ZSIGNSTORE(64, Z1)
	ZSIGNSTORE2(64, Z5)
	ZSIGNSTOREM(128, Z2)
	ZSIGNSTOREM2(128, Z6)
	LEAQ (R13)(R8*2), R13
	ADDQ $16, R10
	ADDQ $16, R11
	CMPQ R10, count+64(FP)
	JLT  zpair3
	JMP  zsignchunkdone

zpair4:
	// A pair needs rows t and t+1; a last single row goes on its own.
	LEAQ 8(R10), CX
	CMPQ CX, count+64(FP)
	JGE  zsign4
	MOVQ (R10), BX
	MOVQ 8(R10), SI
	MOVQ (R11), AX
	MOVQ 8(R11), DI
	ZSIGNLOAD(0, Z0)
	ZSIGNLOAD2(0, Z4)
	ZSIGNLOAD(64, Z1)
	ZSIGNLOAD2(64, Z5)
	ZSIGNLOAD(128, Z2)
	ZSIGNLOAD2(128, Z6)
	ZSIGNLOADM(192, Z3)
	ZSIGNLOADM2(192, Z7)
	TESTQ BX, BX
	JZ    zpair4b
	TESTQ SI, SI
	JZ    zpair4a

zpair4ab:
	SIGNENTRYOF(BX, AX, Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMA(64, Z1)
	ZSIGNFMA(128, Z2)
	ZSIGNFMAM(192, Z3)
	SIGNENTRYOF(SI, DI, Z9)
	ZSIGNFMA2(0, Z4)
	ZSIGNFMA2(64, Z5)
	ZSIGNFMA2(128, Z6)
	ZSIGNFMAM2(192, Z7)
	TESTQ BX, BX
	JZ    zpair4b
	TESTQ SI, SI
	JNZ   zpair4ab

zpair4a:
	SIGNENTRYOF(BX, AX, Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMA(64, Z1)
	ZSIGNFMA(128, Z2)
	ZSIGNFMAM(192, Z3)
	TESTQ BX, BX
	JNZ   zpair4a
	JMP   zpair4store

zpair4b:
	TESTQ SI, SI
	JZ    zpair4store

zpair4bk:
	SIGNENTRYOF(SI, DI, Z9)
	ZSIGNFMA2(0, Z4)
	ZSIGNFMA2(64, Z5)
	ZSIGNFMA2(128, Z6)
	ZSIGNFMAM2(192, Z7)
	TESTQ SI, SI
	JNZ   zpair4bk

zpair4store:
	ZSIGNSTORE(0, Z0)
	ZSIGNSTORE2(0, Z4)
	ZSIGNSTORE(64, Z1)
	ZSIGNSTORE2(64, Z5)
	ZSIGNSTORE(128, Z2)
	ZSIGNSTORE2(128, Z6)
	ZSIGNSTOREM(192, Z3)
	ZSIGNSTOREM2(192, Z7)
	LEAQ (R13)(R8*2), R13
	ADDQ $16, R10
	ADDQ $16, R11
	CMPQ R10, count+64(FP)
	JLT  zpair4
	JMP  zsignchunkdone

zsign1:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    zsign1next
	MOVQ  (R11), AX
	ZSIGNLOADM(0, Z0)

zsign1k:
	SIGNENTRY(Z8)
	ZSIGNFMAM(0, Z0)
	TESTQ BX, BX
	JNZ   zsign1k
	ZSIGNSTOREM(0, Z0)

zsign1next:
	ADDQ R8, R13
	ADDQ $8, R10
	ADDQ $8, R11
	CMPQ R10, count+64(FP)
	JLT  zsign1
	JMP  zsignchunkdone

zsign2:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    zsign2next
	MOVQ  (R11), AX
	ZSIGNLOAD(0, Z0)
	ZSIGNLOADM(64, Z1)

zsign2k:
	SIGNENTRY(Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMAM(64, Z1)
	TESTQ BX, BX
	JNZ   zsign2k
	ZSIGNSTORE(0, Z0)
	ZSIGNSTOREM(64, Z1)

zsign2next:
	ADDQ R8, R13
	ADDQ $8, R10
	ADDQ $8, R11
	CMPQ R10, count+64(FP)
	JLT  zsign2
	JMP  zsignchunkdone

zsign3:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    zsign3next
	MOVQ  (R11), AX
	ZSIGNLOAD(0, Z0)
	ZSIGNLOAD(64, Z1)
	ZSIGNLOADM(128, Z2)

zsign3k:
	SIGNENTRY(Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMA(64, Z1)
	ZSIGNFMAM(128, Z2)
	TESTQ BX, BX
	JNZ   zsign3k
	ZSIGNSTORE(0, Z0)
	ZSIGNSTORE(64, Z1)
	ZSIGNSTOREM(128, Z2)

zsign3next:
	ADDQ R8, R13
	ADDQ $8, R10
	ADDQ $8, R11
	CMPQ R10, count+64(FP)
	JLT  zsign3
	JMP  zsignchunkdone

zsign4:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    zsign4next
	MOVQ  (R11), AX
	ZSIGNLOAD(0, Z0)
	ZSIGNLOAD(64, Z1)
	ZSIGNLOAD(128, Z2)
	ZSIGNLOADM(192, Z3)

zsign4k:
	SIGNENTRY(Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMA(64, Z1)
	ZSIGNFMA(128, Z2)
	ZSIGNFMAM(192, Z3)
	TESTQ BX, BX
	JNZ   zsign4k
	ZSIGNSTORE(0, Z0)
	ZSIGNSTORE(64, Z1)
	ZSIGNSTORE(128, Z2)
	ZSIGNSTOREM(192, Z3)

zsign4next:
	ADDQ R8, R13
	ADDQ $8, R10
	ADDQ $8, R11
	CMPQ R10, count+64(FP)
	JLT  zsign4
	JMP  zsignchunkdone

zsign5:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    zsign5next
	MOVQ  (R11), AX
	ZSIGNLOAD(0, Z0)
	ZSIGNLOAD(64, Z1)
	ZSIGNLOAD(128, Z2)
	ZSIGNLOAD(192, Z3)
	ZSIGNLOADM(256, Z4)

zsign5k:
	SIGNENTRY(Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMA(64, Z1)
	ZSIGNFMA(128, Z2)
	ZSIGNFMA(192, Z3)
	ZSIGNFMAM(256, Z4)
	TESTQ BX, BX
	JNZ   zsign5k
	ZSIGNSTORE(0, Z0)
	ZSIGNSTORE(64, Z1)
	ZSIGNSTORE(128, Z2)
	ZSIGNSTORE(192, Z3)
	ZSIGNSTOREM(256, Z4)

zsign5next:
	ADDQ R8, R13
	ADDQ $8, R10
	ADDQ $8, R11
	CMPQ R10, count+64(FP)
	JLT  zsign5
	JMP  zsignchunkdone

zsign6:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    zsign6next
	MOVQ  (R11), AX
	ZSIGNLOAD(0, Z0)
	ZSIGNLOAD(64, Z1)
	ZSIGNLOAD(128, Z2)
	ZSIGNLOAD(192, Z3)
	ZSIGNLOAD(256, Z4)
	ZSIGNLOADM(320, Z5)

zsign6k:
	SIGNENTRY(Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMA(64, Z1)
	ZSIGNFMA(128, Z2)
	ZSIGNFMA(192, Z3)
	ZSIGNFMA(256, Z4)
	ZSIGNFMAM(320, Z5)
	TESTQ BX, BX
	JNZ   zsign6k
	ZSIGNSTORE(0, Z0)
	ZSIGNSTORE(64, Z1)
	ZSIGNSTORE(128, Z2)
	ZSIGNSTORE(192, Z3)
	ZSIGNSTORE(256, Z4)
	ZSIGNSTOREM(320, Z5)

zsign6next:
	ADDQ R8, R13
	ADDQ $8, R10
	ADDQ $8, R11
	CMPQ R10, count+64(FP)
	JLT  zsign6
	JMP  zsignchunkdone

zsign7:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    zsign7next
	MOVQ  (R11), AX
	ZSIGNLOAD(0, Z0)
	ZSIGNLOAD(64, Z1)
	ZSIGNLOAD(128, Z2)
	ZSIGNLOAD(192, Z3)
	ZSIGNLOAD(256, Z4)
	ZSIGNLOAD(320, Z5)
	ZSIGNLOADM(384, Z6)

zsign7k:
	SIGNENTRY(Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMA(64, Z1)
	ZSIGNFMA(128, Z2)
	ZSIGNFMA(192, Z3)
	ZSIGNFMA(256, Z4)
	ZSIGNFMA(320, Z5)
	ZSIGNFMAM(384, Z6)
	TESTQ BX, BX
	JNZ   zsign7k
	ZSIGNSTORE(0, Z0)
	ZSIGNSTORE(64, Z1)
	ZSIGNSTORE(128, Z2)
	ZSIGNSTORE(192, Z3)
	ZSIGNSTORE(256, Z4)
	ZSIGNSTORE(320, Z5)
	ZSIGNSTOREM(384, Z6)

zsign7next:
	ADDQ R8, R13
	ADDQ $8, R10
	ADDQ $8, R11
	CMPQ R10, count+64(FP)
	JLT  zsign7
	JMP  zsignchunkdone

zsign8:
	MOVQ  (R10), BX
	TESTQ BX, BX
	JZ    zsign8next
	MOVQ  (R11), AX
	ZSIGNLOAD(0, Z0)
	ZSIGNLOAD(64, Z1)
	ZSIGNLOAD(128, Z2)
	ZSIGNLOAD(192, Z3)
	ZSIGNLOAD(256, Z4)
	ZSIGNLOAD(320, Z5)
	ZSIGNLOAD(384, Z6)
	ZSIGNLOADM(448, Z7)

zsign8k:
	SIGNENTRY(Z8)
	ZSIGNFMA(0, Z0)
	ZSIGNFMA(64, Z1)
	ZSIGNFMA(128, Z2)
	ZSIGNFMA(192, Z3)
	ZSIGNFMA(256, Z4)
	ZSIGNFMA(320, Z5)
	ZSIGNFMA(384, Z6)
	ZSIGNFMAM(448, Z7)
	TESTQ BX, BX
	JNZ   zsign8k
	ZSIGNSTORE(0, Z0)
	ZSIGNSTORE(64, Z1)
	ZSIGNSTORE(128, Z2)
	ZSIGNSTORE(192, Z3)
	ZSIGNSTORE(256, Z4)
	ZSIGNSTORE(320, Z5)
	ZSIGNSTORE(384, Z6)
	ZSIGNSTOREM(448, Z7)

zsign8next:
	ADDQ R8, R13
	ADDQ $8, R10
	ADDQ $8, R11
	CMPQ R10, count+64(FP)
	JLT  zsign8
	JMP  zsignchunkdone

zsignchunkdone:
	// Step to the next chunk: 64 columns on from this one, if any left.
	ADDQ $512, DX
	MOVQ DX, R13
	SUBQ b+16(FP), R13
	MOVQ n+32(FP), CX
	SHLQ $3, CX
	CMPQ R13, CX
	JGE  zsigndone
	ADDQ c+0(FP), R13
	JMP  zsignchunk

zsigndone:
	VZEROUPPER
	RET

// func fmaPeakAVX512(iters int)
//
// fmaPeakAVX2 on zmm registers: 192 flops a step.
TEXT ·fmaPeakAVX512(SB), NOSPLIT, $0-8
	MOVQ   iters+0(FP), CX
	VXORPD Z0, Z0, Z0
	VXORPD Z1, Z1, Z1
	VXORPD Z2, Z2, Z2
	VXORPD Z3, Z3, Z3
	VXORPD Z4, Z4, Z4
	VXORPD Z5, Z5, Z5
	VXORPD Z6, Z6, Z6
	VXORPD Z7, Z7, Z7
	VXORPD Z8, Z8, Z8
	VXORPD Z9, Z9, Z9
	VXORPD Z10, Z10, Z10
	VXORPD Z11, Z11, Z11
	VXORPD Z12, Z12, Z12
	VXORPD Z13, Z13, Z13

fmapeakz:
	VFMADD231PD Z12, Z13, Z0
	VFMADD231PD Z12, Z13, Z1
	VFMADD231PD Z12, Z13, Z2
	VFMADD231PD Z12, Z13, Z3
	VFMADD231PD Z12, Z13, Z4
	VFMADD231PD Z12, Z13, Z5
	VFMADD231PD Z12, Z13, Z6
	VFMADD231PD Z12, Z13, Z7
	VFMADD231PD Z12, Z13, Z8
	VFMADD231PD Z12, Z13, Z9
	VFMADD231PD Z12, Z13, Z10
	VFMADD231PD Z12, Z13, Z11
	DECQ        CX
	JNZ         fmapeakz
	VZEROUPPER
	RET
