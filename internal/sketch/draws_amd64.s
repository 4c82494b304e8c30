//go:build amd64 && !purego

#include "textflag.h"

// drawLanes holds the lane offsets 0…7 of a group of eight rows.
DATA drawLanes<>+0(SB)/8, $0
DATA drawLanes<>+8(SB)/8, $1
DATA drawLanes<>+16(SB)/8, $2
DATA drawLanes<>+24(SB)/8, $3
DATA drawLanes<>+32(SB)/8, $4
DATA drawLanes<>+40(SB)/8, $5
DATA drawLanes<>+48(SB)/8, $6
DATA drawLanes<>+56(SB)/8, $7
GLOBL drawLanes<>(SB), RODATA|NOPTR, $64

// MIX applies the SplitMix64 finalizer to the eight lanes of x, with t
// as scratch and the two multipliers in Z30 and Z31 (VPMULLQ keeps the
// low 64 bits of each product, as Go's uint64 multiply does).
#define MIX(x, t) \
	VPSRLQ  $30, x, t; \
	VPXORQ  t, x, x; \
	VPMULLQ Z30, x, x; \
	VPSRLQ  $27, x, t; \
	VPXORQ  t, x, x; \
	VPMULLQ Z31, x, x; \
	VPSRLQ  $31, x, t; \
	VPXORQ  t, x, x

// func pickAVX512(seed uint64, i0 int, scratch *int, set, neg *uint64, groups, d, nnz int) (failed uint64)
//
// pickGo for d ≤ 64, nnz ≤ 32 and groups ≤ 8 groups of eight rows, lane
// r of every register on row i0+8g+r. Z16 takes the rows' stream
// states, mix(seed ^ mix(i + c + γ) + γ) as in rowSource, and steps by
// γ once per draw (c is rowSource's constant); each draw is mixed in a
// copy, so consecutive draws do not wait on one another. Per draw j,
// while any row still lacks targets and j < 64−nnz: the draw's low bit
// goes to bit j of Z14; the candidate targets hi(draw·d) in Z4 (two VPMULUDQ halves:
// d < 2³² makes hi(v·d) = (hi32(v)·d + lo32(v)·d / 2³²) / 2³²), their
// bits 1 << target in Z5, and the rows that take them, K2: still short
// of nnz (K1) and new to the row (VPTESTNMQ against the row's taken mask
// Z10). Those rows' masks and counts (Z11) are updated, and every row
// still short counts the draw (Z12). Each step stores its targets and,
// for the rows that took them, their slot (the count before; 64 for the
// other rows) to scratch. Then nnz more draws give their low bits, so
// Z14 holds every row's sign draws. A row is done, K4, when it has nnz
// targets: its sign bits are Z14 >> count, bit u for slot u, and the
// stored steps set the bit of each taken target whose slot's sign bit is
// set in the row's negative mask Z13. The other rows are reported in
// failed, bit 8g+r. Z15 holds j, Z21 one, Z22 d, Z23 nnz and Z24 64 in
// every lane, Z26 the group's row indices, Z25 eight in every lane, Z29
// γ, Z28 c + γ and Z27 the seed. Registers: DI scratch, R8 and R11
// the group's set and neg words, R9 the next stored step, R14 the
// end of the stored steps, BX the groups left, CX 8g, R10 failed, R13
// the draws left.
TEXT ·pickAVX512(SB), NOSPLIT, $0-72
	MOVQ         scratch+16(FP), DI
	MOVQ         set+24(FP), R8
	MOVQ         neg+32(FP), R11
	MOVQ         groups+40(FP), BX
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z30
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z31
	MOVQ         $0x9e3779b97f4a7c15, AX
	VPBROADCASTQ AX, Z29
	MOVQ         $0x6a09e667f3bcc909, CX
	ADDQ         AX, CX
	VPBROADCASTQ CX, Z28
	VPBROADCASTQ seed+0(FP), Z27
	VPBROADCASTQ i0+8(FP), Z26
	VPADDQ       drawLanes<>(SB), Z26, Z26
	MOVL         $8, AX
	VPBROADCASTQ AX, Z25
	MOVL         $1, AX
	VPBROADCASTQ AX, Z21
	VPBROADCASTQ d+48(FP), Z22
	VPBROADCASTQ nnz+56(FP), Z23
	MOVL         $64, AX
	VPBROADCASTQ AX, Z24
	XORQ         CX, CX
	XORQ         R10, R10

pickgroup:
	VPADDQ Z28, Z26, Z16
	MIX(Z16, Z1)
	VPXORQ Z27, Z16, Z16
	VPADDQ Z29, Z16, Z16
	MIX(Z16, Z1)
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	MOVL   $0xff, AX
	KMOVW  AX, K1
	MOVQ   DI, R14
	MOVQ   $64, R13
	SUBQ   nnz+56(FP), R13

pickdraw:
	VPADDQ    Z29, Z16, Z16
	VMOVDQU64 Z16, Z0
	MIX(Z0, Z1)
	VPANDQ    Z21, Z0, Z2
	VPSLLVQ   Z15, Z2, Z2
	VPORQ     Z2, Z14, Z14
	VPADDQ    Z21, Z15, Z15
	VPSRLQ    $32, Z0, Z1
	VPMULUDQ  Z22, Z0, Z2
	VPMULUDQ  Z22, Z1, Z1
	VPSRLQ    $32, Z2, Z2
	VPADDQ    Z2, Z1, Z1
	VPSRLQ    $32, Z1, Z4
	VPSLLVQ   Z4, Z21, Z5
	VPTESTNMQ Z10, Z5, K2
	KANDW     K1, K2, K2
	VMOVDQA64 Z24, Z6
	VMOVDQA64 Z11, K2, Z6
	VMOVDQU64 Z4, (R14)
	VMOVDQU64 Z6, 64(R14)
	VPORQ     Z5, Z10, K2, Z10
	VPADDQ    Z21, Z11, K2, Z11
	VPADDQ    Z21, Z12, K1, Z12
	VPCMPUQ   $1, Z23, Z11, K1
	ADDQ      $128, R14
	KORTESTW  K1, K1
	JZ        picksigndraws
	DECQ      R13
	JNZ       pickdraw

picksigndraws:
	// The nnz draws past the last target step hold every done row's
	// sign draws.
	MOVQ nnz+56(FP), R13

picksigndraw:
	VPADDQ    Z29, Z16, Z16
	VMOVDQU64 Z16, Z0
	MIX(Z0, Z1)
	VPANDQ    Z21, Z0, Z2
	VPSLLVQ   Z15, Z2, Z2
	VPORQ     Z2, Z14, Z14
	VPADDQ    Z21, Z15, Z15
	DECQ      R13
	JNZ       picksigndraw
	VPCMPUQ   $0, Z23, Z11, K4
	VPSRLVQ   Z12, Z14, Z7
	VPXORQ    Z13, Z13, Z13
	MOVQ      DI, R9

picksign:
	VPSRLVQ   64(R9), Z7, Z0
	VPANDQ    Z21, Z0, Z0
	VPSLLVQ   (R9), Z0, Z0
	VPORQ     Z0, Z13, Z13
	ADDQ      $128, R9
	CMPQ      R9, R14
	JLT       picksign
	VMOVDQU64 Z10, (R8)
	VMOVDQU64 Z13, (R11)
	KNOTW     K4, K4
	KMOVW     K4, AX
	ANDQ      $0xff, AX
	SHLQ      CX, AX
	ORQ       AX, R10
	VPADDQ    Z25, Z26, Z26
	ADDQ      $64, R8
	ADDQ      $64, R11
	ADDQ      $8, CX
	DECQ      BX
	JNZ       pickgroup
	MOVQ      R10, failed+64(FP)
	VZEROUPPER
	RET

// func pick2AVX512(seed uint64, i0 int, scratch *int, set, neg *uint64, groups, d, nnz int) (failed uint64)
//
// pickAVX512 for 64 < d ≤ 128: a row's taken and negative masks are two
// words each, Z10 and Z17, Z13 and Z18 (targets 64 and up in the second,
// stored 64 words on, at set[64+r] and neg[64+r]). A candidate target's
// bit is 1 << (target mod 64) (Z19 holds 63), tested against the word
// K6 (target ≥ 64) selects, and set in that word.
//
TEXT ·pick2AVX512(SB), NOSPLIT, $0-72
	MOVQ         scratch+16(FP), DI
	MOVQ         set+24(FP), R8
	MOVQ         neg+32(FP), R11
	MOVQ         groups+40(FP), BX
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z30
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z31
	MOVQ         $0x9e3779b97f4a7c15, AX
	VPBROADCASTQ AX, Z29
	MOVQ         $0x6a09e667f3bcc909, CX
	ADDQ         AX, CX
	VPBROADCASTQ CX, Z28
	VPBROADCASTQ seed+0(FP), Z27
	VPBROADCASTQ i0+8(FP), Z26
	VPADDQ       drawLanes<>(SB), Z26, Z26
	MOVL         $8, AX
	VPBROADCASTQ AX, Z25
	MOVL         $1, AX
	VPBROADCASTQ AX, Z21
	VPBROADCASTQ d+48(FP), Z22
	VPBROADCASTQ nnz+56(FP), Z23
	MOVL         $64, AX
	VPBROADCASTQ AX, Z24
	MOVL         $63, AX
	VPBROADCASTQ AX, Z19
	XORQ         CX, CX
	XORQ         R10, R10

p2group:
	VPADDQ Z28, Z26, Z16
	MIX(Z16, Z1)
	VPXORQ Z27, Z16, Z16
	VPADDQ Z29, Z16, Z16
	MIX(Z16, Z1)
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z10, Z10, Z10
	VPXORQ Z17, Z17, Z17
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	MOVL   $0xff, AX
	KMOVW  AX, K1
	MOVQ   DI, R14
	MOVQ   $64, R13
	SUBQ   nnz+56(FP), R13

p2draw:
	VPADDQ    Z29, Z16, Z16
	VMOVDQU64 Z16, Z0
	MIX(Z0, Z1)
	VPANDQ    Z21, Z0, Z2
	VPSLLVQ   Z15, Z2, Z2
	VPORQ     Z2, Z14, Z14
	VPADDQ    Z21, Z15, Z15
	VPSRLQ    $32, Z0, Z1
	VPMULUDQ  Z22, Z0, Z2
	VPMULUDQ  Z22, Z1, Z1
	VPSRLQ    $32, Z2, Z2
	VPADDQ    Z2, Z1, Z1
	VPSRLQ    $32, Z1, Z4
	VPANDQ    Z19, Z4, Z3
	VPSLLVQ   Z3, Z21, Z5
	VPCMPUQ   $5, Z24, Z4, K6
	VPTESTNMQ Z10, Z5, K2
	VPTESTNMQ Z17, Z5, K3
	KANDNW    K2, K6, K2
	KANDW     K3, K6, K3
	KORW      K3, K2, K2
	KANDW     K1, K2, K2
	VMOVDQA64 Z24, Z6
	VMOVDQA64 Z11, K2, Z6
	VMOVDQU64 Z4, (R14)
	VMOVDQU64 Z6, 64(R14)
	KANDNW    K2, K6, K3
	VPORQ     Z5, Z10, K3, Z10
	KANDW     K2, K6, K3
	VPORQ     Z5, Z17, K3, Z17
	VPADDQ    Z21, Z11, K2, Z11
	VPADDQ    Z21, Z12, K1, Z12
	VPCMPUQ   $1, Z23, Z11, K1
	ADDQ      $128, R14
	KORTESTW  K1, K1
	JZ        p2signdraws
	DECQ      R13
	JNZ       p2draw

p2signdraws:
	// The nnz draws past the last target step hold every done row's
	// sign draws.
	MOVQ nnz+56(FP), R13

p2signdraw:
	VPADDQ    Z29, Z16, Z16
	VMOVDQU64 Z16, Z0
	MIX(Z0, Z1)
	VPANDQ    Z21, Z0, Z2
	VPSLLVQ   Z15, Z2, Z2
	VPORQ     Z2, Z14, Z14
	VPADDQ    Z21, Z15, Z15
	DECQ      R13
	JNZ       p2signdraw
	VPCMPUQ   $0, Z23, Z11, K4
	VPSRLVQ   Z12, Z14, Z7
	VPXORQ    Z13, Z13, Z13
	VPXORQ    Z18, Z18, Z18
	MOVQ      DI, R9

p2sign:
	VMOVDQU64 (R9), Z3
	VPCMPUQ   $5, Z24, Z3, K6
	KNOTW     K6, K7
	VPANDQ    Z19, Z3, Z3
	VPSRLVQ   64(R9), Z7, Z0
	VPANDQ    Z21, Z0, Z0
	VPSLLVQ   Z3, Z0, Z0
	VPORQ     Z0, Z13, K7, Z13
	VPORQ     Z0, Z18, K6, Z18
	ADDQ      $128, R9
	CMPQ      R9, R14
	JLT       p2sign
	VMOVDQU64 Z10, (R8)
	VMOVDQU64 Z17, 512(R8)
	VMOVDQU64 Z13, (R11)
	VMOVDQU64 Z18, 512(R11)
	KNOTW     K4, K4
	KMOVW     K4, AX
	ANDQ      $0xff, AX
	SHLQ      CX, AX
	ORQ       AX, R10
	VPADDQ    Z25, Z26, Z26
	ADDQ      $64, R8
	ADDQ      $64, R11
	ADDQ      $8, CX
	DECQ      BX
	JNZ       p2group
	MOVQ      R10, failed+64(FP)
	VZEROUPPER
	RET

// XSWAP swaps the off-diagonal j×j blocks between rows held in a and b
// (lane for lane, b's rows j below a's), under the bit mask Z31.
#define XSWAP(a, b, j) \
	VPSRLQ $j, a, Z8; \
	VPXORQ b, Z8, Z8; \
	VPANDQ Z31, Z8, Z8; \
	VPXORQ Z8, b, b; \
	VPSLLQ $j, Z8, Z8; \
	VPXORQ Z8, a, a

// ISWAP does the same for the pairs of rows j apart inside a, lane l and
// its partner l^s: P is a with the partners swapped (PERM), the swap
// mask t is formed in the lower lanes (K2) and sent to the upper ones
// with the same permutation.
#define ISWAP(a, j, PERM) \
	PERM(a, Z9); \
	VPSRLQ    $j, a, Z8; \
	VPXORQ    Z9, Z8, Z8; \
	VPANDQ    Z31, Z8, Z8; \
	PERM(Z8, Z9); \
	VPSLLQ    $j, Z8, Z8; \
	VMOVDQA64 Z8, K2, Z9; \
	VPXORQ    Z9, a, a

#define PERM4(a, p) VSHUFI64X2 $0x4e, a, a, p
#define PERM2(a, p) VPERMQ $0x4e, a, p
#define PERM1(a, p) VPERMQ $0xb1, a, p

#define ISTAGE(j, PERM) \
	ISWAP(Z0, j, PERM); \
	ISWAP(Z1, j, PERM); \
	ISWAP(Z2, j, PERM); \
	ISWAP(Z3, j, PERM); \
	ISWAP(Z4, j, PERM); \
	ISWAP(Z5, j, PERM); \
	ISWAP(Z6, j, PERM); \
	ISWAP(Z7, j, PERM)

// func transpose64AVX512(m *[64]uint64)
//
// transpose64 with the 64 rows in Z0–Z7, row 8q+l in lane l of Zq: the
// 32-, 16- and 8-row swaps pair whole registers, the 4-, 2- and 1-row
// swaps lanes inside each register. Z31 holds the stage's bit mask.
TEXT ·transpose64AVX512(SB), NOSPLIT, $0-8
	MOVQ         m+0(FP), DI
	VMOVDQU64    (DI), Z0
	VMOVDQU64    64(DI), Z1
	VMOVDQU64    128(DI), Z2
	VMOVDQU64    192(DI), Z3
	VMOVDQU64    256(DI), Z4
	VMOVDQU64    320(DI), Z5
	VMOVDQU64    384(DI), Z6
	VMOVDQU64    448(DI), Z7
	MOVQ         $0x00000000ffffffff, AX
	VPBROADCASTQ AX, Z31
	XSWAP(Z0, Z4, 32)
	XSWAP(Z1, Z5, 32)
	XSWAP(Z2, Z6, 32)
	XSWAP(Z3, Z7, 32)
	MOVQ         $0x0000ffff0000ffff, AX
	VPBROADCASTQ AX, Z31
	XSWAP(Z0, Z2, 16)
	XSWAP(Z1, Z3, 16)
	XSWAP(Z4, Z6, 16)
	XSWAP(Z5, Z7, 16)
	MOVQ         $0x00ff00ff00ff00ff, AX
	VPBROADCASTQ AX, Z31
	XSWAP(Z0, Z1, 8)
	XSWAP(Z2, Z3, 8)
	XSWAP(Z4, Z5, 8)
	XSWAP(Z6, Z7, 8)
	MOVQ         $0x0f0f0f0f0f0f0f0f, AX
	VPBROADCASTQ AX, Z31
	MOVL         $0x0f, AX
	KMOVW        AX, K2
	ISTAGE(4, PERM4)
	MOVQ         $0x3333333333333333, AX
	VPBROADCASTQ AX, Z31
	MOVL         $0x33, AX
	KMOVW        AX, K2
	ISTAGE(2, PERM2)
	MOVQ         $0x5555555555555555, AX
	VPBROADCASTQ AX, Z31
	MOVL         $0x55, AX
	KMOVW        AX, K2
	ISTAGE(1, PERM1)
	VMOVDQU64    Z0, (DI)
	VMOVDQU64    Z1, 64(DI)
	VMOVDQU64    Z2, 128(DI)
	VMOVDQU64    Z3, 192(DI)
	VMOVDQU64    Z4, 256(DI)
	VMOVDQU64    Z5, 320(DI)
	VMOVDQU64    Z6, 384(DI)
	VMOVDQU64    Z7, 448(DI)
	VZEROUPPER
	RET
