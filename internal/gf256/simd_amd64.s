#include "textflag.h"

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

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// The kernels compute, for each 32-byte (ymm) or 64-byte (zmm) block
// position of [lo,hi), the block of all ≤ 8 output rows in one pass over
// the input columns:
//
//	R8  tab: per input column, 8 row entries (rows past R10 are zero)
//	R9  slice headers of the R10 output rows
//	R11 slice headers of the R12 input columns
//	R13 position of the current block, R14 hi
//	SI, DI, CX  table, input-header and column cursors of the pass
//	Y0–Y7 (Z0–Z7)  the block's accumulators, one per output row
//	Y8 (Z8, Z9)    the input column's block (a pair of columns' blocks)
//
// Rows 2–7 and 4–7 of a column (and 6–7 of a column pair in the zmm
// body) are skipped when the group has no such rows, which is what
// makes decoding a few lost shards cheaper than encoding eight parities.

// BEGIN_BLOCK zeroes the accumulators; a VEX-encoded write clears the
// whole zmm register, so the zmm body uses it too.
#define BEGIN_BLOCK \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	VPXOR Y4, Y4, Y4; \
	VPXOR Y5, Y5, Y5; \
	VPXOR Y6, Y6, Y6; \
	VPXOR Y7, Y7, Y7; \
	MOVQ R8, SI; \
	MOVQ R11, DI; \
	MOVQ R12, CX

#define STORE(i, mov, acc) \
	CMPQ R10, $i; \
	JLE stored; \
	MOVQ (i*24)(R9), AX; \
	mov acc, (AX)(R13*1)

// END_BLOCK stores the accumulators a0–a7 with mov and moves on by one
// block of w bytes; the last one is pulled back to end at hi,
// overlapping its predecessor.
#define END_BLOCK(w, mov, a0, a1, a2, a3, a4, a5, a6, a7) \
	MOVQ (R9), AX; \
	mov a0, (AX)(R13*1); \
	STORE(1, mov, a1); \
	STORE(2, mov, a2); \
	STORE(3, mov, a3); \
	STORE(4, mov, a4); \
	STORE(5, mov, a5); \
	STORE(6, mov, a6); \
	STORE(7, mov, a7); \
stored: \
	ADDQ $w, R13; \
	LEAQ w(R13), AX; \
	CMPQ AX, R14; \
	JLE block; \
	CMPQ R13, R14; \
	JGE done; \
	LEAQ -w(R14), R13; \
	JMP block; \
done: \
	VZEROUPPER; \
	RET

// One VGF2P8AFFINEQB multiplies the 32 bytes of Y8 by the coefficient
// whose 8×8 bit matrix is broadcast to every qword of Y9.
#define GFNI_ROW(i, acc) \
	VPBROADCASTQ (i*8)(SI), Y9; \
	VGF2P8AFFINEQB $0, Y9, Y8, Y9; \
	VPXOR Y9, acc, acc

// func mulGroupGFNI(tab *byte, out, in [][]byte, lo, hi int)
TEXT ·mulGroupGFNI(SB), NOSPLIT, $0-72
	MOVQ tab+0(FP), R8
	MOVQ out_base+8(FP), R9
	MOVQ out_len+16(FP), R10
	MOVQ in_base+32(FP), R11
	MOVQ in_len+40(FP), R12
	MOVQ lo+56(FP), R13
	MOVQ hi+64(FP), R14
block:
	BEGIN_BLOCK
col:
	MOVQ (DI), AX
	VMOVDQU (AX)(R13*1), Y8
	GFNI_ROW(0, Y0)
	GFNI_ROW(1, Y1)
	CMPQ R10, $2
	JLE nextcol
	GFNI_ROW(2, Y2)
	GFNI_ROW(3, Y3)
	CMPQ R10, $4
	JLE nextcol
	GFNI_ROW(4, Y4)
	GFNI_ROW(5, Y5)
	GFNI_ROW(6, Y6)
	GFNI_ROW(7, Y7)
nextcol:
	ADDQ $64, SI
	ADDQ $24, DI
	DECQ CX
	JNZ col
	END_BLOCK(32, VMOVDQU, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)

// The product of a byte is the XOR of two table lookups, one per
// nibble: Y8 and Y9 hold the block's low and high nibbles, and VPSHUFB
// looks all 32 up at once in the row's 16-entry tables (each broadcast
// to both lanes, as VPSHUFB indexes within a lane).
#define AVX2_ROW(i, acc) \
	VBROADCASTI128 (i*32)(SI), Y10; \
	VBROADCASTI128 (i*32+16)(SI), Y11; \
	VPSHUFB Y8, Y10, Y10; \
	VPSHUFB Y9, Y11, Y11; \
	VPXOR Y10, acc, acc; \
	VPXOR Y11, acc, acc

// func mulGroupAVX2(tab *byte, out, in [][]byte, lo, hi int)
TEXT ·mulGroupAVX2(SB), NOSPLIT, $0-72
	MOVQ tab+0(FP), R8
	MOVQ out_base+8(FP), R9
	MOVQ out_len+16(FP), R10
	MOVQ in_base+32(FP), R11
	MOVQ in_len+40(FP), R12
	MOVQ lo+56(FP), R13
	MOVQ hi+64(FP), R14
	MOVQ $0x0f0f0f0f0f0f0f0f, AX
	VMOVQ AX, X15
	VPBROADCASTQ X15, Y15
block:
	BEGIN_BLOCK
col:
	MOVQ (DI), AX
	VMOVDQU (AX)(R13*1), Y8
	VPSRLQ $4, Y8, Y9
	VPAND Y15, Y8, Y8
	VPAND Y15, Y9, Y9
	AVX2_ROW(0, Y0)
	AVX2_ROW(1, Y1)
	CMPQ R10, $2
	JLE nextcol
	AVX2_ROW(2, Y2)
	AVX2_ROW(3, Y3)
	CMPQ R10, $4
	JLE nextcol
	AVX2_ROW(4, Y4)
	AVX2_ROW(5, Y5)
	AVX2_ROW(6, Y6)
	AVX2_ROW(7, Y7)
nextcol:
	ADDQ $256, SI
	ADDQ $24, DI
	DECQ CX
	JNZ col
	END_BLOCK(32, VMOVDQU, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7)

// A 64-byte block of two input columns, Z8 and Z9, goes into each row's
// accumulator with two VGF2P8AFFINEQB, each reading its coefficient
// matrix as an embedded broadcast (.BCST) from the table, and one
// three-way XOR (VPTERNLOGQ truth table 0x96 = a^b^c).
#define ZMM_PAIR_ROW(i, acc) \
	VGF2P8AFFINEQB.BCST $0, (i*8)(SI), Z8, Z16; \
	VGF2P8AFFINEQB.BCST $0, (64+i*8)(SI), Z9, Z17; \
	VPTERNLOGQ $0x96, Z17, Z16, acc

// The odd last column of a pass, alone in Z8.
#define ZMM_ROW(i, acc) \
	VGF2P8AFFINEQB.BCST $0, (i*8)(SI), Z8, Z16; \
	VPXORQ Z16, acc, acc

// func mulGroupGFNI512(tab *byte, out, in [][]byte, lo, hi int)
TEXT ·mulGroupGFNI512(SB), NOSPLIT, $0-72
	MOVQ tab+0(FP), R8
	MOVQ out_base+8(FP), R9
	MOVQ out_len+16(FP), R10
	MOVQ in_base+32(FP), R11
	MOVQ in_len+40(FP), R12
	MOVQ lo+56(FP), R13
	MOVQ hi+64(FP), R14
block:
	BEGIN_BLOCK
	SHRQ $1, CX
	JZ single
pair:
	MOVQ (DI), AX
	MOVQ 24(DI), DX
	VMOVDQU64 (AX)(R13*1), Z8
	VMOVDQU64 (DX)(R13*1), Z9
	ZMM_PAIR_ROW(0, Z0)
	ZMM_PAIR_ROW(1, Z1)
	CMPQ R10, $2
	JLE nextpair
	ZMM_PAIR_ROW(2, Z2)
	ZMM_PAIR_ROW(3, Z3)
	CMPQ R10, $4
	JLE nextpair
	ZMM_PAIR_ROW(4, Z4)
	ZMM_PAIR_ROW(5, Z5)
	CMPQ R10, $6
	JLE nextpair
	ZMM_PAIR_ROW(6, Z6)
	ZMM_PAIR_ROW(7, Z7)
nextpair:
	ADDQ $128, SI
	ADDQ $48, DI
	DECQ CX
	JNZ pair
single:
	TESTQ $1, R12
	JZ store
	MOVQ (DI), AX
	VMOVDQU64 (AX)(R13*1), Z8
	ZMM_ROW(0, Z0)
	ZMM_ROW(1, Z1)
	CMPQ R10, $2
	JLE store
	ZMM_ROW(2, Z2)
	ZMM_ROW(3, Z3)
	CMPQ R10, $4
	JLE store
	ZMM_ROW(4, Z4)
	ZMM_ROW(5, Z5)
	ZMM_ROW(6, Z6)
	ZMM_ROW(7, Z7)
store:
	END_BLOCK(64, VMOVDQU64, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
