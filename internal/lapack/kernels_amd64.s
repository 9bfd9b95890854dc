// Leaf micro-kernels for amd64 with AVX2, and six for AVX-512F, last in
// the file (minPlusBlockAVX512, dotQuadAVX512, expAVX512, mulAVX512,
// scaleOuterSumAVX512 and mulAddAVX512).
// Each one is the vector form of an inner loop in lapack.go, or of exp in
// exp.go, and must produce that loop's bits (DESIGN.md §18): multiply
// and add are separate instructions, never a fused multiply-add; a YMM or
// ZMM lane is one of the reference's independent accumulation chains (or,
// in expAVX512, one element's whole computation); the reduction tree is
// the reference's. Callers guarantee every pointer and count
// (checkShapes), so nothing here is bounds-checked. Every inner loop head
// is PCALIGN $64, and the linker raises a TEXT symbol's alignment to its
// largest PCALIGN, so every kernel starts at 0 mod 64 whatever links
// before it, and kernel speed does not move when unrelated text is added
// or removed (scripts/asm_align.sh checks the placement).

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// func dotBlocksAVX2(c *float64, ldc int, a, b *float64, k, nblk int)
//
// For rows r = 0, 1 of a (stride k) and columns j = 0 .. 4*nblk-1, i.e.
// rows of b (stride k):  c[r*ldc+j] -= dot4(a[r*k:][:k], b[j*k:][:k]).
// One 2×4 block at a time: eight accumulators whose lanes are dot4's
// s0..s3, reduced as (s0+s1)+(s2+s3), then dot4's scalar k%4 tail.
// Requires k >= 1, nblk >= 1.
TEXT ·dotBlocksAVX2(SB), $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ k+32(FP), CX
	MOVQ nblk+40(FP), BX
	SHLQ $3, R8            // ldc in bytes
	MOVQ CX, R9
	SHLQ $3, R9            // row stride of a and b in bytes
	LEAQ (R9)(R9*2), R10   // three rows
	MOVQ CX, R11
	SHRQ $2, R11           // k/4 vector steps
	ANDQ $3, CX            // k%4 scalar steps

block:
	MOVQ SI, AX            // a cursor: rows at AX, AX+R9
	MOVQ DX, R12           // b cursor: rows at R12 + {0, R9, 2*R9, R10}
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R11, R13
	TESTQ R13, R13
	JZ reduce

	PCALIGN $64
loop:
	VMOVUPD (AX), Y8
	VMOVUPD (AX)(R9*1), Y9
	VMOVUPD (R12), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y4, Y4
	VMOVUPD (R12)(R9*1), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y1, Y1
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y5, Y5
	VMOVUPD (R12)(R9*2), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y6, Y6
	VMOVUPD (R12)(R10*1), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y3, Y3
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y7, Y7
	ADDQ $32, AX
	ADDQ $32, R12
	DECQ R13
	JNZ loop

reduce:
	// Row 0: Y0..Y3 hold (s0,s1,s2,s3) for columns 0..3. Transpose-add
	// into Y0 = ((s0+s1)+(s2+s3)) per column; row 1 (Y4..Y7) into Y1.
	VHADDPD Y1, Y0, Y0             // s0+s1 (c0, c1), s2+s3 (c0, c1)
	VHADDPD Y3, Y2, Y2             // s0+s1 (c2, c3), s2+s3 (c2, c3)
	VPERM2F128 $0x20, Y2, Y0, Y8   // s0+s1 of c0..c3
	VPERM2F128 $0x31, Y2, Y0, Y9   // s2+s3 of c0..c3
	VADDPD Y9, Y8, Y0
	VHADDPD Y5, Y4, Y4
	VHADDPD Y7, Y6, Y6
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x31, Y6, Y4, Y9
	VADDPD Y9, Y8, Y1

	MOVQ CX, R13
	TESTQ R13, R13
	JZ store
tail:
	// s += x[p]*y[p] for the k%4 leftovers, the four columns side by side.
	VMOVSD (R12), X8
	VMOVHPD (R12)(R9*1), X8, X8
	VMOVSD (R12)(R9*2), X9
	VMOVHPD (R12)(R10*1), X9, X9
	VINSERTF128 $1, X9, Y8, Y8
	VBROADCASTSD (AX), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y0, Y0
	VBROADCASTSD (AX)(R9*1), Y9
	VMULPD Y8, Y9, Y9
	VADDPD Y9, Y1, Y1
	ADDQ $8, AX
	ADDQ $8, R12
	DECQ R13
	JNZ tail

store:
	VMOVUPD (DI), Y8
	VSUBPD Y0, Y8, Y8
	VMOVUPD Y8, (DI)
	VMOVUPD (DI)(R8*1), Y9
	VSUBPD Y1, Y9, Y9
	VMOVUPD Y9, (DI)(R8*1)
	ADDQ $32, DI
	LEAQ (DX)(R9*4), DX
	DECQ BX
	JNZ block
	VZEROUPPER
	RET

// minPlusPanelAVX2 keeps a chunk of one row of C in Y0..Y7 (LOAD8, STORE8)
// while the inner index p runs; Y8 holds a[p] broadcast, BX points at row p
// of b. MINPLUS is one step on the vector at byte offset off of the chunk:
//	acc = min(a[p]+b[p][..], acc)      (acc kept unless strictly greater)
#define LOAD8 \
	VMOVUPD (DI), Y0 \
	VMOVUPD 32(DI), Y1 \
	VMOVUPD 64(DI), Y2 \
	VMOVUPD 96(DI), Y3 \
	VMOVUPD 128(DI), Y4 \
	VMOVUPD 160(DI), Y5 \
	VMOVUPD 192(DI), Y6 \
	VMOVUPD 224(DI), Y7
#define STORE8 \
	VMOVUPD Y0, (DI) \
	VMOVUPD Y1, 32(DI) \
	VMOVUPD Y2, 64(DI) \
	VMOVUPD Y3, 96(DI) \
	VMOVUPD Y4, 128(DI) \
	VMOVUPD Y5, 160(DI) \
	VMOVUPD Y6, 192(DI) \
	VMOVUPD Y7, 224(DI)
#define MINPLUS(off, acc, tmp) \
	VADDPD off(BX), Y8, tmp \
	VMINPD acc, tmp, acc

// func minPlusPanelAVX2(c, a, b *float64, k, n int, skip float64)
//
// One row of FWKernelD over its whole vectors, columns j < n&^3:
//	for p < k { if a[p] >= skip { continue }; c[j] = min(c[j], a[p]+b[p*n+j]) }
// with skip = Inf and min as in minPlusAVX2. The columns go in chunks
// that stay in registers while p runs, which reorders nothing an element
// can see: each c[j] still takes its updates in p order. Requires k >= 1,
// n >= 4.
TEXT ·minPlusPanelAVX2(SB), $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R9
	VMOVSD skip+40(FP), X14
	MOVQ R9, R10
	SHLQ $3, R10           // row stride of b in bytes
	SHRQ $2, R9            // whole vectors in a row
	MOVQ R9, R11
	SHRQ $3, R11           // eight-vector column chunks
	ANDQ $7, R9            // single-vector chunks after them
	TESTQ R11, R11
	JZ minpsingles

minpchunk8:
	LOAD8
	MOVQ SI, AX            // a[p]
	MOVQ DX, BX            // row p of b, this chunk's columns
	MOVQ R8, CX

	PCALIGN $64
minpp8:
	VMOVSD (AX), X8
	VUCOMISD X14, X8
	JCC minpskip8       // a[p] >= skip, false for NaN as in Go
	VBROADCASTSD X8, Y8
	MINPLUS(0, Y0, Y9)
	MINPLUS(32, Y1, Y10)
	MINPLUS(64, Y2, Y11)
	MINPLUS(96, Y3, Y12)
	MINPLUS(128, Y4, Y13)
	MINPLUS(160, Y5, Y9)
	MINPLUS(192, Y6, Y10)
	MINPLUS(224, Y7, Y11)
minpskip8:
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ CX
	JNZ minpp8
	STORE8
	ADDQ $256, DI
	ADDQ $256, DX
	DECQ R11
	JNZ minpchunk8

minpsingles:
	TESTQ R9, R9
	JZ minpdone
minpchunk1:
	VMOVUPD (DI), Y0
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R8, CX

	PCALIGN $64
minpp1:
	VMOVSD (AX), X8
	VUCOMISD X14, X8
	JCC minpskip1       // a[p] >= skip, false for NaN as in Go
	VBROADCASTSD X8, Y8
	MINPLUS(0, Y0, Y9)
minpskip1:
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ CX
	JNZ minpp1
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ R9
	JNZ minpchunk1
minpdone:
	VZEROUPPER
	RET

// func trsmPanelAVX2(p, l *float64, n int)
//
// Trsm on sixteen rows of B held as an n×16 column-major panel,
// p[k*16+r] = row r's element k, so one YMM lane is one row's chain:
//	for j < n { s := p[j][..]; for k < j { s -= p[k][..]*l[j*n+k] }; p[j][..] = s/l[j*n+j] }
// Y0..Y3 hold column j (rows 0..15) while k runs. The product keeps the
// reference's operand order, row element first, so that where two NaNs
// meet the lane keeps the payload the Go loop keeps. Requires n >= 1.
TEXT ·trsmPanelAVX2(SB), $0-24
	MOVQ p+0(FP), DI
	MOVQ l+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8            // row stride of l in bytes
	MOVQ DI, DX            // column j of the panel
	XORQ R9, R9            // j

trsmcol:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	LEAQ (SI)(R9*8), BX    // l[j*n+j], the pivot; l[j*n+k] is (BX)(R10*8)
	MOVQ DI, AX            // column k of the panel
	MOVQ R9, R10
	NEGQ R10               // k-j, from -j up to 0
	JZ trsmdiv

	PCALIGN $64
trsmk:
	VBROADCASTSD (BX)(R10*8), Y8
	VMOVUPD (AX), Y9
	VMOVUPD 32(AX), Y10
	VMOVUPD 64(AX), Y11
	VMOVUPD 96(AX), Y12
	VMULPD Y8, Y9, Y9
	VMULPD Y8, Y10, Y10
	VMULPD Y8, Y11, Y11
	VMULPD Y8, Y12, Y12
	VSUBPD Y9, Y0, Y0
	VSUBPD Y10, Y1, Y1
	VSUBPD Y11, Y2, Y2
	VSUBPD Y12, Y3, Y3
	ADDQ $128, AX
	INCQ R10
	JNZ trsmk

trsmdiv:
	VBROADCASTSD (BX), Y8
	VDIVPD Y8, Y0, Y0
	VDIVPD Y8, Y1, Y1
	VDIVPD Y8, Y2, Y2
	VDIVPD Y8, Y3, Y3
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ $128, DX
	ADDQ R8, SI
	INCQ R9
	CMPQ R9, CX
	JLT trsmcol
	VZEROUPPER
	RET

// The 4×8 block kernels, mulAVX2 and mulAddAVX2, keep a block of C in
// Y0..Y7, row r of the quad in Y(2r) (columns j..j+3) and Y(2r+1)
// (j+4..j+7). LOADBLOCK and STOREBLOCK move it from and to the block at
// BX, rows R11 bytes apart, and leave BX one row on. BLOCKROW is one step
// p of one row: with Y8, Y9 holding row p of b's eight columns, it
// broadcasts a[i][p] from a and adds its two products into lo and hi, the
// product a[i][p] first and the add the running sum first, as the Go
// loops write them.
#define LOADBLOCK \
	VMOVUPD (BX), Y0 \
	VMOVUPD 32(BX), Y1 \
	VMOVUPD (BX)(R11*1), Y2 \
	VMOVUPD 32(BX)(R11*1), Y3 \
	VMOVUPD (BX)(R11*2), Y4 \
	VMOVUPD 32(BX)(R11*2), Y5 \
	ADDQ R11, BX \
	VMOVUPD (BX)(R11*2), Y6 \
	VMOVUPD 32(BX)(R11*2), Y7
#define STOREBLOCK \
	VMOVUPD Y0, (BX) \
	VMOVUPD Y1, 32(BX) \
	VMOVUPD Y2, (BX)(R11*1) \
	VMOVUPD Y3, 32(BX)(R11*1) \
	VMOVUPD Y4, (BX)(R11*2) \
	VMOVUPD Y5, 32(BX)(R11*2) \
	ADDQ R11, BX \
	VMOVUPD Y6, (BX)(R11*2) \
	VMOVUPD Y7, 32(BX)(R11*2)
#define BLOCKROW(a, lo, hi, t0, t1) \
	VBROADCASTSD a, Y10 \
	VMULPD Y8, Y10, t0 \
	VADDPD t0, lo, lo \
	VMULPD Y9, Y10, t1 \
	VADDPD t1, hi, hi

// func mulAVX2(c, a, b *float64, m4, k, n int)
//
// Mul's whole 4×8 blocks, rows i < m4 (a multiple of 4) and columns
// j < n&^7, with a, b and c row-major (strides k, n and n):
//	c[i*n+j] = 0 + a[i*k]*b[j] + a[i*k+1]*b[n+j] + … + a[i*k+k-1]*b[(k-1)*n+j]
// A block's 32 sums stay in Y0..Y7 while p runs, so each lane is one
// element's chain. Every term is added, zeros included. Requires m4 >= 4,
// k >= 1, n >= 8.
TEXT ·mulAVX2(SB), $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m4+24(FP), R8
	MOVQ n+40(FP), R10
	MOVQ R10, R11
	SHLQ $3, R11           // row stride of b and c in bytes
	ANDQ $-8, R10
	SHLQ $3, R10           // bytes of a row the blocks cover
	MOVQ k+32(FP), R12
	SHLQ $3, R12           // row stride of a in bytes
	LEAQ (R12)(R12*2), R13 // three rows of a
	SHRQ $2, R8            // row quads

mulquad:
	XORQ R9, R9            // byte offset of the block in its rows
mulblock:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, AX            // a[i][p]: rows at AX + {0, R12, 2*R12, R13}
	LEAQ (DX)(R9*1), BX    // row p of b, this block's columns
	MOVQ k+32(FP), CX

	PCALIGN $64
mulp:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	BLOCKROW((AX), Y0, Y1, Y11, Y12)
	BLOCKROW((AX)(R12*1), Y2, Y3, Y13, Y14)
	BLOCKROW((AX)(R12*2), Y4, Y5, Y11, Y12)
	BLOCKROW((AX)(R13*1), Y6, Y7, Y13, Y14)
	ADDQ $8, AX
	ADDQ R11, BX
	DECQ CX
	JNZ mulp

	LEAQ (DI)(R9*1), BX
	STOREBLOCK
	ADDQ $64, R9
	CMPQ R9, R10
	JLT mulblock

	LEAQ (DI)(R11*4), DI
	LEAQ (SI)(R12*4), SI
	DECQ R8
	JNZ mulquad
	VZEROUPPER
	RET

// func mulAddAVX2(c, a, b, mark *float64, k, n int)
//
// GemmNN on one quad of rows over its whole 4×8 blocks, columns
// j < n&^7, with a (four rows, stride k), b and c (stride n) row-major:
//	for p < k { if a[i][p] == 0 { continue }; c[i*n+j] += a[i][p]*b[p*n+j] }
// mulAVX2's block, loaded from C instead of zeroed: lane by lane, each
// element's chain starts from c and adds in ascending p. The zero test is
// the caller's: the low four bits of mark[p], read as an integer, are the
// rows r whose a[r][p] == 0 (bit r). An unmarked step, all of them but a
// few, runs the four rows unchecked; a marked one runs each row whose bit
// is clear. Requires k >= 1, n >= 8.
TEXT ·mulAddAVX2(SB), $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ mark+24(FP), R8
	SUBQ SI, R8            // mark[p] is at (AX)(R8*1) while AX is at a[0][p]
	MOVQ n+40(FP), R10
	MOVQ R10, R11
	SHLQ $3, R11           // row stride of b and c in bytes
	ANDQ $-8, R10
	SHLQ $3, R10           // bytes of a row the blocks cover
	MOVQ k+32(FP), R12
	SHLQ $3, R12           // row stride of a in bytes
	LEAQ (R12)(R12*2), R13 // three rows of a
	XORQ R9, R9            // byte offset of the block in its rows

muladdblock:
	LEAQ (DI)(R9*1), BX
	LOADBLOCK
	MOVQ SI, AX            // a[i][p]: rows at AX + {0, R12, 2*R12, R13}
	LEAQ (DX)(R9*1), BX    // row p of b, this block's columns
	MOVQ k+32(FP), CX

	PCALIGN $64
muladdp:
	CMPQ (AX)(R8*1), $0
	JNE muladdmarked
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	BLOCKROW((AX), Y0, Y1, Y11, Y12)
	BLOCKROW((AX)(R12*1), Y2, Y3, Y13, Y14)
	BLOCKROW((AX)(R12*2), Y4, Y5, Y11, Y12)
	BLOCKROW((AX)(R13*1), Y6, Y7, Y13, Y14)
muladdnext:
	ADDQ $8, AX
	ADDQ R11, BX
	DECQ CX
	JNZ muladdp

	LEAQ (DI)(R9*1), BX
	STOREBLOCK
	ADDQ $64, R9
	CMPQ R9, R10
	JLT muladdblock
	VZEROUPPER
	RET

muladdmarked:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	TESTB $1, (AX)(R8*1)
	JNZ muladdrow1
	BLOCKROW((AX), Y0, Y1, Y11, Y12)
muladdrow1:
	TESTB $2, (AX)(R8*1)
	JNZ muladdrow2
	BLOCKROW((AX)(R12*1), Y2, Y3, Y13, Y14)
muladdrow2:
	TESTB $4, (AX)(R8*1)
	JNZ muladdrow3
	BLOCKROW((AX)(R12*2), Y4, Y5, Y11, Y12)
muladdrow3:
	TESTB $8, (AX)(R8*1)
	JNZ muladdnext
	BLOCKROW((AX)(R13*1), Y6, Y7, Y13, Y14)
	JMP muladdnext

// func minPlusAVX2(c, b *float64, s float64, n int)
//
// if v := s + b[j]; v < c[j] { c[j] = v } for j < n; n is a positive
// multiple of 4. c and b are the same row or do not overlap. VMINPD
// returns its second source unless the first is strictly smaller, so with
// v first and c second a NaN or an equal zero of either sign keeps c, as
// the comparison does.
TEXT ·minPlusAVX2(SB), $0-32
	MOVQ c+0(FP), DI
	MOVQ b+8(FP), SI
	VBROADCASTSD s+16(FP), Y0
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	MOVQ CX, BX
	SHRQ $2, BX
	ANDQ $3, CX
	TESTQ BX, BX
	JZ minplus1

	PCALIGN $64
minplus4:
	VADDPD (SI), Y0, Y1
	VADDPD 32(SI), Y0, Y2
	VADDPD 64(SI), Y0, Y3
	VADDPD 96(SI), Y0, Y4
	VMINPD (DI), Y1, Y1
	VMINPD 32(DI), Y2, Y2
	VMINPD 64(DI), Y3, Y3
	VMINPD 96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ BX
	JNZ minplus4

minplus1:
	TESTQ CX, CX
	JZ minplusdone
minplus1loop:
	VADDPD (SI), Y0, Y1
	VMINPD (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ minplus1loop
minplusdone:
	VZEROUPPER
	RET

// The AVX-512F kernel, minPlusBlockAVX512, keeps a 4×32 block of C in
// Z0..Z15, row r of the quad in Z(4r)..Z(4r+3), while Z16..Z19 hold row p
// of b's 32 columns and Z31 the skip value. BLOCKMIN is one step p of one
// row: it broadcasts a[i][p] from a, sets mask k where !(a[i][p] >= skip)
// (VCMPPD predicate 0x19, NGE_UQ: true for NaN, as Go's >= is false), and
// takes the min into the lanes of k only. The add is a[i][p] first and the
// min keeps acc unless the sum is strictly smaller, as in MINPLUS above.
#define BLOCKMIN(a, k, c0, c1, c2, c3) \
	VBROADCASTSD a, Z20 \
	VCMPPD $0x19, Z31, Z20, k \
	VADDPD Z16, Z20, Z24 \
	VADDPD Z17, Z20, Z25 \
	VADDPD Z18, Z20, Z26 \
	VADDPD Z19, Z20, Z27 \
	VMINPD c0, Z24, k, c0 \
	VMINPD c1, Z25, k, c1 \
	VMINPD c2, Z26, k, c2 \
	VMINPD c3, Z27, k, c3

// func minPlusBlockAVX512(c, a, b *float64, k, n int, skip float64)
//
// FWKernelD on one quad of rows over its whole 4×32 blocks, columns
// j < n&^31, with a (four rows, stride k), b and c (stride n) row-major:
//	for p < k { if a[i][p] >= skip { continue }; c[i*n+j] = min(c[i*n+j], a[i][p]+b[p*n+j]) }
// Each lane is one element's chain in p order, as in minPlusPanelAVX2.
// The skip is a lane mask, not a branch, and it cannot be dropped: a
// no-path a[i][p] facing b = −Inf or −2·Inf sums to a finite or −Inf
// value the reference never takes. Requires k >= 1, n >= 32.
TEXT ·minPlusBlockAVX512(SB), $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R10
	VBROADCASTSD skip+40(FP), Z31
	MOVQ R10, R11
	SHLQ $3, R11           // row stride of b and c in bytes
	ANDQ $-32, R10
	SHLQ $3, R10           // bytes of a row the blocks cover
	MOVQ R8, R12
	SHLQ $3, R12           // row stride of a in bytes
	LEAQ (R12)(R12*2), R13 // three rows of a
	LEAQ (R11)(R11*2), R14 // three rows of c
	XORQ R9, R9            // byte offset of the block in its rows

minblock:
	LEAQ (DI)(R9*1), BX
	VMOVUPD (BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD (BX)(R11*1), Z4
	VMOVUPD 64(BX)(R11*1), Z5
	VMOVUPD 128(BX)(R11*1), Z6
	VMOVUPD 192(BX)(R11*1), Z7
	VMOVUPD (BX)(R11*2), Z8
	VMOVUPD 64(BX)(R11*2), Z9
	VMOVUPD 128(BX)(R11*2), Z10
	VMOVUPD 192(BX)(R11*2), Z11
	VMOVUPD (BX)(R14*1), Z12
	VMOVUPD 64(BX)(R14*1), Z13
	VMOVUPD 128(BX)(R14*1), Z14
	VMOVUPD 192(BX)(R14*1), Z15
	MOVQ SI, AX            // a[i][p]: rows at AX + {0, R12, 2*R12, R13}
	LEAQ (DX)(R9*1), BX    // row p of b, this block's columns
	MOVQ R8, CX

	PCALIGN $64
minblockp:
	VMOVUPD (BX), Z16
	VMOVUPD 64(BX), Z17
	VMOVUPD 128(BX), Z18
	VMOVUPD 192(BX), Z19
	BLOCKMIN((AX), K1, Z0, Z1, Z2, Z3)
	BLOCKMIN((AX)(R12*1), K2, Z4, Z5, Z6, Z7)
	BLOCKMIN((AX)(R12*2), K3, Z8, Z9, Z10, Z11)
	BLOCKMIN((AX)(R13*1), K4, Z12, Z13, Z14, Z15)
	ADDQ $8, AX
	ADDQ R11, BX
	DECQ CX
	JNZ minblockp

	LEAQ (DI)(R9*1), BX
	VMOVUPD Z0, (BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, 128(BX)
	VMOVUPD Z3, 192(BX)
	VMOVUPD Z4, (BX)(R11*1)
	VMOVUPD Z5, 64(BX)(R11*1)
	VMOVUPD Z6, 128(BX)(R11*1)
	VMOVUPD Z7, 192(BX)(R11*1)
	VMOVUPD Z8, (BX)(R11*2)
	VMOVUPD Z9, 64(BX)(R11*2)
	VMOVUPD Z10, 128(BX)(R11*2)
	VMOVUPD Z11, 192(BX)(R11*2)
	VMOVUPD Z12, (BX)(R14*1)
	VMOVUPD Z13, 64(BX)(R14*1)
	VMOVUPD Z14, 128(BX)(R14*1)
	VMOVUPD Z15, 192(BX)(R14*1)
	ADDQ $256, R9
	CMPQ R9, R10
	JLT minblock
	VZEROUPPER
	RET

// The AVX-512F kernel dotQuadAVX512 keeps, for one quad of rows of a and
// eight rows of b, the 16 accumulators of its 4×8 block of dot4 chains
// in Z16..Z31: Z(16+j) for rows 0 and 1 against row j of b, Z(24+j) for
// rows 2 and 3. Each is two of dotBlocksAVX2's accumulators side by side,
// lanes 0..3 the first row's s0..s3 and lanes 4..7 the second row's.
// DOTPAIRS is one step p of row j of b: it broadcasts b[j][p..p+3] to
// both halves of Z2 and adds its products with the two row pairs, Z0 and
// Z1, into the pairs' accumulators, the product a first and the add the
// running sum first, as dotBlocksAVX2 does.
#define DOTPAIRS(b, acc0, acc1) \
	VBROADCASTF64X4 b, Z2 \
	VMULPD Z2, Z0, Z3 \
	VADDPD Z3, acc0, acc0 \
	VMULPD Z2, Z1, Z4 \
	VADDPD Z4, acc1, acc1

// REDUCEPAIR turns one row pair's eight accumulators into its two rows of
// (s0+s1)+(s2+s3) over the block's eight columns, lo (the first row) and
// hi.
// VUNPCKLPD/VUNPCKHPD put s0 beside s1 and s2 beside s3 of two columns
// in each 128-bit lane, so one add gives x = s0+s1 and y = s2+s3:
// T(j,j+1) = [x of row lo | y of row lo | x of row hi | y of row hi], each
// lane columns j and j+1. VSHUFF64X2 $0x88 gathers lanes 0 and 2 of two
// such registers (the x lanes of T01 and T23) and $0xDD lanes 1 and 3
// (their y lanes), so a second add gives x+y, lane by lane [row lo c0 c1
// | row hi c0 c1 | row lo c2 c3 | row hi c2 c3]; the same two shuffles
// of that sum and its columns 4..7 give each row in column order.
#define REDUCEPAIR(a0, a1, a2, a3, a4, a5, a6, a7, lo, hi) \
	VUNPCKLPD a1, a0, Z0 \
	VUNPCKHPD a1, a0, Z1 \
	VADDPD Z1, Z0, Z0 \
	VUNPCKLPD a3, a2, Z2 \
	VUNPCKHPD a3, a2, Z3 \
	VADDPD Z3, Z2, Z2 \
	VUNPCKLPD a5, a4, Z4 \
	VUNPCKHPD a5, a4, Z5 \
	VADDPD Z5, Z4, Z4 \
	VUNPCKLPD a7, a6, Z6 \
	VUNPCKHPD a7, a6, Z7 \
	VADDPD Z7, Z6, Z6 \
	VSHUFF64X2 $0x88, Z2, Z0, Z1 \
	VSHUFF64X2 $0xDD, Z2, Z0, Z3 \
	VADDPD Z3, Z1, Z1 \
	VSHUFF64X2 $0x88, Z6, Z4, Z5 \
	VSHUFF64X2 $0xDD, Z6, Z4, Z7 \
	VADDPD Z7, Z5, Z5 \
	VSHUFF64X2 $0x88, Z5, Z1, lo \
	VSHUFF64X2 $0xDD, Z5, Z1, hi

// DOTTAIL is one k%4 step of one row: with Z2 holding b[0..7][p], it
// adds a[i][p]·b[j][p] into the row's sums, product a first, sum first.
#define DOTTAIL(a, row) \
	VBROADCASTSD a, Z3 \
	VMULPD Z2, Z3, Z3 \
	VADDPD Z3, row, row

// DOTSTORE is C −= row over the block's eight columns of one row at c.
#define DOTSTORE(c, row) \
	VMOVUPD c, Z0 \
	VSUBPD row, Z0, Z0 \
	VMOVUPD Z0, c

// func dotQuadAVX512(c *float64, ldc int, a, b *float64, k, nquad int)
//
// For rows i = 0 .. 4*nquad-1 of a (stride k) and the eight rows j = 0..7
// of b (stride k):  c[i*ldc+j] -= dot4(a[i*k:][:k], b[j*k:][:k]).
// One quad of rows at a time against the same eight rows of b, which stay
// in L1: each lane is one of dot4's chains s0..s3, reduced as
// (s0+s1)+(s2+s3) (REDUCEPAIR), then dot4's scalar k%4 tail in order.
// Requires k >= 1, nquad >= 1.
TEXT ·dotQuadAVX512(SB), $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	MOVQ k+32(FP), CX
	MOVQ nquad+40(FP), BX
	SHLQ $3, R8            // ldc in bytes
	MOVQ CX, R9
	SHLQ $3, R9            // row stride of a and b in bytes
	LEAQ (R9)(R9*2), R10   // three rows
	MOVQ CX, R11
	SHRQ $2, R11           // k/4 vector steps
	ANDQ $3, CX            // k%4 scalar steps

dotquad:
	MOVQ SI, AX            // a cursor: rows at AX + {0, R9, 2*R9, R10}
	MOVQ DX, R12           // b cursor: rows 0..3 at R12 + {0, R9, 2*R9, R10}
	LEAQ (DX)(R9*4), R13   // and rows 4..7 at R13 + the same
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	MOVQ R11, R14
	TESTQ R14, R14
	JZ dotquadreduce

	PCALIGN $64
dotquadp:
	VMOVUPD (AX), Y0
	VINSERTF64X4 $1, (AX)(R9*1), Z0, Z0
	VMOVUPD (AX)(R9*2), Y1
	VINSERTF64X4 $1, (AX)(R10*1), Z1, Z1
	DOTPAIRS((R12), Z16, Z24)
	DOTPAIRS((R12)(R9*1), Z17, Z25)
	DOTPAIRS((R12)(R9*2), Z18, Z26)
	DOTPAIRS((R12)(R10*1), Z19, Z27)
	DOTPAIRS((R13), Z20, Z28)
	DOTPAIRS((R13)(R9*1), Z21, Z29)
	DOTPAIRS((R13)(R9*2), Z22, Z30)
	DOTPAIRS((R13)(R10*1), Z23, Z31)
	ADDQ $32, AX
	ADDQ $32, R12
	ADDQ $32, R13
	DECQ R14
	JNZ dotquadp

dotquadreduce:
	REDUCEPAIR(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23, Z8, Z9)
	REDUCEPAIR(Z24, Z25, Z26, Z27, Z28, Z29, Z30, Z31, Z10, Z11)

	MOVQ CX, R14
	TESTQ R14, R14
	JZ dotquadstore
dotquadtail:
	VMOVSD (R12), X2
	VMOVHPD (R12)(R9*1), X2, X2
	VMOVSD (R12)(R9*2), X3
	VMOVHPD (R12)(R10*1), X3, X3
	VINSERTF128 $1, X3, Y2, Y2
	VMOVSD (R13), X3
	VMOVHPD (R13)(R9*1), X3, X3
	VMOVSD (R13)(R9*2), X4
	VMOVHPD (R13)(R10*1), X4, X4
	VINSERTF128 $1, X4, Y3, Y3
	VINSERTF64X4 $1, Y3, Z2, Z2
	DOTTAIL((AX), Z8)
	DOTTAIL((AX)(R9*1), Z9)
	DOTTAIL((AX)(R9*2), Z10)
	DOTTAIL((AX)(R10*1), Z11)
	ADDQ $8, AX
	ADDQ $8, R12
	ADDQ $8, R13
	DECQ R14
	JNZ dotquadtail

dotquadstore:
	DOTSTORE((DI), Z8)
	DOTSTORE((DI)(R8*1), Z9)
	DOTSTORE((DI)(R8*2), Z10)
	LEAQ (DI)(R8*2), R12
	DOTSTORE((R12)(R8*1), Z11)
	LEAQ (DI)(R8*4), DI
	LEAQ (SI)(R9*4), SI
	DECQ BX
	JNZ dotquad
	VZEROUPPER
	RET

// func expAVX512(dst, src *float64, nblk int)
//
// dst[i] = exp(src[i]) for i < 8*nblk, eight lanes at a time, each lane the
// reference's operations in its order, never fused; dst may be src. The
// reference's branches are lane masks: k is the truncation of Log2e·x +
// copysign(0.5, x), and the special cases (NaN, the overflow and
// underflow thresholds, which take ±Inf, and |x| < 2⁻²⁸) overwrite the
// lanes they hold after the main path. Ldexp(y, k) of the reference's
// positive normal y is the correctly rounded y·2^k, overflow, subnormal
// and underflow alike, which is what VSCALEFPD computes. Requires
// nblk >= 1.
TEXT ·expAVX512(SB), $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ nblk+16(FP), CX
	SUBQ SI, DI                  // dst as an offset from the src cursor
	MOVQ $0x3ff71547652b82fe, AX // Log2e
	VPBROADCASTQ AX, Z16
	MOVQ $0x3fe0000000000000, AX // 0.5
	VPBROADCASTQ AX, Z17
	MOVQ $0x8000000000000000, AX // sign bit
	VPBROADCASTQ AX, Z18
	MOVQ $0x3fe62e42fee00000, AX // Ln2Hi
	VPBROADCASTQ AX, Z19
	MOVQ $0x3dea39ef35793c76, AX // Ln2Lo
	VPBROADCASTQ AX, Z20
	MOVQ $0x3e66376972bea4d0, AX // P5
	VPBROADCASTQ AX, Z21
	MOVQ $0xbebbbd41c5d26bf1, AX // P4
	VPBROADCASTQ AX, Z22
	MOVQ $0x3f11566aaf25de2c, AX // P3
	VPBROADCASTQ AX, Z23
	MOVQ $0xbf66c16c16bebd93, AX // P2
	VPBROADCASTQ AX, Z24
	MOVQ $0x3fc5555555555555, AX // P1
	VPBROADCASTQ AX, Z25
	MOVQ $0x3ff0000000000000, AX // 1
	VPBROADCASTQ AX, Z26
	MOVQ $0x4000000000000000, AX // 2
	VPBROADCASTQ AX, Z27
	MOVQ $0x40862e42fefa39ef, AX // Overflow
	VPBROADCASTQ AX, Z28
	MOVQ $0xc0874910d52d3051, AX // Underflow
	VPBROADCASTQ AX, Z29
	MOVQ $0x3e30000000000000, AX // NearZero, 2⁻²⁸
	VPBROADCASTQ AX, Z30
	MOVQ $0x7ff0000000000000, AX // +Inf
	VPBROADCASTQ AX, Z31

	PCALIGN $64
exploop:
	VMOVUPD (SI), Z0              // x
	VMULPD Z16, Z0, Z1            // Log2e·x
	VPANDQ Z18, Z0, Z2
	VPORQ Z17, Z2, Z2             // copysign(0.5, x)
	VADDPD Z2, Z1, Z1
	VCVTTPD2DQ Z1, Y3             // k
	VCVTDQ2PD Y3, Z2              // float64(k)
	VMULPD Z19, Z2, Z4
	VSUBPD Z4, Z0, Z4             // hi = x − k·Ln2Hi
	VMULPD Z20, Z2, Z5            // lo = k·Ln2Lo
	VSUBPD Z5, Z4, Z6             // r = hi − lo
	VMULPD Z6, Z6, Z7             // t = r·r
	VMULPD Z21, Z7, Z8
	VADDPD Z22, Z8, Z8
	VMULPD Z8, Z7, Z8
	VADDPD Z23, Z8, Z8
	VMULPD Z8, Z7, Z8
	VADDPD Z24, Z8, Z8
	VMULPD Z8, Z7, Z8
	VADDPD Z25, Z8, Z8
	VMULPD Z8, Z7, Z8             // t·(P1+t·(P2+t·(P3+t·(P4+t·P5))))
	VSUBPD Z8, Z6, Z9             // c = r − that
	VMULPD Z9, Z6, Z10            // r·c
	VSUBPD Z9, Z27, Z11           // 2 − c
	VDIVPD Z11, Z10, Z10
	VSUBPD Z10, Z5, Z10           // lo − (r·c)/(2−c)
	VSUBPD Z4, Z10, Z10           // … − hi
	VSUBPD Z10, Z26, Z10          // y = 1 − …
	VSCALEFPD Z2, Z10, Z10        // Ldexp(y, k)
	VCMPPD $0x1e, Z28, Z0, K1     // x > Overflow (+Inf too): +Inf
	VMOVAPD Z31, K1, Z10
	VCMPPD $0x11, Z29, Z0, K2     // x < Underflow (−Inf too): 0
	VPXORQ Z10, Z10, K2, Z10
	VPANDNQ Z0, Z18, Z1
	VCMPPD $0x11, Z30, Z1, K3     // |x| < NearZero: 1 + x
	VADDPD Z0, Z26, K3, Z10
	VCMPPD $0x03, Z0, Z0, K4      // NaN: x
	VMOVAPD Z0, K4, Z10
	VMOVUPD Z10, (SI)(DI*1)
	ADDQ $64, SI
	DECQ CX
	JNZ exploop
	VZEROUPPER
	RET

// mulAVX512 keeps an 8×8 block of C in Z0..Z7, one row of the block per
// register, while Z8 holds row p of b's eight columns. OCTROW is one step
// p of one row: it broadcasts a[i][p] from a and adds its product into
// acc, the product a[i][p] first and the add the running sum first, as
// mulRows writes them (BLOCKROW's order).
#define OCTROW(a, acc, t) \
	VBROADCASTSD a, t \
	VMULPD Z8, t, t \
	VADDPD t, acc, acc

// func mulAVX512(c, a, b *float64, m8, k, n int)
//
// Mul's whole 8×8 blocks, rows i < m8 (a multiple of 8) and columns
// j < n&^7, with a, b and c row-major (strides k, n and n):
//	c[i*n+j] = 0 + a[i*k]*b[j] + a[i*k+1]*b[n+j] + … + a[i*k+k-1]*b[(k-1)*n+j]
// mulAVX2's block at full width: each of the block's 64 sums is one lane,
// zeroed, then one chain in ascending p. Every term is added, zeros
// included. Requires m8 >= 8, k >= 1, n >= 8.
TEXT ·mulAVX512(SB), $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ m8+24(FP), R8
	MOVQ n+40(FP), R10
	MOVQ R10, R11
	SHLQ $3, R11           // row stride of b and c in bytes
	ANDQ $-8, R10
	SHLQ $3, R10           // bytes of a row the blocks cover
	MOVQ k+32(FP), R12
	SHLQ $3, R12           // row stride of a in bytes
	LEAQ (R12)(R12*2), R13 // three rows of a
	SHRQ $3, R8            // row octets

muloct:
	XORQ R9, R9            // byte offset of the block in its rows
muloctblock:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ SI, AX            // a[i][p]: rows 0..3 at AX + {0, R12, 2*R12, R13}
	LEAQ (SI)(R12*4), R14  // and rows 4..7 at R14 + the same
	LEAQ (DX)(R9*1), BX    // row p of b, this block's columns
	MOVQ k+32(FP), CX

	PCALIGN $64
muloctp:
	VMOVUPD (BX), Z8
	OCTROW((AX), Z0, Z16)
	OCTROW((AX)(R12*1), Z1, Z17)
	OCTROW((AX)(R12*2), Z2, Z18)
	OCTROW((AX)(R13*1), Z3, Z19)
	OCTROW((R14), Z4, Z20)
	OCTROW((R14)(R12*1), Z5, Z21)
	OCTROW((R14)(R12*2), Z6, Z22)
	OCTROW((R14)(R13*1), Z7, Z23)
	ADDQ $8, AX
	ADDQ $8, R14
	ADDQ R11, BX
	DECQ CX
	JNZ muloctp

	LEAQ (DI)(R9*1), BX    // the block's rows at BX + {0, R11, 2*R11, CX}
	LEAQ (R11)(R11*2), CX
	VMOVUPD Z0, (BX)
	VMOVUPD Z1, (BX)(R11*1)
	VMOVUPD Z2, (BX)(R11*2)
	VMOVUPD Z3, (BX)(CX*1)
	LEAQ (BX)(R11*4), BX
	VMOVUPD Z4, (BX)
	VMOVUPD Z5, (BX)(R11*1)
	VMOVUPD Z6, (BX)(R11*2)
	VMOVUPD Z7, (BX)(CX*1)
	ADDQ $64, R9
	CMPQ R9, R10
	JLT muloctblock

	LEAQ (DI)(R11*8), DI
	LEAQ (SI)(R12*8), SI
	DECQ R8
	JNZ muloct
	VZEROUPPER
	RET

// func scaleOuterSumAVX512(x, y *float64, n, k int, s float64)
//
// ScaleOuterSum's grid pass: x[p*k+i] = s·(x[p] + y[i]) for p < n and
// i < k, p from n−1 down to 0, so that x[p] is read before any row
// written after it can cover it. Row p's k results go as whole vectors of
// eight and one vector of the k%8 rest under the lane mask K1, in which
// masked-off lanes are neither loaded nor stored. The add is x[p] first
// and the product s first, as the Go loop writes them. Requires n >= 1,
// k >= 1.
TEXT ·scaleOuterSumAVX512(SB), $0-40
	MOVQ x+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ k+24(FP), R8
	VBROADCASTSD s+32(FP), Z31
	MOVQ R8, CX
	ANDQ $7, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K1           // the k%8 tail lanes
	MOVQ R8, R9
	SHRQ $3, R9            // whole vectors in a row
	SHLQ $3, R8            // row stride of the output in bytes
	MOVQ n+16(FP), CX
	LEAQ -8(DI)(CX*8), AX  // x[p], from p = n−1
	MOVQ CX, DX
	DECQ DX
	IMULQ R8, DX
	ADDQ DI, DX            // row p of the output

	PCALIGN $64
sosrow:
	VBROADCASTSD (AX), Z0
	MOVQ SI, R10           // y cursor
	MOVQ DX, R11           // output cursor
	MOVQ R9, R12
	TESTQ R12, R12
	JZ sostail
sosvec:
	VADDPD (R10), Z0, Z1
	VMULPD Z1, Z31, Z1
	VMOVUPD Z1, (R11)
	ADDQ $64, R10
	ADDQ $64, R11
	DECQ R12
	JNZ sosvec
sostail:
	KORTESTW K1, K1
	JZ sosnext
	VMOVUPD.Z (R10), K1, Z1
	VADDPD Z1, Z0, Z1
	VMULPD Z1, Z31, Z1
	VMOVUPD Z1, K1, (R11)
sosnext:
	SUBQ $8, AX
	SUBQ R8, DX
	DECQ CX
	JNZ sosrow
	VZEROUPPER
	RET

// mulAddAVX512 keeps a 4×32 block of C in Z0..Z15, row r of the quad in
// Z(4r)..Z(4r+3) as in minPlusBlockAVX512, while Z16..Z19 hold row p of
// b's 32 columns; the n%32 columns left go as 4×8 blocks, row r in Zr and
// row p of b in Z16. WIDEROW and NARROWROW are one step p of one row: they
// broadcast a[i][p] from a and add its products into the row, the product
// a[i][p] first and the add the running sum first, as BLOCKROW does.
#define WIDEROW(a, c0, c1, c2, c3) \
	VBROADCASTSD a, Z20 \
	VMULPD Z16, Z20, Z24 \
	VADDPD Z24, c0, c0 \
	VMULPD Z17, Z20, Z25 \
	VADDPD Z25, c1, c1 \
	VMULPD Z18, Z20, Z26 \
	VADDPD Z26, c2, c2 \
	VMULPD Z19, Z20, Z27 \
	VADDPD Z27, c3, c3
#define NARROWROW(a, c0) \
	VBROADCASTSD a, Z20 \
	VMULPD Z16, Z20, Z24 \
	VADDPD Z24, c0, c0

// func mulAddAVX512(c, a, b, mark *float64, k, n int)
//
// GemmNN on one quad of rows over all its columns, with a (four rows,
// stride k), b and c (stride n) row-major:
//	for p < k { if a[i][p] == 0 { continue }; c[i*n+j] += a[i][p]*b[p*n+j] }
// mulAddAVX2 at full width: the whole 4×32 blocks, then the n%32 columns
// left as 4×8 blocks, the last of them under the lane mask K1 (KMOVW,
// AVX-512F), in which masked-off lanes are neither loaded nor stored, so
// no column needs a padded copy. Lane by lane, each element's chain starts
// from c and adds in ascending p. The zero marks are mulAddAVX2's, but the
// kernel writes them itself into mark[0..k-1] before the blocks run: for
// each row, VCMPPD finds a[r][p] == 0 (false for NaN, as Go's == is) eight
// steps at a time, and its bit r goes into those steps' marks under that
// lane mask. Requires k >= 1, n >= 1.
TEXT ·mulAddAVX512(SB), $0-48
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ mark+24(FP), R8
	SUBQ SI, R8            // mark[p] is at (AX)(R8*1) while AX is at a[0][p]
	MOVQ k+32(FP), R12
	SHLQ $3, R12           // row stride of a in bytes
	LEAQ (R12)(R12*2), R13 // three rows of a

	VPXORQ Z31, Z31, Z31
	MOVL $1, AX
	VPBROADCASTQ AX, Z28   // row 0's bit
	MOVL $2, AX
	VPBROADCASTQ AX, Z29
	MOVL $4, AX
	VPBROADCASTQ AX, Z30
	MOVL $8, AX
	VPBROADCASTQ AX, Z27   // row 3's bit
	MOVL $0xff, AX
	KMOVW AX, K1           // eight steps
	MOVQ SI, AX
	MOVQ k+32(FP), CX

	PCALIGN $64
widemarks:
	CMPQ CX, $8
	JGE widemarks8
	MOVL $1, BX
	SHLL CX, BX
	DECL BX
	KMOVW BX, K1           // the k%8 steps left
widemarks8:
	VMOVUPD.Z (AX), K1, Z0
	VMOVUPD.Z (AX)(R12*1), K1, Z1
	VMOVUPD.Z (AX)(R12*2), K1, Z2
	VMOVUPD.Z (AX)(R13*1), K1, Z3
	VPXORQ Z4, Z4, Z4
	VCMPPD $0, Z31, Z0, K1, K2 // EQ_OQ: a[r][p] == 0
	VPORQ Z28, Z4, K2, Z4
	VCMPPD $0, Z31, Z1, K1, K2
	VPORQ Z29, Z4, K2, Z4
	VCMPPD $0, Z31, Z2, K1, K2
	VPORQ Z30, Z4, K2, Z4
	VCMPPD $0, Z31, Z3, K1, K2
	VPORQ Z27, Z4, K2, Z4
	VMOVDQU64 Z4, K1, (AX)(R8*1)
	ADDQ $64, AX
	SUBQ $8, CX
	JG widemarks

	MOVQ n+40(FP), R10
	MOVQ R10, R11
	SHLQ $3, R11           // row stride of b and c in bytes
	ANDQ $-32, R10
	SHLQ $3, R10           // bytes of a row the whole blocks cover
	LEAQ (R11)(R11*2), R14 // three rows of c
	XORQ R9, R9            // byte offset of the block in its rows
	CMPQ R10, $0
	JEQ narrow

wideblock:
	LEAQ (DI)(R9*1), BX
	VMOVUPD (BX), Z0
	VMOVUPD 64(BX), Z1
	VMOVUPD 128(BX), Z2
	VMOVUPD 192(BX), Z3
	VMOVUPD (BX)(R11*1), Z4
	VMOVUPD 64(BX)(R11*1), Z5
	VMOVUPD 128(BX)(R11*1), Z6
	VMOVUPD 192(BX)(R11*1), Z7
	VMOVUPD (BX)(R11*2), Z8
	VMOVUPD 64(BX)(R11*2), Z9
	VMOVUPD 128(BX)(R11*2), Z10
	VMOVUPD 192(BX)(R11*2), Z11
	VMOVUPD (BX)(R14*1), Z12
	VMOVUPD 64(BX)(R14*1), Z13
	VMOVUPD 128(BX)(R14*1), Z14
	VMOVUPD 192(BX)(R14*1), Z15
	MOVQ SI, AX            // a[i][p]: rows at AX + {0, R12, 2*R12, R13}
	LEAQ (DX)(R9*1), BX    // row p of b, this block's columns
	MOVQ k+32(FP), CX

	PCALIGN $64
widep:
	CMPQ (AX)(R8*1), $0
	JNE widemarked
	VMOVUPD (BX), Z16
	VMOVUPD 64(BX), Z17
	VMOVUPD 128(BX), Z18
	VMOVUPD 192(BX), Z19
	WIDEROW((AX), Z0, Z1, Z2, Z3)
	WIDEROW((AX)(R12*1), Z4, Z5, Z6, Z7)
	WIDEROW((AX)(R12*2), Z8, Z9, Z10, Z11)
	WIDEROW((AX)(R13*1), Z12, Z13, Z14, Z15)
widenext:
	ADDQ $8, AX
	ADDQ R11, BX
	DECQ CX
	JNZ widep

	LEAQ (DI)(R9*1), BX
	VMOVUPD Z0, (BX)
	VMOVUPD Z1, 64(BX)
	VMOVUPD Z2, 128(BX)
	VMOVUPD Z3, 192(BX)
	VMOVUPD Z4, (BX)(R11*1)
	VMOVUPD Z5, 64(BX)(R11*1)
	VMOVUPD Z6, 128(BX)(R11*1)
	VMOVUPD Z7, 192(BX)(R11*1)
	VMOVUPD Z8, (BX)(R11*2)
	VMOVUPD Z9, 64(BX)(R11*2)
	VMOVUPD Z10, 128(BX)(R11*2)
	VMOVUPD Z11, 192(BX)(R11*2)
	VMOVUPD Z12, (BX)(R14*1)
	VMOVUPD Z13, 64(BX)(R14*1)
	VMOVUPD Z14, 128(BX)(R14*1)
	VMOVUPD Z15, 192(BX)(R14*1)
	ADDQ $256, R9
	CMPQ R9, R10
	JLT wideblock

narrow:
	MOVQ n+40(FP), R10
	ANDQ $31, R10          // columns left
	JZ widedone
narrowblock:
	MOVL $0xff, AX
	CMPQ R10, $8
	JGE narrowmask
	MOVQ R10, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
narrowmask:
	KMOVW AX, K1           // this block's columns
	LEAQ (DI)(R9*1), BX
	VMOVUPD.Z (BX), K1, Z0
	VMOVUPD.Z (BX)(R11*1), K1, Z1
	VMOVUPD.Z (BX)(R11*2), K1, Z2
	VMOVUPD.Z (BX)(R14*1), K1, Z3
	MOVQ SI, AX
	LEAQ (DX)(R9*1), BX
	MOVQ k+32(FP), CX

	PCALIGN $64
narrowp:
	VMOVUPD.Z (BX), K1, Z16
	CMPQ (AX)(R8*1), $0
	JNE narrowmarked
	NARROWROW((AX), Z0)
	NARROWROW((AX)(R12*1), Z1)
	NARROWROW((AX)(R12*2), Z2)
	NARROWROW((AX)(R13*1), Z3)
narrownext:
	ADDQ $8, AX
	ADDQ R11, BX
	DECQ CX
	JNZ narrowp

	LEAQ (DI)(R9*1), BX
	VMOVUPD Z0, K1, (BX)
	VMOVUPD Z1, K1, (BX)(R11*1)
	VMOVUPD Z2, K1, (BX)(R11*2)
	VMOVUPD Z3, K1, (BX)(R14*1)
	ADDQ $64, R9
	SUBQ $8, R10
	JG narrowblock

widedone:
	VZEROUPPER
	RET

widemarked:
	VMOVUPD (BX), Z16
	VMOVUPD 64(BX), Z17
	VMOVUPD 128(BX), Z18
	VMOVUPD 192(BX), Z19
	TESTB $1, (AX)(R8*1)
	JNZ widerow1
	WIDEROW((AX), Z0, Z1, Z2, Z3)
widerow1:
	TESTB $2, (AX)(R8*1)
	JNZ widerow2
	WIDEROW((AX)(R12*1), Z4, Z5, Z6, Z7)
widerow2:
	TESTB $4, (AX)(R8*1)
	JNZ widerow3
	WIDEROW((AX)(R12*2), Z8, Z9, Z10, Z11)
widerow3:
	TESTB $8, (AX)(R8*1)
	JNZ widenext
	WIDEROW((AX)(R13*1), Z12, Z13, Z14, Z15)
	JMP widenext

narrowmarked:
	TESTB $1, (AX)(R8*1)
	JNZ narrowrow1
	NARROWROW((AX), Z0)
narrowrow1:
	TESTB $2, (AX)(R8*1)
	JNZ narrowrow2
	NARROWROW((AX)(R12*1), Z1)
narrowrow2:
	TESTB $4, (AX)(R8*1)
	JNZ narrowrow3
	NARROWROW((AX)(R12*2), Z2)
narrowrow3:
	TESTB $8, (AX)(R8*1)
	JNZ narrownext
	NARROWROW((AX)(R13*1), Z3)
	JMP narrownext
