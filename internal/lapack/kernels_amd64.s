// Leaf micro-kernels for amd64 with AVX2. Each one is the vector form of
// an inner loop in lapack.go and must produce that loop's bits (DESIGN.md
// §18): multiply and add are separate instructions, never a fused
// multiply-add; a YMM lane is one of the reference's independent
// accumulation chains; the reduction tree is the reference's. Callers
// guarantee every pointer and count (checkShapes), so nothing here is
// bounds-checked. Every inner loop head is PCALIGN $32, so kernel speed
// does not move when unrelated text is added or removed.

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

	PCALIGN $32
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

// The panel kernels keep a chunk of one row of C in Y0..Y7 (LOAD8, STORE8)
// while the inner index p runs; Y8 holds a[p] broadcast, BX points at row p
// of b. One step of each, on the vector at byte offset off of the chunk:
//	AXPY:     acc += a[p]*b[p][..]               (two roundings)
//	MINPLUS:  acc = min(a[p]+b[p][..], acc)      (acc kept unless strictly greater)
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
#define AXPY(off, acc, tmp) \
	VMULPD off(BX), Y8, tmp \
	VADDPD tmp, acc, acc
#define MINPLUS(off, acc, tmp) \
	VADDPD off(BX), Y8, tmp \
	VMINPD acc, tmp, acc

// func axpyPanelAVX2(c, a, b *float64, k, n int)
//
// One row of GemmNN over its whole vectors, columns j < n&^3:
//	for p < k { if a[p] == 0 { continue }; c[j] += a[p]*b[p*n+j] }
// The columns go in chunks that stay in registers while p
// runs, which reorders nothing an element can see: each c[j] still takes
// its updates in p order. Requires k >= 1, n >= 4.
TEXT ·axpyPanelAVX2(SB), $0-40
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), R8
	MOVQ n+32(FP), R9
	VXORPD X14, X14, X14
	MOVQ R9, R10
	SHLQ $3, R10           // row stride of b in bytes
	SHRQ $2, R9            // whole vectors in a row
	MOVQ R9, R11
	SHRQ $3, R11           // eight-vector column chunks
	ANDQ $7, R9            // single-vector chunks after them
	TESTQ R11, R11
	JZ axpysingles

axpychunk8:
	LOAD8
	MOVQ SI, AX            // a[p]
	MOVQ DX, BX            // row p of b, this chunk's columns
	MOVQ R8, CX

	PCALIGN $32
axpyp8:
	VMOVSD (AX), X8
	VUCOMISD X14, X8
	JNE axpydo8
	JPC axpyskip8       // equal and ordered: a zero of either sign
axpydo8:
	VBROADCASTSD X8, Y8
	AXPY(0, Y0, Y9)
	AXPY(32, Y1, Y10)
	AXPY(64, Y2, Y11)
	AXPY(96, Y3, Y12)
	AXPY(128, Y4, Y13)
	AXPY(160, Y5, Y9)
	AXPY(192, Y6, Y10)
	AXPY(224, Y7, Y11)
axpyskip8:
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ CX
	JNZ axpyp8
	STORE8
	ADDQ $256, DI
	ADDQ $256, DX
	DECQ R11
	JNZ axpychunk8

axpysingles:
	TESTQ R9, R9
	JZ axpydone
axpychunk1:
	VMOVUPD (DI), Y0
	MOVQ SI, AX
	MOVQ DX, BX
	MOVQ R8, CX

	PCALIGN $32
axpyp1:
	VMOVSD (AX), X8
	VUCOMISD X14, X8
	JNE axpydo1
	JPC axpyskip1       // equal and ordered: a zero of either sign
axpydo1:
	VBROADCASTSD X8, Y8
	AXPY(0, Y0, Y9)
axpyskip1:
	ADDQ $8, AX
	ADDQ R10, BX
	DECQ CX
	JNZ axpyp1
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ R9
	JNZ axpychunk1
axpydone:
	VZEROUPPER
	RET

// func minPlusPanelAVX2(c, a, b *float64, k, n int, skip float64)
//
// One row of FWKernelD over its whole vectors, columns j < n&^3:
//	for p < k { if a[p] >= skip { continue }; c[j] = min(c[j], a[p]+b[p*n+j]) }
// with skip = Inf and min as in minPlusAVX2; chunked like axpyPanelAVX2.
// Requires k >= 1, n >= 4.
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

	PCALIGN $32
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

	PCALIGN $32
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

	PCALIGN $32
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
