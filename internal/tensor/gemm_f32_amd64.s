//go:build amd64 && !noasm

#include "textflag.h"

// func gemmF32Tile4x16(a, b, c *float32, kc, cStride, first int)
//
// AVX2 f32 GEMM microkernel: a 4-row x 16-column tile of c, k-depth kc.
// a points into an MR-interleaved row panel (the 4 rows' k-th elements are
// adjacent: 16 contiguous bytes per k step); b points into a packed column
// panel (16 contiguous floats per k step); c is the output tile origin with
// row stride cStride elements.
//
// Bit-identity contract: each k step issues one VBROADCASTSS per row and a
// separate VMULPS + VADDPS per accumulator — never FMA, which would skip
// the intermediate rounding the portable kernel performs — and steps walk p
// in ascending order, extending each output element's k-sum exactly like
// the scalar code. Vector lanes are distinct output columns, so vectorizing
// never reorders a single element's sum. The a operand is kept as the
// first multiplicand (src1) to mirror the portable a*b, preserving NaN
// payload selection.
//
// first != 0 seeds the accumulators with the p == 0 products (the portable
// kernel's assign-instead-of-accumulate first step); otherwise the existing
// c tile is loaded so a later k block extends the sums in place.
TEXT ·gemmF32Tile4x16(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), BX
	MOVQ c+16(FP), DI
	MOVQ kc+24(FP), CX
	MOVQ cStride+32(FP), DX
	MOVQ first+40(FP), R8

	// c row pointers (stride in bytes = 4*cStride).
	SHLQ $2, DX
	LEAQ (DI)(DX*1), R9
	LEAQ (DI)(DX*2), R10
	LEAQ (R9)(DX*2), R11

	CMPQ R8, $0
	JNE  seed

	// Accumulate mode: start from the existing c tile.
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VMOVUPS (R9), Y10
	VMOVUPS 32(R9), Y11
	VMOVUPS (R10), Y12
	VMOVUPS 32(R10), Y13
	VMOVUPS (R11), Y14
	VMOVUPS 32(R11), Y15
	JMP  kloop

seed:
	// First k block: accumulators = a[.,0] * b[0,.], no zero-init pass.
	VMOVUPS (BX), Y0
	VMOVUPS 32(BX), Y1
	ADDQ    $64, BX

	VBROADCASTSS (SI), Y2
	VMULPS       Y0, Y2, Y8
	VMULPS       Y1, Y2, Y9
	VBROADCASTSS 4(SI), Y2
	VMULPS       Y0, Y2, Y10
	VMULPS       Y1, Y2, Y11
	VBROADCASTSS 8(SI), Y2
	VMULPS       Y0, Y2, Y12
	VMULPS       Y1, Y2, Y13
	VBROADCASTSS 12(SI), Y2
	VMULPS       Y0, Y2, Y14
	VMULPS       Y1, Y2, Y15

	ADDQ $16, SI
	DECQ CX
	JZ   store

kloop:
	VMOVUPS (BX), Y0
	VMOVUPS 32(BX), Y1
	ADDQ    $64, BX

	// Row 0: broadcast a[0][p], multiply both column halves, add.
	VBROADCASTSS (SI), Y2
	VMULPS       Y0, Y2, Y3
	VADDPS       Y3, Y8, Y8
	VMULPS       Y1, Y2, Y3
	VADDPS       Y3, Y9, Y9

	// Row 1.
	VBROADCASTSS 4(SI), Y2
	VMULPS       Y0, Y2, Y3
	VADDPS       Y3, Y10, Y10
	VMULPS       Y1, Y2, Y3
	VADDPS       Y3, Y11, Y11

	// Row 2.
	VBROADCASTSS 8(SI), Y2
	VMULPS       Y0, Y2, Y3
	VADDPS       Y3, Y12, Y12
	VMULPS       Y1, Y2, Y3
	VADDPS       Y3, Y13, Y13

	// Row 3.
	VBROADCASTSS 12(SI), Y2
	VMULPS       Y0, Y2, Y3
	VADDPS       Y3, Y14, Y14
	VMULPS       Y1, Y2, Y3
	VADDPS       Y3, Y15, Y15

	ADDQ $16, SI
	DECQ CX
	JNZ  kloop

store:
	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, (R9)
	VMOVUPS Y11, 32(R9)
	VMOVUPS Y12, (R10)
	VMOVUPS Y13, 32(R10)
	VMOVUPS Y14, (R11)
	VMOVUPS Y15, 32(R11)

	VZEROUPPER
	RET

// func epilogueF32Row(c, add *float32, bias float32, octets, flags int)
//
// Vectorized fused epilogue over octets*8 contiguous elements of one c
// row: c[j] = relu?(c[j] + bias + add[j]). flags bit 0 enables ReLU, bit 1
// enables the add operand (which must then cover octets*8 elements). The
// bias is always added — mirroring the portable applyEpilogue, which adds
// its (possibly zero) bias variable whenever any epilogue field is set.
//
// ReLU is a compare-and-mask (v < 0 ? 0 : v), not VMAXPS: max would turn
// -0.0 into +0.0 and pick the non-NaN operand, while the portable scalar
// branch keeps both -0.0 and NaN untouched.
TEXT ·epilogueF32Row(SB), NOSPLIT, $0-40
	MOVQ         c+0(FP), DI
	MOVQ         add+8(FP), SI
	VBROADCASTSS bias+16(FP), Y1
	MOVQ         octets+24(FP), CX
	MOVQ         flags+32(FP), DX
	VXORPS       Y4, Y4, Y4       // zeros for the ReLU compare

octloop:
	VMOVUPS (DI), Y0
	VADDPS  Y1, Y0, Y0    // v = c[j] + bias (c is src1, as in the scalar code)

	TESTQ $2, DX
	JZ    noadd
	VMOVUPS (SI), Y2
	VADDPS  Y2, Y0, Y0    // v += add[j]
	ADDQ    $32, SI

noadd:
	TESTQ $1, DX
	JZ    norelu
	VCMPPS  $1, Y4, Y0, Y3 // mask = v < 0 (LT_OS: false for NaN)
	VANDNPS Y0, Y3, Y0     // v = ~mask & v: negatives -> 0, -0.0/NaN kept

norelu:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     octloop

	VZEROUPPER
	RET

// func gemmF32Tile12x16(a *float32, aStride int, b *float32, off *int, c *float32, kc, cStride, first int)
//
// AVX-512 f32 GEMM microkernel: a 12-row x 16-column tile of c, k-depth
// kc, one ZMM accumulator per row. a points at the first of three
// MR-interleaved row quads, aStride elements apart (quad q's k-th step is
// the 16 bytes at a + q*aStride + 4k). b is a base pointer and off a table
// of kc element offsets: k row p of the 16-column b panel is the 16
// contiguous floats at b + off[p]. A gathered panel is the table
// off[p] = 16p over stack scratch; an in-place panel is the conv's tap
// table over the activation itself. c is the output tile origin with row
// stride cStride elements.
//
// The bit-identity contract is gemmF32Tile4x16's: one VBROADCASTSS of a
// per row kept as the multiply's src1, a separate VMULPS + VADDPS per
// accumulator (never FMA), p ascending, and first != 0 seeding the
// accumulators with the p == 0 products instead of loading c.
TEXT ·gemmF32Tile12x16(SB), NOSPLIT, $0-64
	MOVQ a+0(FP), SI
	MOVQ aStride+8(FP), R12
	MOVQ b+16(FP), BX
	MOVQ off+24(FP), R14
	MOVQ c+32(FP), DI
	MOVQ kc+40(FP), CX
	MOVQ cStride+48(FP), DX
	MOVQ first+56(FP), R8

	SHLQ $2, R12 // quad stride in bytes: quad 1 at (SI)(R12*1), quad 2 at (SI)(R12*2)
	SHLQ $2, DX  // c row stride in bytes

	CMPQ R8, $0
	JNE  seed

	// Accumulate mode: start from the existing c tile.
	MOVQ    DI, R9
	VMOVUPS (R9), Z0
	ADDQ    DX, R9
	VMOVUPS (R9), Z1
	ADDQ    DX, R9
	VMOVUPS (R9), Z2
	ADDQ    DX, R9
	VMOVUPS (R9), Z3
	ADDQ    DX, R9
	VMOVUPS (R9), Z4
	ADDQ    DX, R9
	VMOVUPS (R9), Z5
	ADDQ    DX, R9
	VMOVUPS (R9), Z6
	ADDQ    DX, R9
	VMOVUPS (R9), Z7
	ADDQ    DX, R9
	VMOVUPS (R9), Z8
	ADDQ    DX, R9
	VMOVUPS (R9), Z9
	ADDQ    DX, R9
	VMOVUPS (R9), Z10
	ADDQ    DX, R9
	VMOVUPS (R9), Z11
	JMP     kloop

seed:
	// First k block: accumulators = a[., 0] * b[0, .], no zero-init pass.
	MOVQ    (R14), AX
	ADDQ    $8, R14
	VMOVUPS (BX)(AX*4), Z12

	VBROADCASTSS (SI), Z13
	VMULPS       Z12, Z13, Z0
	VBROADCASTSS 4(SI), Z13
	VMULPS       Z12, Z13, Z1
	VBROADCASTSS 8(SI), Z13
	VMULPS       Z12, Z13, Z2
	VBROADCASTSS 12(SI), Z13
	VMULPS       Z12, Z13, Z3
	VBROADCASTSS (SI)(R12*1), Z13
	VMULPS       Z12, Z13, Z4
	VBROADCASTSS 4(SI)(R12*1), Z13
	VMULPS       Z12, Z13, Z5
	VBROADCASTSS 8(SI)(R12*1), Z13
	VMULPS       Z12, Z13, Z6
	VBROADCASTSS 12(SI)(R12*1), Z13
	VMULPS       Z12, Z13, Z7
	VBROADCASTSS (SI)(R12*2), Z13
	VMULPS       Z12, Z13, Z8
	VBROADCASTSS 4(SI)(R12*2), Z13
	VMULPS       Z12, Z13, Z9
	VBROADCASTSS 8(SI)(R12*2), Z13
	VMULPS       Z12, Z13, Z10
	VBROADCASTSS 12(SI)(R12*2), Z13
	VMULPS       Z12, Z13, Z11

	ADDQ $16, SI
	DECQ CX
	JZ   store

kloop:
	MOVQ    (R14), AX
	ADDQ    $8, R14
	VMOVUPS (BX)(AX*4), Z12

	// Quad 0.
	VBROADCASTSS (SI), Z13
	VMULPS       Z12, Z13, Z14
	VADDPS       Z14, Z0, Z0
	VBROADCASTSS 4(SI), Z13
	VMULPS       Z12, Z13, Z15
	VADDPS       Z15, Z1, Z1
	VBROADCASTSS 8(SI), Z13
	VMULPS       Z12, Z13, Z14
	VADDPS       Z14, Z2, Z2
	VBROADCASTSS 12(SI), Z13
	VMULPS       Z12, Z13, Z15
	VADDPS       Z15, Z3, Z3

	// Quad 1.
	VBROADCASTSS (SI)(R12*1), Z13
	VMULPS       Z12, Z13, Z14
	VADDPS       Z14, Z4, Z4
	VBROADCASTSS 4(SI)(R12*1), Z13
	VMULPS       Z12, Z13, Z15
	VADDPS       Z15, Z5, Z5
	VBROADCASTSS 8(SI)(R12*1), Z13
	VMULPS       Z12, Z13, Z14
	VADDPS       Z14, Z6, Z6
	VBROADCASTSS 12(SI)(R12*1), Z13
	VMULPS       Z12, Z13, Z15
	VADDPS       Z15, Z7, Z7

	// Quad 2.
	VBROADCASTSS (SI)(R12*2), Z13
	VMULPS       Z12, Z13, Z14
	VADDPS       Z14, Z8, Z8
	VBROADCASTSS 4(SI)(R12*2), Z13
	VMULPS       Z12, Z13, Z15
	VADDPS       Z15, Z9, Z9
	VBROADCASTSS 8(SI)(R12*2), Z13
	VMULPS       Z12, Z13, Z14
	VADDPS       Z14, Z10, Z10
	VBROADCASTSS 12(SI)(R12*2), Z13
	VMULPS       Z12, Z13, Z15
	VADDPS       Z15, Z11, Z11

	ADDQ $16, SI
	DECQ CX
	JNZ  kloop

store:
	VMOVUPS Z0, (DI)
	ADDQ    DX, DI
	VMOVUPS Z1, (DI)
	ADDQ    DX, DI
	VMOVUPS Z2, (DI)
	ADDQ    DX, DI
	VMOVUPS Z3, (DI)
	ADDQ    DX, DI
	VMOVUPS Z4, (DI)
	ADDQ    DX, DI
	VMOVUPS Z5, (DI)
	ADDQ    DX, DI
	VMOVUPS Z6, (DI)
	ADDQ    DX, DI
	VMOVUPS Z7, (DI)
	ADDQ    DX, DI
	VMOVUPS Z8, (DI)
	ADDQ    DX, DI
	VMOVUPS Z9, (DI)
	ADDQ    DX, DI
	VMOVUPS Z10, (DI)
	ADDQ    DX, DI
	VMOVUPS Z11, (DI)

	VZEROUPPER
	RET
