//go:build amd64 && !noasm

package tensor

import "smol/internal/cpu"

func init() {
	gemmF32Asm.Store(cpu.AVX2())
	gemmF32Wide.Store(cpu.AVX512())
}

// f32SIMDSupported reports whether this build carries the AVX2 f32
// microkernel and the hardware can run it (ignoring runtime toggles, so
// weight panels are still packed while the kernel is temporarily disabled
// for an oracle comparison).
func f32SIMDSupported() bool { return cpu.AVX2Supported() }

// f32WideSupported reports whether the hardware can also run the AVX-512
// 12x16 microkernel, ignoring runtime toggles.
func f32WideSupported() bool { return cpu.AVX512Supported() }

// gemmF32Tile4x16 computes a 4x16 f32 tile of c from an MR-interleaved a
// panel and a packed 16-column b panel; see gemm_f32_amd64.s for the
// layout and the bit-identity contract (no FMA, ascending k).
//
//go:noescape
func gemmF32Tile4x16(a, b, c *float32, kc, cStride, first int)

// gemmF32Tile12x16 computes a 12x16 f32 tile of c from three
// MR-interleaved a quads aStride elements apart and a 16-column b panel
// whose k row p is the 16 floats at b + off[p]; see gemm_f32_amd64.s.
//
//go:noescape
func gemmF32Tile12x16(a *float32, aStride int, b *float32, off *int, c *float32, kc, cStride, first int)

// epilogueF32Row applies c[j] = relu?(c[j] + bias + add[j]) over octets*8
// contiguous elements of one row. flags bit 0 = ReLU, bit 1 = add present.
//
//go:noescape
func epilogueF32Row(c, add *float32, bias float32, octets, flags int)
