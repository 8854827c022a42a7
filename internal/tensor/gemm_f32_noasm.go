//go:build !amd64 || noasm

package tensor

// f32SIMDSupported is always false without the AVX2 microkernel; PackA
// skips panel packing and every GEMM runs the portable kernels.
func f32SIMDSupported() bool { return false }

// f32WideSupported is always false without the AVX-512 microkernel.
func f32WideSupported() bool { return false }

// gemmF32Tile4x16 is never reached when f32SIMDSupported is false.
func gemmF32Tile4x16(a, b, c *float32, kc, cStride, first int) {
	panic("tensor: gemmF32Tile4x16 called without assembly support")
}

// gemmF32Tile12x16 is never reached when f32WideSupported is false.
func gemmF32Tile12x16(a *float32, aStride int, b *float32, off *int, c *float32, kc, cStride, first int) {
	panic("tensor: gemmF32Tile12x16 called without assembly support")
}

// epilogueF32Row is never reached when f32SIMDSupported is false.
func epilogueF32Row(c, add *float32, bias float32, octets, flags int) {
	panic("tensor: epilogueF32Row called without assembly support")
}
