package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGEMMPackedConv times the implicit-GEMM convolution at the three
// 3x3 stride-1 conv shapes of resnet-b at 128 px, batch 8 (the still-thumb
// forward): m x C*9 over 8 x HW x HW channel-major (CNHW) activations,
// with the compiled path's bias+ReLU epilogue. It dispatches whatever f32
// tier the host runs by default, so a before/after ratio needs paired
// test binaries of the two trees run interleaved (go test -c).
func BenchmarkGEMMPackedConv(b *testing.B) {
	for _, sh := range []struct{ m, c, hw int }{{12, 12, 128}, {24, 24, 64}, {48, 48, 32}} {
		const n, k = 8, 3
		rows, cols := sh.c*k*k, n*sh.hw*sh.hw
		b.Run(fmt.Sprintf("%dx%dx%d", sh.m, rows, cols), func(b *testing.B) {
			if !F32SIMDAvailable() {
				b.Skip("AVX2 f32 kernel not available on this host")
			}
			rng := rand.New(rand.NewSource(31))
			src := ConvSrc{Data: randF32s(rng, sh.c*cols), N: n, C: sh.c, H: sh.hw, W: sh.hw,
				SampleStride: sh.hw * sh.hw, ChanStride: cols, K: k, Stride: 1, Pad: 1}
			pa := PackA(sh.m, rows, randF32s(rng, sh.m*rows))
			c := make([]float32, sh.m*cols)
			ep := Epilogue{RowBias: randF32s(rng, sh.m), ReLU: true}
			GEMMPackedConv(pa, src, c, ep)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GEMMPackedConv(pa, src, c, ep)
			}
			b.ReportMetric(float64(sh.m*rows*cols)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}
