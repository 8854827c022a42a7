package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"smol/internal/analysis/alloctest"
)

// packB16 is the oracle of gatherB16: the (kc x 16) panel of a
// materialized row-major (k x n) b at k-block pc and columns [jb, jb+w),
// copied row by row, with the columns past w zeroed.
func packB16(n int, b []float32, pc, kc, jb, w int, dst *[gemmKC * gemmF32NR]float32) {
	for p := 0; p < kc; p++ {
		row := dst[p*gemmF32NR : (p+1)*gemmF32NR]
		copy(row, b[(pc+p)*n+jb:(pc+p)*n+jb+w])
		clear(row[w:])
	}
}

// convCase is one geometry of the implicit-GEMM grid.
type convCase struct {
	n, c, h, w, k, stride, pad int
	cnhw                       bool
}

func (g convCase) String() string {
	layout := "nchw"
	if g.cnhw {
		layout = "cnhw"
	}
	return fmt.Sprintf("n%dc%d_%dx%d_k%ds%dp%d_%s", g.n, g.c, g.h, g.w, g.k, g.stride, g.pad, layout)
}

// src builds the case's input with seeded values, -0.0 and a NaN payload,
// so bit comparisons see sign and payload mix-ups.
func (g convCase) src(rng *rand.Rand) ConvSrc {
	data := randF32s(rng, g.n*g.c*g.h*g.w)
	data[0] = float32(math.Copysign(0, -1))
	data[len(data)/2] = math.Float32frombits(0x7fc0_1234)
	s := ConvSrc{Data: data, N: g.n, C: g.c, H: g.h, W: g.w,
		SampleStride: g.c * g.h * g.w, ChanStride: g.h * g.w, K: g.k, Stride: g.stride, Pad: g.pad}
	if g.cnhw {
		s.SampleStride, s.ChanStride = g.h*g.w, g.n*g.h*g.w
	}
	return s
}

// im2col materializes s's im2col matrix through Im2ColBatch.
func im2col(s ConvSrc) (col []float32, rows, cols int) {
	outH, outW := s.OutSize()
	rows, cols = s.C*s.K*s.K, s.N*outH*outW
	col = make([]float32, rows*cols)
	Im2ColBatch(s.Data, s.N, s.C, s.H, s.W, s.SampleStride, s.ChanStride, s.K, s.K, s.Stride, s.Pad, col)
	return col, rows, cols
}

// convGrid covers k in {1, 3}, stride in {1, 2}, pad in {0, 1}, both
// layouts, output widths below 16 (panels straddle output rows and
// samples) and from 18 up (interior, border and stride-2 panels all
// occur), and column counts that are not multiples of 16.
func convGrid() []convCase {
	var grid []convCase
	for _, k := range []int{1, 3} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, hw := range [][2]int{{5, 5}, {7, 4}, {9, 13}, {2, 3}, {20, 37}, {6, 41}} {
					for _, cnhw := range []bool{false, true} {
						g := convCase{n: 3, c: 2, h: hw[0], w: hw[1], k: k, stride: stride, pad: pad, cnhw: cnhw}
						if g.h+2*pad < k || g.w+2*pad < k {
							continue
						}
						grid = append(grid, g)
					}
				}
			}
		}
	}
	// Deep enough that a k block starts mid-kernel-window (pc = 256 is
	// channel 28, tap (1, 1) at k = 3); the 21-wide ones also put interior
	// (in-place) panels in that k block.
	grid = append(grid, convCase{n: 2, c: 40, h: 6, w: 5, k: 3, stride: 1, pad: 1, cnhw: true},
		convCase{n: 1, c: 300, h: 3, w: 17, k: 1, stride: 1, pad: 0},
		convCase{n: 2, c: 32, h: 6, w: 21, k: 3, stride: 1, pad: 1, cnhw: true},
		convCase{n: 2, c: 30, h: 5, w: 21, k: 3, stride: 1, pad: 0})
	return grid
}

// wideOut reports whether g's output rows are wide enough for whole
// 16-column panels inside one row (in place where the taps allow).
func (g convCase) wideOut() bool {
	return (g.w+2*g.pad-g.k)/g.stride+1 >= 18
}

// TestGatherMatchesIm2Col: every panel gatherB16 reads straight from the
// source through its k block's convTable has the float bits packB16
// copies out of Im2ColBatch's matrix, at every k block (also ones that
// start mid-window) and column offset of the grid. Wherever inPlaceB16
// accepts a panel, each of its rows Data[x + off[p]:][:16] must be that
// im2col row too, since the ZMM kernel reads it there without a copy.
func TestGatherMatchesIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, g := range convGrid() {
		t.Run(g.String(), func(t *testing.T) {
			s := g.src(rng)
			col, rows, cols := im2col(s)
			outH, outW := s.OutSize()
			var got, want [gemmKC * gemmF32NR]float32
			var tab convTable
			inPlace := 0
			for pc := 0; pc < rows; pc += gemmKC {
				for _, start := range []int{pc, pc + 1} {
					kc := min(rows-start, gemmKC)
					if kc <= 0 {
						continue
					}
					buildConvTable(&tab, &s, start, kc)
					for jb := 0; jb < cols; jb += gemmF32NR {
						w := min(cols-jb, gemmF32NR)
						for i := range got {
							got[i], want[i] = 1, 1 // stale scratch must be overwritten
						}
						gatherB16(&s, &tab, outH, outW, kc, jb, w, &got)
						packB16(cols, col, start, kc, jb, w, &want)
						if i := f32BitsDiff(got[:kc*gemmF32NR], want[:kc*gemmF32NR]); i >= 0 {
							t.Fatalf("pc %d jb %d: panel[%d] (row %d col %d) bits %x, im2col %x",
								start, jb, i, start+i/gemmF32NR, jb+i%gemmF32NR,
								math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
						x, ok := inPlaceB16(&s, outH, outW, jb)
						if !ok || w < gemmF32NR {
							continue
						}
						inPlace++
						for p := 0; p < kc; p++ {
							row := s.Data[x+tab.off[p]:][:gemmF32NR]
							if i := f32BitsDiff(row, want[p*gemmF32NR:(p+1)*gemmF32NR]); i >= 0 {
								t.Fatalf("pc %d jb %d: in-place row %d col %d bits %x, im2col %x",
									start, jb, start+p, jb+i, math.Float32bits(row[i]),
									math.Float32bits(want[p*gemmF32NR+i]))
							}
						}
					}
				}
			}
			if g.stride == 1 && g.wideOut() && (g.k == 1 || g.h+2*g.pad >= g.k+2) && inPlace == 0 {
				t.Fatalf("no panel of %v is read in place", g)
			}
		})
	}
}

// TestGEMMPackedConvMatchesIm2Col: the implicit-GEMM convolution gives the
// bits of GEMMPackedRaw over Im2ColBatch's matrix, on both kernel tiers
// of the reference, for every epilogue, row counts off the quad grid and
// (on wide outputs) 12, 16, 24 and 44 rows — whole ZMM groups with and
// without YMM leftover quads — and serial and parallel splits. It runs
// once per SIMD kernel the host has: the ZMM dispatch and the forced YMM
// kernel.
func TestGEMMPackedConvMatchesIm2Col(t *testing.T) {
	if !F32SIMDAvailable() {
		t.Skip("AVX2 f32 kernel not available on this host")
	}
	forEachF32Kernel(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		for gi, g := range convGrid() {
			s := g.src(rng)
			col, rows, cols := im2col(s)
			ms := []int{[]int{4, 6, 12, 1}[gi%4]}
			if g.wideOut() {
				ms = append(ms, 16, 24, 44)
			}
			for mi, m := range ms {
				a := randF32s(rng, m*rows)
				pa := PackA(m, rows, a)
				ep := epilogueVariant(rng, (gi+mi)%8, m, cols)
				for _, simd := range []bool{true, false} {
					prev := SetF32SIMD(simd)
					want := make([]float32, m*cols)
					GEMMPackedRaw(pa, cols, col, want, ep)
					SetF32SIMD(prev)
					for _, procs := range []int{1, 3} {
						old := runtime.GOMAXPROCS(procs)
						got := make([]float32, m*cols)
						GEMMPackedConv(pa, s, got, ep)
						runtime.GOMAXPROCS(old)
						if i := f32BitsDiff(got, want); i >= 0 {
							t.Fatalf("%s: %v m=%d simd=%v procs=%d: c[%d] bits %x, im2col GEMM %x", F32KernelName(),
								g, m, simd, procs, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	})
}

// TestGEMMPackedConvWarmAllocs: the implicit GEMM gathers into stack
// scratch and keeps its conv table on the stack, so a warm serial call
// allocates nothing. The 40-wide output rows give interior and border
// panels; m = 12 reads the interior ones in place on the ZMM tier, and
// m = 14 adds a partial row quad, so every panel is gathered.
func TestGEMMPackedConvWarmAllocs(t *testing.T) {
	if !F32SIMDAvailable() {
		t.Skip("AVX2 f32 kernel not available on this host")
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(23))
	g := convCase{n: 2, c: 3, h: 9, w: 40, k: 3, stride: 1, pad: 1, cnhw: true}
	s := g.src(rng)
	outH, outW := s.OutSize()
	const m = 14
	rows := s.C * s.K * s.K
	a := randF32s(rng, m*rows)
	pa12, pa14 := PackA(12, rows, a), PackA(m, rows, a)
	c := make([]float32, m*s.N*outH*outW)
	ep12 := Epilogue{RowBias: randF32s(rng, 12), ReLU: true}
	ep14 := Epilogue{RowBias: randF32s(rng, m), ReLU: true}
	alloctest.Run(t, "smol/internal/tensor.gatherB16", 0, func() {
		GEMMPackedConv(pa12, s, c, ep12)
		GEMMPackedConv(pa14, s, c, ep14)
	},
		"smol/internal/tensor.gemmF32RangeAVX2",
		"smol/internal/tensor.buildConvTable",
		"smol/internal/tensor.colOrigin",
		"smol/internal/tensor.inPlaceB16",
		"smol/internal/tensor.copy16",
		"smol/internal/tensor.tileEdge",
		"smol/internal/tensor.applyEpilogueAVX2")
}
