package tensor

import (
	"sync"
	"sync/atomic"
)

// SIMD f32 GEMM tier: a-operand packing, b-panel gathering (which makes a
// convolution an implicit GEMM), dispatch, and the runtime toggle.
//
// The AVX2 microkernel (gemm_f32_amd64.s) is bit-identical to the portable
// gemm4/gemm1 path: vector lanes are distinct output columns, every k step
// uses a separate multiply and add (no FMA contraction), and steps walk k
// in ascending order — so no single output element's sum is ever reordered
// or fused differently from the scalar code. That makes the portable
// kernel a true equivalence oracle, and lets the toggle below flip
// mid-process without changing any result.

const (
	// gemmF32NR is the microkernel tile width: 16 f32 columns = 2 YMM
	// vectors per row.
	gemmF32NR = 16

	// KernelAVX2 and KernelPortable name the f32/int8 kernel tiers in
	// plans, calibration records, and -explain output.
	KernelAVX2     = "avx2"
	KernelPortable = "portable"
)

// gemmF32Asm gates dispatch to the AVX2 f32 microkernel. It starts at
// cpu.AVX2() and only SetF32SIMD moves it (smol-query -nosimd, oracle
// tests). Atomic because a flip may land while other goroutines are inside
// a GEMM; the kernels are bit-identical, so a mid-flight flip is harmless —
// each GEMM call reads the flag once.
var gemmF32Asm atomic.Bool

// SetF32SIMD enables or disables the AVX2 f32 GEMM tier process-wide and
// reports the previous setting. Enabling is a no-op on builds or hardware
// without the kernel. Because the tiers are bit-identical this only moves
// throughput, never results.
func SetF32SIMD(enable bool) (previous bool) {
	return gemmF32Asm.Swap(enable && f32SIMDSupported())
}

// F32SIMDActive reports whether f32 GEMMs currently dispatch to the AVX2
// microkernel.
func F32SIMDActive() bool { return gemmF32Asm.Load() }

// F32SIMDAvailable reports whether this build and CPU carry the AVX2 f32
// microkernel at all, regardless of the runtime toggle.
func F32SIMDAvailable() bool { return f32SIMDSupported() }

// F32KernelName names the active f32 GEMM kernel tier.
func F32KernelName() string {
	if F32SIMDActive() {
		return KernelAVX2
	}
	return KernelPortable
}

// Int8KernelName names the active int8 GEMM kernel tier.
func Int8KernelName() string {
	if gemmInt8AsmActive {
		return KernelAVX2
	}
	return KernelPortable
}

// PackedA is a GEMM a-operand prepared once at compile time: the original
// row-major matrix plus (on SIMD-capable builds) its rows re-laid into
// MR-interleaved quad panels, so the microkernel reads 4 rows' k-th
// elements as one contiguous 16-byte line instead of 4 strided loads.
// Panel element (quad i, k-index p, row r) lives at panels[i*4*k + p*4 + r];
// when m%4 != 0 the last quad is padded with zero rows, whose products the
// kernel computes into scratch and discards.
type PackedA struct {
	m, k   int
	raw    []float32
	panels []float32
}

// PackA packs a row-major (m x k) matrix for repeated GEMMPackedRaw and
// GEMMPackedConv calls. The raw slice is referenced, not copied; it must
// stay live and unchanged. Panels are built even while the SIMD toggle is
// off, so flipping it back on needs no re-pack.
func PackA(m, k int, a []float32) *PackedA {
	if len(a) < m*k {
		panic("tensor: PackA operand length mismatch")
	}
	pa := &PackedA{m: m, k: k, raw: a}
	if f32SIMDSupported() && m > 0 && k > 0 {
		pa.panels = make([]float32, quadRows(m)*k)
		packAF32(m, k, a, pa.panels)
	}
	return pa
}

// quadRows rounds m up to whole row quads.
func quadRows(m int) int { return (m + gemmMR - 1) &^ (gemmMR - 1) }

// packAF32 interleaves the m rows of the row-major (m x k) matrix a into
// quad panels: dst[i*4*k + p*4 + r] = a[(i*4+r)*k + p], and 0 for the
// padding rows i*4+r >= m of the last quad. dst holds quadRows(m)*k
// elements.
//
//smol:noalloc
func packAF32(m, k int, a, dst []float32) {
	for i := 0; i < m; i += gemmMR {
		panel := dst[i*k : (i+gemmMR)*k : (i+gemmMR)*k]
		for r := 0; r < gemmMR; r++ {
			if i+r >= m {
				for p := 0; p < k; p++ {
					panel[p*gemmMR+r] = 0
				}
				continue
			}
			for p, v := range a[(i+r)*k : (i+r+1)*k] {
				panel[p*gemmMR+r] = v
			}
		}
	}
}

// ConvSrc describes a convolution input as the implicit b operand of a
// GEMM: the (C*K*K) x (N*outH*outW) im2col matrix whose row
// (ci*K+ky)*K+kx, column (i*outH+oy)*outW+ox holds
// Data[i*SampleStride + ci*ChanStride + iy*W + ix] with iy = oy*Stride +
// ky - Pad and ix = ox*Stride + kx - Pad, or 0 where (iy, ix) lies in the
// padding. That is exactly the matrix Im2ColBatch writes; GEMMPackedConv
// reads it without writing it. NCHW inputs use SampleStride = C*H*W,
// ChanStride = H*W; the compiled path's channel-major CNHW activations
// use SampleStride = H*W, ChanStride = N*H*W.
type ConvSrc struct {
	Data                     []float32
	N, C, H, W               int
	SampleStride, ChanStride int
	K, Stride, Pad           int
}

// OutSize returns the convolution's output plane size.
func (s ConvSrc) OutSize() (outH, outW int) {
	return (s.H+2*s.Pad-s.K)/s.Stride + 1, (s.W+2*s.Pad-s.K)/s.Stride + 1
}

// denseSrc views a row-major (k x n) matrix as a ConvSrc: a 1x1
// convolution over one sample of k channels, each a 1 x n row, whose
// im2col matrix is b itself.
func denseSrc(k, n int, b []float32) ConvSrc {
	return ConvSrc{Data: b, N: 1, C: k, H: 1, W: n, SampleStride: k * n, ChanStride: n, K: 1, Stride: 1}
}

// gatherSeg is a run of panel columns [j0, j1) that share one sample and
// one output row, so their source pixels sit in one input row, Stride
// apart.
type gatherSeg struct {
	j0, j1   int
	base     int // Data offset of the sample
	iy0, ix0 int // input coordinates of column j0 before the kernel offset
}

// gatherB16 writes the (kc x 16) panel of s's im2col matrix at k-block pc
// and columns [jb, jb+w) into dst: dst[p*16 + j] = B[pc+p][jb+j], and 0 for
// the padding columns w <= j < 16. The rows walk (ci, ky, kx) in ascending
// k order, exactly as Im2ColBatch lays them out, so a kernel consuming the
// panel accumulates every output element in the same order. At gemmKC
// depth the panel is 16 KiB: L1-resident, and reused by every row quad.
//
//smol:noalloc
func gatherB16(s *ConvSrc, outH, outW, pc, kc, jb, w int, dst *[gemmKC * gemmF32NR]float32) {
	// Split the panel's columns into runs within one sample's output row.
	var segs [gemmF32NR]gatherSeg
	ns := 0
	ohow := outH * outW
	for j := 0; j < w; ns++ {
		col := jb + j
		i := col / ohow
		oy := (col - i*ohow) / outW
		ox := col - i*ohow - oy*outW
		run := min(outW-ox, w-j)
		segs[ns] = gatherSeg{j0: j, j1: j + run, base: i * s.SampleStride,
			iy0: oy*s.Stride - s.Pad, ix0: ox*s.Stride - s.Pad}
		j += run
	}
	if w < gemmF32NR {
		for p := 0; p < kc; p++ {
			clear(dst[p*gemmF32NR+w : (p+1)*gemmF32NR])
		}
	}
	kk := s.K * s.K
	ci0, ky0, kx0 := pc/kk, pc%kk/s.K, pc%s.K
	for _, sg := range segs[:ns] {
		ci, ky, kx := ci0, ky0, kx0
		span := (sg.j1-sg.j0-1)*s.Stride + 1 // input pixels one tap row covers
		if sg.iy0 >= 0 && sg.iy0+s.K <= s.H && sg.ix0 >= 0 && sg.ix0+span+s.K-1 <= s.W {
			// Interior run: every tap lands inside the input, so each row
			// is a plain (strided) copy from a running offset.
			off := sg.base + ci*s.ChanStride + (sg.iy0+ky)*s.W + sg.ix0 + kx
			for p := 0; p < kc; p++ {
				out := dst[p*gemmF32NR+sg.j0 : p*gemmF32NR+sg.j1]
				if s.Stride == 1 && len(out) == gemmF32NR {
					copy16(out, s.Data[off:])
				} else {
					in := s.Data[off : off+span]
					for j := range out {
						out[j] = in[j*s.Stride]
					}
				}
				off++
				if kx++; kx == s.K {
					kx, ky, off = 0, ky+1, off+s.W-s.K
					if ky == s.K {
						ky, ci, off = 0, ci+1, off+s.ChanStride-s.K*s.W
					}
				}
			}
			continue
		}
		// Border run: per row, only the taps [lo, hi) land inside the
		// input; the rest read the zero padding.
		for p := 0; p < kc; p++ {
			out := dst[p*gemmF32NR+sg.j0 : p*gemmF32NR+sg.j1]
			lo, hi := 0, 0
			if iy := sg.iy0 + ky; iy >= 0 && iy < s.H {
				ix := sg.ix0 + kx
				if s.Stride == 1 {
					lo, hi = -ix, s.W-ix
				} else {
					lo, hi = (s.Stride-1-ix)/s.Stride, (s.W-ix+s.Stride-1)/s.Stride
				}
				lo = min(max(lo, 0), len(out))
				hi = max(min(hi, len(out)), lo)
				if hi > lo {
					x0 := sg.base + ci*s.ChanStride + iy*s.W + ix + lo*s.Stride
					if s.Stride == 1 {
						copy(out[lo:hi], s.Data[x0:x0+hi-lo])
					} else {
						in := s.Data[x0 : x0+(hi-lo-1)*s.Stride+1]
						for j := range out[lo:hi] {
							out[lo+j] = in[j*s.Stride]
						}
					}
				}
			}
			for j := range out[:lo] {
				out[j] = 0
			}
			for j := hi; j < len(out); j++ {
				out[j] = 0
			}
			if kx++; kx == s.K {
				if kx, ky = 0, ky+1; ky == s.K {
					ky, ci = 0, ci+1
				}
			}
		}
	}
}

// copy16 copies 16 floats from src to dst in four 16-byte moves. A plain
// copy or 64-byte array assignment compiles to a memmove call, which
// costs more than the move itself at this size.
//
//smol:noalloc
func copy16(dst, src []float32) {
	d, s := (*[gemmF32NR]float32)(dst), (*[gemmF32NR]float32)(src)
	*(*[4]float32)(d[0:4]) = *(*[4]float32)(s[0:4])
	*(*[4]float32)(d[4:8]) = *(*[4]float32)(s[4:8])
	*(*[4]float32)(d[8:12]) = *(*[4]float32)(s[8:12])
	*(*[4]float32)(d[12:16]) = *(*[4]float32)(s[12:16])
}

// packBuf is the pooled scratch GEMMRaw packs its a operand into when the
// streamed path (no precompiled PackedA) dispatches to the microkernel.
type packBuf struct{ buf []float32 }

var packAPool = sync.Pool{New: func() any { return new(packBuf) }}

// gemmRawAVX2 is GEMMRaw's SIMD path: pack a's row quads into pooled
// scratch, run the parallel kernel, return the scratch. Warm calls do not
// allocate.
func gemmRawAVX2(m, k, n int, a, b, c []float32, ep Epilogue) {
	pb := packAPool.Get().(*packBuf)
	size := quadRows(m) * k
	if cap(pb.buf) < size {
		pb.buf = make([]float32, size)
	}
	panels := pb.buf[:size]
	packAF32(m, k, a, panels)
	gemmParallel(m, k, n, panels, a, denseSrc(k, n, b), c, ep)
	packAPool.Put(pb)
}

// GEMMPackedRaw is GEMMRaw with a compile-time packed a operand: the
// panels skip the per-call packing pass, and the portable path (or a
// disabled SIMD toggle) falls back to the referenced raw matrix. Results
// are bit-identical either way.
func GEMMPackedRaw(pa *PackedA, n int, b, c []float32, ep Epilogue) {
	m, k := pa.m, pa.k
	if len(b) < k*n || len(c) < m*n {
		panic("tensor: GEMMPackedRaw operand length mismatch")
	}
	checkEpilogue(m, n, ep)
	panels := pa.panels
	if !gemmF32Asm.Load() {
		panels = nil
	}
	gemmParallel(m, k, n, panels, pa.raw, denseSrc(k, n, b), c, ep)
}

// GEMMPackedConv is an implicit-GEMM convolution: c = epilogue(pa @ B),
// where B is src's im2col matrix (see ConvSrc). Each 16-column B panel is
// gathered straight from src.Data inside the kernel, in the ascending k
// order Im2ColBatch uses, so no im2col matrix is written and c is bit for
// bit what GEMMPackedRaw returns on Im2ColBatch's output. c is row-major
// (m x src.N*outH*outW). It always runs the AVX2 kernel and needs pa's
// panels, which PackA builds wherever F32SIMDAvailable; the portable tier
// lowers a convolution through Im2ColBatch + GEMMPackedRaw instead.
func GEMMPackedConv(pa *PackedA, src ConvSrc, c []float32, ep Epilogue) {
	if pa.panels == nil {
		panic("tensor: GEMMPackedConv needs the AVX2 f32 kernel")
	}
	if pa.k != src.C*src.K*src.K || src.N <= 0 || src.Stride <= 0 {
		panic("tensor: GEMMPackedConv geometry mismatch")
	}
	if len(src.Data) < (src.N-1)*src.SampleStride+(src.C-1)*src.ChanStride+src.H*src.W {
		panic("tensor: GEMMPackedConv source too short")
	}
	outH, outW := src.OutSize()
	n := src.N * outH * outW
	if len(c) < pa.m*n {
		panic("tensor: GEMMPackedConv output too short")
	}
	checkEpilogue(pa.m, n, ep)
	gemmParallel(pa.m, pa.k, n, pa.panels, pa.raw, src, c, ep)
}

// gemmDispatch routes one worker's disjoint region to the SIMD range when
// an a panel is available, and to the portable range otherwise. The
// portable range reads b densely, so it is only ever handed a denseSrc.
func gemmDispatch(m, k, n int, panels, a []float32, b ConvSrc, c []float32, i0, i1, j0, j1 int, ep Epilogue) {
	if panels != nil {
		gemmF32RangeAVX2(k, n, panels, &b, c, i0, i1, j0, j1, ep)
		return
	}
	gemmRange(m, k, n, a, b.Data, c, i0, i1, j0, j1, ep)
}

// gemmF32RangeAVX2 is the SIMD serial core: the same jc/pc blocking as
// gemmRange, but b arrives as 16-column panels gathered from b's source
// into stack scratch, and every row quad runs the 4x16 microkernel. Edge
// tiles — the zero-padded last a quad when i1%4 != 0, the zero-padded last
// b panel when the range's width is not a multiple of 16 — run the same
// kernel through tileEdge. i0 must be a multiple of gemmMR.
//
//smol:noalloc
func gemmF32RangeAVX2(k, n int, panels []float32, b *ConvSrc, c []float32, i0, i1, j0, j1 int, ep Epilogue) {
	var bpack [gemmKC * gemmF32NR]float32
	outH, outW := b.OutSize()
	quad := i0 + (i1-i0)&^(gemmMR-1)
	for jc := j0; jc < j1; jc += gemmNC {
		nc := min(j1-jc, gemmNC)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(k-pc, gemmKC)
			first := 0
			if pc == 0 {
				first = 1
			}
			for jb := jc; jb < jc+nc; jb += gemmF32NR {
				w := min(jc+nc-jb, gemmF32NR)
				gatherB16(b, outH, outW, pc, kc, jb, w, &bpack)
				i := i0
				if w == gemmF32NR {
					for ; i < quad; i += gemmMR {
						gemmF32Tile4x16(&panels[i*k+pc*gemmMR], &bpack[0], &c[i*n+jb], kc, n, first)
					}
				}
				for ; i < i1; i += gemmMR {
					tileEdge(&panels[i*k+pc*gemmMR], &bpack, c, i*n+jb, n, min(i1-i, gemmMR), w, kc, first)
				}
			}
		}
		applyEpilogueAVX2(n, c, i0, i1, jc, nc, ep)
	}
}

// tileEdge runs the microkernel on a partial tile of rows x cols elements
// at c[off], through a 4x16 stack scratch tile: the valid part of c is
// copied in (unless first seeds the sums), the kernel runs, and the valid
// part is copied back. Each valid element sees exactly the multiplies and
// adds a full tile would give it; the padding lanes are discarded.
//
//smol:noalloc
func tileEdge(a *float32, b *[gemmKC * gemmF32NR]float32, c []float32, off, n, rows, cols, kc, first int) {
	var t [gemmMR * gemmF32NR]float32
	if first == 0 {
		for r := 0; r < rows; r++ {
			copy(t[r*gemmF32NR:r*gemmF32NR+cols], c[off+r*n:off+r*n+cols])
		}
	}
	gemmF32Tile4x16(a, &b[0], &t[0], kc, gemmF32NR, first)
	for r := 0; r < rows; r++ {
		copy(c[off+r*n:off+r*n+cols], t[r*gemmF32NR:r*gemmF32NR+cols])
	}
}

// applyEpilogueAVX2 is applyEpilogue with the row body vectorized: full
// 8-wide octets run the epilogueF32Row kernel, the tail runs the same
// scalar arithmetic in the same order ((c + bias) + add, then ReLU).
//
//smol:noalloc
func applyEpilogueAVX2(n int, c []float32, i0, i1, jc, nc int, ep Epilogue) {
	if ep.RowBias == nil && ep.Add == nil && !ep.ReLU {
		return
	}
	flags := 0
	if ep.ReLU {
		flags |= 1
	}
	if ep.Add != nil {
		flags |= 2
	}
	octets := nc / 8
	for i := i0; i < i1; i++ {
		var bias float32
		if ep.RowBias != nil {
			bias = ep.RowBias[i]
		}
		off := i*n + jc
		if octets > 0 {
			var addp *float32
			if ep.Add != nil {
				addp = &ep.Add[off]
			}
			epilogueF32Row(&c[off], addp, bias, octets, flags)
		}
		for j := off + octets*8; j < off+nc; j++ {
			v := c[j] + bias
			if ep.Add != nil {
				v += ep.Add[j]
			}
			if ep.ReLU && v < 0 {
				v = 0
			}
			c[j] = v
		}
	}
}
