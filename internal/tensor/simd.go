package tensor

import (
	"sync"
	"sync/atomic"
)

// SIMD f32 GEMM tier: a-operand packing, the per-k-block conv table and
// b-panel gather (which make a convolution an implicit GEMM), dispatch,
// and the runtime toggles.
//
// Two microkernels (gemm_f32_amd64.s) share one contract: the AVX2 4x16
// tile (two YMM vectors per row) and, on AVX-512 hosts, the 12x16 tile
// (one ZMM vector per row, three row quads). Both are bit-identical to the
// portable gemm4/gemm1 path: vector lanes are distinct output columns,
// every k step uses a separate multiply and add (no FMA contraction), and
// steps walk k in ascending order — so no single output element's sum is
// ever reordered or fused differently from the scalar code. That makes
// the portable kernel a true equivalence oracle, and lets the toggles
// below flip mid-process without changing any result.
//
// The 12x16 kernel reads its b panel through a table of per-k-row
// offsets, so when it covers every row of a GEMM, a stride-1 conv panel
// whose taps all lie inside the input is read straight from the
// activation (the indirection of Dukhan, "The Indirect Convolution
// Algorithm") and only border, stride-2 and partial panels are gathered.
// AVX2-only hosts gather every panel.

const (
	// gemmF32NR is the microkernel tile width: 16 f32 columns = 2 YMM
	// vectors or 1 ZMM vector per row.
	gemmF32NR = 16
	// gemmWideMR is the 12x16 kernel's tile height: three row quads.
	gemmWideMR = 3 * gemmMR

	// KernelAVX512, KernelAVX2 and KernelPortable name the f32/int8
	// kernel tiers in plans, calibration records, and -explain output.
	KernelAVX512   = "avx512"
	KernelAVX2     = "avx2"
	KernelPortable = "portable"
)

// gemmF32Asm gates dispatch to the SIMD f32 tier. It starts at cpu.AVX2()
// and only SetF32SIMD moves it (smol-query -nosimd, oracle tests). Atomic
// because a flip may land while other goroutines are inside a GEMM; the
// kernels are bit-identical, so a mid-flight flip is harmless — each GEMM
// call reads the flag once.
var gemmF32Asm atomic.Bool

// gemmF32Wide selects the 12x16 ZMM kernel (and in-place conv panels)
// inside the SIMD tier. It starts at cpu.AVX512(); only setF32Wide moves
// it. It has no effect while gemmF32Asm is off.
var gemmF32Wide atomic.Bool

// setF32Wide enables or disables the ZMM kernel and reports the previous
// setting; enabling is a no-op without AVX-512. It is the equivalence
// tests' hook for forcing the YMM kernel on an AVX-512 host (the nn golden
// test reaches it by linkname), not a tuning knob: the kernels are
// bit-identical.
func setF32Wide(enable bool) (previous bool) {
	return gemmF32Wide.Swap(enable && f32WideSupported())
}

// SetF32SIMD enables or disables the SIMD f32 GEMM tier process-wide and
// reports the previous setting. Enabling is a no-op on builds or hardware
// without the kernel. Because the tiers are bit-identical this only moves
// throughput, never results.
func SetF32SIMD(enable bool) (previous bool) {
	return gemmF32Asm.Swap(enable && f32SIMDSupported())
}

// F32SIMDActive reports whether f32 GEMMs currently dispatch to a SIMD
// microkernel.
func F32SIMDActive() bool { return gemmF32Asm.Load() }

// F32SIMDAvailable reports whether this build and CPU carry the SIMD f32
// microkernels at all, regardless of the runtime toggle.
func F32SIMDAvailable() bool { return f32SIMDSupported() }

// F32KernelName names the active f32 GEMM kernel tier: "avx512" when the
// ZMM kernel is dispatched, "avx2" for the YMM kernel alone, "portable"
// otherwise.
func F32KernelName() string {
	switch {
	case !F32SIMDActive():
		return KernelPortable
	case gemmF32Wide.Load():
		return KernelAVX512
	}
	return KernelAVX2
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

// convTable is one k block of a ConvSrc's im2col rows: for row pc+p, the
// Data offset of its tap (ci, ky, kx) from a column's window origin,
// off[p] = ci*ChanStride + ky*W + kx, and the tap's ky and kx. It is built
// once per k block and shared by every panel of the block: the gather
// walks it row by row, and for an in-place panel it is the ZMM kernel's b
// table. At gemmKC depth it is 4 KiB of stack.
type convTable struct {
	off    [gemmKC]int
	ky, kx [gemmKC]int32
}

// gatheredOff is the b table of a gathered panel: row p of the packed
// scratch starts 16p floats in.
var gatheredOff = func() (t [gemmKC]int) {
	for p := range t {
		t[p] = p * gemmF32NR
	}
	return t
}()

// buildConvTable fills t's first kc rows for the k block starting at pc.
//
//smol:noalloc
func buildConvTable(t *convTable, s *ConvSrc, pc, kc int) {
	kk := s.K * s.K
	ci, ky, kx := pc/kk, pc%kk/s.K, pc%s.K
	for p := 0; p < kc; p++ {
		t.off[p] = ci*s.ChanStride + ky*s.W + kx
		t.ky[p], t.kx[p] = int32(ky), int32(kx)
		if kx++; kx == s.K {
			if kx, ky = 0, ky+1; ky == s.K {
				ky, ci = 0, ci+1
			}
		}
	}
}

// colOrigin locates column col of s's im2col matrix: the Data offset of
// its sample, the input coordinates (iy0, ix0) of its window's top-left
// tap (negative inside the padding), and how many columns from col on
// stay in its output row.
//
//smol:noalloc
func colOrigin(s *ConvSrc, outH, outW, col int) (base, iy0, ix0, rowLeft int) {
	ohow := outH * outW
	i := col / ohow
	oy := (col - i*ohow) / outW
	ox := col - i*ohow - oy*outW
	return i * s.SampleStride, oy*s.Stride - s.Pad, ox*s.Stride - s.Pad, outW - ox
}

// interior reports whether every tap of a run of output columns lies
// inside s's input, where the run's windows start at (iy0, ix0) and its
// first taps cover span input pixels of one row.
func interior(s *ConvSrc, iy0, ix0, span int) bool {
	return iy0 >= 0 && iy0+s.K <= s.H && ix0 >= 0 && ix0+span+s.K-1 <= s.W
}

// inPlaceB16 reports whether the full 16-column panel at column jb can be
// read straight from s.Data: a stride-1 conv, all 16 columns in one output
// row, every tap inside the input. Then k row p of the panel is the 16
// contiguous floats at Data[x + t.off[p]] for the k block's table t.
//
//smol:noalloc
func inPlaceB16(s *ConvSrc, outH, outW, jb int) (x int, ok bool) {
	if s.Stride != 1 {
		return 0, false
	}
	base, iy0, ix0, left := colOrigin(s, outH, outW, jb)
	if left < gemmF32NR || !interior(s, iy0, ix0, gemmF32NR) {
		return 0, false
	}
	return base + iy0*s.W + ix0, true
}

// gatherB16 writes the (kc x 16) panel of s's im2col matrix at the k block
// t describes and columns [jb, jb+w) into dst: dst[p*16 + j] =
// B[pc+p][jb+j], and 0 for the padding columns w <= j < 16. Columns are
// split into runs within one sample's output row; row p of a run reads
// the input row t.off[p] past the run's window origin. Interior runs copy;
// stride-1 border runs copy 16 floats when the run fills the panel and
// zero the lanes outside the input row; rows above or below the input are
// zeroed. At gemmKC depth the panel is 16 KiB: L1-resident, and reused by
// every row quad.
//
//smol:noalloc
func gatherB16(s *ConvSrc, t *convTable, outH, outW, kc, jb, w int, dst *[gemmKC * gemmF32NR]float32) {
	if w < gemmF32NR {
		for p := 0; p < kc; p++ {
			clear(dst[p*gemmF32NR+w : (p+1)*gemmF32NR])
		}
	}
	for j0 := 0; j0 < w; {
		base, iy0, ix0, left := colOrigin(s, outH, outW, jb+j0)
		j1 := j0 + min(left, w-j0)
		span := (j1-j0-1)*s.Stride + 1 // input pixels one tap row covers
		// x is the Data offset of the run's window origin; it lies outside
		// Data only for taps in the padding, which are never read.
		x := base + iy0*s.W + ix0
		if interior(s, iy0, ix0, span) {
			for p := 0; p < kc; p++ {
				out := dst[p*gemmF32NR+j0 : p*gemmF32NR+j1]
				xp := x + t.off[p]
				if s.Stride == 1 && len(out) == gemmF32NR {
					copy16(out, s.Data[xp:])
				} else {
					in := s.Data[xp : xp+span]
					for j := range out {
						out[j] = in[j*s.Stride]
					}
				}
			}
			j0 = j1
			continue
		}
		// Border run: per row, only the taps [lo, hi) land inside the
		// input; the rest read the zero padding.
		for p := 0; p < kc; p++ {
			out := dst[p*gemmF32NR+j0 : p*gemmF32NR+j1]
			iy := iy0 + int(t.ky[p])
			if iy < 0 || iy >= s.H {
				for j := range out {
					out[j] = 0
				}
				continue
			}
			ix := ix0 + int(t.kx[p])
			xp := x + t.off[p] // Data offset of tap (iy, ix)
			var lo, hi int
			if s.Stride == 1 {
				lo, hi = -ix, s.W-ix
			} else {
				lo, hi = (s.Stride-1-ix)/s.Stride, (s.W-ix+s.Stride-1)/s.Stride
			}
			lo = min(max(lo, 0), len(out))
			hi = max(min(hi, len(out)), lo)
			switch {
			case s.Stride == 1 && len(out) == gemmF32NR && xp >= 0 && xp+gemmF32NR <= len(s.Data):
				copy16(out, s.Data[xp:])
			case s.Stride == 1:
				for j := lo; j < hi; j++ {
					out[j] = s.Data[xp+j]
				}
			case hi > lo:
				in := s.Data[xp+lo*s.Stride : xp+(hi-1)*s.Stride+1]
				for j := range out[lo:hi] {
					out[lo+j] = in[j*s.Stride]
				}
			}
			for j := range out[:lo] {
				out[j] = 0
			}
			for j := hi; j < len(out); j++ {
				out[j] = 0
			}
		}
		j0 = j1
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
// read in place or gathered straight from src.Data inside the kernel, in
// the ascending k order Im2ColBatch uses, so no im2col matrix is written
// and c is bit for bit what GEMMPackedRaw returns on Im2ColBatch's output.
// c is row-major (m x src.N*outH*outW). It always runs a SIMD kernel — on
// AVX-512 hosts the ZMM kernel, which reads interior stride-1 panels in
// place when m is a multiple of 12, and the AVX2 kernel on gathered panels
// otherwise — and needs pa's panels, which PackA builds wherever
// F32SIMDAvailable; the portable tier lowers a convolution through
// Im2ColBatch + GEMMPackedRaw instead.
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
// gemmRange, with b's k block described once by a convTable. On the ZMM
// tier every whole group of three row quads runs the 12x16 kernel; when
// those groups are all of the range's rows it reads b in place wherever
// inPlaceB16 allows, and the gathered panel otherwise. The remaining
// quads (all of them on the YMM tier) run the 4x16 kernel on the gathered
// panel; edge tiles — the zero-padded last a quad when i1%4 != 0, the
// zero-padded last b panel when the range's width is not a multiple of
// 16 — run it through tileEdge. i0 must be a multiple of gemmMR.
//
//smol:noalloc
func gemmF32RangeAVX2(k, n int, panels []float32, b *ConvSrc, c []float32, i0, i1, j0, j1 int, ep Epilogue) {
	var bpack [gemmKC * gemmF32NR]float32
	var tab convTable
	outH, outW := b.OutSize()
	quad := i0 + (i1-i0)&^(gemmMR-1)
	wide := i0
	if gemmF32Wide.Load() {
		wide += (quad - i0) / gemmWideMR * gemmWideMR
	}
	for jc := j0; jc < j1; jc += gemmNC {
		nc := min(j1-jc, gemmNC)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(k-pc, gemmKC)
			first := 0
			if pc == 0 {
				first = 1
			}
			buildConvTable(&tab, b, pc, kc)
			for jb := jc; jb < jc+nc; jb += gemmF32NR {
				w := min(jc+nc-jb, gemmF32NR)
				// Read in place only when the ZMM kernel covers every row:
				// a leftover quad needs the gathered panel anyway.
				x, inPlace := 0, false
				if w == gemmF32NR && wide == i1 {
					x, inPlace = inPlaceB16(b, outH, outW, jb)
				}
				if !inPlace {
					gatherB16(b, &tab, outH, outW, kc, jb, w, &bpack)
				}
				i := i0
				if w == gemmF32NR {
					src, off := &bpack[0], &gatheredOff[0]
					if inPlace {
						src, off = &b.Data[x], &tab.off[0]
					}
					for ; i < wide; i += gemmWideMR {
						gemmF32Tile12x16(&panels[i*k+pc*gemmMR], gemmMR*k, src, off, &c[i*n+jb], kc, n, first)
					}
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
