package tensor

import (
	"sync"
	"sync/atomic"
)

// SIMD f32 GEMM tier: packing, dispatch, and the runtime toggle.
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
// the trailing m%4 rows stay in raw only and run through the portable
// remainder kernel.
type PackedA struct {
	m, k   int
	raw    []float32
	panels []float32
}

// PackA packs a row-major (m x k) matrix for repeated GEMMPackedRaw calls.
// The raw slice is referenced, not copied; it must stay live and unchanged.
// Panels are built even while the SIMD toggle is off, so flipping it back
// on needs no re-pack.
func PackA(m, k int, a []float32) *PackedA {
	if len(a) < m*k {
		panic("tensor: PackA operand length mismatch")
	}
	pa := &PackedA{m: m, k: k, raw: a}
	if quad := m &^ (gemmMR - 1); f32SIMDSupported() && quad > 0 && k > 0 {
		pa.panels = make([]float32, quad*k)
		packAF32(quad, k, a, pa.panels)
	}
	return pa
}

// packAF32 interleaves quad full row quads of the (.. x k) matrix a into
// dst: dst[i*4*k + p*4 + r] = a[(i*4+r)*k + p]. quad must be a multiple of
// gemmMR.
//
//smol:noalloc
func packAF32(quad, k int, a, dst []float32) {
	for i := 0; i < quad; i += gemmMR {
		panel := dst[i*k : (i+gemmMR)*k : (i+gemmMR)*k]
		r0 := a[i*k : i*k+k]
		r1 := a[(i+1)*k : (i+1)*k+k]
		r2 := a[(i+2)*k : (i+2)*k+k]
		r3 := a[(i+3)*k : (i+3)*k+k]
		for p, v := range r0 {
			panel[p*4] = v
			panel[p*4+1] = r1[p]
			panel[p*4+2] = r2[p]
			panel[p*4+3] = r3[p]
		}
	}
}

// packB16 gathers the (kc x 16) b tile at k-block pc, column jb into dst:
// dst[p*16 + j] = b[(pc+p)*n + jb + j]. At gemmKC depth the tile is 16 KiB
// — L1-resident, and reused by every row quad of the current range.
//
//smol:noalloc
func packB16(n int, b []float32, pc, kc, jb int, dst *[gemmKC * gemmF32NR]float32) {
	for p := 0; p < kc; p++ {
		src := b[(pc+p)*n+jb : (pc+p)*n+jb+gemmF32NR]
		copy(dst[p*gemmF32NR:(p+1)*gemmF32NR], src)
	}
}

// packBuf is the pooled scratch GEMMRaw packs its a operand into when the
// streamed path (no precompiled PackedA) dispatches to the microkernel.
type packBuf struct{ buf []float32 }

var packAPool = sync.Pool{New: func() any { return new(packBuf) }}

// gemmRawAVX2 is GEMMRaw's SIMD path: pack a's full row quads into pooled
// scratch, run the parallel kernel, return the scratch. Warm calls do not
// allocate.
func gemmRawAVX2(m, k, n int, a, b, c []float32, ep Epilogue) {
	pb := packAPool.Get().(*packBuf)
	quad := m &^ (gemmMR - 1)
	if cap(pb.buf) < quad*k {
		pb.buf = make([]float32, quad*k)
	}
	panels := pb.buf[:quad*k]
	packAF32(quad, k, a, panels)
	gemmParallel(m, k, n, panels, a, b, c, ep)
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
	if panels != nil && !(gemmF32Asm.Load() && n >= gemmF32NR) {
		panels = nil
	}
	gemmParallel(m, k, n, panels, pa.raw, b, c, ep)
}

// gemmDispatch routes one worker's disjoint region to the SIMD range when
// an a panel is available, and to the portable range otherwise.
func gemmDispatch(m, k, n int, panels, a, b, c []float32, i0, i1, j0, j1 int, ep Epilogue) {
	if panels != nil {
		gemmF32RangeAVX2(k, n, panels, a, b, c, i0, i1, j0, j1, ep)
		return
	}
	gemmRange(m, k, n, a, b, c, i0, i1, j0, j1, ep)
}

// gemmF32RangeAVX2 is the SIMD serial core: the same jc/pc blocking as
// gemmRange, but 16-column b tiles are packed into stack scratch and full
// row quads run the 4x16 microkernel. Row remainders (i1 not a multiple of
// 4 — only ever the matrix tail, since parallel row splits round to
// gemmMR) and column remainders (nc % 16) run the portable gemm4/gemm1 on
// the raw operands, which is bit-identical by construction. i0 must be a
// multiple of gemmMR.
//
//smol:noalloc
func gemmF32RangeAVX2(k, n int, panels, a, b, c []float32, i0, i1, j0, j1 int, ep Epilogue) {
	var bpack [gemmKC * gemmF32NR]float32
	quad := i0 + (i1-i0)&^(gemmMR-1)
	for jc := j0; jc < j1; jc += gemmNC {
		nc := j1 - jc
		if nc > gemmNC {
			nc = gemmNC
		}
		for pc := 0; pc < k; pc += gemmKC {
			kc := k - pc
			if kc > gemmKC {
				kc = gemmKC
			}
			first := 0
			if pc == 0 {
				first = 1
			}
			jb := jc
			for ; jb+gemmF32NR <= jc+nc; jb += gemmF32NR {
				packB16(n, b, pc, kc, jb, &bpack)
				for i := i0; i < quad; i += gemmMR {
					gemmF32Tile4x16(&panels[i*k+pc*gemmMR], &bpack[0], &c[i*n+jb], kc, n, first)
				}
				for i := quad; i < i1; i++ {
					gemm1(k, n, a, b, c, i, jb, gemmF32NR, pc, kc, first == 1)
				}
			}
			if rem := jc + nc - jb; rem > 0 {
				i := i0
				for ; i+gemmMR <= i1; i += gemmMR {
					gemm4(k, n, a, b, c, i, jb, rem, pc, kc, first == 1)
				}
				for ; i < i1; i++ {
					gemm1(k, n, a, b, c, i, jb, rem, pc, kc, first == 1)
				}
			}
		}
		applyEpilogueAVX2(n, c, i0, i1, jc, nc, ep)
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
