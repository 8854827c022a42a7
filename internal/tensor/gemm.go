package tensor

import (
	"runtime"
	"sync"
)

// Blocked, parallel GEMM with a fused epilogue. This is the execution
// kernel of the compiled inference path: every convolution runs as one
// batched matrix multiply per layer, with bias, residual add, and ReLU
// folded into the epilogue so the activation tensor is touched exactly
// once. On the SIMD tiers the convolution is an implicit GEMM
// (GEMMPackedConv, simd.go): the kernel reads each 16-column b panel in
// place or gathers it straight from the activation, and no im2col matrix
// exists. The portable
// kernels in this file multiply a materialized b, which for a
// convolution is Im2ColBatch's output.
//
// The loop nest is the classic three-level blocking (column tiles, k
// blocks, register-tiled row panels). Within one output element the k
// terms are accumulated in strictly ascending order, so results are
// bit-identical to the reference MatMulInto regardless of blocking,
// worker count or tier — the equivalence suite relies on this.

const (
	// gemmMR is the register-tile height: rows of a processed together so
	// every streamed element of b is reused gemmMR times from registers.
	gemmMR = 4
	// gemmNC is the column-tile width: a gemmMR x gemmNC tile of c stays
	// L1-resident while k streams through it.
	gemmNC = 512
	// gemmKC is the k-block depth: the (gemmKC x gemmNC) panel of b is
	// reused across all row panels of one column tile.
	gemmKC = 256
	// gemmSerialMACs is the problem size (m*k*n multiply-adds) below which
	// spawning goroutines costs more than it saves.
	gemmSerialMACs = 1 << 16
	// gemmSplitCols is the narrowest column range a worker is given: four
	// 16-column panels. Narrower ranges shorten the portable kernel's
	// rows until its per-tile setup dominates (64x64x64 ran ~20% slower
	// split into 32-column halves than into 32-row halves).
	gemmSplitCols = 4 * gemmF32NR
)

// Epilogue describes the fused tail applied to every element of c after
// accumulation: c[i,j] = f(c[i,j] + RowBias[i] + Add[i,j]) where f is ReLU
// when requested. Nil fields are skipped.
type Epilogue struct {
	// RowBias is a per-row constant (len m), e.g. a conv bias indexed by
	// output channel when c is an (outC x cols) im2col product.
	RowBias []float32
	// Add is an elementwise addend with c's layout (len m*n), e.g. a
	// residual shortcut.
	Add []float32
	// ReLU clamps negatives to zero after bias and add.
	ReLU bool
}

// GEMM computes c = a @ b for a (m x k) and b (k x n) using the blocked,
// parallel kernel. c must be presized to (m x n); it is fully overwritten.
func GEMM(a, b, c *Tensor) {
	GEMMFused(a, b, c, Epilogue{})
}

// GEMMFused computes c = epilogue(a @ b). Large problems are split across
// goroutines by column panels (see gemmParallel).
func GEMMFused(a, b, c *Tensor, ep Epilogue) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || len(c.Shape) != 2 {
		panic("tensor: GEMMFused wants 2-D operands")
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if b.Shape[0] != k || c.Shape[0] != m || c.Shape[1] != n {
		panic("tensor: GEMMFused shape mismatch")
	}
	GEMMRaw(m, k, n, a.Data, b.Data, c.Data, ep)
}

// GEMMRaw is GEMMFused over raw row-major slices: a is (m x k), b is
// (k x n), c is (m x n). It is the allocation-free entry point the
// compiled inference path uses (no tensor headers are built per call).
func GEMMRaw(m, k, n int, a, b, c []float32, ep Epilogue) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic("tensor: GEMMRaw operand length mismatch")
	}
	checkEpilogue(m, n, ep)
	if gemmF32Asm.Load() && k > 0 {
		gemmRawAVX2(m, k, n, a, b, c, ep)
		return
	}
	gemmParallel(m, k, n, nil, a, denseSrc(k, n, b), c, ep)
}

// checkEpilogue validates the epilogue operands against the output shape.
func checkEpilogue(m, n int, ep Epilogue) {
	if ep.RowBias != nil && len(ep.RowBias) != m {
		panic("tensor: GEMM RowBias length mismatch")
	}
	if ep.Add != nil && len(ep.Add) != m*n {
		panic("tensor: GEMM Add length mismatch")
	}
}

// gemmParallel splits the output across workers and runs each disjoint
// region through gemmDispatch — the SIMD range when panels holds the
// MR-interleaved a quads, the portable range otherwise. Workers own column
// ranges, whole 16-column multiples, so each b panel is packed (or, for a
// convolution, gathered) by exactly one worker, which then runs every row
// quad against it. Only when b is too narrow to give each worker
// gemmSplitCols columns does the split fall back to row panels, rounded
// to gemmMR so every worker's i0 stays quad-aligned for the panel layout.
func gemmParallel(m, k, n int, panels, a []float32, b ConvSrc, c []float32, ep Epilogue) {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || m*k*n < gemmSerialMACs {
		gemmDispatch(m, k, n, panels, a, b, c, 0, m, 0, n, ep)
		return
	}
	var wg sync.WaitGroup
	if n >= workers*gemmSplitCols {
		cols := ((n+workers-1)/workers + gemmF32NR - 1) &^ (gemmF32NR - 1)
		for j0 := 0; j0 < n; j0 += cols {
			j1 := min(j0+cols, n)
			wg.Add(1)
			go func(j0, j1 int) {
				defer wg.Done()
				gemmDispatch(m, k, n, panels, a, b, c, 0, m, j0, j1, ep)
			}(j0, j1)
		}
	} else {
		rows := quadRows((m + workers - 1) / workers)
		for i0 := 0; i0 < m; i0 += rows {
			i1 := min(i0+rows, m)
			wg.Add(1)
			go func(i0, i1 int) {
				defer wg.Done()
				gemmDispatch(m, k, n, panels, a, b, c, i0, i1, 0, n, ep)
			}(i0, i1)
		}
	}
	wg.Wait()
}

// gemmRange computes rows [i0,i1) x columns [j0,j1) of c = a @ b and
// applies the epilogue to that region. It is the serial core; parallel
// callers give each worker a disjoint region.
//
//smol:noalloc
func gemmRange(m, k, n int, a, b, c []float32, i0, i1, j0, j1 int, ep Epilogue) {
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
			first := pc == 0
			i := i0
			for ; i+gemmMR <= i1; i += gemmMR {
				gemm4(k, n, a, b, c, i, jc, nc, pc, kc, first)
			}
			for ; i < i1; i++ {
				gemm1(k, n, a, b, c, i, jc, nc, pc, kc, first)
			}
		}
		applyEpilogue(n, c, i0, i1, jc, nc, ep)
	}
}

// gemm4 accumulates a 4-row register tile: c[i..i+3, jc..jc+nc] (+)=
// a[i..i+3, pc..pc+kc] @ b[pc..pc+kc, jc..jc+nc]. When first is set the
// p == pc term assigns instead of accumulating, saving a zeroing pass.
//
// The main loop unrolls k by 4 with left-associated chained adds, so each
// c element is loaded and stored once per 4 multiply-adds while the
// per-element accumulation order stays strictly ascending in p (results
// remain bit-identical to MatMulInto).
//
//smol:noalloc
func gemm4(k, n int, a, b, c []float32, i, jc, nc, pc, kc int, first bool) {
	c0 := c[i*n+jc : i*n+jc+nc : i*n+jc+nc]
	c1 := c[(i+1)*n+jc : (i+1)*n+jc+nc : (i+1)*n+jc+nc]
	c2 := c[(i+2)*n+jc : (i+2)*n+jc+nc : (i+2)*n+jc+nc]
	c3 := c[(i+3)*n+jc : (i+3)*n+jc+nc : (i+3)*n+jc+nc]
	a0 := a[i*k+pc : i*k+pc+kc]
	a1 := a[(i+1)*k+pc : (i+1)*k+pc+kc]
	a2 := a[(i+2)*k+pc : (i+2)*k+pc+kc]
	a3 := a[(i+3)*k+pc : (i+3)*k+pc+kc]
	p := 0
	switch {
	case first && kc >= 4:
		// Assign a full 4-deep chain so the unrolled loop below stays
		// aligned (k divisible by 4 then has no slow remainder steps).
		b0 := b[pc*n+jc : pc*n+jc+nc : pc*n+jc+nc]
		b1 := b[(pc+1)*n+jc:][:len(b0)]
		b2 := b[(pc+2)*n+jc:][:len(b0)]
		b3 := b[(pc+3)*n+jc:][:len(b0)]
		r0, r1, r2, r3 := c0[:len(b0)], c1[:len(b0)], c2[:len(b0)], c3[:len(b0)]
		a00, a01, a02, a03 := a0[0], a0[1], a0[2], a0[3]
		a10, a11, a12, a13 := a1[0], a1[1], a1[2], a1[3]
		a20, a21, a22, a23 := a2[0], a2[1], a2[2], a2[3]
		a30, a31, a32, a33 := a3[0], a3[1], a3[2], a3[3]
		for j := range b0 {
			bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
			r0[j] = a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
			r1[j] = a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
			r2[j] = a20*bv0 + a21*bv1 + a22*bv2 + a23*bv3
			r3[j] = a30*bv0 + a31*bv1 + a32*bv2 + a33*bv3
		}
		p = 4
	case first:
		av0, av1, av2, av3 := a0[0], a1[0], a2[0], a3[0]
		brow := b[pc*n+jc : pc*n+jc+nc]
		r0, r1, r2, r3 := c0[:len(brow)], c1[:len(brow)], c2[:len(brow)], c3[:len(brow)]
		for j, bv := range brow {
			r0[j] = av0 * bv
			r1[j] = av1 * bv
			r2[j] = av2 * bv
			r3[j] = av3 * bv
		}
		p = 1
	}
	for ; p+3 < kc; p += 4 {
		b0 := b[(pc+p)*n+jc : (pc+p)*n+jc+nc : (pc+p)*n+jc+nc]
		// Reslicing everything to len(b0) lets the compiler elide the
		// per-element bounds checks in the hot loop below.
		b1 := b[(pc+p+1)*n+jc:][:len(b0)]
		b2 := b[(pc+p+2)*n+jc:][:len(b0)]
		b3 := b[(pc+p+3)*n+jc:][:len(b0)]
		r0, r1, r2, r3 := c0[:len(b0)], c1[:len(b0)], c2[:len(b0)], c3[:len(b0)]
		a00, a01, a02, a03 := a0[p], a0[p+1], a0[p+2], a0[p+3]
		a10, a11, a12, a13 := a1[p], a1[p+1], a1[p+2], a1[p+3]
		a20, a21, a22, a23 := a2[p], a2[p+1], a2[p+2], a2[p+3]
		a30, a31, a32, a33 := a3[p], a3[p+1], a3[p+2], a3[p+3]
		for j := range b0 {
			bv0, bv1, bv2, bv3 := b0[j], b1[j], b2[j], b3[j]
			r0[j] = r0[j] + a00*bv0 + a01*bv1 + a02*bv2 + a03*bv3
			r1[j] = r1[j] + a10*bv0 + a11*bv1 + a12*bv2 + a13*bv3
			r2[j] = r2[j] + a20*bv0 + a21*bv1 + a22*bv2 + a23*bv3
			r3[j] = r3[j] + a30*bv0 + a31*bv1 + a32*bv2 + a33*bv3
		}
	}
	for ; p < kc; p++ {
		av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
		brow := b[(pc+p)*n+jc : (pc+p)*n+jc+nc]
		r0, r1, r2, r3 := c0[:len(brow)], c1[:len(brow)], c2[:len(brow)], c3[:len(brow)]
		for j, bv := range brow {
			r0[j] += av0 * bv
			r1[j] += av1 * bv
			r2[j] += av2 * bv
			r3[j] += av3 * bv
		}
	}
}

// gemm1 is the single-row remainder kernel, k-unrolled like gemm4.
//
//smol:noalloc
func gemm1(k, n int, a, b, c []float32, i, jc, nc, pc, kc int, first bool) {
	crow := c[i*n+jc : i*n+jc+nc : i*n+jc+nc]
	arow := a[i*k+pc : i*k+pc+kc]
	p := 0
	switch {
	case first && kc >= 4:
		b0 := b[pc*n+jc : pc*n+jc+nc : pc*n+jc+nc]
		b1 := b[(pc+1)*n+jc:][:len(b0)]
		b2 := b[(pc+2)*n+jc:][:len(b0)]
		b3 := b[(pc+3)*n+jc:][:len(b0)]
		r := crow[:len(b0)]
		av0, av1, av2, av3 := arow[0], arow[1], arow[2], arow[3]
		for j := range b0 {
			r[j] = av0*b0[j] + av1*b1[j] + av2*b2[j] + av3*b3[j]
		}
		p = 4
	case first:
		av := arow[0]
		brow := b[pc*n+jc : pc*n+jc+nc]
		for j, bv := range brow {
			crow[j] = av * bv
		}
		p = 1
	}
	for ; p+3 < kc; p += 4 {
		b0 := b[(pc+p)*n+jc : (pc+p)*n+jc+nc : (pc+p)*n+jc+nc]
		b1 := b[(pc+p+1)*n+jc:][:len(b0)]
		b2 := b[(pc+p+2)*n+jc:][:len(b0)]
		b3 := b[(pc+p+3)*n+jc:][:len(b0)]
		r := crow[:len(b0)]
		av0, av1, av2, av3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
		for j := range b0 {
			r[j] = r[j] + av0*b0[j] + av1*b1[j] + av2*b2[j] + av3*b3[j]
		}
	}
	for ; p < kc; p++ {
		av := arow[p]
		brow := b[(pc+p)*n+jc : (pc+p)*n+jc+nc]
		for j, bv := range brow {
			crow[j] += av * bv
		}
	}
}

// applyEpilogue applies bias / add / ReLU to rows [i0,i1) x columns
// [jc,jc+nc) of c, immediately after those elements finish accumulating so
// the tile is still cache-hot.
//
//smol:noalloc
func applyEpilogue(n int, c []float32, i0, i1, jc, nc int, ep Epilogue) {
	if ep.RowBias == nil && ep.Add == nil && !ep.ReLU {
		return
	}
	for i := i0; i < i1; i++ {
		row := c[i*n+jc : i*n+jc+nc : i*n+jc+nc]
		var bias float32
		if ep.RowBias != nil {
			bias = ep.RowBias[i]
		}
		switch {
		case ep.Add != nil && ep.ReLU:
			add := ep.Add[i*n+jc : i*n+jc+nc]
			for j := range row {
				v := row[j] + bias + add[j]
				if v < 0 {
					v = 0
				}
				row[j] = v
			}
		case ep.Add != nil:
			add := ep.Add[i*n+jc : i*n+jc+nc]
			for j := range row {
				row[j] = row[j] + bias + add[j]
			}
		case ep.ReLU:
			for j := range row {
				v := row[j] + bias
				if v < 0 {
					v = 0
				}
				row[j] = v
			}
		default:
			for j := range row {
				row[j] += bias
			}
		}
	}
}

// Im2ColBatch unfolds a batch of n images into one (C*kh*kw) x (n*outH*outW)
// column matrix — sample i owns the column block [i*outH*outW,
// (i+1)*outH*outW) — so a whole conv layer lowers to a single GEMM. The
// source layout is described by strides: sample i's channel ci plane starts
// at src[i*sampleStride + ci*chanStride]. NCHW inputs use sampleStride =
// C*H*W, chanStride = H*W; the compiled path's channel-major CNHW
// activations use sampleStride = H*W, chanStride = n*H*W.
// col is the raw destination, at least (C*kh*kw) * (n*outH*outW) long.
//
//smol:noalloc
func Im2ColBatch(src []float32, n, c, h, w, sampleStride, chanStride, kh, kw, stride, pad int, col []float32) (outH, outW int) {
	outH = (h+2*pad-kh)/stride + 1
	outW = (w+2*pad-kw)/stride + 1
	ohow := outH * outW
	total := n * ohow
	rows := c * kh * kw
	if len(col) < rows*total {
		panic("tensor: Im2ColBatch output buffer too small")
	}
	for i := 0; i < n; i++ {
		for ci := 0; ci < c; ci++ {
			plane := src[i*sampleStride+ci*chanStride : i*sampleStride+ci*chanStride+h*w]
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					row := ((ci*kh+ky)*kw+kx)*total + i*ohow
					for oy := 0; oy < outH; oy++ {
						iy := oy*stride + ky - pad
						dst := col[row+oy*outW : row+oy*outW+outW]
						if iy < 0 || iy >= h {
							for ox := range dst {
								dst[ox] = 0
							}
							continue
						}
						inRow := plane[iy*w : iy*w+w]
						if stride == 1 {
							// The valid ix range [ox0,ox1) is contiguous at
							// stride 1: bulk-copy it, zero only the pad edges.
							ox0 := pad - kx
							if ox0 < 0 {
								ox0 = 0
							} else if ox0 > outW {
								ox0 = outW
							}
							ox1 := w + pad - kx
							if ox1 > outW {
								ox1 = outW
							} else if ox1 < ox0 {
								ox1 = ox0 // kernel wider than the padded row: all zeros
							}
							for ox := 0; ox < ox0; ox++ {
								dst[ox] = 0
							}
							if ox1 > ox0 {
								copy(dst[ox0:ox1], inRow[ox0+kx-pad:])
							}
							for ox := ox1; ox < outW; ox++ {
								dst[ox] = 0
							}
							continue
						}
						for ox := 0; ox < outW; ox++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								dst[ox] = 0
							} else {
								dst[ox] = inRow[ix]
							}
						}
					}
				}
			}
		}
	}
	return outH, outW
}
