// Package blockdct provides the 8x8 block DCT-II/DCT-III transforms shared
// by the JPEG and video codecs, plus the JPEG zig-zag scan order.
//
// Two variants exist: the level-shifted forms used for intra-coded image
// samples (subtract 128 before the forward transform, add 128 and clamp to
// [0,255] after the inverse), and raw forms used for motion-compensation
// residuals, which are already zero-centered.
package blockdct

import "math"

// Size is the block edge length fixed by the JPEG/H.26x 8x8 transform.
const Size = 8

// N is the number of coefficients per block.
const N = Size * Size

// Block is a natural-order 8x8 block of samples or coefficients.
type Block [N]int32

// Zigzag maps zig-zag order index -> natural order index.
var Zigzag = [N]int{
	0, 1, 8, 16, 9, 2, 3, 10,
	17, 24, 32, 25, 18, 11, 4, 5,
	12, 19, 26, 33, 40, 48, 41, 34,
	27, 20, 13, 6, 7, 14, 21, 28,
	35, 42, 49, 56, 57, 50, 43, 36,
	29, 22, 15, 23, 30, 37, 44, 51,
	58, 59, 52, 45, 38, 31, 39, 46,
	53, 60, 61, 54, 47, 55, 62, 63,
}

// Unzigzag maps natural order index -> zig-zag order index.
var Unzigzag [N]int

// cosTable[u][x] = cos((2x+1) u pi / 16).
var cosTable [Size][Size]float64

func init() {
	for i, z := range Zigzag {
		Unzigzag[z] = i
	}
	for u := 0; u < Size; u++ {
		for x := 0; x < Size; x++ {
			cosTable[u][x] = math.Cos(float64(2*x+1) * float64(u) * math.Pi / 16)
		}
	}
}

func alpha(u int) float64 {
	if u == 0 {
		return 1 / math.Sqrt2
	}
	return 1
}

// fdctShift computes the forward DCT of samples-offset.
func fdctShift(samples, out *Block, offset int32) {
	var tmp [Size][Size]float64
	for y := 0; y < Size; y++ {
		for u := 0; u < Size; u++ {
			var s float64
			for x := 0; x < Size; x++ {
				s += float64(samples[y*Size+x]-offset) * cosTable[u][x]
			}
			tmp[y][u] = s
		}
	}
	for u := 0; u < Size; u++ {
		for v := 0; v < Size; v++ {
			var s float64
			for y := 0; y < Size; y++ {
				s += tmp[y][u] * cosTable[v][y]
			}
			out[v*Size+u] = int32(math.RoundToEven(0.25 * alpha(u) * alpha(v) * s))
		}
	}
}

// idctShift computes the inverse DCT, adds offset, and clamps to [lo, hi].
//
// Zero coefficients and all-zero columns are skipped. That is exact, not
// an approximation: every sum starts at +0, and in round-to-nearest adding
// a ±0 term never changes a sum, while the product order (alpha·c)·cos
// and the summation order of the remaining terms are those of the dense
// transform.
func idctShift(coeffs, out *Block, offset, lo, hi int32) {
	// cols[k][y] is the column pass of the k-th live (non-zero) column,
	// whose index is live[k]. cols[n] is still all +0 when column u starts.
	var cols [Size][Size]float64
	var live [Size]int
	n := 0
	for u := 0; u < Size; u++ {
		col := &cols[n]
		nonzero := false
		for v := 0; v < Size; v++ {
			c := coeffs[v*Size+u]
			if c == 0 {
				continue
			}
			nonzero = true
			a := alpha(v) * float64(c)
			for y := 0; y < Size; y++ {
				col[y] += a * cosTable[v][y]
			}
		}
		if nonzero {
			live[n] = u
			n++
		}
	}
	for y := 0; y < Size; y++ {
		for x := 0; x < Size; x++ {
			var s float64
			for k, u := range live[:n] {
				s += alpha(u) * cols[k][y] * cosTable[u][x]
			}
			v := int32(math.RoundToEven(0.25*s)) + offset
			if v < lo {
				v = lo
			} else if v > hi {
				v = hi
			}
			out[y*Size+x] = v
		}
	}
}

// ScaledSizes lists the reduced reconstruction edge lengths IDCTScaled
// supports, besides the full Size: 8/2, 8/4 and 8/8.
var ScaledSizes = []int{4, 2, 1}

// scaledBasis[i][u][x] is the reduced-IDCT basis for n = 4>>i:
//
//	T[u][x] = alpha(u) * g(u) * cos((2x+1) u pi / (2n))
//
// where g(u) = sin(r*u*pi/16) / (r*sin(u*pi/16)) with r = 8/n is the box
// response of averaging r consecutive samples. With this basis the n-point
// reconstruction equals the area (box) downsample of the full 8x8
// reconstruction, truncated to the lowest n x n frequencies — so scaled
// decoding approximates full-decode-then-box-downsample, exactly the
// equivalence codec tests assert. DC behaves identically to the full IDCT
// (a DC-only block reconstructs to the constant DC/8 + 128 at every size).
var scaledBasis [3][4][4]float64

func init() {
	for i, n := range ScaledSizes {
		r := float64(Size / n)
		for u := 0; u < n; u++ {
			g := 1.0
			if u > 0 {
				theta := float64(u) * math.Pi / 16
				g = math.Sin(r*theta) / (r * math.Sin(theta))
			}
			for x := 0; x < n; x++ {
				scaledBasis[i][u][x] = alpha(u) * g *
					math.Cos(float64(2*x+1)*float64(u)*math.Pi/(2*float64(n)))
			}
		}
	}
}

func scaledIndex(n int) int {
	switch n {
	case 4:
		return 0
	case 2:
		return 1
	case 1:
		return 2
	default:
		panic("blockdct: unsupported scaled IDCT size")
	}
}

// IDCTScaled reconstructs an n x n block (n in {8, 4, 2, 1}) from the
// lowest n x n frequency coefficients of an 8x8 JPEG block, writing
// row-major n x n samples into out[0:n*n]. n = Size is the full IDCT; the
// reduced sizes cost O(n^3) instead of O(Size^3) per block and produce the
// 1/2, 1/4 and 1/8 resolution reconstructions DCT-domain scaled decoding
// serves.
func IDCTScaled(coeffs, out *Block, n int) {
	if n == Size {
		IDCT(coeffs, out)
		return
	}
	t := &scaledBasis[scaledIndex(n)]
	var tmp [4][4]float64
	for u := 0; u < n; u++ {
		for y := 0; y < n; y++ {
			var s float64
			for v := 0; v < n; v++ {
				s += t[v][y] * float64(coeffs[v*Size+u])
			}
			tmp[y][u] = s
		}
	}
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			var s float64
			for u := 0; u < n; u++ {
				s += t[u][x] * tmp[y][u]
			}
			v := int32(math.RoundToEven(0.25*s)) + 128
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			out[y*n+x] = v
		}
	}
}

// FDCT transforms level-shifted image samples (range [0,255]).
func FDCT(samples, out *Block) { fdctShift(samples, out, 128) }

// IDCT inverts FDCT, producing clamped samples in [0,255].
func IDCT(coeffs, out *Block) { idctShift(coeffs, out, 128, 0, 255) }

// FDCTRaw transforms zero-centered residual samples.
func FDCTRaw(samples, out *Block) { fdctShift(samples, out, 0) }

// IDCTRaw inverts FDCTRaw, clamping residuals to [-255, 255].
func IDCTRaw(coeffs, out *Block) { idctShift(coeffs, out, 0, -255, 255) }

// DCSample returns the one sample IDCTScaled(coeffs, out, 1) writes for a
// block whose dequantized DC coefficient is dc, with the same float
// operations, so a 1x1 reconstruction need not fill a Block.
func DCSample(dc int32) int32 {
	t := scaledBasis[scaledIndex(1)][0][0]
	v := int32(math.RoundToEven(0.25*(t*(t*float64(dc))))) + 128
	if v < 0 {
		return 0
	} else if v > 255 {
		return 255
	}
	return v
}
