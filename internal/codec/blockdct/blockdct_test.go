package blockdct

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFDCTIDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		var in, coeffs, out Block
		for i := range in {
			in[i] = int32(rng.Intn(256))
		}
		FDCT(&in, &coeffs)
		IDCT(&coeffs, &out)
		for i := range in {
			if d := in[i] - out[i]; d < -2 || d > 2 {
				t.Fatalf("trial %d idx %d: %d -> %d", trial, i, in[i], out[i])
			}
		}
	}
}

func TestRawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		var in, coeffs, out Block
		for i := range in {
			in[i] = int32(rng.Intn(511) - 255) // residual range
		}
		FDCTRaw(&in, &coeffs)
		IDCTRaw(&coeffs, &out)
		for i := range in {
			if d := in[i] - out[i]; d < -2 || d > 2 {
				t.Fatalf("trial %d idx %d: %d -> %d", trial, i, in[i], out[i])
			}
		}
	}
}

func TestIDCTClamps(t *testing.T) {
	var coeffs, out Block
	coeffs[0] = 1 << 14 // absurd DC
	IDCT(&coeffs, &out)
	for _, v := range out {
		if v < 0 || v > 255 {
			t.Fatalf("IDCT output %d out of range", v)
		}
	}
	coeffs[0] = -(1 << 14)
	IDCTRaw(&coeffs, &out)
	for _, v := range out {
		if v < -255 || v > 255 {
			t.Fatalf("IDCTRaw output %d out of range", v)
		}
	}
}

func TestZigzagPermutation(t *testing.T) {
	var seen [N]bool
	for _, z := range Zigzag {
		if seen[z] {
			t.Fatal("duplicate in zigzag")
		}
		seen[z] = true
	}
	for i, z := range Zigzag {
		if Unzigzag[z] != i {
			t.Fatal("Unzigzag is not the inverse")
		}
	}
	// First few entries follow the standard scan.
	want := []int{0, 1, 8, 16, 9, 2}
	for i, w := range want {
		if Zigzag[i] != w {
			t.Fatalf("Zigzag[%d] = %d, want %d", i, Zigzag[i], w)
		}
	}
}

// Property: DCT is linear — FDCT(a+b) == FDCT(a)+FDCT(b) within rounding.
func TestFDCTLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b, sum, fa, fb, fsum Block
		for i := range a {
			a[i] = int32(rng.Intn(100))
			b[i] = int32(rng.Intn(100))
			sum[i] = a[i] + b[i]
		}
		FDCTRaw(&a, &fa)
		FDCTRaw(&b, &fb)
		FDCTRaw(&sum, &fsum)
		for i := range fa {
			if d := fsum[i] - fa[i] - fb[i]; d < -2 || d > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval-ish energy preservation for the orthonormal transform.
func TestEnergyPreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var in, coeffs Block
	for i := range in {
		in[i] = int32(rng.Intn(256))
	}
	FDCTRaw(&in, &coeffs)
	var eIn, eOut float64
	for i := range in {
		eIn += float64(in[i]) * float64(in[i])
		eOut += float64(coeffs[i]) * float64(coeffs[i])
	}
	ratio := eOut / eIn
	if ratio < 0.99 || ratio > 1.01 {
		t.Fatalf("energy ratio = %v", ratio)
	}
}

// TestIDCTScaledDCOnly: a DC-only block reconstructs to the constant
// DC/8 + 128 at every output size, the invariant that makes scaled and
// full decodes agree on flat content.
func TestIDCTScaledDCOnly(t *testing.T) {
	for _, dc := range []int32{-1024, -400, 0, 8, 400, 1016} {
		var coeffs, out Block
		coeffs[0] = dc
		want := dc/8 + 128
		if want < 0 {
			want = 0
		} else if want > 255 {
			want = 255
		}
		for _, n := range []int{8, 4, 2, 1} {
			IDCTScaled(&coeffs, &out, n)
			for i := 0; i < n*n; i++ {
				got := out[i]
				if got < want-1 || got > want+1 {
					t.Fatalf("n=%d dc=%d: sample %d = %d, want ~%d", n, dc, i, got, want)
				}
			}
		}
	}
}

// TestDCSampleMatchesIDCTScaled: DCSample must return IDCTScaled's 1x1
// sample exactly for every dequantized DC in [-2^16, 2^16] and at the int32
// extremes, which a hostile stream reaches by drifting the DC predictor.
func TestDCSampleMatchesIDCTScaled(t *testing.T) {
	dcs := []int32{math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32}
	for dc := int32(-1 << 16); dc <= 1<<16; dc++ {
		dcs = append(dcs, dc)
	}
	for _, dc := range dcs {
		var coeffs, out Block
		coeffs[0] = dc
		IDCTScaled(&coeffs, &out, 1)
		if got := DCSample(dc); got != out[0] {
			t.Fatalf("DCSample(%d) = %d, IDCTScaled gives %d", dc, got, out[0])
		}
	}
}

// TestIDCTScaledMatchesBoxAverage: for band-limited blocks (only the
// lowest n x n frequencies populated) the reduced reconstruction must
// equal the box average of the full reconstruction — the scaled basis is
// exactly the box response of the surviving frequencies.
func TestIDCTScaledMatchesBoxAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 2, 1} {
		r := Size / n
		for trial := 0; trial < 50; trial++ {
			var coeffs, full, scaled Block
			for v := 0; v < n; v++ {
				for u := 0; u < n; u++ {
					coeffs[v*Size+u] = int32(rng.Intn(401) - 200)
				}
			}
			coeffs[0] = int32(rng.Intn(1200) - 600)
			IDCT(&coeffs, &full)
			IDCTScaled(&coeffs, &scaled, n)
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					var sum int32
					clipped := false
					for dy := 0; dy < r; dy++ {
						for dx := 0; dx < r; dx++ {
							s := full[(y*r+dy)*Size+x*r+dx]
							if s == 0 || s == 255 {
								clipped = true
							}
							sum += s
						}
					}
					// Clamping in the full-resolution reconstruction is a
					// nonlinearity the scaled path cannot reproduce.
					if clipped {
						continue
					}
					want := (sum + int32(r*r)/2) / int32(r*r)
					got := scaled[y*n+x]
					if got < want-2 || got > want+2 {
						t.Fatalf("n=%d trial %d (%d,%d): scaled %d, box average %d",
							n, trial, x, y, got, want)
					}
				}
			}
		}
	}
}

// TestIDCTScaledFullSizePassthrough: n = Size must equal the plain IDCT.
func TestIDCTScaledFullSizePassthrough(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var coeffs, a, b Block
	for i := range coeffs {
		coeffs[i] = int32(rng.Intn(200) - 100)
	}
	IDCT(&coeffs, &a)
	IDCTScaled(&coeffs, &b, Size)
	if a != b {
		t.Fatal("IDCTScaled(8) diverges from IDCT")
	}
}

// idctShiftDense is the dense inverse transform idctShift skips zeros of:
// every term of both passes, in the same product and summation order.
func idctShiftDense(coeffs, out *Block, offset, lo, hi int32) {
	var tmp [Size][Size]float64
	for u := 0; u < Size; u++ {
		for y := 0; y < Size; y++ {
			var s float64
			for v := 0; v < Size; v++ {
				s += alpha(v) * float64(coeffs[v*Size+u]) * cosTable[v][y]
			}
			tmp[y][u] = s
		}
	}
	for y := 0; y < Size; y++ {
		for x := 0; x < Size; x++ {
			var s float64
			for u := 0; u < Size; u++ {
				s += alpha(u) * tmp[y][u] * cosTable[u][x]
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

// TestIDCTMatchesDenseOracle: the zero-skipping transform must equal the
// dense one bit for bit on every sparsity pattern the codecs produce —
// all-zero, DC-only, one column, one row, random sparsity and fully dense
// blocks with magnitudes up to ±2^15 — under the level-shifted clamp, the
// residual clamp and no clamp at all (so no difference hides behind a
// saturated sample).
func TestIDCTMatchesDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	coef := func() int32 {
		// Mostly codec-sized values, sometimes the full ±2^15 range.
		if rng.Intn(4) == 0 {
			return int32(rng.Intn(1<<16+1) - 1<<15)
		}
		return int32(rng.Intn(257) - 128)
	}
	patterns := []struct {
		name string
		fill func(b *Block)
	}{
		{"zero", func(b *Block) {}},
		{"dc", func(b *Block) { b[0] = coef() }},
		{"column", func(b *Block) {
			u := rng.Intn(Size)
			for v := 0; v < Size; v++ {
				if rng.Intn(2) == 0 {
					b[v*Size+u] = coef()
				}
			}
		}},
		{"row", func(b *Block) {
			v := rng.Intn(Size)
			for u := 0; u < Size; u++ {
				if rng.Intn(2) == 0 {
					b[v*Size+u] = coef()
				}
			}
		}},
		{"sparse", func(b *Block) {
			density := rng.Float64()
			for i := range b {
				if rng.Float64() < density {
					b[i] = coef()
				}
			}
		}},
		{"dense", func(b *Block) {
			for i := range b {
				b[i] = coef()
			}
		}},
	}
	modes := []struct {
		name           string
		offset, lo, hi int32
	}{
		{"shift", 128, 0, 255},
		{"raw", 0, -255, 255},
		{"unclamped", 0, math.MinInt32, math.MaxInt32},
	}
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	for _, p := range patterns {
		for trial := 0; trial < trials; trial++ {
			var coeffs Block
			p.fill(&coeffs)
			for _, m := range modes {
				var got, want Block
				idctShift(&coeffs, &got, m.offset, m.lo, m.hi)
				idctShiftDense(&coeffs, &want, m.offset, m.lo, m.hi)
				if got != want {
					t.Fatalf("%s block %v, %s: got %v, want %v", p.name, coeffs, m.name, got, want)
				}
			}
		}
	}
}
