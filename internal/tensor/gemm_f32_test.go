package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"smol/internal/analysis/alloctest"
	"smol/internal/cpu"
)

// The f32 SIMD tier's whole contract is bit identity: the AVX2 microkernel
// must be indistinguishable from the portable kernel (and therefore from
// MatMulInto) on every input, including -0.0 and NaN. These tests compare
// raw float bits, never approximate equality.

func f32BitsDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func randF32s(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()*2 - 1
	}
	return s
}

// forEachF32Kernel runs body once per SIMD microkernel this host can
// dispatch: with the ZMM kernel on (where AVX-512 is available) and with
// it forced off, so the YMM kernel carries every row quad. Bodies name
// F32KernelName() in their failure messages.
func forEachF32Kernel(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	tiers := []bool{false}
	if f32WideSupported() {
		tiers = []bool{true, false}
	}
	for _, wide := range tiers {
		func() {
			defer setF32Wide(setF32Wide(wide))
			body(t)
		}()
	}
}

func epilogueVariant(rng *rand.Rand, variant, m, n int) Epilogue {
	var ep Epilogue
	if variant&1 != 0 {
		ep.RowBias = randF32s(rng, m)
	}
	if variant&2 != 0 {
		ep.Add = randF32s(rng, m*n)
	}
	ep.ReLU = variant&4 != 0
	return ep
}

// TestGEMMF32AsmMatchesPortable: exact bit equality between the AVX2 and
// portable kernels across ragged shapes (m%4 != 0, n%16 != 0, odd k),
// kc/nc tile boundaries (k > gemmKC forces accumulate-mode tiles, n >
// gemmNC forces multiple column tiles), and every epilogue combination.
func TestGEMMF32AsmMatchesPortable(t *testing.T) {
	if !F32SIMDAvailable() {
		t.Skip("AVX2 f32 kernel not available on this host")
	}
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 15}, {4, 3, 16}, {5, 7, 33}, {8, 16, 64},
		{7, 27, 70}, {4, 257, 16}, {13, 300, 45}, {16, 256, 512},
		{12, 32, 530}, {9, 513, 100}, {17, 259, 529},
		{24, 300, 48}, {44, 108, 80},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		for variant := 0; variant < 8; variant++ {
			t.Run(fmt.Sprintf("m%dk%dn%d/ep%d", m, k, n, variant), func(t *testing.T) {
				a := randF32s(rng, m*k)
				bm := randF32s(rng, k*n)
				ep := epilogueVariant(rng, variant, m, n)

				defer SetF32SIMD(SetF32SIMD(false))
				goC := make([]float32, m*n)
				GEMMRaw(m, k, n, a, bm, goC, ep)
				SetF32SIMD(true)
				forEachF32Kernel(t, func(t *testing.T) {
					asmC := make([]float32, m*n)
					GEMMRaw(m, k, n, a, bm, asmC, ep)
					if i := f32BitsDiff(asmC, goC); i >= 0 {
						t.Fatalf("%s: shape %v ep %d: asm c[%d] = %x, portable %x", F32KernelName(), sh, variant, i,
							math.Float32bits(asmC[i]), math.Float32bits(goC[i]))
					}
				})
			})
		}
	}
}

// TestGEMMF32PropertySweep: randomized shapes and epilogues, asm vs
// portable, raw bits.
func TestGEMMF32PropertySweep(t *testing.T) {
	if !F32SIMDAvailable() {
		t.Skip("AVX2 f32 kernel not available on this host")
	}
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(40)
		k := 1 + rng.Intn(560)
		n := 1 + rng.Intn(700)
		a := randF32s(rng, m*k)
		bm := randF32s(rng, k*n)
		ep := epilogueVariant(rng, rng.Intn(8), m, n)

		asmC := make([]float32, m*n)
		prev := SetF32SIMD(true)
		GEMMRaw(m, k, n, a, bm, asmC, ep)
		SetF32SIMD(false)
		goC := make([]float32, m*n)
		GEMMRaw(m, k, n, a, bm, goC, ep)
		SetF32SIMD(prev)

		if i := f32BitsDiff(asmC, goC); i >= 0 {
			t.Fatalf("trial %d (m=%d k=%d n=%d): asm c[%d] bits %x, portable %x",
				trial, m, k, n, i, math.Float32bits(asmC[i]), math.Float32bits(goC[i]))
		}
	}
}

// TestGEMMF32SpecialValues: -0.0, NaN, and infinities must propagate
// through the microkernels and the vectorized ReLU exactly like the scalar
// code — ReLU keeps -0.0 and NaN (v < 0 is false for both), and a compare
// -and-mask must not canonicalize them the way VMAXPS would. m = 12 and 24
// put the special rows into whole ZMM groups.
func TestGEMMF32SpecialValues(t *testing.T) {
	if !F32SIMDAvailable() {
		t.Skip("AVX2 f32 kernel not available on this host")
	}
	rng := rand.New(rand.NewSource(13))
	const k, n = 37, 48
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	defer SetF32SIMD(F32SIMDActive())
	for _, m := range []int{8, 12, 24} {
		for variant := 0; variant < 8; variant++ {
			a := randF32s(rng, m*k)
			bm := randF32s(rng, k*n)
			// Whole rows of zeros times anything give -0.0 sums; seeded NaN
			// and +-Inf exercise payload and sign propagation.
			for p := 0; p < k; p++ {
				a[p] = negZero
			}
			a[3*k+1] = nan
			a[5*k+2] = inf
			a[(m-1)*k+4] = nan
			bm[7*n+5] = nan
			bm[2*n+11] = -inf
			ep := epilogueVariant(rng, variant, m, n)

			SetF32SIMD(false)
			goC := make([]float32, m*n)
			GEMMRaw(m, k, n, a, bm, goC, ep)
			SetF32SIMD(true)
			forEachF32Kernel(t, func(t *testing.T) {
				asmC := make([]float32, m*n)
				GEMMRaw(m, k, n, a, bm, asmC, ep)
				if i := f32BitsDiff(asmC, goC); i >= 0 {
					t.Fatalf("%s: m %d ep %d: asm c[%d] bits %x, portable %x", F32KernelName(), m, variant, i,
						math.Float32bits(asmC[i]), math.Float32bits(goC[i]))
				}
			})
		}
	}
}

// TestGEMMPackedMatchesRaw: a compile-time packed operand must give the
// same bits as the streamed path, with the SIMD toggle both on and off
// (off exercises the fallback onto the referenced raw matrix).
func TestGEMMPackedMatchesRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sh := range [][3]int{{1, 4, 20}, {4, 16, 16}, {7, 80, 130}, {23, 300, 530}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randF32s(rng, m*k)
		bm := randF32s(rng, k*n)
		ep := Epilogue{RowBias: randF32s(rng, m), ReLU: true}
		want := make([]float32, m*n)
		GEMMRaw(m, k, n, a, bm, want, ep)

		pa := PackA(m, k, a)
		for _, simd := range []bool{true, false} {
			prev := SetF32SIMD(simd)
			got := make([]float32, m*n)
			GEMMPackedRaw(pa, n, bm, got, ep)
			SetF32SIMD(prev)
			if i := f32BitsDiff(got, want); i >= 0 {
				t.Fatalf("shape %v simd=%v: packed c[%d] bits %x, raw %x", sh, simd, i,
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestGEMMF32ParallelMatchesSerial: the worker split must stay bit-stable
// for the SIMD path too — column splits hand the SIMD range a nonzero j0,
// and row splits (b too narrow for column ranges) are quad-aligned for the
// panel layout, with a partial last quad when m%4 != 0.
func TestGEMMF32ParallelMatchesSerial(t *testing.T) {
	if !F32SIMDAvailable() {
		t.Skip("AVX2 f32 kernel not available on this host")
	}
	rng := rand.New(rand.NewSource(15))
	for _, sh := range [][3]int{{64, 128, 640}, {4, 90, 2000}, {26, 70, 200}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randF32s(rng, m*k)
		bm := randF32s(rng, k*n)
		ep := Epilogue{RowBias: randF32s(rng, m), ReLU: true}

		prev := SetF32SIMD(true)
		old := runtime.GOMAXPROCS(1)
		serial := make([]float32, m*n)
		GEMMRaw(m, k, n, a, bm, serial, ep)
		runtime.GOMAXPROCS(4)
		parallel := make([]float32, m*n)
		GEMMRaw(m, k, n, a, bm, parallel, ep)
		runtime.GOMAXPROCS(old)
		SetF32SIMD(prev)

		if i := f32BitsDiff(parallel, serial); i >= 0 {
			t.Fatalf("shape %v: parallel c[%d] bits %x, serial %x", sh, i,
				math.Float32bits(parallel[i]), math.Float32bits(serial[i]))
		}
	}
}

// TestSetF32SIMD pins the toggle contract: it reports the previous state,
// and enabling is a no-op where the kernel does not exist.
func TestSetF32SIMD(t *testing.T) {
	orig := F32SIMDActive()
	defer SetF32SIMD(orig)
	if prev := SetF32SIMD(false); prev != orig {
		t.Fatalf("SetF32SIMD(false) reported previous %v, want %v", prev, orig)
	}
	if F32SIMDActive() {
		t.Fatal("kernel active after SetF32SIMD(false)")
	}
	if got := F32KernelName(); got != KernelPortable {
		t.Fatalf("F32KernelName() = %q with the SIMD tier off, want %q", got, KernelPortable)
	}
	SetF32SIMD(true)
	if F32SIMDActive() != F32SIMDAvailable() {
		t.Fatalf("SetF32SIMD(true): active %v, available %v", F32SIMDActive(), F32SIMDAvailable())
	}
	for _, wide := range []bool{false, true} {
		prev := setF32Wide(wide)
		want := KernelPortable
		switch {
		case F32SIMDAvailable() && wide && f32WideSupported():
			want = KernelAVX512
		case F32SIMDAvailable():
			want = KernelAVX2
		}
		if got := F32KernelName(); got != want {
			t.Fatalf("F32KernelName() = %q with setF32Wide(%v), want %q", got, wide, want)
		}
		setF32Wide(prev)
	}
}

// TestF32KernelTier logs which f32 kernel tier this host dispatches by
// default and checks it against the detected features: AVX-512 without
// the SMOL_NOSIMD veto must mean the ZMM kernel, AVX2 alone the YMM
// kernel, neither the portable one. Run with -v, its log line records
// which tier a CI runner actually exercised.
func TestF32KernelTier(t *testing.T) {
	t.Logf("cpu: avx2 %v (dispatchable %v), avx512f %v (dispatchable %v); f32 kernel %q, int8 kernel %q",
		cpu.AVX2Supported(), cpu.AVX2(), cpu.AVX512Supported(), cpu.AVX512(), F32KernelName(), Int8KernelName())
	want := KernelPortable
	switch {
	case cpu.AVX512():
		want = KernelAVX512
	case cpu.AVX2():
		want = KernelAVX2
	}
	if got := F32KernelName(); got != want {
		t.Fatalf("F32KernelName() = %q, want %q for the detected features", got, want)
	}
}

// TestGEMMF32WarmAllocs: the pack/dispatch path reuses pooled and stack
// scratch — once warm, streamed and packed SIMD GEMMs allocate nothing.
// GOMAXPROCS is pinned to 1 so the serial SIMD core (not the goroutine
// split) carries the call.
func TestGEMMF32WarmAllocs(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(16))
	const m, k, n = 8, 64, 96
	a := randF32s(rng, m*k)
	bm := randF32s(rng, k*n)
	c := make([]float32, m*n)
	ep := Epilogue{RowBias: randF32s(rng, m), ReLU: true}
	pa := PackA(m, k, a)
	GEMMRaw(m, k, n, a, bm, c, ep) // warm the pack pool
	alloctest.Run(t, "smol/internal/tensor.gemmF32RangeAVX2", 0, func() {
		GEMMRaw(m, k, n, a, bm, c, ep)
		GEMMPackedRaw(pa, n, bm, c, ep)
	},
		"smol/internal/tensor.packAF32",
		"smol/internal/tensor.buildConvTable",
		"smol/internal/tensor.inPlaceB16",
		"smol/internal/tensor.gatherB16",
		"smol/internal/tensor.applyEpilogueAVX2")
}
