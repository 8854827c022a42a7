package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"smol/internal/analysis/alloctest"
	"smol/internal/tensor"
)

// randomizeForInference gives every layer nontrivial weights AND
// nontrivial batch-norm running statistics, so folding has real work to do
// (fresh models have RunMean = 0, RunVar = 1, which would hide folding
// bugs behind near-identity transforms).
func randomizeForInference(rng *rand.Rand, layers []Layer) {
	for _, l := range layers {
		switch v := l.(type) {
		case *Conv2D:
			fillRand(rng, v.W, v.B)
			// He-style scaling keeps activation magnitudes O(1), as in a
			// trained model; unscaled +-1 weights explode exponentially with
			// depth and drown the comparison in float32 rounding.
			scale(v.W, float32(math.Sqrt(2.0/float64(v.InC*v.K*v.K))))
		case *Linear:
			fillRand(rng, v.W, v.B)
			scale(v.W, float32(math.Sqrt(2.0/float64(v.In))))
		case *BatchNorm2D:
			fillRand(rng, v.Gamma, v.Beta, v.RunMean)
			for i := range v.RunVar.Data {
				v.RunVar.Data[i] = 0.5 + rng.Float32() // variance must stay positive
			}
		case *Residual:
			randomizeForInference(rng, v.inner())
		}
	}
}

func scale(t *tensor.Tensor, s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

func fillRand(rng *rand.Rand, ts ...*tensor.Tensor) {
	for _, t := range ts {
		for i := range t.Data {
			t.Data[i] = rng.Float32()*2 - 1
		}
	}
}

// compiledVariant builds a variant model with randomized inference state
// and its compiled plan.
func compiledVariant(t *testing.T, variant string, seed int64) (*Model, *InferencePlan, ResNetConfig) {
	t.Helper()
	cfg, err := VariantConfig(variant, 7, 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	m, err := NewResNet(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	randomizeForInference(rng, m.Layers)
	plan, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, plan, cfg
}

// TestCompiledMatchesReference: for every variant and batch size, the
// compiled plan's predictions are identical to Model.Predict and its
// logits match Model.Forward(x, false) within 1e-4.
func TestCompiledMatchesReference(t *testing.T) {
	for vi, variant := range Variants() {
		for _, batch := range []int{1, 8, 32} {
			t.Run(fmt.Sprintf("%s/batch%d", variant, batch), func(t *testing.T) {
				m, plan, _ := compiledVariant(t, variant, int64(100+vi))
				rng := rand.New(rand.NewSource(int64(batch)))
				x := tensor.New(batch, 3, 16, 16)
				fillRand(rng, x)

				ref := m.Forward(x, false)
				got := plan.Forward(x)
				if !tensor.SameShape(ref, got) {
					t.Fatalf("logits shape %v, want %v", got.Shape, ref.Shape)
				}
				for i := range ref.Data {
					r, g := float64(ref.Data[i]), float64(got.Data[i])
					if math.Abs(r-g) > 1e-4*math.Max(1, math.Abs(r)) {
						t.Fatalf("logit %d: compiled %v, reference %v", i, g, r)
					}
				}

				wantPred := m.Predict(x)
				gotPred := plan.Predict(x)
				for i := range wantPred {
					if wantPred[i] != gotPred[i] {
						t.Fatalf("sample %d: compiled class %d, reference %d",
							i, gotPred[i], wantPred[i])
					}
				}
			})
		}
	}
}

// TestCompiledPlanConcurrent runs one plan from 8 goroutines with
// distinct inputs; every result must match a serial forward of the same
// input. Run under -race this proves the plan is reentrant.
func TestCompiledPlanConcurrent(t *testing.T) {
	_, plan, _ := compiledVariant(t, VariantB, 42)
	const goroutines = 8
	inputs := make([]*tensor.Tensor, goroutines)
	want := make([][]int, goroutines)
	for g := range inputs {
		rng := rand.New(rand.NewSource(int64(g)))
		inputs[g] = tensor.New(4, 3, 16, 16)
		fillRand(rng, inputs[g])
		want[g] = plan.Predict(inputs[g])
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				got := plan.Predict(inputs[g])
				for i := range got {
					if got[i] != want[g][i] {
						errs <- fmt.Errorf("goroutine %d iter %d sample %d: %d != %d",
							g, iter, i, got[i], want[g][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCompiledWarmForwardAllocs: once warm, PredictInto runs out of the
// recycled arena on either kernel tier. With GOMAXPROCS pinned to 1 the
// GEMM never spawns goroutines, so the forward should allocate nothing at
// all.
func TestCompiledWarmForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool drops puts under -race")
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	_, plan, _ := compiledVariant(t, VariantA, 7)
	x := tensor.New(8, 3, 16, 16)
	fillRand(rand.New(rand.NewSource(1)), x)
	preds := make([]int, 8)
	plan.PredictInto(x, preds) // warm the arena pool
	// GOMAXPROCS=1 keeps every GEMM on its serial path, so one warm
	// forward transitively exercises every annotated kernel of its tier:
	// the implicit GEMM on AVX2 hosts ...
	alloctest.Run(t, "smol/internal/nn.InferencePlan.PredictInto", 0.5, func() {
		plan.PredictInto(x, preds)
	},
		"smol/internal/nn.InferencePlan.run",
		"smol/internal/nn.InferencePlan.getArena",
		"smol/internal/tensor.gemmF32RangeAVX2",
		"smol/internal/tensor.gatherB16",
		"smol/internal/tensor.applyEpilogueAVX2")
	// ... and im2col + the blocked portable GEMM on the portable tier.
	prev := tensor.SetF32SIMD(false)
	defer tensor.SetF32SIMD(prev)
	plan.PredictInto(x, preds) // grow the arena's im2col buffer
	alloctest.Run(t, "smol/internal/nn.InferencePlan.PredictInto", 0.5, func() {
		plan.PredictInto(x, preds)
	},
		"smol/internal/tensor.Im2ColBatch",
		"smol/internal/tensor.gemmRange",
		"smol/internal/tensor.gemm4",
		"smol/internal/tensor.gemm1",
		"smol/internal/tensor.applyEpilogue")
}

// TestArenaColBufferPerTier: the AVX2 tier's implicit GEMM never needs the
// im2col matrix, so a warm forward there leaves the arena's column buffer
// unallocated (and the portable branch, which slices it, unreachable); the
// portable tier sizes it for the largest conv's im2col matrix.
func TestArenaColBufferPerTier(t *testing.T) {
	if !tensor.F32SIMDAvailable() {
		t.Skip("AVX2 f32 kernel not available on this host")
	}
	prev := tensor.SetF32SIMD(true)
	defer tensor.SetF32SIMD(prev)
	_, plan, _ := compiledVariant(t, VariantB, 3)
	const n, res = 3, 20
	x := tensor.New(n, 3, res, res)
	fillRand(rand.New(rand.NewSource(2)), x)
	// The largest im2col matrix is stage 1's 3x3 conv: 12 channels x 9
	// taps rows by n*20*20 columns.
	const wantCol = 12 * 9 * n * res * res

	plan.Forward(x)
	ar := plan.getArena(n, res, res, true)
	plan.run(x, ar, true, nil)
	if cap(ar.col) != 0 {
		t.Fatalf("AVX2 tier: arena col capacity %d after a warm forward, want 0", cap(ar.col))
	}
	plan.arenas.Put(ar)
	if _, col := plan.footprint(n, res, res, true); col != 0 {
		t.Fatalf("AVX2 tier footprint reports %d im2col elements, want 0", col)
	}

	tensor.SetF32SIMD(false)
	_, fresh, _ := compiledVariant(t, VariantB, 3)
	fresh.Forward(x)
	ar = fresh.getArena(n, res, res, false)
	if cap(ar.col) != wantCol {
		t.Fatalf("portable tier: arena col capacity %d, want %d", cap(ar.col), wantCol)
	}
	fresh.arenas.Put(ar)
	if _, col := fresh.footprint(n, res, res, false); col != wantCol {
		t.Fatalf("portable tier footprint reports %d im2col elements, want %d", col, wantCol)
	}
}

// TestCompiledBatchSizeChange: the arena grows when a bigger batch
// arrives and keeps working for smaller ones (engine batches vary in
// size when a request does not fill the last batch).
func TestCompiledBatchSizeChange(t *testing.T) {
	m, plan, _ := compiledVariant(t, VariantA, 11)
	for _, batch := range []int{2, 32, 1, 8} {
		rng := rand.New(rand.NewSource(int64(batch)))
		x := tensor.New(batch, 3, 16, 16)
		fillRand(rng, x)
		want := m.Predict(x)
		got := plan.Predict(x)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("batch %d sample %d: %d != %d", batch, i, got[i], want[i])
			}
		}
	}
}

// TestCompileRejectsUnsupported: layer kinds outside the plan vocabulary
// produce an error (callers then fall back to Model.Forward).
func TestCompileRejectsUnsupported(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range []*Model{
		{Layers: []Layer{&MaxPool2{}}},
		{Layers: []Layer{NewLinear(rng, 4, 2), NewLinear(rng, 2, 2)}},
		{},
		// Conv with no terminal Linear.
		{Layers: []Layer{NewConv2D(rng, 3, 4, 3, 1, 1)}},
	} {
		if _, err := Compile(m); err == nil {
			t.Fatalf("Compile accepted unsupported model %+v", m)
		}
	}
}

// TestConvColCacheInvalidation: a stale cached column matrix whose row
// count no longer matches InC*K*K must be re-sized, not handed to Im2Col
// (which would panic).
func TestConvColCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	conv := NewConv2D(rng, 2, 3, 3, 1, 1)
	x := randInput(rng, 1, 2, 5, 5)
	want := conv.Forward(x, false)
	// Poison the cache with a column matrix matching only on columns
	// (25 = outH*outW) with a wrong row count.
	conv.cols[0] = tensor.New(7, 25)
	got := conv.Forward(x, false)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("output %d changed after cache poisoning: %v != %v",
				i, got.Data[i], want.Data[i])
		}
	}
}
