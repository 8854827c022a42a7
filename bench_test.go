package smol

// Benchmark harness: one benchmark per table and figure of the paper (see
// internal/experiments), plus real-substrate microbenchmarks for
// the codecs, preprocessing kernels, queue, and engine so the repo's own
// performance claims are measurable with `go test -bench`.
//
// The experiment benchmarks report the key quantity of their table/figure
// as a custom metric; full tables print via cmd/smol-bench.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"smol/internal/codec/jpeg"
	"smol/internal/codec/spng"
	"smol/internal/codec/vid"
	"smol/internal/data"
	"smol/internal/engine"
	"smol/internal/experiments"
	"smol/internal/img"
	"smol/internal/nn"
	"smol/internal/preproc"
	"smol/internal/tensor"
)

// benchScale picks Full when the trained zoo exists (populated by
// cmd/smol-train), Quick otherwise, so accuracy-bearing benchmarks never
// silently train at full budgets.
func benchScale() experiments.Scale {
	if _, err := os.Stat(experiments.ZooDir()); err == nil {
		return experiments.Full
	}
	return experiments.Quick
}

// runExperiment executes one experiment per iteration and reports a cell
// value as a custom metric.
func runExperiment(b *testing.B, id string, metric func(*experiments.Table) (float64, string)) {
	b.Helper()
	if testing.Short() {
		// The CI bench-smoke step (-bench . -benchtime 1x -short) only
		// checks that benchmarks compile and run; the experiment harness is
		// far too slow for that budget.
		b.Skip("experiment benchmarks skipped in -short mode")
	}
	s := benchScale()
	var tbl *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.Run(id, s)
		if err != nil {
			b.Fatal(err)
		}
	}
	if metric != nil {
		v, name := metric(tbl)
		b.ReportMetric(v, name)
	}
}

func cellFloat(b *testing.B, tbl *experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q", row, col, tbl.Rows[row][col])
	}
	return v
}

func BenchmarkTable1_Frameworks(b *testing.B) {
	runExperiment(b, "table1", func(t *experiments.Table) (float64, string) {
		return cellFloat(b, t, 2, 1), "tensorrt-im/s"
	})
}

func BenchmarkFigure1_Breakdown(b *testing.B) {
	runExperiment(b, "figure1", func(t *experiments.Table) (float64, string) {
		return cellFloat(b, t, 3, 2) / cellFloat(b, t, 4, 2), "preproc/exec-ratio"
	})
}

func BenchmarkTable2_ResNetTradeoff(b *testing.B) {
	runExperiment(b, "table2", func(t *experiments.Table) (float64, string) {
		return cellFloat(b, t, 2, 1), "rn50-im/s"
	})
}

func BenchmarkTable3_CostModels(b *testing.B) {
	runExperiment(b, "table3", func(t *experiments.Table) (float64, string) {
		// Smol's error on the preprocessing-bound configuration.
		return cellFloat(b, t, 1, 4), "smol-err-%"
	})
}

func BenchmarkTable5_GPUGenerations(b *testing.B) {
	runExperiment(b, "table5", nil)
}

func BenchmarkTable6_Datasets(b *testing.B) {
	runExperiment(b, "table6", nil)
}

func BenchmarkTable7_Training(b *testing.B) {
	runExperiment(b, "table7", func(t *experiments.Table) (float64, string) {
		// Accuracy recovered by low-res training on PNG thumbnails (C).
		return cellFloat(b, t, 1, 2), "lowres-thumb-acc"
	})
}

func BenchmarkTable8_CostScaling(b *testing.B) {
	runExperiment(b, "table8", func(t *experiments.Table) (float64, string) {
		return cellFloat(b, t, 1, 3) / cellFloat(b, t, 0, 3), "cost-savings-x"
	})
}

func BenchmarkFigure4_Pareto(b *testing.B) {
	runExperiment(b, "figure4", nil)
}

func BenchmarkFigure5_Lesion(b *testing.B) {
	runExperiment(b, "figure5", nil)
}

func BenchmarkFigure6_Factor(b *testing.B) {
	runExperiment(b, "figure6", nil)
}

func BenchmarkFigure7_SystemsLesion(b *testing.B) {
	runExperiment(b, "figure7", nil)
}

func BenchmarkFigure8_SystemsFactor(b *testing.B) {
	runExperiment(b, "figure8", nil)
}

func BenchmarkFigure9_VideoAgg(b *testing.B) {
	runExperiment(b, "figure9", func(t *experiments.Table) (float64, string) {
		return cellFloat(b, t, 0, 4), "speedup-x"
	})
}

func BenchmarkFigure10_EngineComparison(b *testing.B) {
	runExperiment(b, "figure10", nil)
}

func BenchmarkPipelineOverhead(b *testing.B) {
	runExperiment(b, "pipeline-overhead", nil)
}

func BenchmarkMobileNetSSD(b *testing.B) {
	runExperiment(b, "mobilenet-ssd", func(t *experiments.Table) (float64, string) {
		return cellFloat(b, t, 0, 1) / cellFloat(b, t, 1, 1), "exec/preproc-x"
	})
}

func BenchmarkLatencyTradeoff(b *testing.B) {
	runExperiment(b, "latency", func(t *experiments.Table) (float64, string) {
		// Estimator-vs-simulated-max ratio at batch 64.
		return cellFloat(b, t, 3, 5), "est/sim-max-b64"
	})
}

func BenchmarkTable_PowerCost(b *testing.B) {
	runExperiment(b, "power-cost", nil)
}

// --- Real-substrate microbenchmarks ---

func benchImage(res int) *img.Image {
	return data.RenderImage(rand.New(rand.NewSource(1)), 3, 10, res)
}

func BenchmarkJPEGEncode(b *testing.B) {
	m := benchImage(256)
	b.SetBytes(int64(len(m.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		jpeg.Encode(m, jpeg.EncodeOptions{Quality: 90})
	}
}

func BenchmarkJPEGDecodeFull(b *testing.B) {
	enc := jpeg.Encode(benchImage(256), jpeg.EncodeOptions{Quality: 90})
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jpeg.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJPEGDecodeROI(b *testing.B) {
	enc := jpeg.Encode(benchImage(256), jpeg.EncodeOptions{Quality: 90})
	roi := img.CenterCropRect(256, 256, 96, 96)
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := jpeg.DecodeWithOptions(enc, jpeg.DecodeOptions{ROI: &roi}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJPEGDecodeEarlyStop(b *testing.B) {
	enc := jpeg.Encode(benchImage(256), jpeg.EncodeOptions{Quality: 90})
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := jpeg.DecodeWithOptions(enc, jpeg.DecodeOptions{EarlyStopRow: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPNGDecode(b *testing.B) {
	enc := spng.Encode(benchImage(256), 0)
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spng.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func benchVideo(b *testing.B) []byte {
	b.Helper()
	spec, err := data.VideoDataset("taipei")
	if err != nil {
		b.Fatal(err)
	}
	spec.Frames = 60
	v := data.GenerateVideo(spec)
	enc, err := vid.Encode(v.Frames, vid.EncodeOptions{Quality: 70, GOP: 30})
	if err != nil {
		b.Fatal(err)
	}
	return enc
}

func BenchmarkVideoDecodeDeblock(b *testing.B) {
	enc := benchVideo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vid.DecodeAll(enc, vid.DecodeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVideoDecodeNoDeblock(b *testing.B) {
	enc := benchVideo(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vid.DecodeAll(enc, vid.DecodeOptions{DisableDeblock: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchPreprocSpec() preproc.Spec {
	return preproc.Spec{
		InW: 500, InH: 375, ResizeShort: 256, CropW: 224, CropH: 224,
		Mean: [3]float32{0.485, 0.456, 0.406}, Std: [3]float32{0.229, 0.224, 0.225},
	}
}

func BenchmarkPreprocNaivePlan(b *testing.B) {
	s := benchPreprocSpec()
	m := benchImage(500).ResizeBilinear(500, 375)
	plan := preproc.NaivePlan(s)
	ex := preproc.NewExecutor()
	out := tensor.New(preproc.OutputShape(s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ex.Execute(plan, m, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPreprocOptimizedPlan(b *testing.B) {
	s := benchPreprocSpec()
	m := benchImage(500).ResizeBilinear(500, 375)
	plan, err := preproc.Optimize(s)
	if err != nil {
		b.Fatal(err)
	}
	ex := preproc.NewExecutor()
	out := tensor.New(preproc.OutputShape(s))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ex.Execute(plan, m, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMPMCQueue(b *testing.B) {
	q := engine.NewMPMCQueue[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := q.Put(1); err != nil {
				b.Fatal(err)
			}
			if _, ok := q.Take(); !ok {
				b.Fatal("queue closed")
			}
		}
	})
}

func BenchmarkEnginePipeline(b *testing.B) {
	prep := func(ws *engine.WorkerState, job engine.Job, out *tensor.Tensor) error {
		for i := range out.Data {
			out.Data[i] = float32(job.Index)
		}
		return nil
	}
	exec := func(batch *tensor.Tensor, refs []engine.Ref) error { return nil }
	cfg := engine.Config{Workers: 2, Streams: 2, BatchSize: 32, Shapes: [][3]int{{3, 32, 32}}}
	jobs := make([]engine.Job, 512)
	for i := range jobs {
		jobs[i] = engine.Job{Index: i}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cold on purpose: every iteration pays pipeline setup and
		// teardown, the one-shot cost BenchmarkEngineStreamingWarm avoids.
		p, err := engine.NewPipeline(cfg, prep, exec)
		if err != nil {
			b.Fatal(err)
		}
		_, err = p.Process(ctx, engine.SliceSource(jobs))
		p.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStreamingWarm is the streaming counterpart of
// BenchmarkEnginePipeline: the pipeline (pool, arena, queue, workers) is
// built once and every iteration streams one request through it warm. The
// gap between the two is the per-call setup cost the serving mode removes.
func BenchmarkEngineStreamingWarm(b *testing.B) {
	prep := func(ws *engine.WorkerState, job engine.Job, out *tensor.Tensor) error {
		for i := range out.Data {
			out.Data[i] = float32(job.Index)
		}
		return nil
	}
	exec := func(batch *tensor.Tensor, refs []engine.Ref) error { return nil }
	p, err := engine.NewPipeline(engine.Config{Workers: 2, Streams: 2, BatchSize: 32,
		Shapes: [][3]int{{3, 32, 32}}}, prep, exec)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	jobs := make([]engine.Job, 512)
	for i := range jobs {
		jobs[i] = engine.Job{Index: i}
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Process(ctx, engine.SliceSource(jobs)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineStreamingConcurrent measures many callers sharing one warm
// pipeline, the serving workload of §3.1: each parallel benchmark goroutine
// repeatedly streams a small request through the shared engine.
func BenchmarkEngineStreamingConcurrent(b *testing.B) {
	prep := func(ws *engine.WorkerState, job engine.Job, out *tensor.Tensor) error {
		for i := range out.Data {
			out.Data[i] = float32(job.Index)
		}
		return nil
	}
	exec := func(batch *tensor.Tensor, refs []engine.Ref) error { return nil }
	p, err := engine.NewPipeline(engine.Config{Workers: 4, Streams: 2, BatchSize: 32,
		Shapes: [][3]int{{3, 32, 32}}}, prep, exec)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	ctx := context.Background()
	b.RunParallel(func(pb *testing.PB) {
		jobs := make([]engine.Job, 64)
		for i := range jobs {
			jobs[i] = engine.Job{Index: i}
		}
		for pb.Next() {
			if _, err := p.Process(ctx, engine.SliceSource(jobs)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkResNetForward(b *testing.B) {
	for _, variant := range nn.Variants() {
		b.Run(variant, func(b *testing.B) {
			cfg, err := nn.VariantConfig(variant, 10, 32)
			if err != nil {
				b.Fatal(err)
			}
			m, err := nn.NewResNet(rand.New(rand.NewSource(1)), cfg)
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(8, 3, 32, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Forward(x, false)
			}
		})
	}
}

// BenchmarkResNetForwardCompiled is the compiled-plan counterpart of
// BenchmarkResNetForward: same variants, same batch-8 input, executed
// through nn.Compile's folded/fused/arena path. The ratio between the two
// is the compiled-path speedup tracked in BENCH_infer.json. The extra
// resnet-b-128px case is the still-thumb workload's plan (resnet-b on
// 128x128 inputs, batch 8), where the conv GEMMs have ~131k columns.
func BenchmarkResNetForwardCompiled(b *testing.B) {
	type fwdCase struct {
		name    string
		variant string
		res     int
	}
	var cases []fwdCase
	for _, variant := range nn.Variants() {
		cases = append(cases, fwdCase{variant, variant, 32})
	}
	cases = append(cases, fwdCase{nn.VariantB + "-128px", nn.VariantB, 128})
	for _, fc := range cases {
		b.Run(fc.name, func(b *testing.B) {
			cfg, err := nn.VariantConfig(fc.variant, 10, fc.res)
			if err != nil {
				b.Fatal(err)
			}
			m, err := nn.NewResNet(rand.New(rand.NewSource(1)), cfg)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := nn.Compile(m)
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(8, 3, fc.res, fc.res)
			preds := make([]int, 8)
			plan.PredictInto(x, preds) // warm the arena pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.PredictInto(x, preds)
			}
		})
	}
}

// BenchmarkResNetForwardInt8 is the quantized counterpart of
// BenchmarkResNetForwardCompiled: same variants, same batch-8 input,
// executed through nn.Quantize's int8 plan (calibrated on the benchmark
// input itself — only geometry and arithmetic width matter for speed). The
// ratio between the two is the int8-tier speedup tracked in
// BENCH_infer.json.
func BenchmarkResNetForwardInt8(b *testing.B) {
	for _, variant := range nn.Variants() {
		b.Run(variant, func(b *testing.B) {
			cfg, err := nn.VariantConfig(variant, 10, 32)
			if err != nil {
				b.Fatal(err)
			}
			m, err := nn.NewResNet(rand.New(rand.NewSource(1)), cfg)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := nn.Compile(m)
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New(8, 3, 32, 32)
			rng := rand.New(rand.NewSource(2))
			for i := range x.Data {
				x.Data[i] = rng.Float32()
			}
			cal, err := plan.Calibrate([]*tensor.Tensor{x})
			if err != nil {
				b.Fatal(err)
			}
			qp, err := nn.Quantize(plan, cal)
			if err != nil {
				b.Fatal(err)
			}
			preds := make([]int, 8)
			qp.PredictInto(x, preds) // warm the arena pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qp.PredictInto(x, preds)
			}
		})
	}
}

// BenchmarkGEMM measures the blocked f32 kernel on square problems — the
// AVX2 microkernel where the hardware has it (see BenchmarkGEMMPortable
// for the scalar tier); the custom metric reports achieved multiply-add
// throughput in GMAC/s so the perf trajectory captures throughput, not
// just ns/op.
func BenchmarkGEMM(b *testing.B) {
	for _, size := range []int{64, 256, 1024} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := tensor.New(size, size)
			bm := tensor.New(size, size)
			c := tensor.New(size, size)
			for i := range a.Data {
				a.Data[i] = rng.Float32()
				bm.Data[i] = rng.Float32()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.GEMM(a, bm, c)
			}
			macs := float64(size) * float64(size) * float64(size)
			b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// BenchmarkGEMMPortable is BenchmarkGEMM with the AVX2 f32 tier disabled:
// the scalar kernel's GMAC/s alongside the SIMD number quantifies the
// speedup BENCH_infer.json tracks, and — because the tiers are
// bit-identical — the ratio is pure throughput, not an accuracy trade.
func BenchmarkGEMMPortable(b *testing.B) {
	prev := tensor.SetF32SIMD(false)
	defer tensor.SetF32SIMD(prev)
	for _, size := range []int{64, 256, 1024} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := tensor.New(size, size)
			bm := tensor.New(size, size)
			c := tensor.New(size, size)
			for i := range a.Data {
				a.Data[i] = rng.Float32()
				bm.Data[i] = rng.Float32()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.GEMM(a, bm, c)
			}
			macs := float64(size) * float64(size) * float64(size)
			b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// BenchmarkGEMMInt8 is the quantized counterpart of BenchmarkGEMM: same
// square problems through the int8 dual-MAC kernel with the full
// requantize/bias/ReLU epilogue. The GMAC/s ratio between the two is the
// raw int8 speedup tracked in BENCH_infer.json.
func BenchmarkGEMMInt8(b *testing.B) {
	for _, size := range []int{64, 256, 1024} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := make([]int16, size*size)
			bm := make([]int8, size*size)
			for i := range a {
				a[i] = int16(rng.Intn(255) - 127)
				bm[i] = int8(rng.Intn(255) - 127)
			}
			acc := make([]int32, size*size)
			dst := make([]int8, size*size)
			ep := tensor.EpilogueInt8{
				RowScale: make([]float32, size),
				RowBias:  make([]float32, size),
				ReLU:     true,
				OutScale: 0.05,
			}
			for i := range ep.RowScale {
				ep.RowScale[i] = 0.002
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.GEMMInt8(size, size, size, a, bm, acc, dst, ep)
			}
			macs := float64(size) * float64(size) * float64(size)
			b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

func BenchmarkSPNGDecodeProgressive(b *testing.B) {
	m := benchImage(256)
	enc, err := spng.EncodeProgressive(m, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Decode only up to the 64x64 level — the multi-resolution decode
		// of Table 4's JPEG2000-style feature.
		if _, _, err := spng.DecodeProgressive(enc, 64, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// hdBenchJPEG renders and encodes one 1920x1080 4:2:0 frame, shared by the
// ingest benchmarks (encoding full HD through the float FDCT is slow, so
// do it once).
var hdBenchJPEG []byte

func hdJPEG(b *testing.B) []byte {
	b.Helper()
	if hdBenchJPEG == nil {
		rng := rand.New(rand.NewSource(2))
		frame := data.RenderImage(rng, 2, 10, 540).ResizeBilinear(1920, 1080)
		hdBenchJPEG = jpeg.Encode(frame, jpeg.EncodeOptions{Quality: 90, Subsampling: jpeg.Sub420})
	}
	return hdBenchJPEG
}

// BenchmarkIngestHD measures the serving ingest hot path in isolation —
// header parse, (scaled/ROI) decode into pooled buffers, residual preproc
// chain into the pooled tensor — on a 1920x1080 JPEG headed for a 224x224
// model input. "full" forces full-resolution decode; "scaled" lets the
// ingest planner pick the decode scale (1/4 here); "scaled-roi" adds
// central-crop ROI decoding. The full/scaled ratio is the compiled-ingest
// speedup tracked in BENCH_preproc.json.
func BenchmarkIngestHD(b *testing.B) {
	enc := hdJPEG(b)
	cfg, err := nn.VariantConfig("resnet-a", 10, 32)
	if err != nil {
		b.Fatal(err)
	}
	model, err := nn.NewResNet(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		rc   RuntimeConfig
		full bool
	}{
		{"full", RuntimeConfig{InputRes: 224}, true},
		{"scaled", RuntimeConfig{InputRes: 224}, false},
		{"scaled-roi", RuntimeConfig{InputRes: 224, ROIDecode: true}, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rt, err := NewRuntime(model, bc.rc)
			if err != nil {
				b.Fatal(err)
			}
			if bc.full {
				rt.jpegScales = nil
			}
			prep := rt.prepFunc()
			ws := &engine.WorkerState{}
			job := engine.Job{Index: 0, Tag: &classifyReq{inputs: []MediaInput{{Codec: CodecJPEG, Data: enc}}, preds: make([]int, 1), entry: rt.entries[0]}}
			out := tensor.New(3, 224, 224)
			if err := prep(ws, job, out); err != nil { // compile the plan, warm the buffers
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := prep(ws, job, out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "im/s")
		})
	}
}

// BenchmarkServeIngestHD is the end-to-end serve-mode counterpart: a warm
// streaming pipeline classifying 1920x1080 JPEGs through a 64x64 model,
// with and without the compiled scaled-decode ingest path. Each iteration
// streams one 32-image request through the shared engine; the metric is
// end-to-end images/second.
func BenchmarkServeIngestHD(b *testing.B) {
	enc := hdJPEG(b)
	cfg, err := nn.VariantConfig("resnet-a", 10, 64)
	if err != nil {
		b.Fatal(err)
	}
	model, err := nn.NewResNet(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		b.Fatal(err)
	}
	const reqImages = 32
	inputs := make([]MediaInput, reqImages)
	for i := range inputs {
		inputs[i] = MediaInput{Codec: CodecJPEG, Data: enc}
	}
	for _, bc := range []struct {
		name string
		full bool
	}{
		{"full", true},
		{"scaled", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rt, err := NewRuntime(model, RuntimeConfig{InputRes: 64, BatchSize: 8})
			if err != nil {
				b.Fatal(err)
			}
			if bc.full {
				rt.jpegScales = nil
			}
			srv, err := rt.Serve()
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ctx := context.Background()
			if _, err := srv.ClassifyMedia(ctx, inputs[:2], QoS{}); err != nil { // warm
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.ClassifyMedia(ctx, inputs, QoS{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*reqImages)/b.Elapsed().Seconds(), "im/s")
		})
	}
}

// BenchmarkServePlannerHD sweeps accuracy floors through the serving
// planner on a warm multi-variant server: 1920x1080 JPEGs served by a
// three-entry zoo (resnet-b@128 pinned at 0.95 validation accuracy,
// resnet-a@128 at 0.88, resnet-a@64 at 0.80 — untrained weights, since
// only geometry matters for throughput). The strict floor pins the top
// variant and reproduces the single-model baseline; each relaxation frees
// the planner to route to a cheaper (variant, resolution, decode scale)
// point. The floor-strict/floor-relaxed ratio is the planner speedup
// tracked in BENCH_serve.json.
func BenchmarkServePlannerHD(b *testing.B) {
	enc := hdJPEG(b)
	zoo := NewZoo()
	for _, e := range []struct {
		variant string
		res     int
		acc     float64
	}{
		{"resnet-b", 128, 0.95},
		{"resnet-a", 128, 0.88},
		{"resnet-a", 64, 0.80},
	} {
		cfg, err := nn.VariantConfig(e.variant, 10, e.res)
		if err != nil {
			b.Fatal(err)
		}
		model, err := nn.NewResNet(rand.New(rand.NewSource(1)), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := zoo.Add(ZooEntry{Variant: e.variant, InputRes: e.res, Accuracy: e.acc,
			Model: model, Config: cfg}); err != nil {
			b.Fatal(err)
		}
	}
	rt, err := NewZooRuntime(zoo, RuntimeConfig{BatchSize: 8})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const reqImages = 32
	inputs := make([]MediaInput, reqImages)
	for i := range inputs {
		inputs[i] = MediaInput{Codec: CodecJPEG, Data: enc}
	}
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		qos  QoS
	}{
		{"floor-strict", QoS{MinAccuracy: 0.95}},
		{"floor-mid", QoS{MinAccuracy: 0.85}},
		{"floor-relaxed", QoS{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			res, err := srv.ClassifyMedia(ctx, inputs[:2], bc.qos) // warm this entry's pools
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.ClassifyMedia(ctx, inputs, bc.qos); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*reqImages)/b.Elapsed().Seconds(), "im/s")
			b.StopTimer()
			_ = res
		})
	}
}
