package costmodel

import (
	"math"
	"testing"

	"smol/internal/hw"
	"smol/internal/preproc"
	"smol/internal/stats"
)

// fullResJPEG is the ImageNet-style full resolution format.
func fullResJPEG() Format {
	return Format{Name: "full-jpeg", Kind: hw.FormatJPEG, W: 500, H: 375, Quality: 90}
}

// thumbPNG is the 161-short-side PNG thumbnail format.
func thumbPNG() Format {
	return Format{Name: "thumb-png", Kind: hw.FormatPNG, W: 215, H: 161, Lossless: true}
}

func rn50() DNNChoice { return DNNChoice{Name: "resnet-50", InputRes: 224, Accuracy: 0.7516} }
func rn18() DNNChoice { return DNNChoice{Name: "resnet-18", InputRes: 224, Accuracy: 0.682} }

func mustPlan(t *testing.T, d DNNChoice, f Format, opt bool) Plan {
	t.Helper()
	plans, err := Generate([]DNNChoice{d}, []Format{f}, DefaultEnv(),
		GenerateOptions{OptimizePreproc: opt, PlaceOps: false})
	if err != nil {
		t.Fatal(err)
	}
	return plans[0]
}

func TestStageThroughputsPreprocBoundOnFullRes(t *testing.T) {
	// The paper's central claim: on the T4, ResNet-50 on full-resolution
	// JPEG is preprocessing-bound (~530 vs ~4500 im/s).
	env := DefaultEnv()
	p := mustPlan(t, rn50(), fullResJPEG(), true)
	pre, exec, err := StageThroughputs(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if pre >= exec {
		t.Fatalf("full-res should be preproc-bound: pre %v, exec %v", pre, exec)
	}
	if pre < 300 || pre > 700 {
		t.Fatalf("preproc throughput %v, want ~450-530", pre)
	}
	if exec < 4000 || exec > 5000 {
		t.Fatalf("exec throughput %v, want ~4513", exec)
	}
}

func TestThumbnailsLiftPreprocThroughput(t *testing.T) {
	env := DefaultEnv()
	full := mustPlan(t, rn50(), fullResJPEG(), true)
	thumb := mustPlan(t, rn50(), thumbPNG(), true)
	preFull, _, err := StageThroughputs(full, env)
	if err != nil {
		t.Fatal(err)
	}
	preThumb, _, err := StageThroughputs(thumb, env)
	if err != nil {
		t.Fatal(err)
	}
	// §5.2: 527 vs 1995 im/s — roughly 3-4x.
	ratio := preThumb / preFull
	if ratio < 2 || ratio > 6 {
		t.Fatalf("thumbnail speedup = %v, want ~3.8", ratio)
	}
}

func TestEstimatorRelationships(t *testing.T) {
	env := DefaultEnv()
	p := mustPlan(t, rn50(), fullResJPEG(), true)
	smol, err := EstimateSmol(p, env)
	if err != nil {
		t.Fatal(err)
	}
	blazeit, err := EstimateBlazeIt(p, env)
	if err != nil {
		t.Fatal(err)
	}
	tahoma, err := EstimateTahoma(p, env)
	if err != nil {
		t.Fatal(err)
	}
	// Tahoma (sum) <= Smol (min) <= BlazeIt (exec) for preproc-bound plans.
	if !(tahoma < smol && smol < blazeit) {
		t.Fatalf("ordering violated: tahoma %v smol %v blazeit %v", tahoma, smol, blazeit)
	}
}

// table3Config builds plans matching Table 3's three regimes.
func table3Plans(t *testing.T) map[string]Plan {
	t.Helper()
	return map[string]Plan{
		// Balanced: thumbnails + mid-size DNN.
		"balanced": mustPlan(t, DNNChoice{Name: "resnet-34", InputRes: 224}, Format{
			Name: "thumb-jpeg", Kind: hw.FormatJPEG, W: 215, H: 161, Quality: 75}, true),
		// Preprocessing-bound: full-res JPEG + fast DNN.
		"preproc-bound": mustPlan(t, rn18(), fullResJPEG(), true),
		// DNN-bound: cheap thumbnails + slow DNN at high input res.
		"dnn-bound": mustPlan(t, DNNChoice{Name: "resnet-50", InputRes: 288}, Format{
			Name: "thumb-jpeg-q50", Kind: hw.FormatJPEG, W: 215, H: 161, Quality: 50}, true),
	}
}

func TestTable3SmolEstimatorWins(t *testing.T) {
	// For each regime, Smol's estimate must be at least as accurate as
	// BlazeIt's and Tahoma's against the simulator's measured throughput.
	env := DefaultEnv()
	for name, p := range table3Plans(t) {
		res, err := Measure(p, env, 20000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		actual := res.Throughput
		smol, _ := EstimateSmol(p, env)
		blazeit, _ := EstimateBlazeIt(p, env)
		tahoma, _ := EstimateTahoma(p, env)
		errSmol := stats.RelErr(smol, actual)
		errBlazeIt := stats.RelErr(blazeit, actual)
		errTahoma := stats.RelErr(tahoma, actual)
		if errSmol > errBlazeIt+1e-9 && errSmol > errTahoma+1e-9 {
			t.Fatalf("%s: smol err %.1f%% worse than blazeit %.1f%% and tahoma %.1f%%",
				name, errSmol*100, errBlazeIt*100, errTahoma*100)
		}
		if errSmol > 0.25 {
			t.Fatalf("%s: smol err %.1f%% too large (actual %v, est %v)",
				name, errSmol*100, actual, smol)
		}
	}
}

func TestBlazeItEstimatorFailsWhenPreprocBound(t *testing.T) {
	// Table 3's headline: the exec-only estimator is off by ~800% on
	// preprocessing-bound configurations.
	env := DefaultEnv()
	p := table3Plans(t)["preproc-bound"]
	res, err := Measure(p, env, 20000)
	if err != nil {
		t.Fatal(err)
	}
	blazeit, _ := EstimateBlazeIt(p, env)
	if e := stats.RelErr(blazeit, res.Throughput); e < 2 {
		t.Fatalf("exec-only error = %.0f%%, expected severe overestimate (>200%%)", e*100)
	}
}

func TestPlacementHelpsPreprocBoundPlans(t *testing.T) {
	env := DefaultEnv()
	p := mustPlan(t, rn18(), fullResJPEG(), true)
	placed, err := PlacePreprocOps(p, env)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := EstimateSmol(p, env)
	after, _ := EstimateSmol(placed, env)
	if placed.AccelOps == 0 {
		t.Fatal("preproc-bound plan should move ops to the accelerator")
	}
	if after < before {
		t.Fatalf("placement made things worse: %v -> %v", before, after)
	}
}

func TestPlacementLeavesDNNBoundPlansAlone(t *testing.T) {
	// When the accelerator is the bottleneck (here: an inefficient
	// framework caps execution at ~243 im/s while thumbnails preprocess at
	// ~1900 im/s), moving preprocessing onto it can only hurt.
	env := DefaultEnv()
	keras, err := hw.Framework("Keras")
	if err != nil {
		t.Fatal(err)
	}
	env.Framework = keras
	p := mustPlan(t, rn50(), thumbPNG(), true)
	placed, err := PlacePreprocOps(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if placed.AccelOps != 0 {
		t.Fatalf("DNN-bound plan moved %d ops to the accelerator", placed.AccelOps)
	}
}

func TestGenerateCrossProduct(t *testing.T) {
	env := DefaultEnv()
	dnns := []DNNChoice{rn18(), rn50()}
	formats := []Format{fullResJPEG(), thumbPNG()}
	plans, err := Generate(dnns, formats, env, GenerateOptions{OptimizePreproc: true, PlaceOps: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 4 {
		t.Fatalf("got %d plans, want 4", len(plans))
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(nil, []Format{fullResJPEG()}, DefaultEnv(), GenerateOptions{}); err == nil {
		t.Fatal("empty DNN set should error")
	}
}

func TestParetoAndSelect(t *testing.T) {
	env := DefaultEnv()
	dnns := []DNNChoice{
		{Name: "resnet-18", InputRes: 224, Accuracy: 0.682},
		{Name: "resnet-34", InputRes: 224, Accuracy: 0.719},
		{Name: "resnet-50", InputRes: 224, Accuracy: 0.7434},
	}
	formats := []Format{fullResJPEG(), thumbPNG()}
	plans, err := Generate(dnns, formats, env, GenerateOptions{OptimizePreproc: true, PlaceOps: true})
	if err != nil {
		t.Fatal(err)
	}
	evals, err := Evaluate(plans, env)
	if err != nil {
		t.Fatal(err)
	}
	front := ParetoFrontier(evals)
	if len(front) == 0 || len(front) > len(evals) {
		t.Fatalf("frontier size %d", len(front))
	}
	// Frontier is sorted by throughput and accuracy strictly decreases.
	for i := 1; i < len(front); i++ {
		if front[i].Throughput <= front[i-1].Throughput {
			t.Fatal("frontier not sorted by throughput")
		}
		if front[i].Accuracy >= front[i-1].Accuracy {
			t.Fatal("frontier accuracy should decrease as throughput rises")
		}
	}
	// Accuracy-constrained selection returns the fastest plan above the bar.
	sel, err := Select(evals, Constraint{MinAccuracy: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Accuracy < 0.7 {
		t.Fatalf("selected accuracy %v below constraint", sel.Accuracy)
	}
	for _, e := range evals {
		if e.Accuracy >= 0.7 && e.Throughput > sel.Throughput {
			t.Fatalf("missed a faster feasible plan: %v > %v", e.Throughput, sel.Throughput)
		}
	}
	// Infeasible constraints error.
	if _, err := Select(evals, Constraint{MinAccuracy: 0.99}); err == nil {
		t.Fatal("expected infeasible constraint error")
	}
}

func TestSelectThroughputConstrained(t *testing.T) {
	env := DefaultEnv()
	plans, err := Generate([]DNNChoice{rn18(), rn50()}, []Format{thumbPNG()}, env,
		GenerateOptions{OptimizePreproc: true})
	if err != nil {
		t.Fatal(err)
	}
	evals, err := Evaluate(plans, env)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(evals, Constraint{MinThroughput: 100})
	if err != nil {
		t.Fatal(err)
	}
	// With only a throughput floor, Select maximizes accuracy.
	for _, e := range evals {
		if e.Throughput >= 100 && e.Accuracy > sel.Accuracy {
			t.Fatal("missed a more accurate feasible plan")
		}
	}
}

func TestCascadeThroughput(t *testing.T) {
	env := DefaultEnv()
	spec := mustPlan(t, DNNChoice{Name: "tiny-specialized", InputRes: 224}, fullResJPEG(), true)
	tgt := mustPlan(t, rn50(), fullResJPEG(), true)
	c := Cascade{Specialized: spec, Target: tgt, Alpha: 0.2, Accuracy: 0.7}
	exec, err := CascadeExecThroughput(c, env)
	if err != nil {
		t.Fatal(err)
	}
	_, specExec, _ := StageThroughputs(spec, env)
	_, tgtExec, _ := StageThroughputs(tgt, env)
	if exec >= specExec || exec <= tgtExec {
		t.Fatalf("cascade exec %v should sit between target %v and specialized %v",
			exec, tgtExec, specExec)
	}
	// Alpha=0 degenerates to the specialized model's throughput.
	c0 := c
	c0.Alpha = 0
	exec0, _ := CascadeExecThroughput(c0, env)
	if math.Abs(exec0-specExec)/specExec > 1e-9 {
		t.Fatalf("alpha=0: %v vs %v", exec0, specExec)
	}
	// End-to-end, the cascade on full-res JPEG is preprocessing-bound.
	e2e, err := CascadeThroughputSmol(c, env)
	if err != nil {
		t.Fatal(err)
	}
	pre, _, _ := StageThroughputs(spec, env)
	if e2e > pre {
		t.Fatalf("cascade e2e %v cannot exceed preprocessing %v", e2e, pre)
	}
}

func TestROIDecodingImprovesThroughput(t *testing.T) {
	env := DefaultEnv()
	full := fullResJPEG()
	roi := full
	roi.Name = "full-jpeg-roi"
	// Central 224x224 of a 500x375 after resize-256: ROI covers roughly
	// (224/256)^2 of the image area.
	roi.ROIFraction = 0.66
	pFull := mustPlan(t, rn50(), full, true)
	pROI := mustPlan(t, rn50(), roi, true)
	tputFull, _ := EstimateSmol(pFull, env)
	tputROI, _ := EstimateSmol(pROI, env)
	if tputROI <= tputFull {
		t.Fatalf("ROI decoding should raise throughput: %v vs %v", tputROI, tputFull)
	}
}

func TestEstimateLatencyBoundsSimulation(t *testing.T) {
	// The worst-case latency estimate should upper-bound the simulator's
	// mean latency and land within a small factor of its max, in both the
	// preprocessing-bound and execution-bound regimes.
	env := DefaultEnv()
	for _, tc := range []struct {
		name string
		plan Plan
	}{
		{"preproc-bound", mustPlan(t, rn18(), fullResJPEG(), true)},
		{"exec-bound", mustPlan(t, DNNChoice{Name: "resnet-50", InputRes: 448}, thumbPNG(), true)},
	} {
		est, err := EstimateLatencyUS(tc.plan, env)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Measure(tc.plan, env, 8000)
		if err != nil {
			t.Fatal(err)
		}
		if est < res.MeanLatencyUS {
			t.Fatalf("%s: estimate %v below simulated mean %v", tc.name, est, res.MeanLatencyUS)
		}
		if est > 3*res.MaxLatencyUS {
			t.Fatalf("%s: estimate %v more than 3x simulated max %v", tc.name, est, res.MaxLatencyUS)
		}
	}
}

func TestEstimateLatencyGrowsWithBatch(t *testing.T) {
	env := DefaultEnv()
	p := mustPlan(t, rn50(), fullResJPEG(), true)
	var prev float64
	for _, b := range []int{8, 64, 256} {
		e := env
		e.BatchSize = b
		lat, err := EstimateLatencyUS(p, e)
		if err != nil {
			t.Fatal(err)
		}
		if lat <= prev {
			t.Fatalf("batch %d: latency %v not above previous %v", b, lat, prev)
		}
		prev = lat
	}
}

func TestBatchForLatency(t *testing.T) {
	env := DefaultEnv()
	p := mustPlan(t, rn50(), thumbPNG(), true)
	// A loose target keeps the full batch.
	loose, _, err := BatchForLatency(p, env, 10e6)
	if err != nil {
		t.Fatal(err)
	}
	if loose != env.BatchSize {
		t.Fatalf("loose target should keep batch %d, got %d", env.BatchSize, loose)
	}
	// A tight target shrinks the batch, costing throughput.
	lat64, err := EstimateLatencyUS(p, env)
	if err != nil {
		t.Fatal(err)
	}
	tight, tputTight, err := BatchForLatency(p, env, lat64/4)
	if err != nil {
		t.Fatal(err)
	}
	if tight >= env.BatchSize {
		t.Fatalf("tight target should shrink the batch, got %d", tight)
	}
	tputFull, err := EstimateSmol(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if tputTight > tputFull*1.001 {
		t.Fatalf("smaller batch cannot raise throughput: %v vs %v", tputTight, tputFull)
	}
	// An impossible target errors.
	if _, _, err := BatchForLatency(p, env, 1); err == nil {
		t.Fatal("impossible latency target should error")
	}
	if _, _, err := BatchForLatency(p, env, 0); err == nil {
		t.Fatal("non-positive latency target should error")
	}
}

func TestSelectMaxLatency(t *testing.T) {
	env := DefaultEnv()
	plans, err := Generate(
		[]DNNChoice{rn18(), rn50()},
		[]Format{fullResJPEG(), thumbPNG()},
		env, GenerateOptions{OptimizePreproc: true})
	if err != nil {
		t.Fatal(err)
	}
	evals, err := Evaluate(plans, env)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evals {
		if e.LatencyUS <= 0 {
			t.Fatalf("plan %s missing latency estimate", e.Plan)
		}
	}
	// Find a latency cap that excludes at least one plan but keeps another.
	var minLat, maxLat float64 = math.Inf(1), 0
	for _, e := range evals {
		minLat = math.Min(minLat, e.LatencyUS)
		maxLat = math.Max(maxLat, e.LatencyUS)
	}
	if minLat == maxLat {
		t.Skip("all plans share one latency; cannot exercise the cap")
	}
	cap := (minLat + maxLat) / 2
	got, err := Select(evals, Constraint{MaxLatencyUS: cap})
	if err != nil {
		t.Fatal(err)
	}
	if got.LatencyUS > cap {
		t.Fatalf("selected plan latency %v violates cap %v", got.LatencyUS, cap)
	}
	// An unsatisfiable cap errors.
	if _, err := Select(evals, Constraint{MaxLatencyUS: minLat / 1e6}); err == nil {
		t.Fatal("unsatisfiable latency cap should error")
	}
}

// TestSelectTieBreaksOnLatency: plans equal in throughput and accuracy —
// a full-resolution and a low-resolution stream feeding the same DNN once
// both are DNN-bound — must resolve to the lower predicted latency under
// every constraint, whatever order they arrive in.
func TestSelectTieBreaksOnLatency(t *testing.T) {
	full := Evaluated{Plan: Plan{Format: Format{Name: "full"}}, Accuracy: 0.9, Throughput: 500, LatencyUS: 4000}
	low := Evaluated{Plan: Plan{Format: Format{Name: "low"}}, Accuracy: 0.9, Throughput: 500, LatencyUS: 2500}
	for _, c := range []Constraint{{}, {MinAccuracy: 0.8}, {MinThroughput: 100}} {
		for _, evals := range [][]Evaluated{{full, low}, {low, full}} {
			got, err := Select(evals, c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Plan.Format.Name != "low" {
				t.Fatalf("constraint %+v, order %s/%s: chose %s, want the lower-latency plan",
					c, evals[0].Plan.Format.Name, evals[1].Plan.Format.Name, got.Plan.Format.Name)
			}
		}
	}
}

// TestGenerateSelectsDecodeScale: with preprocessing optimization on, a
// large JPEG format should come back with a sub-full decode scale chosen
// jointly with the preproc chain, and its modeled decode cost must drop
// accordingly.
func TestGenerateSelectsDecodeScale(t *testing.T) {
	env := DefaultEnv()
	dnn := DNNChoice{Name: "resnet-50", InputRes: 224, Accuracy: 0.76}
	hd := Format{Name: "hd-jpeg", Kind: hw.FormatJPEG, W: 1920, H: 1080, Quality: 90}
	opt, err := Generate([]DNNChoice{dnn}, []Format{hd}, env, GenerateOptions{OptimizePreproc: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := opt[0].Preproc.DecodeScale(); got != 4 {
		t.Fatalf("optimized plan decode scale 1/%d (%q), want 1/4", got, opt[0].Preproc.Name)
	}
	if opt[0].Format.DecodeScale != 4 {
		t.Fatalf("format not annotated with the chosen scale: %+v", opt[0].Format)
	}
	naive, err := Generate([]DNNChoice{dnn}, []Format{hd}, env, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	co, err := Costs(opt[0], env)
	if err != nil {
		t.Fatal(err)
	}
	cn, err := Costs(naive[0], env)
	if err != nil {
		t.Fatal(err)
	}
	if co.DecodeUS >= cn.DecodeUS/2 {
		t.Fatalf("scaled decode %v us should be well under half of full %v us", co.DecodeUS, cn.DecodeUS)
	}
	// The decode op must not be double counted as a CPU post-op: the
	// optimized post cost cannot exceed the naive one.
	if co.CPUPostUS > cn.CPUPostUS {
		t.Fatalf("optimized CPU post %v us exceeds naive %v us (decode op double-counted?)", co.CPUPostUS, cn.CPUPostUS)
	}
	// Thumbnails near the input resolution keep full decode.
	thumb := Format{Name: "thumb-jpeg", Kind: hw.FormatJPEG, W: 300, H: 260, Quality: 75}
	small, err := Generate([]DNNChoice{{Name: "resnet-18", InputRes: 224, Accuracy: 0.7}},
		[]Format{thumb}, env, GenerateOptions{OptimizePreproc: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := small[0].Preproc.DecodeScale(); got != 1 {
		t.Fatalf("thumbnail chose decode scale 1/%d", got)
	}
}

// TestCalibratedCosts: a live calibration must override the static DNN
// profile (including names the static tables do not know) and scale the
// CPU-side stage costs, changing the plan ranking accordingly.
func TestCalibratedCosts(t *testing.T) {
	env := DefaultEnv()
	dnns := []DNNChoice{{Name: "live-model@32", InputRes: 32, Accuracy: 0.9}}
	formats := []Format{{Name: "jpeg", Kind: hw.FormatJPEG, W: 500, H: 375, Quality: 90}}
	// Without calibration the unknown DNN name must fail loudly.
	plans, err := Generate(dnns, formats, env, GenerateOptions{OptimizePreproc: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateSmol(plans[0], env); err == nil {
		t.Fatal("unknown DNN without calibration should error")
	}
	env.Calibration = &hw.Calibration{
		ExecUS:       map[string]float64{"live-model@32": 250},
		PreprocScale: 2,
	}
	c, err := Costs(plans[0], env)
	if err != nil {
		t.Fatal(err)
	}
	if c.ExecUS != 250 {
		t.Fatalf("calibrated ExecUS %v, want 250", c.ExecUS)
	}
	uncal := env
	uncal.Calibration = &hw.Calibration{ExecUS: env.Calibration.ExecUS}
	cu, err := Costs(plans[0], uncal)
	if err != nil {
		t.Fatal(err)
	}
	if c.DecodeUS != 2*cu.DecodeUS || c.CPUPostUS != 2*cu.CPUPostUS {
		t.Fatalf("CPU scale not applied: %+v vs %+v", c, cu)
	}
	if _, err := EstimateSmol(plans[0], env); err != nil {
		t.Fatalf("calibrated estimate: %v", err)
	}
}

// TestVideoFormatCosts: the video-specific cost dimensions — stride
// amortization, GOP mix, deblock discount, and the dedicated video
// calibration scale — must all reach the stage costs.
func TestVideoFormatCosts(t *testing.T) {
	env := DefaultEnv()
	env.Calibration = &hw.Calibration{ExecUS: map[string]float64{"vid-model@64": 500}}
	spec := preproc.Spec{
		InW: 640, InH: 360, ResizeShort: 64, CropW: 64, CropH: 64,
		Std: [3]float32{1, 1, 1},
	}
	pplan, err := preproc.Optimize(spec)
	if err != nil {
		t.Fatal(err)
	}
	mkPlan := func(f Format) Plan {
		return Plan{
			DNN:    DNNChoice{Name: "vid-model@64", InputRes: 64, Accuracy: 0.9},
			Format: f, Preproc: pplan, PreprocSpec: spec,
		}
	}
	base := Format{Name: "svid", Kind: hw.FormatVideoH264, W: 640, H: 360, GOP: 30}
	c1, err := Costs(mkPlan(base), env)
	if err != nil {
		t.Fatal(err)
	}
	// Stride 10: one sample costs ten decoded frames.
	strided := base
	strided.FramesPerSample = 10
	c10, err := Costs(mkPlan(strided), env)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c10.DecodeUS, 10*c1.DecodeUS; math.Abs(got-want) > 1e-9 {
		t.Fatalf("stride-10 decode cost %v, want %v", got, want)
	}
	if c10.CPUPostUS != c1.CPUPostUS {
		t.Fatal("stride must not change per-sample preprocessing cost")
	}
	// Deblock off discounts decode only.
	nd := base
	nd.NoDeblock = true
	cnd, err := Costs(mkPlan(nd), env)
	if err != nil {
		t.Fatal(err)
	}
	if cnd.DecodeUS >= c1.DecodeUS {
		t.Fatal("NoDeblock did not discount decode cost")
	}
	// The video calibration scale applies to video decode but not to the
	// post-decode CPU ops (which keep the generic scale).
	calEnv := env
	calEnv.Calibration = &hw.Calibration{
		ExecUS:     env.Calibration.ExecUS,
		VideoScale: 5,
	}
	cv, err := Costs(mkPlan(base), calEnv)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cv.DecodeUS, 5*c1.DecodeUS; math.Abs(got-want) > 1e-9 {
		t.Fatalf("video-calibrated decode cost %v, want %v", got, want)
	}
	if cv.CPUPostUS != c1.CPUPostUS {
		t.Fatal("video scale leaked into post-decode CPU cost")
	}
	// An indexed (GOP-seek) stream caps the strided decode cost at one GOP
	// prefix instead of the whole stride span.
	wide := strided
	wide.FramesPerSample = 100
	cwide, err := Costs(mkPlan(wide), env)
	if err != nil {
		t.Fatal(err)
	}
	seek := wide
	seek.GOPSeek = true
	cseek, err := Costs(mkPlan(seek), env)
	if err != nil {
		t.Fatal(err)
	}
	if cseek.DecodeUS >= cwide.DecodeUS/5 {
		t.Fatalf("GOP-seek stride-100 decode cost %v not well below sequential stride-100 cost %v",
			cseek.DecodeUS, cwide.DecodeUS)
	}
}
