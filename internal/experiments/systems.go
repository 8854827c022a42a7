package experiments

import (
	"fmt"

	"smol/internal/costmodel"
	"smol/internal/hw"
)

func init() {
	register("figure7", Figure7SystemsLesion)
	register("figure8", Figure8SystemsFactor)
	register("table8", Table8CostScaling)
	register("figure10", Figure10EngineComparison)
}

// sysOpts selects the optimizations of the Figure 7/8 lesion and factor
// analyses. They are simulator cost inputs, not mirrors of engine options
// (the real engine always pools buffers, stages through its pinned arena
// and runs Config.Workers producers): each disabled optimization maps onto
// a calibrated cost penalty or, for threading, a single producer.
type sysOpts struct {
	Threading bool // multiple preprocessing workers
	MemReuse  bool // pooled buffers (off: per-image allocation overhead)
	Pinned    bool // pinned staging (off: 3x batch transfer overhead)
	DAGOpt    bool // optimized preprocessing plan (off: naive plan)
}

// allOn returns the full optimization set.
func allOn() sysOpts { return sysOpts{Threading: true, MemReuse: true, Pinned: true, DAGOpt: true} }

// simulateSystems runs the RN-50 pipeline on the given format with the
// given optimization set and returns end-to-end throughput.
func simulateSystems(o sysOpts, format costmodel.Format, env costmodel.Env, images int) (float64, error) {
	gen := costmodel.GenerateOptions{OptimizePreproc: o.DAGOpt, PlaceOps: false}
	plans, err := costmodel.Generate(
		[]costmodel.DNNChoice{{Name: "resnet-50", InputRes: costmodel.StandardRes}},
		[]costmodel.Format{format}, env, gen)
	if err != nil {
		return 0, err
	}
	c, err := costmodel.Costs(plans[0], env)
	if err != nil {
		return 0, err
	}
	cpuUS := c.DecodeUS + c.CPUPostUS
	producers := env.VCPUs
	if !o.Threading {
		producers = 1
	}
	// Calibrated penalties: allocation+touch of a 224x224x3 float buffer
	// per image without reuse, and unpinned (staged) transfers per batch.
	perImageOverhead := 0.0
	if !o.MemReuse {
		perImageOverhead = 160
	}
	batchOverhead := 120.0
	if !o.Pinned {
		batchOverhead = 360
	}
	res, err := hw.SimulatePipeline(hw.PipelineConfig{
		NumImages:          images,
		Producers:          producers,
		Consumers:          2,
		BatchSize:          env.BatchSize,
		QueueCap:           4 * env.BatchSize,
		PreprocUS:          func(int) float64 { return cpuUS },
		ExecUSPerImage:     c.ExecUS + c.AccelPostUS,
		BatchOverheadUS:    batchOverhead,
		PerImageOverheadUS: perImageOverhead,
	})
	if err != nil {
		return 0, err
	}
	return res.Throughput, nil
}

func systemsFormats() map[string]costmodel.Format {
	return map[string]costmodel.Format{
		"full resolution": paperFormat(FmtFull, false),
		"low resolution":  paperFormat(FmtPNGThumb, false),
	}
}

// Figure7SystemsLesion reproduces Figure 7: removing each systems
// optimization individually.
func Figure7SystemsLesion(s Scale) (*Table, error) {
	t := &Table{ID: "figure7", Title: "Systems optimization lesion study (ResNet-50)",
		Columns: []string{"resolution", "condition", "throughput (im/s)"}}
	env := costmodel.DefaultEnv()
	images := imagesFor(s)
	conditions := []struct {
		name string
		mod  func(sysOpts) sysOpts
	}{
		{"all", func(o sysOpts) sysOpts { return o }},
		{"-threading", func(o sysOpts) sysOpts { o.Threading = false; return o }},
		{"-mem reuse", func(o sysOpts) sysOpts { o.MemReuse = false; return o }},
		{"-pinned", func(o sysOpts) sysOpts { o.Pinned = false; return o }},
		{"-DAG", func(o sysOpts) sysOpts { o.DAGOpt = false; return o }},
	}
	for _, resName := range []string{"full resolution", "low resolution"} {
		format := systemsFormats()[resName]
		var allTput float64
		for _, c := range conditions {
			tput, err := simulateSystems(c.mod(allOn()), format, env, images)
			if err != nil {
				return nil, err
			}
			if c.name == "all" {
				allTput = tput
			} else if tput > allTput+1e-9 {
				return nil, fmt.Errorf("lesion %s/%s beat the full configuration", resName, c.name)
			}
			t.Add(resName, c.name, tput)
		}
	}
	t.Notes = append(t.Notes, "paper: every optimization contributes; DAG matters more at low resolution")
	return t, nil
}

// Figure8SystemsFactor reproduces Figure 8: adding the optimizations in
// sequence.
func Figure8SystemsFactor(s Scale) (*Table, error) {
	t := &Table{ID: "figure8", Title: "Systems optimization factor analysis (ResNet-50)",
		Columns: []string{"resolution", "condition", "throughput (im/s)"}}
	env := costmodel.DefaultEnv()
	images := imagesFor(s)
	steps := []struct {
		name string
		o    sysOpts
	}{
		{"none", sysOpts{}},
		{"+threading", sysOpts{Threading: true}},
		{"+mem reuse", sysOpts{Threading: true, MemReuse: true}},
		{"+pinned", sysOpts{Threading: true, MemReuse: true, Pinned: true}},
		{"+DAG", allOn()},
	}
	for _, resName := range []string{"full resolution", "low resolution"} {
		format := systemsFormats()[resName]
		last := -1.0
		for _, st := range steps {
			tput, err := simulateSystems(st.o, format, env, images)
			if err != nil {
				return nil, err
			}
			t.Add(resName, st.name, tput)
			if tput+1e-9 < last {
				t.Notes = append(t.Notes,
					fmt.Sprintf("%s: step %s regressed (bottleneck shifted)", resName, st.name))
			}
			last = tput
		}
	}
	return t, nil
}

func imagesFor(s Scale) int {
	if s == Quick {
		return 6000
	}
	return 20000
}

// Table8CostScaling reproduces Table 8: throughput and cost per million
// images with and without Smol's optimizations, across instance sizes, at
// a 75%-accuracy operating point (ResNet-50 on thumbnails for Smol,
// full-resolution naive pipeline without).
func Table8CostScaling(s Scale) (*Table, error) {
	t := &Table{ID: "table8", Title: "Throughput and cost to reach 75% accuracy on imagenet",
		Columns: []string{"condition", "vCPUs", "throughput (im/s)", "cents / 1M images"}}
	images := imagesFor(s)
	for _, vcpus := range []int{4, 8, 16} {
		env := costmodel.DefaultEnv()
		env.VCPUs = vcpus
		// Optimized: RN-50 on lossless thumbnails (low-res-aware training
		// keeps accuracy), optimized DAG, placement.
		optTput, err := simulateSystems(allOn(), paperFormat(FmtJPEG95, true), env, images)
		if err != nil {
			return nil, err
		}
		t.Add("opt", vcpus, optTput, hw.CostPerMillionImages(optTput, vcpus))
		// Unoptimized: full-resolution naive pipeline, single-threaded
		// decoding disabled only at the DAG level (threading still on —
		// the paper's no-opt baseline parallelizes decode).
		noOpt := allOn()
		noOpt.DAGOpt = false
		noOpt.MemReuse = false
		noOpt.Pinned = false
		noTput, err := simulateSystems(noOpt, paperFormat(FmtFull, false), env, images)
		if err != nil {
			return nil, err
		}
		t.Add("no-opt", vcpus, noTput, hw.CostPerMillionImages(noTput, vcpus))
	}
	t.Notes = append(t.Notes, "paper: opt 1927 im/s @4 vCPUs (7.58 c/1M) vs 377 im/s (38.75 c/1M); up to 5x cheaper")
	return t, nil
}

// engineKind models the three engines of Figure 10.
type engineKind int

const (
	engineSmol engineKind = iota
	engineDALI
	enginePyTorch
)

// engineComparison computes the three panels of Figure 10 for one vCPU
// count: CPU-only preprocessing, optimized preprocessing, and end-to-end
// throughput. Architectural handicaps (per Appendix A): DALI allocates
// fresh buffers per batch (training-library contract) and pays an extra
// copy into TensorRT; its CPU/GPU split is fixed rather than
// hardware-aware. PyTorch's loader is slower per worker and lacks NUMA
// awareness (scaling degrades past 16 vCPUs); its executor lacks an
// optimized inference compiler.
func engineComparison(kind engineKind, vcpus int, images int) (cpuPre, optPre, e2e float64, err error) {
	env := costmodel.DefaultEnv()
	env.VCPUs = vcpus
	format := paperFormat(FmtFull, false)
	choice := costmodel.DNNChoice{Name: "resnet-50", InputRes: costmodel.StandardRes}

	// Per-engine parameters.
	cpuEff := 1.0     // preprocessing efficiency per vCPU
	perImageOv := 0.0 // allocation overhead (us)
	batchOv := 120.0  // transfer overhead (us)
	fwName := "TensorRT"
	dagOpt := true
	placeOps := true
	switch kind {
	case engineDALI:
		cpuEff = 0.85
		perImageOv = 120 // fresh buffers per batch, required by training API
		batchOv = 360    // extra copy into the inference engine
		placeOps = false // fixed CPU/GPU pipeline split
	case enginePyTorch:
		cpuEff = 0.7
		perImageOv = 150
		fwName = "PyTorch" // no optimized inference compiler
		dagOpt = false
		placeOps = false
		if vcpus >= 32 {
			cpuEff *= 0.55 // NUMA-unaware workers collapse at high core counts
		}
	}
	fw, err := hw.Framework(fwName)
	if err != nil {
		return 0, 0, 0, err
	}
	env.Framework = fw

	plans, err := costmodel.Generate([]costmodel.DNNChoice{choice}, []costmodel.Format{format},
		env, costmodel.GenerateOptions{OptimizePreproc: dagOpt, PlaceOps: placeOps})
	if err != nil {
		return 0, 0, 0, err
	}
	p := plans[0]
	c, err := costmodel.Costs(p, env)
	if err != nil {
		return 0, 0, 0, err
	}

	// Panel a: CPU-only preprocessing (optimizations off for Smol too,
	// matching the paper's "Smol optimizations off" condition).
	naivePlans, err := costmodel.Generate([]costmodel.DNNChoice{choice}, []costmodel.Format{format},
		env, costmodel.GenerateOptions{OptimizePreproc: false})
	if err != nil {
		return 0, 0, 0, err
	}
	nc, err := costmodel.Costs(naivePlans[0], env)
	if err != nil {
		return 0, 0, 0, err
	}
	cpuUSNaive := (nc.DecodeUS + nc.CPUPostUS + perImageOv) / cpuEff
	cpuPre = float64(vcpus) / (cpuUSNaive / 1e6)

	// Panel b: optimized preprocessing (each engine's best preprocessing
	// path, no DNN).
	cpuUS := (c.DecodeUS + c.CPUPostUS + perImageOv) / cpuEff
	optPre = float64(vcpus) / (cpuUS / 1e6)

	// Panel c: end-to-end.
	res, err := hw.SimulatePipeline(hw.PipelineConfig{
		NumImages:          images,
		Producers:          vcpus,
		Consumers:          2,
		BatchSize:          env.BatchSize,
		QueueCap:           4 * env.BatchSize,
		PreprocUS:          func(int) float64 { return cpuUS },
		ExecUSPerImage:     c.ExecUS + c.AccelPostUS,
		BatchOverheadUS:    batchOv,
		PerImageOverheadUS: 0,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	return cpuPre, optPre, res.Throughput, nil
}

// Figure10EngineComparison reproduces Figure 10 / Appendix A: Smol vs
// DALI vs PyTorch across vCPU counts.
func Figure10EngineComparison(s Scale) (*Table, error) {
	t := &Table{ID: "figure10", Title: "Engine comparison across vCPUs (DALI / PyTorch / Smol)",
		Columns: []string{"engine", "vCPUs", "cpu-preproc (im/s)", "opt-preproc (im/s)", "end-to-end (im/s)"}}
	images := imagesFor(s)
	engines := []struct {
		name string
		kind engineKind
	}{{"smol", engineSmol}, {"dali", engineDALI}, {"pytorch", enginePyTorch}}
	vcpuCounts := []int{4, 8, 16, 32, 64}
	if s == Quick {
		vcpuCounts = []int{4, 16, 64}
	}
	for _, e := range engines {
		for _, v := range vcpuCounts {
			cpuPre, optPre, e2e, err := engineComparison(e.kind, v, images)
			if err != nil {
				return nil, err
			}
			t.Add(e.name, v, cpuPre, optPre, e2e)
		}
	}
	t.Notes = append(t.Notes,
		"paper: Smol wins CPU preprocessing at all core counts and end-to-end everywhere; DALI competitive at 4 vCPUs for optimized preprocessing",
		"PyTorch end-to-end is capped by the unoptimized executor (~424 im/s)")
	return t, nil
}
