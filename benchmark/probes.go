package main

import (
	"context"
	"fmt"

	"smol"
	"smol/internal/blazeit"
	"smol/internal/codec/jpeg"
	"smol/internal/codec/spng"
	"smol/internal/codec/vid"
	"smol/internal/engine"
	"smol/internal/img"
	"smol/internal/nn"
	"smol/internal/preproc"
	"smol/internal/store"
	"smol/internal/tensor"
)

// Probes time single layers through their public functions, outside any
// request. Where the workload's own replay already produced spans of a
// name, that is the measurement and the probe is skipped; where the
// workload never calls the layer (a JPEG decoder on a video workload), the
// probe runs on the seed's small kit input, so a layer's row is measured in
// every traced run and a change to a layer shows even on workloads that
// bypass it. README.md lists which input backs each metric on each workload.

// kit is the fallback input set: one 640x360 JPEG, one 160x160 PNG and one
// short blob clip, generated from the seed only when a workload lacks them.
type kit struct {
	seed int64
}

func (k kit) jpeg() []byte { return photoJPEG(rngFor(k.seed, 90, 0), 0, 640, 360) }
func (k kit) png() []byte  { return thumbPNG(rngFor(k.seed, 91, 0), 0) }
func (k kit) clip() ([]byte, error) {
	return blobClip(rngFor(k.seed, 92, 0), 48, 64, 12, 80, 10)
}

// gemmShape is the largest convolution of a micro-ResNet lowered to the
// batched im2col GEMM the compiled plan runs: (outC x inC*9) @ (inC*9 x
// batch*outRes^2).
type gemmShape struct{ m, k, n int }

func (g gemmShape) macs() float64 { return float64(g.m) * float64(g.k) * float64(g.n) }

// bytes is the traffic computed from the shape (each operand once, f32),
// not measured.
func (g gemmShape) bytes() float64 { return 4 * float64(g.m*g.k+g.k*g.n+g.m*g.n) }

func largestGEMM(cfg nn.ResNetConfig, batch int) gemmShape {
	res := cfg.InputRes
	best := gemmShape{cfg.StageWidths[0], 27, batch * res * res}
	inC := cfg.StageWidths[0]
	for si, w := range cfg.StageWidths {
		out := res >> uint(si)
		for b := 0; b < cfg.BlocksPerStage; b++ {
			for _, g := range []gemmShape{{w, inC * 9, batch * out * out}, {w, w * 9, batch * out * out}} {
				if g.macs() > best.macs() {
					best = g
				}
			}
			inC = w
		}
	}
	return best
}

// probeEntry runs the probes every workload needs for the zoo entry and
// input class it was served by: the compiled forward, the GEMM kernel, the
// engine's per-job cost and the cold plan compile.
func (r *replayer) probeEntry(root int, entry string, cfg nn.ResNetConfig, w, h int, scaled bool) error {
	if err := r.probeModel(root, entry, cfg); err != nil {
		return err
	}
	if err := r.probeEngine(root, cfg.InputRes); err != nil {
		return err
	}
	return r.probeOptimize(root, w, h, cfg.InputRes, scaled)
}

// probeModel times the chosen entry's compiled forward at batch 8 and 1,
// and the f32 GEMM on its largest shape.
func (r *replayer) probeModel(root int, entry string, cfg nn.ResNetConfig) error {
	plan := r.models[entry]
	if plan == nil {
		return fmt.Errorf("probe: no model for zoo entry %q", entry)
	}
	res := cfg.InputRes
	for _, b := range []struct {
		n    int
		name string
	}{{engineBatch, "nn.forward_b8"}, {1, "nn.forward_b1"}} {
		x := tensor.New(b.n, 3, res, res)
		preds := make([]int, b.n)
		plan.PredictInto(x, preds) // warm the arena pool
		for i := 0; i < 10; i++ {
			r.tr.call(root, layerNN, b.name, func() { plan.PredictInto(x, preds) })
		}
	}
	g := largestGEMM(cfg, engineBatch)
	r.gemm = g
	a, b, c := make([]float32, g.m*g.k), make([]float32, g.k*g.n), make([]float32, g.m*g.n)
	for i := range a {
		a[i] = float32(i%7) * 0.25
	}
	for i := range b {
		b[i] = float32(i%5) * 0.5
	}
	tensor.GEMMRaw(g.m, g.k, g.n, a, b, c, tensor.Epilogue{})
	for i := 0; i < 10; i++ {
		r.tr.call(root, layerTensor, "tensor.gemm", func() {
			tensor.GEMMRaw(g.m, g.k, g.n, a, b, c, tensor.Epilogue{})
		})
	}
	return nil
}

// noopJobs is how many no-op jobs one engine probe request carries.
const noopJobs = 2048

// probeEngine streams no-op jobs through a warm pipeline of the workloads'
// geometry: what a job costs when neither stage does any work.
func (r *replayer) probeEngine(root, res int) error {
	prep := func(*engine.WorkerState, engine.Job, *tensor.Tensor) error { return nil }
	exec := func(*tensor.Tensor, []engine.Ref) error { return nil }
	p, err := engine.NewPipeline(engine.Config{BatchSize: engineBatch, Shapes: [][3]int{{3, res, res}}}, prep, exec)
	if err != nil {
		return err
	}
	defer p.Close()
	jobs := make([]engine.Job, noopJobs)
	for i := range jobs {
		jobs[i].Index = i
	}
	for i := 0; i < 6; i++ {
		name := "engine.noop_jobs"
		if i == 0 {
			name = "engine.noop_warmup"
		}
		r.tr.call(root, layerEngine, name, func() {
			_, err = p.Process(context.Background(), engine.SliceSource(jobs))
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// probeOptimize times cold plan compiles for one input class.
func (r *replayer) probeOptimize(root, w, h, res int, scaled bool) error {
	var scales []int
	if scaled {
		scales = jpeg.SupportedScales()
	}
	spec := preproc.ServeSpec(w, h, res, [3]float32{}, [3]float32{1, 1, 1}, scales)
	for i := 0; i < 10; i++ {
		var err error
		r.tr.call(root, layerPreproc, "preproc.optimize", func() { _, err = preproc.Optimize(spec) })
		if err != nil {
			return err
		}
	}
	return nil
}

// probeJPEG decodes each image at 1/8 scale — entropy decode plus DC only,
// the floor any reconstruction saving runs into. Images the replay did not
// cover (replayed false: the kit image) are also parsed and decoded at the
// scale the joint plan picks for a res-input model.
func (r *replayer) probeJPEG(root int, images [][]byte, res int, replayed bool) error {
	for _, data := range images {
		var err error
		var w, h int
		if replayed {
			w, h, err = r.dec.Parse(data)
		} else {
			r.tr.call(root, layerJPEG, "jpeg.parse", func() { w, h, err = r.dec.Parse(data) })
		}
		if err != nil {
			return err
		}
		var m *img.Image
		var stats *jpeg.DecodeStats
		if !replayed {
			chain, err := r.chain(w, h, res, true)
			if err != nil {
				return err
			}
			r.tr.call(root, layerJPEG, "jpeg.decode", func() {
				m, _, stats, err = r.dec.Decode(jpeg.DecodeOptions{Scale: chain.DecodeScale(), Dst: r.buf})
			})
			if err != nil {
				return err
			}
			r.buf = m
			r.jpegImages++
			r.idctSamples += stats.IDCTSamples
		}
		r.tr.call(root, layerJPEG, "jpeg.entropy_floor", func() {
			m, _, stats, err = r.dec.Decode(jpeg.DecodeOptions{Scale: 8, Dst: r.buf})
		})
		if err != nil {
			return err
		}
		r.buf = m
		r.floorBytes += stats.EntropyBytesRead
	}
	return nil
}

// probePNG decodes the images a few times each.
func (r *replayer) probePNG(root int, images [][]byte) error {
	for _, data := range images {
		for i := 0; i < 5; i++ {
			var err error
			r.tr.call(root, layerSPNG, "spng.decode", func() { _, err = spng.Decode(data) })
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probeStore ingests the clips into a fresh store at dir, reopens it, and
// times a score-table write and read on the first clip. The store is a
// second one the traced run owns: it times the write side on the workload's
// clips and gives the replay the stored streams, GOP tables and score
// sidecars the public StoredVideo handle keeps to itself. The caller closes
// it.
func (r *replayer) probeStore(root int, dir string, names []string, clips [][]byte, opts store.IngestOptions) (*store.Store, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		r.tr.call(root, layerStore, "store.ingest", func() { _, err = st.Ingest(name, clips[i], opts) })
		if err != nil {
			st.Close()
			return nil, err
		}
		r.ingestBytes += len(clips[i])
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	r.tr.call(root, layerStore, "store.open", func() { st, err = store.Open(dir) })
	if err != nil {
		return nil, err
	}
	v, _ := st.Video(names[0])
	raw, _, err := store.BlobScores(v.Primary)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 5; i++ {
		r.tr.call(root, layerStore, "store.put_scores", func() {
			_, err = st.PutScores(v.Name, 0, blazeit.BlobProxyName, raw)
		})
		if err != nil {
			return nil, err
		}
	}
	if len(r.tr.named("store.scores_get")) == 0 {
		for i := 0; i < 50; i++ {
			r.tr.call(root, layerStore, "store.scores_get", func() { st.Scores(v.Name, 0, blazeit.BlobProxyName) })
		}
	}
	return st, nil
}

// probeClipLayers times, on one stored stream, whatever the replay left
// unmeasured: the GOP-table scan, the blob proxy's per-frame score, and —
// when the workload decoded no video — resident frame decode, seeks, and
// candidate ranking.
func (r *replayer) probeClipLayers(root int, st *store.Store, name string, stride int) error {
	v, ok := st.Video(name)
	if !ok {
		return fmt.Errorf("probe: %s is not in the probe store", name)
	}
	str := v.Primary
	var err error
	for i := 0; i < 5; i++ {
		r.tr.call(root, layerVid, "vid.index_gops", func() { _, err = vid.IndexGOPs(str.Data) })
		if err != nil {
			return err
		}
	}
	dec, err := vid.NewDecoder(str.Data, vid.DecodeOptions{})
	if err != nil {
		return err
	}
	if err := dec.SetGOPIndex(str.Index); err != nil {
		return err
	}
	needVid := len(r.tr.named("vid.decode")) == 0
	var counter blazeit.BlobCounter
	var m *img.Image
	for f := 0; f < min(str.Info.Frames, 48); f++ {
		if needVid {
			r.tr.call(root, layerVid, "vid.decode", func() { m, err = dec.NextInto(r.frame) })
		} else {
			m, err = dec.NextInto(r.frame)
		}
		if err != nil {
			return err
		}
		r.frame = m
		if f == 0 {
			counter = blazeit.DefaultCounter(m.W)
		}
		r.tr.call(root, layerBlazeit, "blazeit.blob_score", func() { counter.Score(m) })
	}
	if needVid {
		for f := 0; f < str.Info.Frames; f += stride {
			r.tr.call(root, layerVid, "vid.seek", func() { err = dec.SeekFrame(f) })
			if err == nil {
				r.frame, err = dec.NextInto(r.frame)
			}
			if err != nil {
				return err
			}
		}
	}
	if len(r.tr.named("blazeit.rank")) == 0 {
		table, ok := st.Scores(name, 0, blazeit.BlobProxyName)
		if !ok {
			return fmt.Errorf("probe: no blob scores for %s", name)
		}
		opts := smol.SelectOpts{Class: 1, MinConf: 0.9}
		for i := 0; i < 20; i++ {
			r.tr.call(root, layerBlazeit, "blazeit.rank", func() { rankedCandidates(table, str.Index, opts) })
		}
	}
	return nil
}
