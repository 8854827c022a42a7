package smol

import (
	"container/list"
	"fmt"
	goruntime "runtime"
	"sync"

	"smol/internal/codec/jpeg"
	"smol/internal/codec/spng"
	"smol/internal/engine"
	"smol/internal/hw"
	"smol/internal/img"
	"smol/internal/nn"
	"smol/internal/preproc"
	"smol/internal/tensor"
)

// RuntimeConfig configures the execution engine for real (in-process)
// inference over encoded images. It holds only what a deployment sets; the
// runtime works out everything else (decode scales, preprocessing chains,
// decoder pool sizes) from its cost model and the machine it runs on.
type RuntimeConfig struct {
	// Workers is the number of preprocessing goroutines (0 = GOMAXPROCS).
	Workers int
	// BatchSize is the model batch size (0 = 32).
	BatchSize int
	// InputRes is the model's square input resolution. Required by
	// NewRuntime (single model); ignored by NewZooRuntime, where every zoo
	// entry carries its own resolution.
	InputRes int
	// ROIDecode enables partial JPEG decoding of the central crop region
	// (Algorithm 1).
	ROIDecode bool
	// ExecParallel bounds how many model forwards may run at once
	// (0 = 2, matching the engine's default stream count). Each forward
	// already parallelizes its GEMMs across GOMAXPROCS, so this knob trades
	// arena memory and scheduler pressure for stream overlap, not raw
	// compute.
	ExecParallel int
	// DisableGOPSeek forces sequential full-stream decode for video
	// sampling: every frame up to the last sample is decoded (skipped
	// frames still pay motion compensation), as if no GOP index existed.
	// It is the A/B switch and the equivalence oracle for the GOP-seek
	// paths.
	DisableGOPSeek bool
	// DisableProxyCascade forces SelectVideo to verify every sampled frame
	// with the chosen zoo entry instead of running the two-stage proxy
	// cascade: no proxy pass, no GOP pruning, no early termination. It is
	// the A/B switch and the equivalence oracle for selection queries —
	// the cascade must return the same frame set at a fraction of the
	// decode and inference work.
	DisableProxyCascade bool
}

// Runtime executes classification over encoded images with a zoo of
// trained models, using the pipelined engine: decode -> preprocess ->
// batch -> model forward. A serving planner (see QoS and ServePlan)
// jointly picks the zoo entry, decode scale, and preprocessing chain per
// request. Serve brings up the warm engine that every request, from any
// number of concurrent callers, runs through.
type Runtime struct {
	cfg RuntimeConfig

	// entries are the zoo's models lowered for execution, one engine shape
	// class each. A single-model Runtime is a zoo of one.
	entries []*rtEntry

	// execSem bounds concurrent forwards across all entries (configurable
	// exec parallelism), letting multiple engine streams overlap execution.
	execSem chan struct{}

	// ingest caches compiled ingest plans keyed by input class (codec,
	// encoded dimensions, MCU geometry, target resolution) with LRU
	// eviction, so the joint decode+preprocess plan search and ROI mapping
	// run once per distinct input shape instead of once per image on the
	// hot prep path.
	ingest ingestCache

	// jpegScales are the JPEG decode factors the joint decode+preprocess
	// search chooses from (full plus the DCT-domain 1/2, 1/4 and 1/8
	// reconstructions: the paper's low-resolution decode, §5). The still
	// planner and the ingest compiler both read it through decodeScales,
	// so the plan a request is costed with is the plan it executes. Tests
	// set it to nil on a fresh runtime to get the full-decode oracle.
	jpegScales []int
	// decodeWorkers bounds the per-request pool of resident decoders that
	// GOP-seek video sampling fans disjoint GOPs across (min(GOMAXPROCS,
	// 4)). Sampled frames still enter the shared engine in frame order, and
	// the request's decode counters are the same, whatever the pool size.
	decodeWorkers int

	// Planner state: the live calibration is measured once per runtime
	// (the video decode reference lazily, on the first video request), and
	// each planner memoizes its decisions per request class and QoS: still
	// images by input class, video by stream-geometry set, SELECT by
	// stream set, query shape and cached score tables.
	calOnce    sync.Once
	vidCalOnce sync.Once
	cal        *hw.Calibration
	stills     planMemo[selKey, selection]
	videos     planMemo[videoSelKey, selection]
	selects    planMemo[selectSelKey, selectSelection]
}

// rtEntry is one zoo entry lowered for serving: its compiled inference
// plan, its engine shape class, and its recycled prediction buffers.
type rtEntry struct {
	ZooEntry
	name string
	// class is the entry's engine shape class index: the pipeline keeps a
	// tensor pool, staging arena, queue and streams per entry, so batch
	// geometry is per-variant rather than one global shape.
	class int
	// exec is the entry's compiled inference plan: the f32 plan (folded
	// batch-norm, fused GEMM epilogues, recycled activation arenas), or on
	// an int8 entry that plan lowered through the entry's persisted
	// activation calibration. Either is immutable and reentrant.
	exec predictor
	// preds recycles per-batch prediction buffers (as *[]int to avoid
	// interface boxing), keeping the exec path allocation-free.
	preds sync.Pool
}

// predictor is a compiled inference plan: *nn.InferencePlan or
// *nn.QuantizedPlan.
type predictor interface {
	PredictInto(x *tensor.Tensor, preds []int)
}

// kernel names the GEMM kernel tier the entry's forwards run on: the int8
// kernel for quantized entries, the active f32 kernel otherwise.
func (e *rtEntry) kernel() string {
	if e.Int8() {
		return tensor.Int8KernelName()
	}
	return tensor.F32KernelName()
}

// NewRuntime wraps a single trained model (e.g. from LoadClassifier or
// TrainClassifier) for pipelined batch inference: a zoo of one, so every
// request runs the same plan regardless of QoS.
//
// The model's weights (and batch-norm statistics) are snapshotted here into
// an immutable compiled plan: mutating the model afterwards — further
// training, reloading weights — does not affect this runtime. Construct a
// new Runtime after updating a model.
func NewRuntime(model *nn.Model, cfg RuntimeConfig) (*Runtime, error) {
	if model == nil {
		return nil, fmt.Errorf("smol: nil model")
	}
	if cfg.InputRes <= 0 {
		return nil, fmt.Errorf("smol: InputRes is required")
	}
	z := NewZoo()
	if err := z.Add(ZooEntry{Variant: "model", InputRes: cfg.InputRes, Accuracy: 1, Model: model}); err != nil {
		return nil, err
	}
	return NewZooRuntime(z, cfg)
}

// NewZooRuntime builds a serving runtime over a model zoo. Every entry is
// compiled once (nn.Compile; an int8 entry is then quantized through its
// persisted calibration), and a model the compiler does not cover is a
// construction error naming the entry. The serving planner then picks the
// entry per request from its QoS target, using cost estimates calibrated
// against live measurements of the compiled plans and ingest kernels.
func NewZooRuntime(zoo *Zoo, cfg RuntimeConfig) (*Runtime, error) {
	if zoo == nil || zoo.Len() == 0 {
		return nil, fmt.Errorf("smol: empty zoo")
	}
	r := &Runtime{
		cfg:           cfg,
		jpegScales:    jpeg.SupportedScales(),
		decodeWorkers: max(1, min(goruntime.GOMAXPROCS(0), 4)),
	}
	r.ingest.init(maxCachedPlans)
	for _, e := range zoo.Entries() {
		plan, err := nn.Compile(e.Model)
		if err != nil {
			return nil, fmt.Errorf("smol: compiling zoo entry %s: %w", e.Name(), err)
		}
		ent := &rtEntry{ZooEntry: e, name: e.Name(), class: len(r.entries), exec: plan}
		if e.Int8() {
			// An int8 entry exists only as a quantized plan, rebuilt
			// bit-identically from the f32 weights and the persisted
			// activation scales.
			qp, err := nn.Quantize(plan, e.Calib)
			if err != nil {
				return nil, fmt.Errorf("smol: quantizing zoo entry %s: %w", ent.name, err)
			}
			ent.exec = qp
		}
		r.entries = append(r.entries, ent)
	}
	par := cfg.ExecParallel
	if par <= 0 {
		par = 2
	}
	r.execSem = make(chan struct{}, par)
	return r, nil
}

// Entries lists the zoo entry names ("variant@res") in shape-class order.
func (r *Runtime) Entries() []string {
	names := make([]string, len(r.entries))
	for i, ent := range r.entries {
		names[i] = ent.name
	}
	return names
}

// ClassifyResult reports predictions in input order, the serving plan the
// planner chose for the request, and engine statistics.
type ClassifyResult struct {
	Predictions []int
	// Plan describes the planner's joint choice for this request: zoo
	// entry, decode scale, preprocessing chain, and predicted performance.
	Plan  ServePlan
	Stats engine.Stats
}

// classifyReq is the per-request state threaded through the engine via
// Job.Tag: the request's inputs, its prediction slots, and the zoo entry
// the planner chose for it. Many requests interleave in one warm pipeline;
// Refs route each sample back here. Batches never mix shape classes, so
// all samples of a batch share one entry.
//
// Still-image requests carry encoded inputs; video requests carry decoded
// frames instead (the request's resident vid.Decoder produced them in
// stream order — P-frames need their references — so prep workers only run
// the residual resize/crop/normalize chain).
type classifyReq struct {
	inputs []MediaInput
	// frames, when non-nil, marks a video request: frames[i] is the decoded
	// sampled frame for job i. The feeder writes each slot before
	// submitting its job, so workers read it race-free.
	frames []*img.Image
	// framePool, when non-nil, recycles consumed frame images back to the
	// request's decoders (the video sampling loops' bounded allocation).
	framePool *sync.Pool
	preds     []int
	entry     *rtEntry
}

// ingestKey identifies one class of inputs a compiled ingest plan covers.
// The MCU edge length matters because ROI regions align outward to the MCU
// grid, so two JPEGs with equal dimensions but different chroma subsampling
// decode to different region geometries; the target resolution matters
// because the planner may route equal inputs to different zoo entries; the
// codec matters because the levers differ per codec (scaled/ROI decode is
// JPEG-only, video frames arrive already decoded), so same-dimension inputs
// of different codecs must never share a cached plan.
type ingestKey struct {
	w, h, mcu, res int
	codec          Codec
}

// ingestPlan is the compiled decode+preprocess recipe for one input class:
// the jointly optimized decode scale, the precomputed (plan-time) ROI, and
// the residual operator chain that runs on the decoded image. It is
// immutable and shared across workers; prepFunc executes it with per-worker
// reusable buffers.
type ingestPlan struct {
	// full is the complete optimized plan, decode op included (reports,
	// cost accounting).
	full preproc.Plan
	// resid is full minus the decode op: what the preproc executor runs on
	// the image the codec already produced at the plan's scale.
	resid preproc.Plan
	// scale is the decode scale lowered into jpeg.DecodeOptions.Scale.
	scale int
	// roi, when non-nil, is the central-crop-covering region lowered into
	// jpeg.DecodeOptions.ROI. Decode options only read it, so sharing the
	// pointer across workers is safe.
	roi *img.Rect
}

// ingestCache is an LRU map of compiled ingest plans. Adversarially varied
// input resolutions evict the least recently used class instead of
// permanently disabling caching, so steady-state traffic keeps its
// zero-alloc cached path however hostile the warm-up was.
type ingestCache struct {
	mu  sync.Mutex
	cap int
	m   map[ingestKey]*list.Element
	l   *list.List // of *ingestCacheEntry, front = most recently used
}

type ingestCacheEntry struct {
	key  ingestKey
	plan *ingestPlan
}

// maxCachedPlans bounds the ingest-plan LRU cache. Input dimensions come
// from user-supplied images, so a resident Server must not grow memory
// without bound; beyond the cap the least recently used input class is
// evicted and recompiled on next sight.
const maxCachedPlans = 1024

func (c *ingestCache) init(capacity int) {
	c.cap = capacity
	c.m = make(map[ingestKey]*list.Element)
	c.l = list.New()
}

// get returns the cached plan for a key, marking it most recently used.
func (c *ingestCache) get(k ingestKey) (*ingestPlan, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.l.MoveToFront(el)
	return el.Value.(*ingestCacheEntry).plan, true
}

// put inserts a plan, evicting the least recently used entry beyond the
// cap. A concurrent worker may have won the race for this key; the first
// entry wins so all workers share one plan value.
func (c *ingestCache) put(k ingestKey, p *ingestPlan) *ingestPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.l.MoveToFront(el)
		return el.Value.(*ingestCacheEntry).plan
	}
	c.m[k] = c.l.PushFront(&ingestCacheEntry{key: k, plan: p})
	if c.l.Len() > c.cap {
		oldest := c.l.Back()
		c.l.Remove(oldest)
		delete(c.m, oldest.Value.(*ingestCacheEntry).key)
	}
	return p
}

// len reports the resident entry count.
func (c *ingestCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.l.Len()
}

// ingestFor returns the compiled ingest plan for one (input class, target
// resolution) pair, computing and caching it on first sight. Plan
// compilation runs the joint decode+preprocess optimization: the ROI (when
// enabled) is mapped and MCU-aligned once, the decode scale is chosen
// together with the residual resize/crop/normalize chain by
// preproc.Optimize, and the result is an immutable recipe prepFunc
// executes per image with pooled buffers.
func (r *Runtime) ingestFor(w, h, mcu int, codec Codec, res int) (*ingestPlan, error) {
	key := ingestKey{w: w, h: h, mcu: mcu, res: res, codec: codec}
	if ip, ok := r.ingest.get(key); ok {
		return ip, nil
	}
	decW, decH := w, h
	var roi *img.Rect
	if codec == CodecJPEG && r.cfg.ROIDecode {
		var region img.Rect
		roi, region = roiGeometry(w, h, res, mcu)
		decW, decH = region.W(), region.H()
	}
	plan, err := preproc.Optimize(serveSpec(decW, decH, res, r.decodeScales(codec)))
	if err != nil {
		return nil, err
	}
	ip := &ingestPlan{
		full:  plan,
		resid: plan.ResidualAfterDecode(),
		scale: plan.DecodeScale(),
		roi:   roi,
	}
	return r.ingest.put(key, ip), nil
}

// decodeScales lists the reduced decode factors the joint plan search may
// choose from for one codec: only JPEG decodes at reduced resolution.
func (r *Runtime) decodeScales(codec Codec) []int {
	if codec == CodecJPEG {
		return r.jpegScales
	}
	return nil
}

// servingMean and servingStd are the normalization every served model
// assumes: the plain [0,1] scaling of models trained with internal/data.
var (
	servingMean = [3]float32{0, 0, 0}
	servingStd  = [3]float32{1, 1, 1}
)

// serveSpec is preproc.ServeSpec under the serving normalization.
func serveSpec(w, h, res int, decodeScales []int) preproc.Spec {
	return preproc.ServeSpec(w, h, res, servingMean, servingStd, decodeScales)
}

// roiGeometry maps the post-resize central crop for a res-input model back
// to source pixels of a w x h image, returning the ROI and its MCU-aligned
// cover (the region the decoder actually reconstructs). Shared by the
// ingest compiler (exact, with the stream's real MCU size) and the planner
// (estimate, with the worst-case MCU).
func roiGeometry(w, h, res, mcu int) (*img.Rect, img.Rect) {
	short := res * 256 / 224
	sw, sh := img.AspectPreservingSize(w, h, short)
	crop := img.CenterCropRect(sw, sh, res, res)
	scaleX := float64(w) / float64(sw)
	scaleY := float64(h) / float64(sh)
	roi := &img.Rect{
		X0: int(float64(crop.X0) * scaleX), Y0: int(float64(crop.Y0) * scaleY),
		X1: int(float64(crop.X1)*scaleX) + 1, Y1: int(float64(crop.Y1)*scaleY) + 1,
	}
	return roi, jpeg.AlignedRegion(*roi, w, h, mcu)
}

// ingestState is the per-worker mutable half of the ingest path: the
// reusable JPEG decoder (parsed headers, Huffman tables, planar scratch),
// the pooled decode output image, and the preproc executor's scratch
// buffers. The compiled ingestPlan supplies the immutable recipe.
type ingestState struct {
	ex  *preproc.Executor
	dec jpeg.Decoder
	// buf is the decoder's reused output image (jpeg.DecodeOptions.Dst).
	buf *img.Image
}

// prepFunc builds the engine preprocessing callback: look up (or compile)
// the input class's ingest plan for the request's chosen zoo entry, decode
// once at the plan's scale/ROI straight into worker-owned pooled buffers,
// then run the residual preproc chain into the engine's pooled output
// tensor. The JPEG headers are parsed exactly once per image (the Decoder
// carries the parse into the decode), and a warm worker performs no
// per-image allocations. Video jobs arrive with their frame already decoded
// (the request's resident decoder owns the sequential I/P stream), so the
// worker runs only the residual chain and recycles the frame buffer.
func (r *Runtime) prepFunc() engine.PrepFunc {
	return r.prepJob
}

// prepJob is the body of the engine preprocessing callback. The warm
// path — cached ingest plan, reused decoder output, pooled frame buffers
// — performs no per-image allocations; only plan compilation, scratch
// warm-up, and error construction may allocate.
//
//smol:noalloc
func (r *Runtime) prepJob(ws *engine.WorkerState, job engine.Job, out *tensor.Tensor) error {
	cr, ok := job.Tag.(*classifyReq)
	if !ok {
		//smol:coldpath malformed job
		return fmt.Errorf("smol: job %d carries no request state", job.Index)
	}
	res := cr.entry.InputRes
	st, _ := ws.Scratch.(*ingestState)
	if st == nil {
		//smol:coldpath per-worker scratch warm-up
		st = &ingestState{ex: preproc.NewExecutor()}
		ws.Scratch = st
	}
	if cr.frames != nil {
		m := cr.frames[job.Index]
		if m == nil {
			//smol:coldpath malformed job
			return fmt.Errorf("smol: video job %d carries no decoded frame", job.Index)
		}
		ip, err := r.ingestFor(m.W, m.H, 0, CodecVideo, res)
		if err != nil {
			return err
		}
		err = st.ex.Execute(ip.resid, m, out)
		if cr.framePool != nil {
			cr.frames[job.Index] = nil
			cr.framePool.Put(m)
		}
		return err
	}
	in := cr.inputs[job.Index]
	switch in.Codec {
	case CodecPNG:
		m, err := spng.Decode(in.Data)
		if err != nil {
			return err
		}
		ip, err := r.ingestFor(m.W, m.H, 0, CodecPNG, res)
		if err != nil {
			return err
		}
		return st.ex.Execute(ip.resid, m, out)
	case CodecJPEG:
		w, h, err := st.dec.Parse(in.Data)
		if err != nil {
			return err
		}
		ip, err := r.ingestFor(w, h, st.dec.MCUSize(), CodecJPEG, res)
		if err != nil {
			return err
		}
		m, _, _, err := st.dec.Decode(jpeg.DecodeOptions{
			ROI:   ip.roi,
			Scale: ip.scale,
			Dst:   st.buf,
		})
		if err != nil {
			return err
		}
		st.buf = m
		return st.ex.Execute(ip.resid, m, out)
	default:
		//smol:coldpath malformed job
		return fmt.Errorf("smol: job %d: unsupported codec %v in still-image request", job.Index, in.Codec)
	}
}

// execFunc builds the engine execution callback: a model forward whose
// outputs are routed to each sample's originating request. The engine
// never mixes shape classes in a batch, so the batch's zoo entry is the
// one its first ref's request chose. Compiled plans are reentrant, so
// forwards from different engine streams run concurrently up to the
// ExecParallel bound.
func (r *Runtime) execFunc() engine.BatchFunc {
	return func(batch *tensor.Tensor, refs []engine.Ref) error {
		if len(refs) == 0 {
			return nil
		}
		first, ok := refs[0].Tag.(*classifyReq)
		if !ok {
			return fmt.Errorf("smol: sample %d carries no request state", refs[0].Index)
		}
		ent := first.entry
		n := batch.Shape[0]
		pooled, _ := ent.preds.Get().(*[]int)
		if pooled == nil || cap(*pooled) < n {
			pooled = new([]int)
			*pooled = make([]int, n)
		}
		// The pooled buffer goes back on every exit path — error, panic, or
		// success — and the closure releases the semaphore slot even if the
		// forward panics, so a poisoned batch can't leak execution capacity.
		defer ent.preds.Put(pooled)
		out := (*pooled)[:n]
		func() {
			r.execSem <- struct{}{}
			defer func() { <-r.execSem }()
			ent.exec.PredictInto(batch, out)
		}()
		for i, ref := range refs {
			cr, ok := ref.Tag.(*classifyReq)
			if !ok {
				return fmt.Errorf("smol: sample %d carries no request state", ref.Index)
			}
			cr.preds[ref.Index] = out[i]
		}
		return nil
	}
}

// engineConfig maps the runtime configuration onto the engine topology:
// one shape class per zoo entry, so each variant keeps its own tensor
// pool, staging arena, and batch geometry inside the shared pipeline.
func (r *Runtime) engineConfig() engine.Config {
	shapes := make([][3]int, len(r.entries))
	for i, ent := range r.entries {
		shapes[i] = [3]int{3, ent.InputRes, ent.InputRes}
	}
	return engine.Config{
		Workers:   r.cfg.Workers,
		BatchSize: r.cfg.BatchSize,
		Shapes:    shapes,
	}
}
