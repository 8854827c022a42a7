package smol

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"smol/internal/blazeit"
	"smol/internal/codec/jpeg"
	"smol/internal/codec/spng"
	"smol/internal/codec/vid"
	"smol/internal/costmodel"
	"smol/internal/hw"
	"smol/internal/img"
	"smol/internal/preproc"
	"smol/internal/tensor"
)

// QoS is a serving quality target, set per runtime (RuntimeConfig.QoS) and
// overridable per request (Server.ClassifyQoS). The zero value asks for
// maximum throughput: the planner picks the cheapest zoo entry with no
// accuracy floor.
type QoS struct {
	// MinAccuracy requires the chosen zoo entry's measured validation
	// accuracy to be at least this floor; among feasible entries the
	// planner maximizes predicted throughput.
	MinAccuracy float64
	// MaxLatencyUS caps the predicted worst-case per-image latency in
	// microseconds (the latency-constrained deployment of §3.1). Zero
	// means unconstrained.
	MaxLatencyUS float64
}

// validate rejects a target no plan search can honour. A NaN field would
// pass every floor comparison (serving the max-throughput plan) and, as a
// memo key, never equal itself, so each such request would re-run the
// whole search.
func (q QoS) validate() error {
	for _, v := range []float64{q.MinAccuracy, q.MaxLatencyUS} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("smol: invalid QoS %+v: fields must be finite and non-negative", q)
		}
	}
	return nil
}

// ServePlan is the planner's decision for one request: the zoo entry it
// routed the request to, the joint decode/preprocessing plan for the
// request's input class, and the calibrated cost-model predictions that
// justified the choice. smol-query -explain prints it next to the measured
// throughput.
type ServePlan struct {
	// Entry is the chosen zoo entry ("variant@res", "variant@res/int8").
	Entry string
	// Variant and InputRes split Entry into its parts.
	Variant  string
	InputRes int
	// Precision is the numeric tier the request runs at: PrecisionFP32 or
	// PrecisionInt8. Strict accuracy floors keep bit-identical f32; floors
	// below an int8 twin's measured accuracy get the fast tier.
	Precision string
	// Kernel names the GEMM kernel tier the plan's forwards execute on
	// ("avx2" or "portable", tensor.Kernel*); "reference" marks entries
	// that did not compile and run the serialized reference path. The f32
	// tiers are bit-identical, so Kernel never affects results — it is
	// -explain visibility into what the hardware actually runs.
	Kernel string
	// Accuracy is the effective accuracy the planner's QoS floor was
	// checked against: the entry's measured validation accuracy, minus
	// any decode-fidelity penalties on video plans (deblocking disabled,
	// undersized stored rendition).
	Accuracy float64
	// InputFormat describes the representative input class the plan was
	// selected for (codec and encoded dimensions of the request's first
	// image).
	InputFormat string
	// DecodeScale is the reduced decode factor the joint plan chose for
	// that input class (1 = full-resolution decode).
	DecodeScale int
	// Deblock reports whether the in-loop deblocking filter runs during
	// decode (video requests only; false is the reduced-fidelity fast
	// decode of §6.4). Still-image plans leave it false.
	Deblock bool
	// Stream is the natively-stored rendition the video planner routed the
	// request to: 0 is the primary stream, n > 0 is VideoOpts.Variants[n-1]
	// (the paper's natively-present low-resolution lever). Still-image
	// plans leave it 0.
	Stream int
	// Preproc names the optimized post-decode operator chain.
	Preproc string
	// PredictedThroughput is the calibrated Eq. 4 estimate (im/s) for this
	// plan on the live machine.
	PredictedThroughput float64
	// PredictedLatencyUS is the calibrated worst-case per-image latency
	// estimate.
	PredictedLatencyUS float64
}

func (p ServePlan) String() string {
	prec := p.Precision
	if prec == "" {
		prec = PrecisionFP32
	}
	tier := prec
	if p.Kernel != "" {
		tier += "/" + p.Kernel
	}
	return fmt.Sprintf("%s [%s] on %s: decode 1/%d, %s, predicted %.0f im/s (acc %.3f)",
		p.Entry, tier, p.InputFormat, p.DecodeScale, p.Preproc, p.PredictedThroughput, p.Accuracy)
}

// kernelFor names the GEMM kernel tier an entry's forwards run on: the
// int8 kernel for quantized plans, the active f32 kernel for compiled f32
// plans, and "reference" for the uncompiled serialized path (scalar tensor
// ops, no GEMM dispatch).
func (r *Runtime) kernelFor(ent *rtEntry) string {
	switch {
	case ent.qplan != nil:
		return tensor.Int8KernelName()
	case ent.plan != nil:
		return tensor.F32KernelName()
	default:
		return "reference"
	}
}

// selKey memoizes still-image planner decisions per (input class, QoS)
// pair.
type selKey struct {
	w, h  int
	codec Codec
	qos   QoS
}

// selection is one memoized still-image or video planner decision.
// Still-image plans leave choice zero.
type selection struct {
	entry  *rtEntry
	choice videoChoice
	plan   ServePlan
}

// maxCachedSelections bounds each planner memo; beyond it the memo resets
// (selections are cheap to recompute — the expensive parts, calibration
// and ingest-plan compilation, have their own caches).
const maxCachedSelections = 256

// planMemo memoizes one planner's decisions. It holds at most
// maxCachedSelections entries, resetting when full, and never caches an
// error. compute runs outside the lock: the SELECT planner's compute
// consults the video planner's memo.
type planMemo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

// get returns the memoized decision for key, running compute on a miss.
// Concurrent misses on one key may each compute; the decisions are equal.
func (c *planMemo[K, V]) get(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	v, ok := c.m[key]
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	if c.m == nil || len(c.m) >= maxCachedSelections {
		c.m = make(map[K]V)
	}
	c.m[key] = v
	c.mu.Unlock()
	return v, nil
}

// candidate is one point of a plan search: a zoo entry, the video choice
// it executes with (zero for still images), and its cost-model plan.
type candidate struct {
	ent    *rtEntry
	choice videoChoice
	plan   costmodel.Plan
}

// planEnv is the cost-model environment every plan search runs in: this
// runtime's worker count and batch size under the live calibration.
func (r *Runtime) planEnv(cal *hw.Calibration) costmodel.Env {
	env := costmodel.DefaultEnv()
	env.VCPUs = r.workerCount()
	env.BatchSize = r.batchSize()
	env.Calibration = cal
	return env
}

// pick costs every candidate under env and lowers the one costmodel.Select
// chooses under qos. Exact throughput ties resolve by candidate order, so
// callers enumerate candidates in a fixed order.
func (r *Runtime) pick(cands []candidate, env costmodel.Env, qos QoS) (selection, error) {
	plans := make([]costmodel.Plan, len(cands))
	for i, c := range cands {
		plans[i] = c.plan
	}
	evals, err := costmodel.Evaluate(plans, env)
	if err != nil {
		return selection{}, err
	}
	best, err := costmodel.Select(evals, costmodel.Constraint{
		MinAccuracy:  qos.MinAccuracy,
		MaxLatencyUS: qos.MaxLatencyUS,
	})
	if err != nil {
		return selection{}, err
	}
	for _, c := range cands {
		if c.plan.DNN.Name == best.Plan.DNN.Name &&
			c.plan.Format.Name == best.Plan.Format.Name &&
			c.plan.Format.NoDeblock == best.Plan.Format.NoDeblock {
			return selection{entry: c.ent, choice: c.choice, plan: r.servePlan(c.ent, c.choice, best)}, nil
		}
	}
	return selection{}, fmt.Errorf("smol: planner lost track of its winner %s", best.Plan)
}

// servePlan lowers a chosen plan into the ServePlan a request reports. Its
// Accuracy is the one the QoS floor was checked against: the entry's
// measured accuracy minus any decode-fidelity penalties.
func (r *Runtime) servePlan(ent *rtEntry, choice videoChoice, ev costmodel.Evaluated) ServePlan {
	return ServePlan{
		Entry:               ent.name,
		Variant:             ent.Variant,
		InputRes:            ent.InputRes,
		Precision:           ent.PrecisionLabel(),
		Kernel:              r.kernelFor(ent),
		Accuracy:            ev.Accuracy,
		InputFormat:         ev.Plan.Format.Name,
		DecodeScale:         ev.Plan.Preproc.DecodeScale(),
		Deblock:             choice.deblock,
		Stream:              choice.stream,
		Preproc:             ev.Plan.Preproc.Describe(),
		PredictedThroughput: ev.Throughput,
		PredictedLatencyUS:  ev.LatencyUS,
	}
}

// planFor picks the zoo entry for one request: it peeks at the first
// input's header to establish the request's input class, builds the
// calibrated D x F plan space (every zoo entry against that class, each
// with its jointly optimized decode scale and preprocessing chain), and
// selects the best plan under the QoS constraint — the paper's joint
// preprocessing/inference optimization running live inside the serving
// path.
func (r *Runtime) planFor(inputs []MediaInput, qos QoS) (*rtEntry, ServePlan, error) {
	if err := qos.validate(); err != nil {
		return nil, ServePlan{}, err
	}
	if len(inputs) == 0 {
		// An empty request has no input class to cost and no work to
		// bound: route it by accuracy alone (no calibration, no plan
		// search) so it stays the no-op it always was, while a genuinely
		// unsatisfiable accuracy floor still fails loudly.
		var best *rtEntry
		for _, ent := range r.entries {
			if ent.Accuracy >= qos.MinAccuracy && (best == nil || ent.Accuracy > best.Accuracy) {
				best = ent
			}
		}
		if best == nil {
			return nil, ServePlan{}, fmt.Errorf("smol: no zoo entry meets accuracy floor %v", qos.MinAccuracy)
		}
		return best, r.servePlan(best, videoChoice{}, costmodel.Evaluated{Accuracy: best.Accuracy}), nil
	}
	if inputs[0].Codec == CodecVideo {
		return nil, ServePlan{}, fmt.Errorf("smol: video streams are served by ClassifyVideo/EstimateMean, not Classify")
	}
	w, h, err := peekDims(inputs[0])
	if err != nil {
		return nil, ServePlan{}, fmt.Errorf("smol: reading input header: %w", err)
	}
	key := selKey{w: w, h: h, codec: inputs[0].Codec, qos: qos}
	sel, err := r.stills.get(key, func() (selection, error) { return r.selectPlan(key) })
	if err != nil {
		return nil, ServePlan{}, err
	}
	return sel.entry, sel.plan, nil
}

// selectPlan runs the calibrated plan search for one (input class, QoS)
// pair.
func (r *Runtime) selectPlan(key selKey) (selection, error) {
	kind := hw.FormatJPEG
	if key.codec == CodecPNG {
		kind = hw.FormatPNG
	}
	format := costmodel.Format{
		Name: fmt.Sprintf("%s %dx%d", key.codec, key.w, key.h),
		Kind: kind, W: key.w, H: key.h, Quality: 90,
	}

	// Build one candidate plan per zoo entry, with the same joint
	// decode-scale + preprocessing optimization the ingest compiler runs,
	// so the predicted plan is the one the runtime will actually execute.
	cands := make([]candidate, 0, len(r.entries))
	for _, ent := range r.entries {
		var scales []int
		if key.codec == CodecJPEG && !r.cfg.DisableScaledDecode {
			scales = jpegDecodeScales
		}
		specW, specH := key.w, key.h
		entFormat := format
		if key.codec == CodecJPEG && r.cfg.ROIDecode {
			// The executed ingest plan decodes only the MCU-aligned cover
			// of the central crop; cost the same geometry. The stream's
			// real MCU size is unknown until decode, so assume the
			// worst-case 16px grid (4:2:0) — at most one MCU of slack per
			// edge against what ingestFor will compile.
			_, region := roiGeometry(key.w, key.h, ent.InputRes, 16)
			specW, specH = region.W(), region.H()
			entFormat.ROIFraction = float64(specW*specH) / float64(key.w*key.h)
		}
		spec := preproc.ServeSpec(specW, specH, ent.InputRes, r.cfg.Mean, r.cfg.Std, scales)
		pplan, err := preproc.Optimize(spec)
		if err != nil {
			return selection{}, fmt.Errorf("smol: optimizing preproc for %s: %w", ent.name, err)
		}
		p := costmodel.Plan{
			DNN: costmodel.DNNChoice{
				Name: ent.name, InputRes: ent.InputRes, Accuracy: ent.Accuracy,
			},
			Format: entFormat, Preproc: pplan, PreprocSpec: spec,
		}
		if sc := pplan.DecodeScale(); sc > 1 {
			p.Format.DecodeScale = sc
		}
		cands = append(cands, candidate{ent: ent, plan: p})
	}
	sel, err := r.pick(cands, r.planEnv(r.calibrate()), key.qos)
	if err != nil {
		return selection{}, fmt.Errorf("smol: no zoo entry satisfies QoS %+v: %w", key.qos, err)
	}
	return sel, nil
}

// peekDims reads the encoded dimensions from an input's header without
// decoding it. Unknown codecs fail here, at planning time, with the same
// verdict the prep workers would reach later.
func peekDims(in MediaInput) (w, h int, err error) {
	switch in.Codec {
	case CodecJPEG:
		return jpeg.DecodeHeader(in.Data)
	case CodecPNG:
		return spng.DecodeHeader(in.Data)
	case CodecVideo:
		info, err := vid.Probe(in.Data)
		if err != nil {
			return 0, 0, err
		}
		return info.W, info.H, nil
	default:
		return 0, 0, fmt.Errorf("smol: unsupported codec %v", in.Codec)
	}
}

func (r *Runtime) workerCount() int {
	if r.cfg.Workers > 0 {
		return r.cfg.Workers
	}
	if r.cfg.Opts.DisableThreading {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

func (r *Runtime) batchSize() int {
	if r.cfg.BatchSize > 0 {
		return r.cfg.BatchSize
	}
	return 32
}

// calibrate measures this machine once per runtime: every zoo entry's real
// per-image forward time (through the same compiled plan serving uses) and
// the ratio of live to modeled CPU preprocessing cost. The planner's
// estimators then rank plans by the hardware they are actually running on
// — the live counterpart of the BENCH_*.json tracking — instead of the
// paper's static testbed profiles.
func (r *Runtime) calibrate() *hw.Calibration {
	r.calOnce.Do(func() {
		cal := &hw.Calibration{
			ExecUS: make(map[string]float64, len(r.entries)),
			Kernel: tensor.F32KernelName(),
		}
		for _, ent := range r.entries {
			cal.ExecUS[ent.name] = r.measureExecUS(ent)
		}
		cal.PreprocScale = r.measurePreprocScale()
		r.cal = cal
	})
	return r.cal
}

// videoCalibrate extends the base calibration with the video decode
// reference measurement, lazily on the first video request so still-only
// servers never pay for it. The write is ordered before every video
// planner's read by the sync.Once.
func (r *Runtime) videoCalibrate() *hw.Calibration {
	cal := r.calibrate()
	r.vidCalOnce.Do(func() {
		cal.VideoScale = r.measureVideoScale()
	})
	return cal
}

// clampScale bounds a measured/modeled cost ratio against pathological
// measurements (debuggers, contended CI machines).
func clampScale(scale float64) float64 {
	if scale < 0.02 {
		return 0.02
	}
	if scale > 50 {
		return 50
	}
	return scale
}

// measureExecUS times one entry's batch forward (best of a few warm runs)
// and returns microseconds per image.
func (r *Runtime) measureExecUS(ent *rtEntry) float64 {
	n := 4
	if bs := r.batchSize(); bs < n {
		n = bs
	}
	x := tensor.New(n, 3, ent.InputRes, ent.InputRes)
	preds := make([]int, n)
	run := func() time.Duration {
		start := time.Now()
		if ent.qplan != nil {
			ent.qplan.PredictInto(x, preds)
		} else if ent.plan != nil {
			ent.plan.PredictInto(x, preds)
		} else {
			ent.execMu.Lock()
			ent.Model.Predict(x)
			ent.execMu.Unlock()
		}
		return time.Since(start)
	}
	run() // warm arenas and layer caches
	best := run()
	if d := run(); d < best {
		best = d
	}
	return best.Seconds() * 1e6 / float64(n)
}

// measurePreprocScale times a fixed reference decode+preprocess workload
// and returns the live/modeled cost ratio.
func (r *Runtime) measurePreprocScale() float64 {
	const refW, refH, refRes = 192, 192, 64
	m := img.New(refW, refH)
	for y := 0; y < refH; y++ {
		for x := 0; x < refW; x++ {
			m.Set(x, y, uint8(x*3), uint8(y*5), uint8((x+y)*2))
		}
	}
	enc := jpeg.Encode(m, jpeg.EncodeOptions{Quality: 90})
	spec := preproc.ServeSpec(refW, refH, refRes, r.cfg.Mean, r.cfg.Std, nil)
	plan, err := preproc.Optimize(spec)
	if err != nil {
		return 1
	}
	ex := preproc.NewExecutor()
	out := tensor.New(3, refRes, refRes)
	run := func() (time.Duration, error) {
		start := time.Now()
		dec, err := jpeg.Decode(enc)
		if err != nil {
			return 0, err
		}
		if err := ex.Execute(plan, dec, out); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	if _, err := run(); err != nil { // warm the executor scratch
		return 1
	}
	best, err := run()
	if err != nil {
		return 1
	}
	if d, err := run(); err == nil && d < best {
		best = d
	}
	modeled := hw.DecodeCostUS(hw.DecodeSpec{Format: hw.FormatJPEG, W: refW, H: refH, Quality: 90})
	for _, oc := range preproc.OpCosts(plan, spec) {
		modeled += hw.PostprocCostUS(oc)
	}
	if modeled <= 0 {
		return 1
	}
	return clampScale(best.Seconds() * 1e6 / modeled)
}

// measureVideoScale times a fixed reference vid decode (a short clip with
// real motion, so P-frames exercise compensation and residual coding) and
// returns the live/modeled cost ratio — the video counterpart of
// measurePreprocScale, feeding hw.Calibration.VideoScale.
func (r *Runtime) measureVideoScale() float64 {
	const refW, refH, refFrames, refGOP = 64, 48, 8, 4
	frames := make([]*img.Image, refFrames)
	for f := range frames {
		m := img.New(refW, refH)
		for y := 0; y < refH; y++ {
			for x := 0; x < refW; x++ {
				m.Set(x, y, uint8(x*4), uint8(y*5), uint8((x+y)*2))
			}
		}
		// A moving bright bar gives the encoder real motion to chase.
		for y := refH / 3; y < 2*refH/3; y++ {
			for x := 0; x < refW/8; x++ {
				m.Set((x+f*3)%refW, y, 250, 240, 200)
			}
		}
		frames[f] = m
	}
	enc, err := vid.Encode(frames, vid.EncodeOptions{Quality: 70, GOP: refGOP})
	if err != nil {
		return 1
	}
	var dst *img.Image
	run := func() (time.Duration, error) {
		dec, err := vid.NewDecoder(enc, vid.DecodeOptions{})
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for {
			m, err := dec.NextInto(dst)
			if err == vid.ErrEndOfStream {
				break
			}
			if err != nil {
				return 0, err
			}
			dst = m
		}
		return time.Since(start), nil
	}
	if _, err := run(); err != nil { // warm the decoder path
		return 1
	}
	best, err := run()
	if err != nil {
		return 1
	}
	if d, err := run(); err == nil && d < best {
		best = d
	}
	modeled := hw.DecodeCostUS(hw.DecodeSpec{
		Format: hw.FormatVideoH264, W: refW, H: refH, GOP: refGOP,
	}) * refFrames
	if modeled <= 0 {
		return 1
	}
	return clampScale(best.Seconds() * 1e6 / modeled)
}

// Selection-query planning: the verification side reuses the video plan
// search (zoo entry x rendition x deblock under the QoS constraint), then
// every proxy candidate — the blob counter or a qualifying zoo entry, on
// every stored rendition — is costed against that verification plan with
// costmodel.SelectCostUS. A persisted score table zeroes a candidate's
// proxy-pass term, which is how repeat queries converge on the cached
// proxy. Decisions are memoized like video plans, with the set of cached
// tables part of the key (the first query's lazy persist changes the
// arithmetic for the second).

// streamProxy identifies one proxy candidate: a scoring model over one
// stored stream.
type streamProxy struct {
	stream int
	proxy  string
}

// selectSelKey memoizes selection planner decisions.
type selectSelKey struct {
	streams string
	qos     QoS
	stride  int
	mode    DeblockMode
	limit   int
	// conf marks queries with a proxy confidence floor: the planner
	// assumes floor-gated queries prune (selectSelectivityPrior) while
	// floorless queries verify every sampled frame.
	conf bool
	// cached lists the (stream, proxy) score tables persisted for the
	// video at planning time.
	cached string
}

// selectSelection is one memoized selection planner decision.
type selectSelection struct {
	entry    *rtEntry
	choice   videoChoice
	proxyEnt *rtEntry // nil = blob-counter proxy
	plan     SelectPlan
}

// selectSelectivityPrior is the fraction of frames the planner expects to
// survive a nonzero proxy confidence floor. It only shapes predicted cost
// (and through it the proxy choice); execution always verifies the frames
// that actually survive.
const selectSelectivityPrior = 0.1

// planSelect plans one selection query over already-probed stream headers:
// verification entry/rendition/fidelity from the video plan search, proxy
// choice from the joint SelectCostUS ranking. cached names the score
// tables already persisted for this video.
func (r *Runtime) planSelect(infos []vid.Info, qos QoS, stride int, mode DeblockMode, limit int, minConf float64, cached map[streamProxy]bool) (selectSelection, error) {
	if stride < 1 {
		stride = 1
	}
	if limit < 0 {
		limit = 0
	}
	if qos == (QoS{}) {
		qos = r.cfg.QoS
	}
	if err := qos.validate(); err != nil {
		return selectSelection{}, err
	}
	sig := ""
	for _, info := range infos {
		sig += fmt.Sprintf("%dx%d/g%d/f%d;", info.W, info.H, info.GOP, info.Frames)
	}
	cachedKeys := make([]string, 0, len(cached))
	for sp := range cached {
		cachedKeys = append(cachedKeys, fmt.Sprintf("%d:%s", sp.stream, sp.proxy))
	}
	sort.Strings(cachedKeys)
	key := selectSelKey{
		streams: sig,
		qos:     qos,
		stride:  stride,
		mode:    mode,
		limit:   limit,
		conf:    minConf > 0,
		cached:  strings.Join(cachedKeys, ","),
	}
	return r.selects.get(key, func() (selectSelection, error) {
		return r.selectSelectPlan(infos, qos, stride, mode, limit, minConf, cached)
	})
}

// selectSelectPlan runs the candidate enumeration for one memoized
// selection planning class.
func (r *Runtime) selectSelectPlan(infos []vid.Info, qos QoS, stride int, mode DeblockMode, limit int, minConf float64, cached map[streamProxy]bool) (selectSelection, error) {
	// Verification plan: the same joint search every video request runs,
	// so the cascade and the DisableProxyCascade full-scan oracle verify
	// with an identical entry, rendition, and decode fidelity.
	seek := !r.cfg.DisableGOPSeek
	ent, choice, vplan, err := r.planVideoInfos(infos, qos, stride, mode, seek)
	if err != nil {
		return selectSelection{}, err
	}
	env := r.planEnv(r.videoCalibrate())
	// stageCosts prices one (entry, stream) pairing per frame.
	stageCosts := func(e *rtEntry, stream int, deblock bool, framesPerSample int, gopSeek bool) (costmodel.StageCosts, error) {
		p, err := r.videoPlan(e, stream, infos[stream], deblock, framesPerSample, gopSeek)
		if err != nil {
			return costmodel.StageCosts{}, err
		}
		return costmodel.Costs(p, env)
	}

	// Verification seeks: a sampled frame costs its GOP prefix. The cost
	// model caps the FramesPerSample term under GOPSeek, so pass the GOP
	// interval as the span.
	verifyCosts, err := stageCosts(ent, choice.stream, choice.deblock, max(infos[choice.stream].GOP, 1), true)
	if err != nil {
		return selectSelection{}, err
	}
	verifyUS := verifyCosts.DecodeUS + verifyCosts.CPUPostUS + verifyCosts.AccelPostUS + verifyCosts.ExecUS

	selectivity := 1.0
	if minConf > 0 {
		selectivity = selectSelectivityPrior
	}
	cpuScale, videoScale := 1.0, 1.0
	if env.Calibration != nil {
		cpuScale = env.Calibration.CPUScale()
		videoScale = env.Calibration.VideoCPUScale()
	}

	best := selectSelection{}
	bestCost := math.Inf(1)
	consider := func(sp streamProxy, proxyEnt *rtEntry, proxyUS float64) {
		if cached[sp] {
			// A persisted score table makes the whole proxy pass free.
			proxyUS = 0
		}
		spec := costmodel.SelectSpec{
			Frames:      infos[sp.stream].Frames,
			ProxyUS:     proxyUS,
			VerifyUS:    verifyUS,
			Selectivity: selectivity,
			Limit:       limit,
		}
		cost := costmodel.SelectCostUS(spec)
		if cost >= bestCost {
			return
		}
		bestCost = cost
		best = selectSelection{
			entry:    ent,
			choice:   choice,
			proxyEnt: proxyEnt,
			plan: SelectPlan{
				Proxy:                  sp.proxy,
				ProxyStream:            sp.stream,
				ProxyCached:            cached[sp],
				Verify:                 vplan,
				PredictedVerifications: costmodel.ExpectedVerifications(spec),
				PredictedCostUS:        cost,
			},
		}
	}
	for si, info := range infos {
		// The blob counter: a sequential full-fidelity decode plus the
		// flood-fill pass, per frame.
		decodeUS := hw.DecodeCostUS(hw.DecodeSpec{
			Format:  hw.FormatVideoH264,
			W:       info.W,
			H:       info.H,
			Quality: info.Quality,
			GOP:     info.GOP,
		}) * videoScale
		blobUS := decodeUS + hw.BlobProxyCostUS(info.W, info.H)*cpuScale
		consider(streamProxy{si, blazeit.BlobProxyName}, nil, blobUS)

		// Zoo-entry proxies: any entry whose execution is strictly cheaper
		// than the verification entry's qualifies (a proxy that costs as
		// much as its oracle prunes nothing worth having). Int8 twins win
		// here on exec cost, matching the cascade intent: cheap quantized
		// scoring, full-precision verification.
		for _, pe := range r.entries {
			// The proxy pass decodes every frame sequentially at full
			// fidelity.
			costs, err := stageCosts(pe, si, true, 1, false)
			if err != nil {
				continue
			}
			if costs.ExecUS >= verifyCosts.ExecUS {
				continue
			}
			proxyUS := costs.DecodeUS + costs.CPUPostUS + costs.AccelPostUS + costs.ExecUS
			consider(streamProxy{si, pe.name}, pe, proxyUS)
		}
	}
	if math.IsInf(bestCost, 1) {
		return selectSelection{}, fmt.Errorf("smol: no selection plan found")
	}
	return best, nil
}
