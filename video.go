package smol

import (
	"context"
	"fmt"
	"sync"

	"smol/internal/blazeit"
	"smol/internal/codec/vid"
	"smol/internal/costmodel"
	"smol/internal/engine"
	"smol/internal/hw"
	"smol/internal/img"
	"smol/internal/preproc"
)

// DeblockMode controls the in-loop deblocking filter for a video request.
type DeblockMode int

const (
	// DeblockAuto lets the planner choose: deblocking is dropped only when
	// the accuracy floor tolerates the penalty AND it buys throughput
	// (when execution is the bottleneck, free fidelity is kept).
	DeblockAuto DeblockMode = iota
	// DeblockOn forces full-fidelity decode — the baseline the offline
	// equivalence guarantee is stated against.
	DeblockOn
	// DeblockOff forces reduced-fidelity decode (§6.4) regardless of cost.
	DeblockOff
)

// VideoOpts configures one video serving request.
type VideoOpts struct {
	// Stride classifies every Stride-th frame (0 or 1 = every frame).
	// Skipped frames are still decoded — motion-compensated frames need
	// their references — but their RGB conversion and preprocessing are
	// elided, and the planner prices the stride into the decode cost.
	Stride int
	// QoS is the serving target the video planner satisfies, jointly
	// choosing the zoo entry, the stored rendition, the deblocking toggle,
	// and the preprocessing chain. The zero value inherits the runtime's
	// default (RuntimeConfig.QoS), exactly as still-image Classify does.
	QoS QoS
	// Variants are alternative natively-stored renditions of the same
	// content (the paper's natively-present low-resolution lever, e.g. a
	// 480p proxy encoded alongside the full stream). The planner may route
	// the request to whichever rendition is cheapest under the QoS target;
	// ServePlan.Stream reports the choice (0 = the primary stream, n > 0 =
	// Variants[n-1]).
	Variants [][]byte
	// Deblock overrides the planner's deblocking choice (DeblockAuto lets
	// the plan search decide from the QoS target).
	Deblock DeblockMode
}

// VideoResult reports one ClassifyVideo call: the sampled frame indices,
// their predictions (parallel slices), the plan the video planner chose,
// and the engine/decoder work counters.
type VideoResult struct {
	// FrameIndices lists the classified frames' positions in the stream.
	FrameIndices []int
	// Predictions holds the model outputs, parallel to FrameIndices.
	Predictions []int
	// Plan is the planner's joint choice (entry, rendition, deblock,
	// preprocessing) for this request.
	Plan ServePlan
	// Stats reports the engine-side work (batches, latency, pool reuse).
	Stats engine.Stats
	// Decode reports the video decoder's work (frames, IDCT blocks,
	// deblocked edges).
	Decode VideoDecodeStats
}

// AggregateOpts configures one EstimateMean aggregation query.
type AggregateOpts struct {
	// ErrTarget is the requested confidence-interval half-width on the
	// mean (required).
	ErrTarget float64
	// QoS selects the target model: the zoo entry the planner routes this
	// request to is the expensive model the estimator samples. The zero
	// value inherits the runtime's default (RuntimeConfig.QoS).
	QoS QoS
	// Variants are alternative stored renditions, as in VideoOpts.
	Variants [][]byte
	// Deblock overrides the planner's deblocking choice.
	Deblock DeblockMode
	// Seed drives the sampling order (deterministic per seed).
	Seed int64
	// MaxTargetInvocations caps the expensive-model calls (0 = up to one
	// per frame).
	MaxTargetInvocations int
}

// AggregateResult reports one EstimateMean query.
type AggregateResult struct {
	// Estimate is the estimated mean of the target model's per-frame
	// output.
	Estimate float64
	// HalfWidth is the final confidence-interval half-width.
	HalfWidth float64
	// TargetInvocations is how many frames the expensive target model
	// actually ran on — the quantity the control variate minimizes.
	TargetInvocations int
	// Frames is the stream's total frame count (the cheap proxy ran on
	// every one).
	Frames int
	// ProxyCached reports that the cheap pass was skipped entirely: a
	// persisted proxy score table (see MediaStore ingest and SelectVideo)
	// supplied the specialized model's per-frame predictions, so the query
	// decoded only the sampled target frames.
	ProxyCached bool
	// Plan describes the chosen target entry and decode fidelity.
	Plan ServePlan
	// Decode aggregates the decoder work across the cheap full pass and
	// the sampled target pass (all decoders the query opened).
	Decode VideoDecodeStats
}

// videoUndersizePenalty is the accuracy charge for serving from a stored
// rendition smaller than the chosen model's resize target (the DNN input
// is then an upscale of genuinely missing detail).
const videoUndersizePenalty = 0.02

// videoChoice is the part of a video plan the serving loop executes
// directly rather than reading back out of the ServePlan: which rendition
// to decode and whether to run the deblocking filter.
type videoChoice struct {
	stream  int
	deblock bool
}

// deblockPenalty resolves RuntimeConfig.VideoDeblockPenalty: the accuracy
// cost the planner charges deblock-off plans (negative = never consider
// them).
func (r *Runtime) deblockPenalty() (float64, bool) {
	p := r.cfg.VideoDeblockPenalty
	if p < 0 {
		return 0, false
	}
	if p == 0 {
		p = 0.01
	}
	return p, true
}

// videoSelKey memoizes video planner decisions per (stream-geometry set,
// QoS, stride, deblock mode): the plan search depends on the streams only
// through their probed headers, so requests over same-shaped streams reuse
// the decision.
type videoSelKey struct {
	streams string
	qos     QoS
	stride  int
	mode    DeblockMode
	// seek marks plans costed for GOP-indexed sampling: the decode term is
	// capped at one GOP prefix per sample instead of the whole stride span,
	// which can shift the entry/rendition trade-off.
	seek bool
}

// planVideo runs the video plan search: every zoo entry against every
// stored rendition and both deblocking settings, each with its jointly
// optimized preprocessing chain, costed by the calibrated estimators
// (live-timed forwards, live-timed vid decode, GOP-aware decode model,
// stride amortization) and selected under the QoS constraint. It is the
// video counterpart of selectPlan, with two extra decode-fidelity
// dimensions: the natively-stored resolution variant and the deblocking
// toggle (§6.4). Decisions are memoized per input class and QoS.
func (r *Runtime) planVideo(streams [][]byte, qos QoS, stride int, mode DeblockMode, seek bool) (*rtEntry, videoChoice, ServePlan, error) {
	infos := make([]vid.Info, len(streams))
	for i, s := range streams {
		info, err := vid.Probe(s)
		if err != nil {
			return nil, videoChoice{}, ServePlan{}, fmt.Errorf("smol: probing video stream %d: %w", i, err)
		}
		if i > 0 && info.Frames != infos[0].Frames {
			return nil, videoChoice{}, ServePlan{}, fmt.Errorf(
				"smol: rendition %d has %d frames, primary stream has %d — variants must share the primary's timeline",
				i, info.Frames, infos[0].Frames)
		}
		infos[i] = info
	}
	return r.planVideoInfos(infos, qos, stride, mode, seek)
}

// planVideoInfos is the plan search over already-probed stream headers —
// the entry point for store-backed requests, whose geometry was probed once
// at ingest.
func (r *Runtime) planVideoInfos(infos []vid.Info, qos QoS, stride int, mode DeblockMode, seek bool) (*rtEntry, videoChoice, ServePlan, error) {
	if stride < 1 {
		stride = 1
	}
	if qos == (QoS{}) {
		// An unset target inherits the runtime default, matching the
		// still-image Classify contract.
		qos = r.cfg.QoS
	}
	if err := qos.validate(); err != nil {
		return nil, videoChoice{}, ServePlan{}, err
	}
	sig := ""
	for _, info := range infos {
		sig += fmt.Sprintf("%dx%d/g%d;", info.W, info.H, info.GOP)
	}
	key := videoSelKey{streams: sig, qos: qos, stride: stride, mode: mode, seek: seek}
	sel, err := r.videos.get(key, func() (selection, error) {
		return r.selectVideoPlan(infos, qos, stride, mode, seek)
	})
	if err != nil {
		return nil, videoChoice{}, ServePlan{}, err
	}
	return sel.entry, sel.choice, sel.plan, nil
}

// selectVideoPlan runs the candidate enumeration and calibrated selection
// for one memoized video planning class.
func (r *Runtime) selectVideoPlan(infos []vid.Info, qos QoS, stride int, mode DeblockMode, seek bool) (selection, error) {
	penalty, allowNoDeblock := r.deblockPenalty()
	var deblocks []bool
	switch mode {
	case DeblockOn:
		deblocks = []bool{true}
	case DeblockOff:
		// The forced reduced-fidelity mode still answers to the runtime
		// configuration: an operator who disabled deblock-off plans
		// disabled them for forced requests too, and an allowed forced
		// request is costed with the same accuracy penalty the planner
		// would charge.
		if !allowNoDeblock {
			return selection{}, fmt.Errorf("smol: reduced-fidelity decode is disabled (VideoDeblockPenalty < 0)")
		}
		deblocks = []bool{false}
	default:
		deblocks = []bool{true}
		if allowNoDeblock {
			deblocks = append(deblocks, false)
		}
	}

	var cands []candidate
	for _, ent := range r.entries {
		for si, info := range infos {
			for _, deblock := range deblocks {
				p, err := r.videoPlan(ent, si, info, deblock, stride, seek)
				if err != nil {
					return selection{}, fmt.Errorf("smol: optimizing preproc for %s on stream %d: %w", ent.name, si, err)
				}
				if !deblock {
					p.DNN.Accuracy -= penalty
				}
				// A rendition whose short edge undershoots the model's
				// resize target upscales — information the DNN input wants
				// is genuinely absent (the same legality rule the JPEG
				// decode-scale search applies), so it carries an accuracy
				// charge and only wins under relaxed floors.
				if min(info.W, info.H) < p.PreprocSpec.ResizeShort {
					p.DNN.Accuracy -= videoUndersizePenalty
				}
				cands = append(cands, candidate{ent: ent, choice: videoChoice{stream: si, deblock: deblock}, plan: p})
			}
		}
	}
	sel, err := r.pick(cands, r.planEnv(r.videoCalibrate()), qos)
	if err != nil {
		return selection{}, fmt.Errorf("smol: no video plan satisfies QoS %+v: %w", qos, err)
	}
	return sel, nil
}

// videoPlan is the cost-model plan for serving one stored stream with one
// zoo entry: decode at the stream's geometry with or without deblocking,
// framesPerSample decoded frames per classified one (capped at the GOP
// prefix under seek), and the jointly optimized preprocessing chain.
func (r *Runtime) videoPlan(ent *rtEntry, stream int, info vid.Info, deblock bool, framesPerSample int, seek bool) (costmodel.Plan, error) {
	spec := preproc.ServeSpec(info.W, info.H, ent.InputRes, r.cfg.Mean, r.cfg.Std, nil)
	pplan, err := preproc.Optimize(spec)
	if err != nil {
		return costmodel.Plan{}, err
	}
	return costmodel.Plan{
		DNN: costmodel.DNNChoice{Name: ent.name, InputRes: ent.InputRes, Accuracy: ent.Accuracy},
		Format: costmodel.Format{
			Name:            fmt.Sprintf("svid#%d %dx%d", stream, info.W, info.H),
			Kind:            hw.FormatVideoH264,
			W:               info.W,
			H:               info.H,
			NoDeblock:       !deblock,
			GOP:             info.GOP,
			FramesPerSample: framesPerSample,
			GOPSeek:         seek,
		},
		Preproc: pplan, PreprocSpec: spec,
	}, nil
}

// videoSource streams a video request into the engine: it owns the
// resident decoder, decodes frames in stream order (P-frames need their
// references), skips unsampled frames without converting them to RGB, and
// submits one job per sampled frame. Submission backpressure (the engine's
// bounded queues) paces the decode, and frame buffers recycle through the
// request's pool once a prep worker consumes them, so a long stream runs
// in bounded memory.
type videoSource struct {
	ctx    context.Context
	dec    *vid.Decoder
	cr     *classifyReq
	stride int
	class  int
	// seek routes skipped spans through SeekFrame instead of per-frame
	// Skip: whole GOPs between samples are bypassed via the GOP index
	// (never entered, not even for motion compensation) and only the
	// intra-GOP prefix of each sample is reconstructed.
	seek   bool
	frame  int // next stream frame to decode
	sample int // next sample slot to fill
}

// Next hands the decoded frame to the request (cr.frames slot); the prep
// worker recycles it into framePool after preprocessing.
//
//smol:owns
func (s *videoSource) Next() (engine.Job, bool, error) {
	for {
		if err := s.ctx.Err(); err != nil {
			return engine.Job{}, false, err
		}
		if s.sample >= len(s.cr.preds) {
			return engine.Job{}, false, nil
		}
		if s.seek {
			target := s.sample * s.stride
			if err := s.dec.SeekFrame(target); err != nil {
				return engine.Job{}, false, err
			}
			s.frame = target
		} else if s.frame%s.stride != 0 {
			if err := s.dec.Skip(); err != nil {
				return engine.Job{}, false, err
			}
			s.frame++
			continue
		}
		dst, _ := s.cr.framePool.Get().(*img.Image)
		m, err := s.dec.NextInto(dst)
		if err != nil {
			// Put the pooled frame back before failing: a decode error must
			// not bleed a buffer out of the pool per failed request.
			if dst != nil {
				s.cr.framePool.Put(dst)
			}
			return engine.Job{}, false, err
		}
		i := s.sample
		s.cr.frames[i] = m
		s.frame++
		s.sample++
		return engine.Job{Index: i, Tag: s.cr, Class: s.class}, true, nil
	}
}

// ClassifyVideo streams a video's sampled frames through the shared warm
// engine and blocks until every prediction is ready, ctx is cancelled, or a
// stage fails. The request holds one resident decoder (sequential I/P
// decode with recycled reference frames); sampled frames flow through the
// same per-class tensor pools, batch streams, and compiled forwards as
// still-image traffic, and may share accelerator batches with concurrent
// still-image requests routed to the same zoo entry.
func (s *Server) ClassifyVideo(ctx context.Context, stream []byte, opts VideoOpts) (VideoResult, error) {
	stride := opts.Stride
	if stride < 1 {
		stride = 1
	}
	streams := append([][]byte{stream}, opts.Variants...)
	seek := !s.rt.cfg.DisableGOPSeek
	ent, choice, plan, err := s.rt.planVideo(streams, opts.QoS, stride, opts.Deblock, seek)
	if err != nil {
		return VideoResult{}, err
	}
	dec, err := vid.NewDecoder(streams[choice.stream], vid.DecodeOptions{DisableDeblock: !choice.deblock})
	if err != nil {
		return VideoResult{}, err
	}
	return s.classifySequential(ctx, dec, ent, plan, stride, seek)
}

// classifySequential runs one resident decoder through the warm engine —
// the serving core shared by raw-stream requests and the store-backed
// single-decoder fallback. With seek set the source jumps straight to each
// sample's containing GOP via the decoder's GOP index; otherwise it skips
// frame by frame (the sequential equivalence oracle).
func (s *Server) classifySequential(ctx context.Context, dec *vid.Decoder, ent *rtEntry, plan ServePlan, stride int, seek bool) (VideoResult, error) {
	n := (dec.NumFrames() + stride - 1) / stride
	cr := &classifyReq{
		frames:    make([]*img.Image, n),
		framePool: &sync.Pool{},
		preds:     make([]int, n),
		entry:     ent,
	}
	src := &videoSource{ctx: ctx, dec: dec, cr: cr, stride: stride, class: ent.class, seek: seek}
	stats, err := s.pipe.Process(ctx, src)
	if err != nil {
		return VideoResult{}, err
	}
	indices := make([]int, n)
	for i := range indices {
		indices[i] = i * stride
	}
	return VideoResult{
		FrameIndices: indices,
		Predictions:  cr.preds,
		Plan:         plan,
		Stats:        stats,
		Decode:       dec.Stats(),
	}, nil
}

// classifyFrame runs one already-decoded frame through the warm pipeline
// against a fixed zoo entry — the target-model invocation EstimateMean
// samples.
func (s *Server) classifyFrame(ctx context.Context, ent *rtEntry, m *img.Image) (int, error) {
	cr := &classifyReq{frames: []*img.Image{m}, preds: make([]int, 1), entry: ent}
	job := engine.Job{Index: 0, Tag: cr, Class: ent.class}
	if _, err := s.pipe.Process(ctx, engine.SliceSource([]engine.Job{job})); err != nil {
		return 0, err
	}
	return cr.preds[0], nil
}

// EstimateMean answers a BlazeIt-style aggregation query (§3.2) over a
// video: estimate the mean of the target model's per-frame prediction to
// within opts.ErrTarget, using the cheap specialized model
// (blazeit.BlobCounter on every decoded frame) as a control variate so the
// expensive target — the zoo entry the QoS target selects, executed
// through the warm pipeline — runs on as few frames as possible.
//
// For a zoo trained so that the class index is the per-frame object count,
// the estimate is the mean object count; more generally it is the mean
// predicted class. The returned TargetInvocations is the query's cost
// driver: the better the specialized model tracks the target, the fewer
// samples the confidence interval needs (§8.4).
func (s *Server) EstimateMean(ctx context.Context, stream []byte, opts AggregateOpts) (AggregateResult, error) {
	if opts.ErrTarget <= 0 {
		return AggregateResult{}, fmt.Errorf("smol: aggregation error target must be positive")
	}
	streams := append([][]byte{stream}, opts.Variants...)
	seek := !s.rt.cfg.DisableGOPSeek
	ent, choice, plan, err := s.rt.planVideo(streams, opts.QoS, 1, opts.Deblock, seek)
	if err != nil {
		return AggregateResult{}, err
	}
	decOpts := vid.DecodeOptions{DisableDeblock: !choice.deblock}
	// Raw []byte streams have no persisted index; the seeker builds one
	// lazily on first seek. Frames may still be retained up to the budget —
	// only store-backed queries drop retention entirely.
	return s.estimateMeanStream(ctx, streams[choice.stream], nil, decOpts, ent, plan, opts, seek, true, nil)
}

// estimateMeanStream is the aggregation core shared by raw-stream and
// store-backed queries. index, when non-nil, is a persisted GOP index
// injected into every decoder the query opens. retainOK gates the
// decoded-RGB retention budget: store-backed queries pass false (satellite
// of the GOP-seek work — random access via the index is cheap, so holding
// the whole clip resident buys nothing and costs aggRetainBytes of memory).
// cachedSpec, when non-nil, is the specialized model's per-frame prediction
// from a persisted proxy score table; the cheap decode-everything pass is
// skipped entirely and the query's decode work is the sampled target pass
// alone (the scores are only passed in when they are bit-identical to what
// the pass would compute: the blob proxy at the chosen stream's fidelity).
func (s *Server) estimateMeanStream(ctx context.Context, data []byte, index []vid.GOPEntry, decOpts vid.DecodeOptions, ent *rtEntry, plan ServePlan, opts AggregateOpts, seek, retainOK bool, cachedSpec []float64) (AggregateResult, error) {
	var specPreds []float64
	var frames []*img.Image
	var dstats vid.DecodeStats
	retain := false
	if cachedSpec != nil {
		specPreds = cachedSpec
	} else {
		dec, err := vid.NewDecoder(data, decOpts)
		if err != nil {
			return AggregateResult{}, err
		}
		// The cheap full pass: decode every frame once and run the
		// specialized model. Streams whose decoded frames fit the retention
		// budget keep them resident for the sampled target invocations;
		// past it the pass recycles one output image and the oracle
		// re-decodes on demand instead, keeping memory bounded regardless
		// of stream length or frame size (with GOP seek the re-decode is
		// O(GOP) per sample, without it a sequential re-decode is the
		// honest random-access cost).
		retain = retainOK && dec.NumFrames()*dec.Width()*dec.Height()*3 <= aggRetainBytes
		if retain {
			frames = make([]*img.Image, 0, dec.NumFrames())
		}
		var counter blazeit.BlobCounter
		var dst *img.Image
		for {
			if err := ctx.Err(); err != nil {
				return AggregateResult{}, err
			}
			m, err := dec.NextInto(dst)
			if err == vid.ErrEndOfStream {
				break
			}
			if err != nil {
				return AggregateResult{}, err
			}
			if len(specPreds) == 0 {
				counter = blazeit.DefaultCounter(m.W)
			}
			specPreds = append(specPreds, float64(counter.Count(m)))
			if retain {
				frames = append(frames, m)
			} else {
				dst = m
			}
		}
		dstats = dec.Stats()
	}
	if len(specPreds) == 0 {
		return AggregateResult{}, fmt.Errorf("smol: video stream has no frames")
	}
	seeker := &frameSeeker{data: data, opts: decOpts, index: index, seek: seek}
	// The expensive sampled pass: the chosen zoo entry through the warm
	// engine. blazeit's Oracle interface cannot fail, so the first error
	// latches and short-circuits the remaining invocations.
	var oracleErr error
	oracle := func(f int) float64 {
		if oracleErr != nil {
			return 0
		}
		if err := ctx.Err(); err != nil {
			oracleErr = err
			return 0
		}
		var m *img.Image
		if retain {
			m = frames[f]
		} else if m, oracleErr = seeker.frameAt(ctx, f); oracleErr != nil {
			return 0
		}
		pred, err := s.classifyFrame(ctx, ent, m)
		if err != nil {
			oracleErr = err
			return 0
		}
		return float64(pred)
	}
	res, err := blazeit.EstimateMean(specPreds, oracle, blazeit.Config{
		ErrTarget:  opts.ErrTarget,
		Seed:       opts.Seed,
		MaxSamples: opts.MaxTargetInvocations,
	})
	if err != nil {
		return AggregateResult{}, err
	}
	if oracleErr != nil {
		return AggregateResult{}, oracleErr
	}
	dstats.Add(seeker.stats())
	return AggregateResult{
		Estimate:          res.Estimate,
		HalfWidth:         res.HalfWidth,
		TargetInvocations: res.Samples,
		Frames:            len(specPreds),
		ProxyCached:       cachedSpec != nil,
		Plan:              plan,
		Decode:            dstats,
	}, nil
}

// aggRetainBytes bounds the decoded RGB bytes EstimateMean keeps resident
// for its sampled pass (~40 frames of 1080p at ~6.2MB each); larger
// streams re-decode sampled frames sequentially instead. A var so tests
// can force the re-decode path on short clips.
var aggRetainBytes = 256 << 20

// frameSeeker provides random access to a video stream for the sampled
// target pass. With seek set, one resident decoder jumps to each request
// through its GOP index (injected from a store sidecar, or lazily scanned
// on first use) — backward requests included, so the decoder is never
// rebuilt. Without it, requests at or past the current position decode
// forward (Skip elides RGB conversion for the frames in between) and
// requests behind it restart the decoder. One output image is recycled —
// the caller consumes each frame synchronously before asking for the next.
type frameSeeker struct {
	data  []byte
	opts  vid.DecodeOptions
	index []vid.GOPEntry
	seek  bool
	dec   *vid.Decoder
	pos   int // index of the next frame the decoder will produce
	dst   *img.Image
	acc   vid.DecodeStats // work of decoders already discarded by restarts
}

func (s *frameSeeker) frameAt(ctx context.Context, f int) (*img.Image, error) {
	if s.dec == nil || (!s.seek && f < s.pos) {
		if s.dec != nil {
			s.acc.Add(s.dec.Stats())
		}
		dec, err := vid.NewDecoder(s.data, s.opts)
		if err != nil {
			return nil, err
		}
		if s.index != nil {
			if err := dec.SetGOPIndex(s.index); err != nil {
				return nil, err
			}
		}
		s.dec, s.pos = dec, 0
	}
	if s.seek {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.dec.SeekFrame(f); err != nil {
			return nil, err
		}
	} else {
		for s.pos < f {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := s.dec.Skip(); err != nil {
				return nil, err
			}
			s.pos++
		}
	}
	m, err := s.dec.NextInto(s.dst)
	if err != nil {
		return nil, err
	}
	s.dst = m
	s.pos = f + 1
	return m, nil
}

// stats totals the seeker's decode work across every decoder it opened.
func (s *frameSeeker) stats() vid.DecodeStats {
	total := s.acc
	if s.dec != nil {
		total.Add(s.dec.Stats())
	}
	return total
}
