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
	"smol/internal/store"
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
	// and the preprocessing chain. The zero value asks for maximum
	// throughput.
	QoS QoS
	// Deblock overrides the planner's deblocking choice (DeblockAuto lets
	// the plan search decide from the QoS target).
	Deblock DeblockMode
}

// VideoResult reports one ClassifyVideoStored call: the sampled frame indices,
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

// AggregateOpts configures one EstimateMeanStored aggregation query.
type AggregateOpts struct {
	// ErrTarget is the requested confidence-interval half-width on the
	// mean (required).
	ErrTarget float64
	// QoS selects the target model: the zoo entry the planner routes this
	// request to is the expensive model the estimator samples. The zero
	// value asks for maximum throughput.
	QoS QoS
	// Deblock overrides the planner's deblocking choice.
	Deblock DeblockMode
	// Seed drives the sampling order (deterministic per seed).
	Seed int64
	// MaxTargetInvocations caps the expensive-model calls (0 = up to one
	// per frame).
	MaxTargetInvocations int
}

// AggregateResult reports one EstimateMeanStored query.
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

// videoDeblockPenalty is the accuracy charge for serving a stream with the
// in-loop deblocking filter disabled (the reduced-fidelity decode of §6.4):
// a deblock-off plan only wins when the QoS floor still holds after it.
const videoDeblockPenalty = 0.01

// videoChoice is the part of a video plan the serving loop executes
// directly rather than reading back out of the ServePlan: which rendition
// to decode and whether to run the deblocking filter.
type videoChoice struct {
	stream  int
	deblock bool
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

// planVideoInfos runs the video plan search: every zoo entry against every
// rendition and both deblocking settings, each with its jointly optimized
// preprocessing chain, costed by the calibrated estimators (live-timed
// forwards, live-timed vid decode, GOP-aware decode model, stride
// amortization) and selected under the QoS constraint. It is the video
// counterpart of selectPlan, with two extra decode-fidelity dimensions: the
// natively-stored resolution variant and the deblocking toggle (§6.4). It
// plans over stream headers probed once — at ingest for a stored video, in
// IndexVideo for raw bytes — and memoizes decisions per input class and
// QoS.
func (r *Runtime) planVideoInfos(infos []vid.Info, qos QoS, stride int, mode DeblockMode, seek bool) (*rtEntry, videoChoice, ServePlan, error) {
	if stride < 1 {
		stride = 1
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
	deblocks := []bool{true, false}
	switch mode {
	case DeblockOn:
		deblocks = []bool{true}
	case DeblockOff:
		deblocks = []bool{false}
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
					p.DNN.Accuracy -= videoDeblockPenalty
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
	spec := serveSpec(info.W, info.H, ent.InputRes, nil)
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

// videoSource is the sequential sampling oracle: one resident decoder
// walks the stream in order (P-frames need their references), skips
// unsampled frames without converting them to RGB, and submits one job per
// sampled frame. Submission backpressure (the engine's bounded queues) paces
// the decode, and frame buffers recycle through the request's pool once a
// prep worker consumes them, so a long stream runs in bounded memory.
type videoSource struct {
	ctx    context.Context
	dec    *vid.Decoder
	cr     *classifyReq
	stride int
	class  int
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
		if s.frame%s.stride != 0 {
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

// classifyStream samples every stride-th frame of one stream through the
// warm engine. With seek set the sampled GOPs fan out across resident
// decoders (classifyParallelGOP); otherwise one decoder walks the stream
// front to back (classifySequential), the equivalence oracle of the fan-out.
func (s *Server) classifyStream(ctx context.Context, str store.Stream, ent *rtEntry, plan ServePlan, stride int, decOpts vid.DecodeOptions, seek bool) (VideoResult, error) {
	n := (str.Info.Frames + stride - 1) / stride
	cr := &classifyReq{
		frames:    make([]*img.Image, n),
		framePool: &sync.Pool{},
		preds:     make([]int, n),
		entry:     ent,
	}
	run := s.classifySequential
	if seek {
		run = s.classifyParallelGOP
	}
	stats, dstats, err := run(ctx, cr, str, stride, decOpts)
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
		Decode:       dstats,
	}, nil
}

// classifySequential fills cr's sample slots from one resident decoder
// that decodes every frame up to the last sample.
func (s *Server) classifySequential(ctx context.Context, cr *classifyReq, str store.Stream, stride int, decOpts vid.DecodeOptions) (engine.Stats, vid.DecodeStats, error) {
	dec, err := vid.NewDecoder(str.Data, decOpts)
	if err != nil {
		return engine.Stats{}, vid.DecodeStats{}, err
	}
	stats, err := s.pipe.Process(ctx, &videoSource{ctx: ctx, dec: dec, cr: cr, stride: stride, class: cr.entry.class})
	return stats, dec.Stats(), err
}

// classifyFrame runs one already-decoded frame through the warm pipeline
// against a fixed zoo entry — the target-model invocation
// EstimateMeanStored samples.
func (s *Server) classifyFrame(ctx context.Context, ent *rtEntry, m *img.Image) (int, error) {
	cr := &classifyReq{frames: []*img.Image{m}, preds: make([]int, 1), entry: ent}
	job := engine.Job{Index: 0, Tag: cr, Class: ent.class}
	if _, err := s.pipe.Process(ctx, engine.SliceSource([]engine.Job{job})); err != nil {
		return 0, err
	}
	return cr.preds[0], nil
}

// estimateMeanStream is the aggregation core behind EstimateMeanStored.
// Every decoder it opens is armed with the stream's GOP index. cachedSpec,
// when non-nil, is the specialized model's per-frame prediction from a
// persisted proxy score table; the cheap decode-everything pass is skipped
// entirely and the query's decode work is the sampled target pass alone
// (the scores are only passed in when they are bit-identical to what the
// pass would compute: the blob proxy at the chosen stream's fidelity).
func (s *Server) estimateMeanStream(ctx context.Context, str store.Stream, decOpts vid.DecodeOptions, ent *rtEntry, plan ServePlan, opts AggregateOpts, seek bool, cachedSpec []float64) (AggregateResult, error) {
	var specPreds []float64
	var frames []*img.Image
	var dstats vid.DecodeStats
	retain := false
	if cachedSpec != nil {
		specPreds = cachedSpec
	} else {
		dec, err := vid.NewDecoder(str.Data, decOpts)
		if err != nil {
			return AggregateResult{}, err
		}
		// The cheap full pass: decode every frame once and run the
		// specialized model. Streams whose decoded frames fit the retention
		// budget keep them resident for the sampled target invocations —
		// cheaper than even a GOP-indexed re-decode, which pays each
		// sample's intra-GOP prefix; past it the pass recycles one output
		// image and the oracle re-decodes on demand instead, keeping memory
		// bounded regardless of stream length or frame size (with GOP seek
		// the re-decode is O(GOP) per sample, without it a sequential
		// re-decode is the honest random-access cost).
		retain = dec.NumFrames()*dec.Width()*dec.Height()*3 <= aggRetainBytes
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
	seeker := &frameSeeker{str: str, opts: decOpts, seek: seek}
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

// aggRetainBytes bounds the decoded RGB bytes an aggregation query keeps
// resident for its sampled pass (~40 frames of 1080p at ~6.2MB each);
// larger streams re-decode sampled frames instead. A var so tests can force
// the re-decode path on short clips.
var aggRetainBytes = 256 << 20

// frameSeeker provides random access to a video stream for the sampled
// target pass. With seek set, one resident decoder jumps to each request
// through the stream's GOP index — backward requests included, so the
// decoder is never rebuilt. Without it, requests at or past the current position decode
// forward (Skip elides RGB conversion for the frames in between) and
// requests behind it restart the decoder. One output image is recycled —
// the caller consumes each frame synchronously before asking for the next.
type frameSeeker struct {
	str  store.Stream
	opts vid.DecodeOptions
	seek bool
	dec  *vid.Decoder
	pos  int // index of the next frame the decoder will produce
	dst  *img.Image
	acc  vid.DecodeStats // work of decoders already discarded by restarts
}

func (s *frameSeeker) frameAt(ctx context.Context, f int) (*img.Image, error) {
	if s.dec == nil || (!s.seek && f < s.pos) {
		if s.dec != nil {
			s.acc.Add(s.dec.Stats())
		}
		dec, err := vid.NewDecoder(s.str.Data, s.opts)
		if err != nil {
			return nil, err
		}
		if err := dec.SetGOPIndex(s.str.Index); err != nil {
			return nil, err
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
