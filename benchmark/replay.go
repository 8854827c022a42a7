package main

import (
	"fmt"
	"sort"

	"smol"
	"smol/internal/blazeit"
	"smol/internal/codec/jpeg"
	"smol/internal/codec/spng"
	"smol/internal/codec/vid"
	"smol/internal/img"
	"smol/internal/nn"
	"smol/internal/preproc"
	"smol/internal/store"
	"smol/internal/tensor"
)

// Layer names, as in README.md: this repo's modules on the serving path.
const (
	layerSmol     = "smol"
	layerEngine   = "engine"
	layerJPEG     = "codec/jpeg"
	layerSPNG     = "codec/spng"
	layerVid      = "codec/vid"
	layerPreproc  = "preproc"
	layerNN       = "nn"
	layerTensor   = "tensor"
	layerStore    = "store"
	layerBlazeit  = "blazeit"
	layerReplay   = "replay" // the benchmark's own request and probe root spans
	engineBatch   = 8        // RuntimeConfig.BatchSize of every workload
	selectVerifyN = 16       // RuntimeConfig.SelectVerifyBatch default
)

// replayer re-executes served requests by hand, one public layer call at a
// time, from outside the root package: parse -> plan -> decode -> residual
// preprocessing -> forward. It mirrors the runtime's defaults (zero Mean,
// Std {1,1,1}, jpeg.SupportedScales() as the decode scales) and checks that
// it arrives at the plan the server reported. With a tracer every call is a
// span (the layer budget); without one the same code computes references.
type replayer struct {
	tr     *tracer
	models map[string]*nn.InferencePlan // zoo entry name -> compiled plan
	chains map[chainKey]preproc.Plan
	ex     *preproc.Executor
	dec    jpeg.Decoder
	buf    *img.Image // recycled JPEG output
	frame  *img.Image // recycled video frame

	// What the replays and probes counted, for layerValues: JPEGs decoded at
	// the served scale and their IDCT samples (exact), entropy bytes read by
	// the 1/8-scale floor decodes, primary-stream bytes the probe store
	// ingested, and the GEMM shape probed.
	jpegImages, idctSamples int
	floorBytes, ingestBytes int
	gemm                    gemmShape
}

type chainKey struct {
	w, h, res int
	scaled    bool
}

// newReplayer compiles each zoo model the way NewZooRuntime does.
func newReplayer(tr *tracer, models map[string]*nn.Model) (*replayer, error) {
	r := &replayer{tr: tr, models: map[string]*nn.InferencePlan{},
		chains: map[chainKey]preproc.Plan{}, ex: preproc.NewExecutor()}
	for name, m := range models {
		plan, err := nn.Compile(m)
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", name, err)
		}
		r.models[name] = plan
	}
	return r, nil
}

// chain compiles (once per input class, like the runtime's ingest cache)
// the joint decode-scale + preprocessing plan for a w x h input headed for
// a res x res model; scaled offers the JPEG decode scales.
func (r *replayer) chain(w, h, res int, scaled bool) (preproc.Plan, error) {
	key := chainKey{w, h, res, scaled}
	if p, ok := r.chains[key]; ok {
		return p, nil
	}
	var scales []int
	if scaled {
		scales = jpeg.SupportedScales()
	}
	p, err := preproc.Optimize(preproc.ServeSpec(w, h, res, [3]float32{}, [3]float32{1, 1, 1}, scales))
	if err != nil {
		return preproc.Plan{}, err
	}
	r.chains[key] = p
	return p, nil
}

// checkPlan fails loudly when the hand-assembled chain is not the one the
// server said it ran: the replay would then be timing different work.
func checkPlan(chain preproc.Plan, sp smol.ServePlan) error {
	if chain.DecodeScale() != sp.DecodeScale || chain.Describe() != sp.Preproc {
		return fmt.Errorf("replay diverged from the served plan: replay decodes 1/%d then %s, server reported 1/%d then %s",
			chain.DecodeScale(), chain.Describe(), sp.DecodeScale, sp.Preproc)
	}
	return nil
}

// forward runs the entry's compiled plan over the first n samples of batch.
func (r *replayer) forward(parent int, entry string, batch *tensor.Tensor, n int, preds []int) error {
	plan := r.models[entry]
	if plan == nil {
		return fmt.Errorf("replay has no model for zoo entry %q", entry)
	}
	res := batch.Shape[2]
	x := tensor.FromData(batch.Data[:n*3*res*res], n, 3, res, res)
	r.tr.call(parent, layerNN, "nn.forward", func() { plan.PredictInto(x, preds[:n]) })
	return nil
}

// sample returns the view of batch that holds sample i.
func sample(batch *tensor.Tensor, i int) *tensor.Tensor {
	res := batch.Shape[2]
	sz := 3 * res * res
	return tensor.FromData(batch.Data[i*sz:(i+1)*sz], 3, res, res)
}

// still replays one still-image request and returns its predictions.
func (r *replayer) still(parent int, inputs []smol.MediaInput, sp smol.ServePlan) ([]int, error) {
	res := sp.InputRes
	batch := tensor.New(len(inputs), 3, res, res)
	for i, in := range inputs {
		var m *img.Image
		var err error
		scaled := in.Codec == smol.CodecJPEG
		switch in.Codec {
		case smol.CodecJPEG:
			r.tr.call(parent, layerJPEG, "jpeg.parse", func() { _, _, err = r.dec.Parse(in.Data) })
			if err != nil {
				return nil, err
			}
			var stats *jpeg.DecodeStats
			r.tr.call(parent, layerJPEG, "jpeg.decode", func() {
				m, _, stats, err = r.dec.Decode(jpeg.DecodeOptions{Scale: sp.DecodeScale, Dst: r.buf})
			})
			if err != nil {
				return nil, err
			}
			r.buf = m
			r.jpegImages++
			r.idctSamples += stats.IDCTSamples
		case smol.CodecPNG:
			r.tr.call(parent, layerSPNG, "spng.decode", func() { m, err = spng.Decode(in.Data) })
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("replay: codec %v is not a still image", in.Codec)
		}
		w, h := m.W, m.H
		if scaled {
			w, h = r.dec.Size()
		}
		chain, err := r.chain(w, h, res, scaled)
		if err != nil {
			return nil, err
		}
		if err := checkPlan(chain, sp); err != nil {
			return nil, err
		}
		r.tr.call(parent, layerPreproc, "preproc.execute", func() {
			err = r.ex.Execute(chain.ResidualAfterDecode(), m, sample(batch, i))
		})
		if err != nil {
			return nil, err
		}
	}
	preds := make([]int, len(inputs))
	for lo := 0; lo < len(inputs); lo += engineBatch {
		n := min(engineBatch, len(inputs)-lo)
		x := tensor.FromData(batch.Data[lo*3*res*res:], len(inputs)-lo, 3, res, res)
		if err := r.forward(parent, sp.Entry, x, n, preds[lo:]); err != nil {
			return nil, err
		}
	}
	return preds, nil
}

// videoFrame decodes frame f of the decoder's stream into the recycled
// frame (seeking through the GOP index when seek is set; the caller has
// otherwise positioned the decoder by skipping) and preprocesses it into
// out.
func (r *replayer) videoFrame(parent int, dec *vid.Decoder, f int, seek bool, sp smol.ServePlan, out *tensor.Tensor) error {
	var err error
	if seek {
		r.tr.call(parent, layerVid, "vid.seek", func() { err = dec.SeekFrame(f) })
		if err != nil {
			return err
		}
	}
	var m *img.Image
	r.tr.call(parent, layerVid, "vid.decode", func() { m, err = dec.NextInto(r.frame) })
	if err != nil {
		return err
	}
	r.frame = m
	chain, err := r.chain(m.W, m.H, sp.InputRes, false)
	if err != nil {
		return err
	}
	if err := checkPlan(chain, sp); err != nil {
		return err
	}
	r.tr.call(parent, layerPreproc, "preproc.execute", func() { err = r.ex.Execute(chain, m, out) })
	return err
}

// openStream opens a resident decoder on the rendition a video plan chose.
func openStream(v *store.Video, sp smol.ServePlan) (*vid.Decoder, store.Stream, error) {
	streams := v.Streams()
	if sp.Stream < 0 || sp.Stream >= len(streams) {
		return nil, store.Stream{}, fmt.Errorf("replay: plan names stream %d, video has %d", sp.Stream, len(streams))
	}
	str := streams[sp.Stream]
	dec, err := vid.NewDecoder(str.Data, vid.DecodeOptions{DisableDeblock: !sp.Deblock})
	if err != nil {
		return nil, store.Stream{}, err
	}
	return dec, str, dec.SetGOPIndex(str.Index)
}

// video replays one sampled-classification request over a stored video and
// returns the prediction of every stride-th frame. With seek it mirrors the
// server (a seek per sample); without, it decodes the stream front to back,
// skipping unsampled frames — the independent route the reference takes.
func (r *replayer) video(parent int, v *store.Video, sp smol.ServePlan, stride int, seek bool) ([]int, error) {
	dec, str, err := openStream(v, sp)
	if err != nil {
		return nil, err
	}
	n := (str.Info.Frames + stride - 1) / stride
	preds := make([]int, n)
	batch := tensor.New(engineBatch, 3, sp.InputRes, sp.InputRes)
	pos := 0 // next frame a sequential decoder produces
	for lo := 0; lo < n; lo += engineBatch {
		cnt := min(engineBatch, n-lo)
		for i := 0; i < cnt; i++ {
			f := (lo + i) * stride
			for ; !seek && pos < f; pos++ {
				if err := dec.Skip(); err != nil {
					return nil, err
				}
			}
			if err := r.videoFrame(parent, dec, f, seek, sp, sample(batch, i)); err != nil {
				return nil, err
			}
			pos = f + 1
		}
		if err := r.forward(parent, sp.Entry, batch, cnt, preds[lo:]); err != nil {
			return nil, err
		}
	}
	return preds, nil
}

// selectQuery replays one LIMIT selection query the way the cascade runs
// it: read the persisted proxy scores, rank the frames that survive the
// confidence floor (pruning whole GOPs by their score bounds), then seek,
// decode and verify candidates in rank order, a verify batch at a time,
// until Limit are confirmed. It returns the matching frames, ascending.
func (r *replayer) selectQuery(parent int, st *store.Store, v *store.Video, sp smol.SelectPlan, opts smol.SelectOpts) ([]int, error) {
	var table *store.ScoreTable
	var ok bool
	r.tr.call(parent, layerStore, "store.scores_get", func() {
		table, ok = st.Scores(v.Name, sp.ProxyStream, sp.Proxy)
	})
	if !ok {
		return nil, fmt.Errorf("replay: no persisted %s scores for %s stream %d", sp.Proxy, v.Name, sp.ProxyStream)
	}
	dec, str, err := openStream(v, sp.Verify)
	if err != nil {
		return nil, err
	}
	var cands []blazeit.Candidate
	r.tr.call(parent, layerBlazeit, "blazeit.rank", func() {
		cands = rankedCandidates(table, str.Index, opts)
	})
	res := sp.Verify.InputRes
	batch := tensor.New(selectVerifyN, 3, res, res)
	preds := make([]int, selectVerifyN)
	var confirmed []int
	for lo := 0; lo < len(cands); lo += selectVerifyN {
		cnt := min(selectVerifyN, len(cands)-lo)
		for i := 0; i < cnt; i++ {
			if err := r.videoFrame(parent, dec, cands[lo+i].Frame, true, sp.Verify, sample(batch, i)); err != nil {
				return nil, err
			}
		}
		for b := 0; b < cnt; b += engineBatch {
			x := tensor.FromData(batch.Data[b*3*res*res:], selectVerifyN-b, 3, res, res)
			if err := r.forward(parent, sp.Verify.Entry, x, min(engineBatch, cnt-b), preds[b:]); err != nil {
				return nil, err
			}
		}
		for i := 0; i < cnt; i++ {
			if preds[i] == opts.Class {
				confirmed = append(confirmed, cands[lo+i].Frame)
			}
		}
		if opts.Limit > 0 && len(confirmed) >= opts.Limit {
			confirmed = confirmed[:opts.Limit]
			break
		}
	}
	sort.Ints(confirmed)
	return confirmed, nil
}

// rankedCandidates lists, in verification order, the frames whose proxy
// class confidence reaches the floor, skipping GOPs whose score bounds rule
// every frame out.
func rankedCandidates(t *store.ScoreTable, index []vid.GOPEntry, opts smol.SelectOpts) []blazeit.Candidate {
	var cands []blazeit.Candidate
	for g, e := range index {
		if blazeit.ClassScoreBound(t.GOPMin[g], t.GOPMax[g], opts.Class) < opts.MinConf {
			continue
		}
		for f := e.FirstFrame; f < e.FirstFrame+e.Frames; f++ {
			if sc := blazeit.ClassScore(t.Frames[f], opts.Class); sc >= opts.MinConf {
				cands = append(cands, blazeit.Candidate{Frame: f, Score: sc})
			}
		}
	}
	blazeit.RankCandidates(cands)
	return cands
}
