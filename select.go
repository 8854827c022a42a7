package smol

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"smol/internal/blazeit"
	"smol/internal/codec/vid"
	"smol/internal/engine"
	"smol/internal/img"
	"smol/internal/store"
)

// SelectOpts describes a BlazeIt-style LIMIT selection query: "the first
// Limit frames where the model says Class", restricted to frames whose
// proxy class confidence is at least MinConf.
type SelectOpts struct {
	// Class is the predicted class a frame must have to match.
	Class int
	// MinConf, in [0, 1], is the proxy confidence floor: sampled frames
	// whose proxy class score falls below it are excluded from the query's
	// result outright (and, in the cascade, never decoded or verified).
	// Zero keeps every sampled frame eligible.
	MinConf float64
	// Limit caps the number of returned frames (0 = all matching frames).
	// Matches are kept in descending proxy-confidence order, so the
	// cascade's early termination and the full-scan oracle agree on which
	// Limit frames win.
	Limit int
	// Stride samples every Stride-th frame (0 or 1 = every frame).
	Stride int
	// QoS constrains the verification plan (zero = maximum throughput).
	QoS QoS
	// Deblock forces the verification decode fidelity (default DeblockAuto).
	Deblock DeblockMode
}

// SelectPlan describes the chosen two-stage cascade.
type SelectPlan struct {
	// Proxy names the stage-1 scoring model: blazeit.BlobProxyName or a
	// zoo entry name.
	Proxy string
	// ProxyStream is the rendition the proxy scores.
	ProxyStream int
	// ProxyCached reports that a persisted score table made the proxy pass
	// free at planning time.
	ProxyCached bool
	// Verify is the stage-2 verification plan (entry, rendition, decode
	// fidelity) — the same plan the full-scan oracle uses.
	Verify ServePlan
	// PredictedVerifications is the planner's estimate of stage-2 work.
	PredictedVerifications float64
	// PredictedCostUS is the modeled whole-query cost (costmodel.SelectCostUS).
	PredictedCostUS float64
}

func (p SelectPlan) String() string {
	cached := ""
	if p.ProxyCached {
		cached = ", cached"
	}
	return fmt.Sprintf("proxy %s on stream %d%s -> verify [%s] (~%.0f verifications, ~%.0fus)",
		p.Proxy, p.ProxyStream, cached, p.Verify, p.PredictedVerifications, p.PredictedCostUS)
}

// SelectResult reports a selection query's answer and its cost counters.
type SelectResult struct {
	// Frames are the matching frame indices, ascending. With Limit set
	// they are the Limit highest-proxy-confidence matches.
	Frames []int
	// Scores are the proxy class confidences of Frames, index-aligned.
	Scores []float64
	// ProxyInvocations counts stage-1 proxy scorings this query ran (0
	// when a persisted score table answered the proxy pass).
	ProxyInvocations int
	// OracleInvocations counts stage-2 full-model verifications — the
	// cost the cascade exists to minimize.
	OracleInvocations int
	// GOPsTouched counts the distinct GOPs the verification stage decoded
	// from; GOPsTotal is the chosen stream's GOP count. Their ratio is the
	// predicate pushdown: GOPs whose proxy score bound falls below MinConf
	// are never touched.
	GOPsTouched int
	GOPsTotal   int
	// ScoresCached reports that the proxy scores came from a persisted
	// score table rather than a live pass.
	ScoresCached bool
	// Plan is the cascade the planner chose.
	Plan SelectPlan
	// Stats aggregates the engine-side work across the query's pipeline
	// submissions.
	Stats engine.Stats
	// Decode aggregates the decoder work across the proxy pass (if live)
	// and the verification stage.
	Decode VideoDecodeStats
}

// SelectVideo answers a selection query over an indexed video with a
// two-stage proxy cascade. Stage 1 scores every frame with a cheap proxy —
// from a persisted score table when one exists, otherwise by one live pass
// over the planner's chosen rendition (persisted afterwards when the video
// lives in a MediaStore, so repeat queries skip it; an IndexVideo handle
// has no store and scores live on every call). Stage 2 ranks the frames
// that survive MinConf by proxy confidence and verifies them through the
// warm engine in batches, descending, seeking only the GOPs the candidates
// live in and stopping as soon as Limit frames are confirmed — decode and
// inference work scale with Limit and proxy selectivity, not stream
// length.
//
// With RuntimeConfig.DisableProxyCascade (or DisableGOPSeek, which removes
// the index the cascade seeks with) the query verifies every sampled frame
// instead, sampled as ClassifyVideoStored samples them (the GOP fan-out, or
// one sequential decoder under DisableGOPSeek). That path is the
// equivalence oracle: it returns exactly the same frame set, because
// matching is defined by the same deterministic predicate and ordering in
// both paths.
func (s *Server) SelectVideo(ctx context.Context, v *StoredVideo, opts SelectOpts) (SelectResult, error) {
	streams, infos, err := v.streams()
	if err != nil {
		return SelectResult{}, err
	}
	if opts.Class < 0 {
		return SelectResult{}, fmt.Errorf("smol: negative selection class %d", opts.Class)
	}
	if opts.MinConf < 0 || opts.MinConf > 1 {
		return SelectResult{}, fmt.Errorf("smol: selection confidence floor %g outside [0, 1]", opts.MinConf)
	}
	stride := max(opts.Stride, 1)
	cached := make(map[streamProxy]bool)
	if v.st != nil {
		for _, ref := range v.st.ScoredProxies(v.v.Name) {
			cached[streamProxy{stream: ref.Stream, proxy: ref.Proxy}] = true
		}
	}
	sel, err := s.rt.planSelect(infos, opts.QoS, stride, opts.Deblock, opts.Limit, opts.MinConf, cached)
	if err != nil {
		return SelectResult{}, err
	}
	verifyStr := streams[sel.choice.stream]
	res := SelectResult{
		Plan:      sel.plan,
		GOPsTotal: len(verifyStr.Index),
	}
	raw, gmin, gmax, err := s.proxyScores(ctx, v, streams[sel.plan.ProxyStream], sel, &res)
	if err != nil {
		return SelectResult{}, err
	}
	decOpts := vid.DecodeOptions{DisableDeblock: !sel.choice.deblock}
	var matched []blazeit.Candidate
	if s.rt.cfg.DisableProxyCascade || s.rt.cfg.DisableGOPSeek {
		matched, err = s.selectFullScan(ctx, verifyStr, sel.entry, decOpts, raw, stride, opts, &res)
	} else {
		cands := selectCandidates(raw, gmin, gmax, verifyStr.Index, stride, opts.Class, opts.MinConf)
		blazeit.RankCandidates(cands)
		matched, err = s.selectCascade(ctx, verifyStr, sel.entry, decOpts, cands, opts, &res)
	}
	if err != nil {
		return SelectResult{}, err
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].Frame < matched[j].Frame })
	res.Frames = make([]int, len(matched))
	res.Scores = make([]float64, len(matched))
	for i, c := range matched {
		res.Frames[i] = c.Frame
		res.Scores[i] = c.Score
	}
	return res, nil
}

// proxyScores obtains the raw proxy scores and per-GOP summaries for the
// planned proxy: from the persisted score table when one exists, otherwise
// by a live pass that is then persisted best-effort (the table is pure
// acceleration state — a failed persist only costs the next query a
// re-score).
func (s *Server) proxyScores(ctx context.Context, v *StoredVideo, str store.Stream, sel selectSelection, res *SelectResult) (raw, gmin, gmax []float64, err error) {
	if v.st != nil {
		if t, ok := v.st.Scores(v.v.Name, sel.plan.ProxyStream, sel.plan.Proxy); ok {
			res.ScoresCached = true
			return t.Frames, t.GOPMin, t.GOPMax, nil
		}
	}
	if sel.proxyEnt == nil {
		var dstats vid.DecodeStats
		raw, dstats, err = store.BlobScores(str)
		if err != nil {
			return nil, nil, nil, err
		}
		res.Decode.Add(dstats)
	} else {
		// A zoo-entry proxy scores by classifying every frame through the
		// warm engine; the raw score is the predicted class.
		vres, cerr := s.classifyStream(ctx, str, sel.proxyEnt, ServePlan{}, 1, vid.DecodeOptions{}, false)
		if cerr != nil {
			return nil, nil, nil, cerr
		}
		raw = make([]float64, len(vres.Predictions))
		for i, p := range vres.Predictions {
			raw[i] = float64(p)
		}
		res.Decode.Add(vres.Decode)
		addEngineStats(&res.Stats, vres.Stats)
	}
	res.ProxyInvocations = len(raw)
	if v.st != nil {
		if t, perr := v.st.PutScores(v.v.Name, sel.plan.ProxyStream, sel.plan.Proxy, raw); perr == nil {
			return t.Frames, t.GOPMin, t.GOPMax, nil
		}
	}
	gmin, gmax = gopScoreBounds(raw, str.Index)
	return raw, gmin, gmax, nil
}

// gopScoreBounds computes per-GOP raw score ranges for a live pass whose
// persist did not go through.
func gopScoreBounds(raw []float64, index []vid.GOPEntry) (gmin, gmax []float64) {
	gmin = make([]float64, len(index))
	gmax = make([]float64, len(index))
	for g, e := range index {
		lo, hi := raw[e.FirstFrame], raw[e.FirstFrame]
		for f := e.FirstFrame + 1; f < e.FirstFrame+e.Frames; f++ {
			if raw[f] < lo {
				lo = raw[f]
			}
			if raw[f] > hi {
				hi = raw[f]
			}
		}
		gmin[g], gmax[g] = lo, hi
	}
	return gmin, gmax
}

// selectCandidates collects the sampled frames surviving the proxy
// confidence floor, GOP by GOP: a GOP whose raw score range bounds every
// frame's class confidence below the floor is skipped without touching its
// per-frame scores — the in-memory mirror of the pushdown the verification
// stage applies to decode work.
func selectCandidates(raw, gmin, gmax []float64, index []vid.GOPEntry, stride, class int, minConf float64) []blazeit.Candidate {
	var cands []blazeit.Candidate
	for g, e := range index {
		if blazeit.ClassScoreBound(gmin[g], gmax[g], class) < minConf {
			continue
		}
		first := ((e.FirstFrame + stride - 1) / stride) * stride
		for f := first; f < e.FirstFrame+e.Frames; f += stride {
			if sc := blazeit.ClassScore(raw[f], class); sc >= minConf {
				cands = append(cands, blazeit.Candidate{Frame: f, Score: sc})
			}
		}
	}
	return cands
}

// selectVerifier decodes ranked candidates for verification: one resident
// decoder armed with the stream's GOP index, seeking straight to each
// candidate's GOP prefix. Ownership of each decoded image transfers to the
// request (the prep worker recycles it into framePool), and a warm
// verifier allocates nothing.
type selectVerifier struct {
	dec *vid.Decoder
	cr  *classifyReq
}

//smol:owns
//smol:noalloc
func (v *selectVerifier) decodeCandidate(slot, frame int) error {
	if err := v.dec.SeekFrame(frame); err != nil {
		return err
	}
	dst, _ := v.cr.framePool.Get().(*img.Image)
	m, err := v.dec.NextInto(dst)
	if err != nil {
		//smol:coldpath decode failure returns the pooled frame
		if dst != nil {
			v.cr.framePool.Put(dst)
		}
		return err
	}
	v.cr.frames[slot] = m
	return nil
}

// selectVerifyBatch is how many ranked candidates selectCascade verifies
// per engine submission before it re-checks the early-termination
// condition: small enough to stop close to exactly Limit confirmations,
// large enough to amortize the per-request pipeline overhead.
const selectVerifyBatch = 16

// selectCascade is stage 2: verify ranked candidates through the warm
// engine in batches, descending by proxy confidence, decoding only the
// GOPs the candidates live in, until Limit frames are confirmed. Confirmed
// candidates accumulate in rank order, so truncating to Limit yields
// exactly the top-K the full-scan oracle would return.
func (s *Server) selectCascade(ctx context.Context, str store.Stream, ent *rtEntry, decOpts vid.DecodeOptions, cands []blazeit.Candidate, opts SelectOpts, res *SelectResult) ([]blazeit.Candidate, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	dec, err := vid.NewDecoder(str.Data, decOpts)
	if err != nil {
		return nil, err
	}
	if err := dec.SetGOPIndex(str.Index); err != nil {
		return nil, err
	}
	batch := selectVerifyBatch
	cr := &classifyReq{
		frames:    make([]*img.Image, batch),
		framePool: &sync.Pool{},
		preds:     make([]int, batch),
		entry:     ent,
	}
	ver := &selectVerifier{dec: dec, cr: cr}
	touched := make([]bool, len(str.Index))
	jobs := make([]engine.Job, 0, batch)
	var confirmed []blazeit.Candidate
	for start := 0; start < len(cands); start += batch {
		end := start + batch
		if end > len(cands) {
			end = len(cands)
		}
		jobs = jobs[:0]
		for i, c := range cands[start:end] {
			if err := ver.decodeCandidate(i, c.Frame); err != nil {
				return nil, err
			}
			if g := gopOf(str.Index, c.Frame); !touched[g] {
				touched[g] = true
				res.GOPsTouched++
			}
			jobs = append(jobs, engine.Job{Index: i, Tag: cr, Class: ent.class})
		}
		stats, err := s.pipe.Process(ctx, engine.SliceSource(jobs))
		if err != nil {
			return nil, err
		}
		addEngineStats(&res.Stats, stats)
		res.OracleInvocations += len(jobs)
		for i := range jobs {
			if cr.preds[i] == opts.Class {
				confirmed = append(confirmed, cands[start+i])
			}
		}
		if opts.Limit > 0 && len(confirmed) >= opts.Limit {
			break
		}
	}
	if opts.Limit > 0 && len(confirmed) > opts.Limit {
		confirmed = confirmed[:opts.Limit]
	}
	res.Decode.Add(dec.Stats())
	return confirmed, nil
}

// selectFullScan is the equivalence oracle: verify every sampled frame
// with the chosen entry, then apply the same predicate (proxy confidence
// floor + predicted class) and the same descending-confidence top-K the
// cascade uses. It samples the stream the way ClassifyVideoStored does
// (the GOP fan-out, or the sequential decoder under DisableGOPSeek) and
// invokes the full model once per sampled frame, which is exactly the work
// the cascade avoids.
func (s *Server) selectFullScan(ctx context.Context, str store.Stream, ent *rtEntry, decOpts vid.DecodeOptions, raw []float64, stride int, opts SelectOpts, res *SelectResult) ([]blazeit.Candidate, error) {
	seek := !s.rt.cfg.DisableGOPSeek
	vres, err := s.classifyStream(ctx, str, ent, ServePlan{}, stride, decOpts, seek)
	if err != nil {
		return nil, err
	}
	addEngineStats(&res.Stats, vres.Stats)
	res.Decode.Add(vres.Decode)
	res.OracleInvocations += len(vres.Predictions)
	if n := len(vres.Predictions); n > 0 {
		last := (n - 1) * stride
		if seek {
			// Seeking touches each sample's GOP; samples are ascending, so
			// distinct GOPs are the transitions.
			prev := -1
			for i := 0; i < n; i++ {
				if g := gopOf(str.Index, i*stride); g != prev {
					res.GOPsTouched++
					prev = g
				}
			}
		} else {
			// Sequential decode enters every GOP up to the last sample.
			res.GOPsTouched += gopOf(str.Index, last) + 1
		}
	}
	var matched []blazeit.Candidate
	for i, p := range vres.Predictions {
		f := i * stride
		if p != opts.Class {
			continue
		}
		if sc := blazeit.ClassScore(raw[f], opts.Class); sc >= opts.MinConf {
			matched = append(matched, blazeit.Candidate{Frame: f, Score: sc})
		}
	}
	blazeit.RankCandidates(matched)
	if opts.Limit > 0 && len(matched) > opts.Limit {
		matched = matched[:opts.Limit]
	}
	return matched, nil
}

// gopOf locates the GOP containing frame f in a contiguous GOP index.
func gopOf(index []vid.GOPEntry, f int) int {
	return sort.Search(len(index), func(g int) bool {
		return index[g].FirstFrame+index[g].Frames > f
	})
}

// addEngineStats merges one pipeline submission's stats into a query-level
// aggregate: batch and image counts add, latencies combine (weighted mean,
// max of max), and the pipeline-lifetime counters keep the latest snapshot.
func addEngineStats(dst *engine.Stats, s engine.Stats) {
	if total := dst.Images + s.Images; total > 0 {
		dst.MeanLatency = time.Duration(
			(int64(dst.MeanLatency)*int64(dst.Images) + int64(s.MeanLatency)*int64(s.Images)) / int64(total))
	}
	dst.Images += s.Images
	dst.Batches += s.Batches
	dst.Elapsed += s.Elapsed
	if s.MaxLatency > dst.MaxLatency {
		dst.MaxLatency = s.MaxLatency
	}
	dst.QueueFullStalls = s.QueueFullStalls
	dst.PoolAllocs = s.PoolAllocs
	dst.PoolReuses = s.PoolReuses
	if dst.Elapsed > 0 {
		dst.Throughput = float64(dst.Images) / dst.Elapsed.Seconds()
	}
}
