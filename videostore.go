package smol

import (
	"context"
	"fmt"
	"sync"

	"smol/internal/blazeit"
	"smol/internal/codec/vid"
	"smol/internal/engine"
	"smol/internal/img"
	"smol/internal/store"
)

// IngestOptions re-exports the media store's ingest configuration
// (rendition short edges and encoder quality).
type IngestOptions = store.IngestOptions

// MediaStore is the durable, indexed home for video streams the serving
// stack samples from. Ingest writes each stream exactly once, scans and
// persists its GOP table in a sidecar, and optionally materializes
// low-resolution renditions (the planner prices them through
// ServePlan.Stream, exactly like the renditions passed to IndexVideo).
// Ingest is crash-safe: a write-ahead journal brackets every ingest, and
// Open removes the files of any ingest that did not reach its commit
// record.
//
// The payoff is at query time: store-backed requests skip the per-request
// header probe and index scan, and sampling seeks straight to the GOPs
// containing the sampled frames — decode work scales with the sample
// count, not the stream length.
type MediaStore struct {
	st *store.Store
}

// OpenMediaStore opens (creating if needed) the media store rooted at dir,
// recovering from any interrupted ingest.
func OpenMediaStore(dir string) (*MediaStore, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &MediaStore{st: st}, nil
}

// Close releases the store's journal handle. Open StoredVideo handles
// remain usable — their bytes are resident.
func (ms *MediaStore) Close() error { return ms.st.Close() }

// Dir returns the store's root directory.
func (ms *MediaStore) Dir() string { return ms.st.Dir() }

// IngestVideo durably adds an SVID stream under name: the stream and its
// renditions are written once, each with its GOP index persisted alongside.
func (ms *MediaStore) IngestVideo(name string, stream []byte, opts IngestOptions) (*StoredVideo, error) {
	v, err := ms.st.Ingest(name, stream, opts)
	if err != nil {
		return nil, err
	}
	return &StoredVideo{st: ms.st, v: v}, nil
}

// Video looks up an ingested video by name.
func (ms *MediaStore) Video(name string) (*StoredVideo, bool) {
	v, ok := ms.st.Video(name)
	if !ok {
		return nil, false
	}
	return &StoredVideo{st: ms.st, v: v}, true
}

// Names lists the ingested videos in sorted order.
func (ms *MediaStore) Names() []string { return ms.st.Names() }

// Len reports how many videos the store holds.
func (ms *MediaStore) Len() int { return ms.st.Len() }

// StoredVideo is a handle to one indexed video: the primary stream plus its
// low-resolution renditions, each carrying its GOP index. A MediaStore hands
// out handles whose streams, GOP indexes and proxy score tables are
// persisted; IndexVideo builds an unnamed in-memory handle from raw bytes.
// Serve either with Server.ClassifyVideoStored, Server.SelectVideo, or
// Server.EstimateMeanStored.
type StoredVideo struct {
	// st is the owning store: queries read persisted proxy score tables
	// through it and lazily persist the tables they compute.
	st *store.Store
	v  *store.Video
}

// Name returns the video's store name.
func (v *StoredVideo) Name() string { return v.v.Name }

// Info returns the primary stream's probed geometry.
func (v *StoredVideo) Info() VideoInfo { return v.v.Primary.Info }

// IndexVideo indexes a raw SVID stream and its natively stored
// low-resolution renditions (the paper's natively-present low-resolution
// lever, e.g. a 480p proxy encoded alongside the full stream) into an
// in-memory StoredVideo with no owning store: one header probe and
// record-header scan per stream, no payload decode. Every rendition must
// share the primary's frame count. Nothing is persisted, and no proxy score
// table is read or written, so SelectVideo over the handle scores its proxy
// live on every call. ServePlan.Stream n > 0 names renditions[n-1].
func IndexVideo(stream []byte, renditions ...[]byte) (*StoredVideo, error) {
	v := &store.Video{}
	for i, data := range append([][]byte{stream}, renditions...) {
		str, err := store.IndexStream(data)
		if err != nil {
			return nil, fmt.Errorf("smol: indexing video stream %d: %w", i, err)
		}
		if i == 0 {
			v.Primary = str
			continue
		}
		if str.Info.Frames != v.Primary.Info.Frames {
			return nil, fmt.Errorf(
				"smol: rendition %d has %d frames, primary stream has %d — variants must share the primary's timeline",
				i, str.Info.Frames, v.Primary.Info.Frames)
		}
		v.Renditions = append(v.Renditions, str)
	}
	return &StoredVideo{v: v}, nil
}

// streams returns the video's streams in ServePlan.Stream order together
// with their probed headers, the planner's input.
func (v *StoredVideo) streams() ([]store.Stream, []vid.Info, error) {
	if v == nil || v.v == nil {
		return nil, nil, fmt.Errorf("smol: nil stored video")
	}
	streams := v.v.Streams()
	infos := make([]vid.Info, len(streams))
	for i, str := range streams {
		infos[i] = str.Info
	}
	return streams, infos, nil
}

// Renditions returns the geometry of each materialized low-resolution
// rendition, in ServePlan.Stream order (Stream n > 0 = Renditions()[n-1]).
func (v *StoredVideo) Renditions() []VideoInfo {
	out := make([]VideoInfo, len(v.v.Renditions))
	for i, r := range v.v.Renditions {
		out[i] = r.Info
	}
	return out
}

// ClassifyVideoStored serves a sampled-classification request over an
// indexed video. The planner chooses jointly across the zoo and the video's
// renditions; the chosen stream is then sampled through its GOP index: the
// request plans its sample positions up front, groups them by containing
// GOP, and fans disjoint GOPs across a bounded pool of resident decoders
// (min(GOMAXPROCS, 4)). Each GOP is an independent decode unit, so the
// workers reconstruct bit-identically to a sequential decode, and the
// frames still enter the shared warm engine in frame order. With
// RuntimeConfig.DisableGOPSeek the request falls back to the single-decoder
// sequential path over the same chosen stream — the equivalence oracle for
// this fan-out. Sampled frames flow through the same
// per-class tensor pools, batch streams and compiled forwards as
// still-image traffic, and may share batches with concurrent still-image
// requests routed to the same zoo entry.
func (s *Server) ClassifyVideoStored(ctx context.Context, v *StoredVideo, opts VideoOpts) (VideoResult, error) {
	streams, infos, err := v.streams()
	if err != nil {
		return VideoResult{}, err
	}
	stride := max(opts.Stride, 1)
	seek := !s.rt.cfg.DisableGOPSeek
	ent, choice, plan, err := s.rt.planVideoInfos(infos, opts.QoS, stride, opts.Deblock, seek)
	if err != nil {
		return VideoResult{}, err
	}
	decOpts := vid.DecodeOptions{DisableDeblock: !choice.deblock}
	return s.classifyStream(ctx, streams[choice.stream], ent, plan, stride, decOpts, seek)
}

// EstimateMeanStored answers a BlazeIt-style aggregation query (§3.2) over
// an indexed video: estimate the mean of the target model's per-frame
// prediction to within opts.ErrTarget, using the cheap specialized model
// (blazeit.BlobCounter on every decoded frame) as a control variate so the
// expensive target — the zoo entry the QoS target selects, executed
// through the warm pipeline — runs on as few frames as possible. For a zoo
// trained so that the class index is the per-frame object count, the
// estimate is the mean object count. The returned TargetInvocations is the
// query's cost driver: the better the specialized model tracks the target,
// the fewer samples the confidence interval needs (§8.4).
//
// The planner chooses among the video's renditions, and a persisted blob
// score table for the chosen stream replaces the cheap full pass. Decoded
// frames are retained for the sampled target pass while they fit the
// aggregation retention budget; past it each sampled frame is re-decoded
// through the GOP index at the cost of its intra-GOP prefix.
func (s *Server) EstimateMeanStored(ctx context.Context, v *StoredVideo, opts AggregateOpts) (AggregateResult, error) {
	streams, infos, err := v.streams()
	if err != nil {
		return AggregateResult{}, err
	}
	if opts.ErrTarget <= 0 {
		return AggregateResult{}, fmt.Errorf("smol: aggregation error target must be positive")
	}
	seek := !s.rt.cfg.DisableGOPSeek
	ent, choice, plan, err := s.rt.planVideoInfos(infos, opts.QoS, 1, opts.Deblock, seek)
	if err != nil {
		return AggregateResult{}, err
	}
	decOpts := vid.DecodeOptions{DisableDeblock: !choice.deblock}
	// A persisted blob score table for the chosen stream replaces the cheap
	// full pass outright: the persisted raw scores are bit-identical to
	// what the pass would compute (same counter, same full-fidelity
	// decode), so the estimator sees the same control variate while the
	// query decodes only its sampled target frames. Reduced-fidelity plans
	// keep the live pass — cached scores were computed with deblocking on.
	var cachedSpec []float64
	if choice.deblock && v.st != nil {
		if t, ok := v.st.Scores(v.v.Name, choice.stream, blazeit.BlobProxyName); ok {
			cachedSpec = t.Frames
		}
	}
	return s.estimateMeanStream(ctx, streams[choice.stream], decOpts, ent, plan, opts, seek, cachedSpec)
}

// gopTask is one unit of decode fan-out: the consecutive sampled frames
// that fall inside a single GOP, bound for slots firstSlot onward of the
// request. done closes when the owning worker has filled every slot (or
// recorded err), which is the happens-before edge the consumer relies on
// to read cr.frames race-free.
type gopTask struct {
	gop       int   // index entry of the GOP
	frames    []int // sampled frame indices, ascending, within one GOP
	firstSlot int   // request slot of frames[0]
	done      chan struct{}
	err       error
}

// gopTasks plans a request's sample positions (every stride-th frame) and
// groups them by containing GOP — the unit two decoders can work on
// independently. index must cover frames [0, nFrames) contiguously
// (store.IndexStream guarantees this for ingested and request streams alike).
func gopTasks(index []vid.GOPEntry, nFrames, stride int) []*gopTask {
	var tasks []*gopTask
	g, slot, curGOP := 0, 0, -1
	for f := 0; f < nFrames; f += stride {
		for index[g].FirstFrame+index[g].Frames <= f {
			g++
		}
		if g != curGOP {
			tasks = append(tasks, &gopTask{gop: g, firstSlot: slot, done: make(chan struct{})})
			curGOP = g
		}
		t := tasks[len(tasks)-1]
		t.frames = append(t.frames, f)
		slot++
	}
	return tasks
}

// gopWorker is one resident decoder of the fan-out pool. Its decoder is
// armed with the stream's GOP index, so every task starts with a direct
// seek — no worker ever decodes a frame outside the GOPs it is assigned.
type gopWorker struct {
	dec *vid.Decoder
	cr  *classifyReq
}

// decodeTask seeks to each sampled frame of one GOP and decodes it into a
// pooled image, publishing it in the task's request slots. Ownership of
// each image transfers to the request (the prep worker recycles it into
// framePool after preprocessing), and a warm worker allocates nothing —
// frames and decoder state all recycle. The task always enters its GOP by
// a seek, even when the worker's last task ended where this GOP begins, so
// the request's GOPSeeks counts its sampled GOPs whichever worker took
// which.
//
//smol:owns
//smol:noalloc
func (w *gopWorker) decodeTask(t *gopTask) error {
	if err := w.dec.SeekGOP(t.gop); err != nil {
		return err
	}
	for i, f := range t.frames {
		if err := w.dec.SeekFrame(f); err != nil {
			return err
		}
		dst, _ := w.cr.framePool.Get().(*img.Image)
		m, err := w.dec.NextInto(dst)
		if err != nil {
			//smol:coldpath decode failure returns the pooled frame
			if dst != nil {
				w.cr.framePool.Put(dst)
			}
			return err
		}
		w.cr.frames[t.firstSlot+i] = m
	}
	return nil
}

// orderedGOPSource feeds the engine from the fan-out pool while preserving
// frame order: tasks arrive on ordered in dispatch order, and the source
// blocks on each task's done channel before emitting its jobs — decode
// parallelism across GOPs, strict sample order into the shared batcher.
type orderedGOPSource struct {
	ctx     context.Context
	cr      *classifyReq
	class   int
	ordered <-chan *gopTask
	cur     *gopTask
	curIdx  int
}

// Next emits the next sampled frame's job once its GOP's worker has
// decoded it.
func (s *orderedGOPSource) Next() (engine.Job, bool, error) {
	for s.cur == nil || s.curIdx >= len(s.cur.frames) {
		select {
		case t, ok := <-s.ordered:
			if !ok {
				// The feeder also closes ordered when it stops early on
				// cancellation; that is not the end of the request.
				return engine.Job{}, false, s.ctx.Err()
			}
			s.cur, s.curIdx = t, 0
		case <-s.ctx.Done():
			return engine.Job{}, false, s.ctx.Err()
		}
		select {
		case <-s.cur.done:
		case <-s.ctx.Done():
			return engine.Job{}, false, s.ctx.Err()
		}
		if s.cur.err != nil {
			return engine.Job{}, false, s.cur.err
		}
	}
	i := s.cur.firstSlot + s.curIdx
	s.curIdx++
	return engine.Job{Index: i, Tag: s.cr, Class: s.class}, true, nil
}

// classifyParallelGOP is the GOP-seek sampling core: plan the sample
// positions, group them by GOP, fan the groups across a bounded pool of
// resident decoders, and stream the decoded frames into the warm engine in
// frame order. The feeder sends each task to the ordered queue before the
// work queue, so the ordered channel's buffer (one slot per worker) bounds
// how many decoded-but-unconsumed GOPs exist — backpressure from the
// engine paces the decode pool just as it paces the sequential path.
func (s *Server) classifyParallelGOP(ctx context.Context, cr *classifyReq, str store.Stream, stride int, decOpts vid.DecodeOptions) (engine.Stats, vid.DecodeStats, error) {
	tasks := gopTasks(str.Index, str.Info.Frames, stride)
	pool := make([]*gopWorker, min(s.rt.decodeWorkers, len(tasks)))
	for i := range pool {
		dec, err := vid.NewDecoder(str.Data, decOpts)
		if err != nil {
			return engine.Stats{}, vid.DecodeStats{}, err
		}
		if err := dec.SetGOPIndex(str.Index); err != nil {
			return engine.Stats{}, vid.DecodeStats{}, err
		}
		pool[i] = &gopWorker{dec: dec, cr: cr}
	}

	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	taskCh := make(chan *gopTask)
	ordered := make(chan *gopTask, max(len(pool), 1))
	go func() {
		defer close(taskCh)
		defer close(ordered)
		for _, t := range tasks {
			select {
			case ordered <- t:
			case <-ictx.Done():
				return
			}
			select {
			case taskCh <- t:
			case <-ictx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(len(pool))
	for _, w := range pool {
		go func(w *gopWorker) {
			defer wg.Done()
			for t := range taskCh {
				if err := ictx.Err(); err != nil {
					t.err = err
				} else {
					t.err = w.decodeTask(t)
				}
				close(t.done)
			}
		}(w)
	}

	src := &orderedGOPSource{ctx: ictx, cr: cr, class: cr.entry.class, ordered: ordered}
	stats, err := s.pipe.Process(ictx, src)
	cancel()
	wg.Wait()
	var dstats vid.DecodeStats
	for _, w := range pool {
		dstats.Add(w.dec.Stats())
	}
	// Each worker counts as bypassed every GOP it jumps over, including the
	// ones its siblings decode, so the sum depends on which worker took
	// which task. The request bypassed exactly the frames of its sampled
	// span that no worker decoded.
	if n := len(cr.preds); n > 0 {
		dstats.FramesBypassed = (n-1)*stride + 1 - dstats.FramesDecoded
	}
	return stats, dstats, err
}
