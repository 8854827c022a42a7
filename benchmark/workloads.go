package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"smol"
	"smol/internal/nn"
	"smol/internal/store"
)

// workload is one named traffic mix: its inputs, the server it is served
// by, its reference outputs, and the hand replay that yields its layer
// budget. README.md records why each exists.
type workload interface {
	// clients is the closed loop's caller count (never above nproc).
	clients() int
	// gen builds every input from the seed; digest fingerprints them.
	gen(seed int64) error
	digest() string
	// setup brings the system under test from inputs in memory to a warm
	// server: store + ingest, runtime, Serve, one request per plan. dir is
	// a fresh directory for anything it persists.
	setup(dir string) error
	teardown()
	// reference computes the outputs every later request is checked
	// against; breakReference corrupts one of them (the oracle's self-test).
	reference() error
	breakReference()
	// do serves request number req and checks it.
	do(ctx context.Context, req int) outcome
	// layers runs the traced run's serial part: a census of the first
	// requests through the server, their hand replay, and the layer probes.
	layers(t *layerRun) error
}

// layerRun is the state of a traced run's serial part: the tracer and
// scratch space going in, and what cannot be read back out of spans coming
// out.
type layerRun struct {
	tr   *tracer
	dir  string
	seed int64

	rp          *replayer  // holds what the replays and probes counted
	census      loopResult // the first requests, served one at a time
	replayItems int        // items the hand replay covered
}

var workloadNames = []string{"still-hd", "still-thumb", "video-sample", "video-select"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "still-hd":
		// 3:1 full-HD to 720p, spread so each client sees both classes.
		return &stillWorkload{name: name, mix: []int{0, 0, 1, 0, 0, 0, 0, 1}}, nil
	case "still-thumb":
		return &stillWorkload{name: name, mix: []int{0}, qos: smol.QoS{MinAccuracy: 0.95}}, nil
	case "video-sample":
		return &sampleWorkload{}, nil
	case "video-select":
		return &selectWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// capClients keeps the client count within the machine's processors.
func capClients(n int) int { return min(n, runtime.NumCPU()) }

// planID names the plan that served a request, for serve.plans_seen.
func planID(p smol.ServePlan) string {
	return fmt.Sprintf("%s on %s 1/%d stream %d deblock %v", p.Entry, p.InputFormat, p.DecodeScale, p.Stream, p.Deblock)
}

func planOutcome(o *outcome, p smol.ServePlan) {
	o.accuracy = p.Accuracy
	o.plan = planID(p)
	o.predTput = p.PredictedThroughput
	o.predLatUS = p.PredictedLatencyUS
}

// compare counts positions where got differs from want (a length mismatch
// counts every position of the longer slice).
func compare(got, want []int) (checked, mismatched int) {
	checked = max(len(got), len(want))
	for i := 0; i < checked; i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			mismatched++
		}
	}
	return checked, mismatched
}

// censusAndReplay serves the first n requests one at a time (a span each,
// their counters kept), then replays each by hand under its own request
// span. replay returns how many items it covered.
func censusAndReplay(t *layerRun, w workload, n int, replay func(parent, req int) (int, error)) error {
	ctx := context.Background()
	t.census = loopResult{planItems: map[string]int{}, planTput: map[string]float64{}}
	for req := 0; req < n; req++ {
		id := t.tr.begin(0, req, 0, layerSmol, "serve.census")
		start := time.Now()
		o := w.do(ctx, req)
		t.census.add(o, time.Since(start))
		t.tr.end(id)
		if o.failed() {
			return fmt.Errorf("census request %d failed: %v", req, o.err)
		}
	}
	for req := 0; req < n; req++ {
		id := t.tr.begin(0, req, 0, layerReplay, "replay.request")
		items, err := replay(id, req)
		t.tr.end(id)
		if err != nil {
			return fmt.Errorf("replaying request %d: %w", req, err)
		}
		t.replayItems += items
	}
	return nil
}

// minimalPairs times the smallest request the workload can make, served
// and then replayed, a few times: with one item there is no parallelism to
// hide the server's own overhead behind.
func minimalPairs(t *layerRun, serve func() error, replay func(parent int) error) error {
	for i := 0; i < 8; i++ {
		id := t.tr.begin(0, -1, 0, layerSmol, "serve.minimal")
		err := serve()
		t.tr.end(id)
		if err != nil {
			return err
		}
		id = t.tr.begin(0, -1, 0, layerReplay, "replay.minimal")
		err = replay(id)
		t.tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// newLayerReplayer starts a traced run's serial part: the replayer whose
// counters layerValues reads, and the root span of the probes.
func newLayerReplayer(t *layerRun, models map[string]*nn.Model) (rp *replayer, root int, err error) {
	t.rp, err = newReplayer(t.tr, models)
	return t.rp, t.tr.begin(0, -1, 0, layerReplay, "probes"), err
}

// zooModels indexes a zoo's models and architectures by entry name.
func zooModels(zoo *smol.Zoo) (map[string]*nn.Model, map[string]nn.ResNetConfig) {
	models, cfgs := map[string]*nn.Model{}, map[string]nn.ResNetConfig{}
	for _, e := range zoo.Entries() {
		models[e.Name()], cfgs[e.Name()] = e.Model, e.Config
	}
	return models, cfgs
}

// ---- still-hd and still-thumb ----

// stillWorkload serves ClassifyMedia requests of 8 images on average from a
// pool of encoded stills through the three-entry zoo of BenchmarkServePlannerHD.
type stillWorkload struct {
	name string
	qos  smol.QoS
	mix  []int // request req draws from size class mix[req % len(mix)]

	pools  [][]smol.MediaInput // per size class
	zoo    *smol.Zoo
	models map[string]*nn.Model
	cfgs   map[string]nn.ResNetConfig

	srv   *smol.Server
	plans []smol.ServePlan // per size class, from warm-up
	ref   [][]int          // per size class, per pool image
}

// stillRequestImages is the cycle of request sizes: 8 images on average,
// 5 to 11. Requests of exactly the engine's batch size from two closed-loop
// clients lock into step with each other and with the batcher, and which
// step they lock into differs from run to run (still-thumb's throughput then
// ranged over 44-65 im/s between identical runs); a mix of sizes keeps the
// clients drifting through every phase, as real callers do.
var stillRequestImages = []int{5, 11, 8, 7, 9, 8, 10, 6}

var stillZoo = []zooSpec{{"resnet-b", 128, 0.95}, {"resnet-a", 128, 0.88}, {"resnet-a", 64, 0.80}}

func (w *stillWorkload) clients() int { return capClients(2) }

func (w *stillWorkload) gen(seed int64) error {
	if w.name == "still-hd" {
		hd := make([]smol.MediaInput, 12)
		for i := range hd {
			hd[i] = smol.MediaInput{Codec: smol.CodecJPEG, Data: photoJPEG(rngFor(seed, 1, i), i, 1920, 1080)}
		}
		hd720 := make([]smol.MediaInput, 4)
		for i := range hd720 {
			hd720[i] = smol.MediaInput{Codec: smol.CodecJPEG, Data: photoJPEG(rngFor(seed, 2, i), i, 1280, 720)}
		}
		w.pools = [][]smol.MediaInput{hd, hd720}
	} else {
		thumbs := make([]smol.MediaInput, 64)
		for i := range thumbs {
			thumbs[i] = smol.MediaInput{Codec: smol.CodecPNG, Data: thumbPNG(rngFor(seed, 3, i), i)}
		}
		w.pools = [][]smol.MediaInput{thumbs}
	}
	zoo, err := buildZoo(stillZoo, 10, 1)
	if err != nil {
		return err
	}
	w.zoo = zoo
	w.models, w.cfgs = zooModels(zoo)
	return nil
}

func (w *stillWorkload) digest() string {
	var blobs [][]byte
	for _, pool := range w.pools {
		for _, in := range pool {
			blobs = append(blobs, in.Data)
		}
	}
	return digestOf(blobs...)
}

// request returns request req's size class and the pool indices it reads.
func (w *stillWorkload) request(req int) (class int, idx []int) {
	class = w.mix[req%len(w.mix)]
	idx = make([]int, stillRequestImages[req%len(stillRequestImages)])
	for j := range idx {
		idx[j] = (req*8 + j) % len(w.pools[class])
	}
	return class, idx
}

// want returns the reference predictions for the pool images idx.
func (w *stillWorkload) want(class int, idx []int) []int {
	want := make([]int, len(idx))
	for j, i := range idx {
		want[j] = w.ref[class][i]
	}
	return want
}

func (w *stillWorkload) inputs(class int, idx []int) []smol.MediaInput {
	in := make([]smol.MediaInput, len(idx))
	for j, i := range idx {
		in[j] = w.pools[class][i]
	}
	return in
}

func (w *stillWorkload) setup(string) error {
	rt, err := smol.NewZooRuntime(w.zoo, smol.RuntimeConfig{BatchSize: engineBatch})
	if err != nil {
		return err
	}
	srv, err := rt.Serve()
	if err != nil {
		return err
	}
	w.srv = srv
	w.plans = make([]smol.ServePlan, len(w.pools))
	for class := range w.pools {
		// One served request per plan: the first request of each size class.
		for req := 0; ; req++ {
			if c, idx := w.request(req); c == class {
				res, err := srv.ClassifyMedia(context.Background(), w.inputs(c, idx), w.qos)
				if err != nil {
					return err
				}
				w.plans[class] = res.Plan
				break
			}
		}
	}
	return nil
}

func (w *stillWorkload) teardown() { w.srv.Close() }

// reference is the hand-assembled layer replay of every pool image: the f32
// tiers are bit-identical and a sample's logits do not depend on its batch
// neighbours, so served predictions must equal these exactly.
func (w *stillWorkload) reference() error {
	rp, err := newReplayer(nil, w.models)
	if err != nil {
		return err
	}
	w.ref = make([][]int, len(w.pools))
	for class, pool := range w.pools {
		if w.ref[class], err = rp.still(0, pool, w.plans[class]); err != nil {
			return err
		}
	}
	return nil
}

func (w *stillWorkload) breakReference() { w.ref[0][0]++ }

func (w *stillWorkload) do(ctx context.Context, req int) outcome {
	class, idx := w.request(req)
	res, err := w.srv.ClassifyMedia(ctx, w.inputs(class, idx), w.qos)
	o := outcome{items: len(idx), err: err, floor: w.qos.MinAccuracy, stats: res.Stats}
	if err != nil {
		return o
	}
	planOutcome(&o, res.Plan)
	o.checked, o.mismatched = compare(res.Predictions, w.want(class, idx))
	return o
}

func (w *stillWorkload) layers(t *layerRun) error {
	rp, root, err := newLayerReplayer(t, w.models)
	if err != nil {
		return err
	}
	defer t.tr.end(root)
	err = censusAndReplay(t, w, len(stillRequestImages), func(parent, req int) (int, error) {
		class, idx := w.request(req)
		preds, err := rp.still(parent, w.inputs(class, idx), w.plans[class])
		if err != nil {
			return 0, err
		}
		if _, bad := compare(preds, w.want(class, idx)); bad > 0 {
			return 0, fmt.Errorf("%d replayed predictions differ from the reference", bad)
		}
		return len(idx), nil
	})
	if err != nil {
		return err
	}
	one := w.pools[0][:1]
	err = minimalPairs(t,
		func() error { _, err := w.srv.ClassifyMedia(context.Background(), one, w.qos); return err },
		func(parent int) error { _, err := rp.still(parent, one, w.plans[0]); return err })
	if err != nil {
		return err
	}

	// The still codec the pool uses was replayed; the other one, and every
	// video-side layer, is probed on the kit.
	plan, k := w.plans[0], kit{t.seed}
	var pool [][]byte
	for _, in := range w.pools[0] {
		pool = append(pool, in.Data)
	}
	isJPEG := w.pools[0][0].Codec == smol.CodecJPEG
	jpegs, pw, ph := pool, 1920, 1080
	if !isJPEG {
		jpegs, pw, ph = [][]byte{k.jpeg()}, 160, 160
	}
	if err := rp.probeEntry(root, plan.Entry, w.cfgs[plan.Entry], pw, ph, isJPEG); err != nil {
		return err
	}
	if err := rp.probeJPEG(root, jpegs, plan.InputRes, isJPEG); err != nil {
		return err
	}
	if isJPEG {
		if err := rp.probePNG(root, [][]byte{k.png()}); err != nil {
			return err
		}
	}
	clip, err := k.clip()
	if err != nil {
		return err
	}
	st, err := rp.probeStore(root, t.dir, []string{"kit"}, [][]byte{clip}, store.IngestOptions{ProxyScores: true})
	if err != nil {
		return err
	}
	defer st.Close()
	return rp.probeClipLayers(root, st, "kit", sampleStride)
}

// ---- video-sample ----

// sampleWorkload serves ClassifyVideoStored at stride 6 over two stored
// clips, alternating, through the two-entry video zoo.
type sampleWorkload struct {
	names  []string
	clips  [][]byte
	zoo    *smol.Zoo
	models map[string]*nn.Model
	cfgs   map[string]nn.ResNetConfig

	ms   *smol.MediaStore
	vids []*smol.StoredVideo
	srv  *smol.Server
	plan smol.ServePlan // from warm-up; every clip shares its geometry
	ref  [][]int        // per clip, per sampled frame
}

const (
	sampleFrames = 360
	sampleStride = 6
)

var (
	sampleZoo    = []zooSpec{{"resnet-a", 64, 0.95}, {"resnet-a", 32, 0.80}}
	sampleIngest = store.IngestOptions{RenditionShortEdges: []int{96}}
)

func (w *sampleWorkload) clients() int { return 1 }

func (w *sampleWorkload) gen(seed int64) error {
	w.names, w.clips = nil, nil
	for i := 0; i < 2; i++ {
		clip, err := movingClip(rngFor(seed, 4, i), sampleFrames, 192, 12, 70)
		if err != nil {
			return err
		}
		w.names = append(w.names, fmt.Sprintf("clip-%d", i))
		w.clips = append(w.clips, clip)
	}
	zoo, err := buildZoo(sampleZoo, 4, 2)
	if err != nil {
		return err
	}
	w.zoo = zoo
	w.models, w.cfgs = zooModels(zoo)
	return nil
}

func (w *sampleWorkload) digest() string { return digestOf(w.clips...) }

func (w *sampleWorkload) setup(dir string) error {
	ms, err := smol.OpenMediaStore(dir)
	if err != nil {
		return err
	}
	w.ms, w.vids, w.ref = ms, nil, nil
	for i, clip := range w.clips {
		v, err := ms.IngestVideo(w.names[i], clip, sampleIngest)
		if err != nil {
			return err
		}
		w.vids = append(w.vids, v)
	}
	rt, err := smol.NewZooRuntime(w.zoo, smol.RuntimeConfig{BatchSize: engineBatch})
	if err != nil {
		return err
	}
	if w.srv, err = rt.Serve(); err != nil {
		return err
	}
	res, err := w.srv.ClassifyVideoStored(context.Background(), w.vids[0], smol.VideoOpts{Stride: sampleStride})
	w.plan = res.Plan
	return err
}

func (w *sampleWorkload) teardown() {
	w.srv.Close()
	w.ms.Close()
}

// reference serves both clips from a second runtime with DisableGOPSeek:
// one decoder walking each stream front to back instead of the GOP-seek
// fan-out. The planner calibrates from live timings, so the second runtime
// is pinned to the decode fidelity the first one chose and must then agree
// on entry and rendition — the outputs are only comparable under one plan.
func (w *sampleWorkload) reference() error {
	rt, err := smol.NewZooRuntime(w.zoo, smol.RuntimeConfig{BatchSize: engineBatch, DisableGOPSeek: true})
	if err != nil {
		return err
	}
	srv, err := rt.Serve()
	if err != nil {
		return err
	}
	defer srv.Close()
	deblock := smol.DeblockOff
	if w.plan.Deblock {
		deblock = smol.DeblockOn
	}
	w.ref = make([][]int, len(w.vids))
	for i, v := range w.vids {
		res, err := srv.ClassifyVideoStored(context.Background(), v, smol.VideoOpts{Stride: sampleStride, Deblock: deblock})
		if err != nil {
			return err
		}
		if res.Plan.Entry != w.plan.Entry || res.Plan.Stream != w.plan.Stream {
			return fmt.Errorf("reference runtime planned %s on stream %d, server planned %s on stream %d",
				res.Plan.Entry, res.Plan.Stream, w.plan.Entry, w.plan.Stream)
		}
		w.ref[i] = res.Predictions
	}
	return nil
}

func (w *sampleWorkload) breakReference() { w.ref[0][0]++ }

func (w *sampleWorkload) do(ctx context.Context, req int) outcome {
	clip := req % len(w.vids)
	res, err := w.srv.ClassifyVideoStored(ctx, w.vids[clip], smol.VideoOpts{Stride: sampleStride})
	o := outcome{items: len(res.Predictions), err: err, stats: res.Stats, decode: res.Decode}
	if err != nil {
		return o
	}
	planOutcome(&o, res.Plan)
	if w.ref != nil {
		o.checked, o.mismatched = compare(res.Predictions, w.ref[clip])
	}
	return o
}

func (w *sampleWorkload) layers(t *layerRun) error {
	rp, root, err := newLayerReplayer(t, w.models)
	if err != nil {
		return err
	}
	defer t.tr.end(root)
	st, err := rp.probeStore(root, t.dir, w.names, w.clips, sampleIngest)
	if err != nil {
		return err
	}
	defer st.Close()
	err = censusAndReplay(t, w, len(w.clips), func(parent, req int) (int, error) {
		var v *store.Video
		t.tr.call(parent, layerStore, "store.video", func() { v, _ = st.Video(w.names[req]) })
		preds, err := rp.video(parent, v, w.plan, sampleStride, true)
		if err != nil {
			return 0, err
		}
		if _, bad := compare(preds, w.ref[req]); bad > 0 {
			return 0, fmt.Errorf("%d replayed predictions differ from the reference", bad)
		}
		return len(preds), nil
	})
	if err != nil {
		return err
	}
	// The smallest request: a stride as long as the clip samples frame 0 only.
	one := smol.VideoOpts{Stride: sampleFrames}
	v0, _ := st.Video(w.names[0])
	var onePlan smol.ServePlan
	err = minimalPairs(t,
		func() error {
			res, err := w.srv.ClassifyVideoStored(context.Background(), w.vids[0], one)
			onePlan = res.Plan
			return err
		},
		func(parent int) error { _, err := rp.video(parent, v0, onePlan, sampleFrames, true); return err })
	if err != nil {
		return err
	}
	info := v0.Streams()[w.plan.Stream].Info
	if err := rp.probeEntry(root, w.plan.Entry, w.cfgs[w.plan.Entry], info.W, info.H, false); err != nil {
		return err
	}
	if err := rp.probeClipLayers(root, st, w.names[0], sampleStride); err != nil {
		return err
	}
	return stillKitProbes(t, rp, root, w.plan.InputRes)
}

// stillKitProbes measures the still-image codecs on the kit inputs, for
// the workloads that decode no stills.
func stillKitProbes(t *layerRun, rp *replayer, root, res int) error {
	if err := rp.probeJPEG(root, [][]byte{kit{t.seed}.jpeg()}, res, false); err != nil {
		return err
	}
	return rp.probePNG(root, [][]byte{kit{t.seed}.png()})
}

// ---- video-select ----

// selectWorkload serves LIMIT selection queries over four stored clips of
// different blob selectivity, each at Limit 1 and 10, verified by the small
// trained presence classifier of the repo's selection benchmark.
type selectWorkload struct {
	names []string
	clips [][]byte
	clf   *smol.Classifier

	ms   *smol.MediaStore
	vids []*smol.StoredVideo
	srv  *smol.Server
	ref  [][]int // per query, matching frames
}

var (
	selectSelectivity = []int{1, 5, 10, 25} // percent of frames with a blob
	selectLimits      = []int{1, 10}
	selectIngest      = store.IngestOptions{ProxyScores: true}
	selectRuntime     = smol.RuntimeConfig{InputRes: 16, BatchSize: engineBatch, Workers: 2}
)

const selectEntry = "model@16" // how NewRuntime names its single zoo entry

func (w *selectWorkload) clients() int { return 1 }

func (w *selectWorkload) numQueries() int { return len(selectSelectivity) * len(selectLimits) }

// query returns request req's clip and options.
func (w *selectWorkload) query(req int) (clip int, opts smol.SelectOpts) {
	q := req % w.numQueries()
	return q % len(w.clips), smol.SelectOpts{Class: 1, MinConf: 0.9,
		Limit: selectLimits[q/len(w.clips)], Deblock: smol.DeblockOn}
}

func (w *selectWorkload) gen(seed int64) error {
	w.names, w.clips = nil, nil
	for i, pct := range selectSelectivity {
		clip, err := blobClip(rngFor(seed, 5, i), 300, 64, 15, 80, pct)
		if err != nil {
			return err
		}
		w.names = append(w.names, fmt.Sprintf("sel-%d", pct))
		w.clips = append(w.clips, clip)
	}
	var err error
	w.clf, err = presenceClassifier()
	return err
}

func (w *selectWorkload) digest() string { return digestOf(w.clips...) }

func (w *selectWorkload) setup(dir string) error {
	ms, err := smol.OpenMediaStore(dir)
	if err != nil {
		return err
	}
	w.ms, w.vids, w.ref = ms, nil, nil
	for i, clip := range w.clips {
		v, err := ms.IngestVideo(w.names[i], clip, selectIngest)
		if err != nil {
			return err
		}
		w.vids = append(w.vids, v)
	}
	rt, err := smol.NewRuntime(w.clf.Model, selectRuntime)
	if err != nil {
		return err
	}
	if w.srv, err = rt.Serve(); err != nil {
		return err
	}
	for q := 0; q < w.numQueries(); q++ {
		if o := w.do(context.Background(), q); o.err != nil {
			return o.err
		}
	}
	return nil
}

func (w *selectWorkload) teardown() {
	w.srv.Close()
	w.ms.Close()
}

// reference answers every query from a second runtime with
// DisableProxyCascade: every frame verified, no pruning, no early stop. The
// cascade must return exactly the same frames.
func (w *selectWorkload) reference() error {
	cfg := selectRuntime
	cfg.DisableProxyCascade = true
	rt, err := smol.NewRuntime(w.clf.Model, cfg)
	if err != nil {
		return err
	}
	srv, err := rt.Serve()
	if err != nil {
		return err
	}
	defer srv.Close()
	w.ref = make([][]int, w.numQueries())
	for q := range w.ref {
		clip, opts := w.query(q)
		res, err := srv.SelectVideo(context.Background(), w.vids[clip], opts)
		if err != nil {
			return err
		}
		if len(res.Frames) == 0 {
			return fmt.Errorf("reference found no frames for query %d: the classifier or the clip is degenerate", q)
		}
		w.ref[q] = res.Frames
	}
	return nil
}

func (w *selectWorkload) breakReference() { w.ref[0][0]++ }

func (w *selectWorkload) do(ctx context.Context, req int) outcome {
	clip, opts := w.query(req)
	res, err := w.srv.SelectVideo(ctx, w.vids[clip], opts)
	o := outcome{items: 1, err: err, stats: res.Stats, decode: res.Decode}
	if err != nil {
		return o
	}
	planOutcome(&o, res.Plan.Verify)
	o.predTput = 1e6 / res.Plan.PredictedCostUS // queries/s: the item here is a query
	o.sel = selectCounts{oracle: res.OracleInvocations, results: len(res.Frames),
		gopsTouched: res.GOPsTouched, gopsTotal: res.GOPsTotal, proxy: res.ProxyInvocations}
	if w.ref != nil {
		o.checked, o.mismatched = compare(res.Frames, w.ref[req%w.numQueries()])
	}
	return o
}

func (w *selectWorkload) layers(t *layerRun) error {
	rp, root, err := newLayerReplayer(t, map[string]*nn.Model{selectEntry: w.clf.Model})
	if err != nil {
		return err
	}
	defer t.tr.end(root)
	st, err := rp.probeStore(root, t.dir, w.names, w.clips, selectIngest)
	if err != nil {
		return err
	}
	defer st.Close()
	// The server's plan for each query, read off one served result.
	plans := make([]smol.SelectPlan, w.numQueries())
	for q := range plans {
		clip, opts := w.query(q)
		res, err := w.srv.SelectVideo(context.Background(), w.vids[clip], opts)
		if err != nil {
			return err
		}
		plans[q] = res.Plan
	}
	replay := func(parent, req int) (int, error) {
		clip, opts := w.query(req)
		var v *store.Video
		t.tr.call(parent, layerStore, "store.video", func() { v, _ = st.Video(w.names[clip]) })
		frames, err := rp.selectQuery(parent, st, v, plans[req], opts)
		if err != nil {
			return 0, err
		}
		if _, bad := compare(frames, w.ref[req]); bad > 0 {
			return 0, fmt.Errorf("replayed frames %v differ from the reference %v", frames, w.ref[req])
		}
		return 1, nil
	}
	if err := censusAndReplay(t, w, w.numQueries(), replay); err != nil {
		return err
	}
	// The smallest request is query 0: Limit 1 on the sparsest clip.
	err = minimalPairs(t,
		func() error { return w.do(context.Background(), 0).err },
		func(parent int) error { _, err := replay(parent, 0); return err })
	if err != nil {
		return err
	}
	if err := rp.probeEntry(root, selectEntry, w.clf.Config, 64, 64, false); err != nil {
		return err
	}
	if err := rp.probeClipLayers(root, st, w.names[0], sampleStride); err != nil {
		return err
	}
	return stillKitProbes(t, rp, root, w.clf.InputRes)
}
