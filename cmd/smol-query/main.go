// Command smol-query runs one visual analytics query end to end.
//
// Classification (trains once, then holds a warm streaming pipeline and
// fires -requests concurrent classification requests at it — the
// latency-constrained deployment of §3.1; -requests 1 sends one):
//
//	smol-query -type classify -dataset bike-bird -requests 4
//
// Aggregation (BlazeIt-style control-variate mean estimation over a
// synthetic video with real encode/decode):
//
//	smol-query -type aggregate -dataset taipei -err 0.03
//
// Planner mode (trains a multi-entry model zoo and lets the serving
// planner jointly pick model variant, input resolution, decode scale,
// numeric precision, and preprocessing chain per request from an accuracy
// floor; each zoo entry gains a quantized int8 twin unless -int8=false is set,
// and -explain prints the chosen plan — precision and the active GEMM
// kernel (avx2/portable) included — next to its predicted vs. measured
// throughput. -nosimd forces the portable f32 kernel, which is
// bit-identical to the AVX2 tier, so it changes throughput only):
//
//	smol-query -type classify -dataset bike-bird -zoo -minacc 0.8 -explain
//	smol-query -type classify -dataset bike-bird -zoo -int8=false -explain
//	smol-query -type classify -dataset bike-bird -zoo -nosimd -explain
//
// Video serving mode (classifies an SVID file — e.g. one written by
// smol-datagen -videos — through the warm engine; the video planner picks
// deblocking, the stored rendition, the zoo entry, and the preprocessing
// chain jointly; -explain prints the chosen video plan; -lowres serves
// the raw stream only and is refused with -store):
//
//	smol-query -video out/video/taipei-full.vid -stride 5 -explain
//	smol-query -video taipei-full.vid -lowres taipei-low.vid -zoo -minacc 0.8 -explain
//
// Store-backed video serving (-store ingests the video into an indexed
// media store first, then serves from it: sampling seeks straight to the
// GOPs containing the sampled frames and fans them across a decoder pool
// instead of decoding the whole stream; -noseek forces the sequential
// full-decode path for an A/B comparison):
//
//	smol-query -video taipei-full.vid -store /tmp/mediastore -stride 100 -explain
//	smol-query -video taipei-full.vid -store /tmp/mediastore -stride 100 -noseek
//
// Selection queries (-select runs a BlazeIt-style LIMIT query over an
// ingested video: a cheap proxy scores every frame — from the persisted
// score sidecar when one exists — and only the top-ranked candidates are
// verified through the full model, seeking just the GOPs they live in and
// stopping at -limit confirmations; -explain prints the cascade plan and
// the proxy/oracle invocation and GOP-touch counters):
//
//	smol-query -video taipei-full.vid -store /tmp/mediastore -select -class 1 -limit 10 -explain
//	smol-query -video taipei-full.vid -store /tmp/mediastore -select -class 1 -minconf 0.6 -limit 5
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"smol"
	"smol/internal/blazeit"
	"smol/internal/data"
	"smol/internal/tensor"
)

func main() {
	log.SetFlags(0)
	qtype := flag.String("type", "classify", "query type: classify or aggregate")
	dataset := flag.String("dataset", "bike-bird", "dataset name")
	errTarget := flag.Float64("err", 0.03, "aggregation error target")
	requests := flag.Int("requests", 4, "concurrent classification requests against the warm server")
	execPar := flag.Int("execpar", 0, "max concurrent model executions (0 = 2)")
	roiDecode := flag.Bool("roidecode", false, "partially decode only the central crop region (Algorithm 1)")
	zoo := flag.Bool("zoo", false, "train a multi-entry model zoo and serve through the joint accuracy/throughput planner")
	useInt8 := flag.Bool("int8", true, "quantize every zoo entry to an int8 twin (zoo mode); the planner routes to the fast tier when the accuracy floor allows (-int8=false is the f32-only A/B)")
	noSIMD := flag.Bool("nosimd", false, "force the portable f32 GEMM kernel instead of AVX2 (bit-identical results; the scalar-tier A/B oracle)")
	minAcc := flag.Float64("minacc", 0, "accuracy floor for the serving planner (0 = max throughput)")
	explain := flag.Bool("explain", false, "print the planner's chosen plan per request (variant, input res, decode scale, preproc chain, predicted vs measured throughput)")
	video := flag.String("video", "", "classify an SVID video file through the warm serving engine")
	lowres := flag.String("lowres", "", "optional natively-stored low-resolution rendition of -video the planner may route to")
	stride := flag.Int("stride", 1, "classify every Nth frame of -video (skipped frames are decoded, not preprocessed)")
	storeDir := flag.String("store", "", "ingest -video into the indexed media store at this directory and serve store-backed (GOP-seek sampling)")
	noSeek := flag.Bool("noseek", false, "disable GOP-seek sampling (sequential full decode, the A/B baseline)")
	selectQ := flag.Bool("select", false, "run a LIMIT selection query over -video through the proxy cascade (requires -store)")
	selClass := flag.Int("class", 1, "predicted class a frame must have to match the -select query")
	selMinConf := flag.Float64("minconf", 0, "proxy confidence floor in [0,1]: -select candidates scoring below it are excluded without verification")
	selLimit := flag.Int("limit", 10, "max frames the -select query returns (0 = all matches)")
	noCascade := flag.Bool("nocascade", false, "disable the proxy cascade: -select verifies every sampled frame (the A/B baseline)")
	flag.Parse()
	if *noSIMD {
		// The f32 kernel tier is process-wide and bit-identical either
		// way, so one switch before any runtime exists covers every mode.
		tensor.SetF32SIMD(false)
	}

	// The video and selection modes partition the flag surface; reject
	// contradictory combinations up front with a usage error instead of
	// silently ignoring flags.
	switch {
	case *storeDir != "" && *video == "":
		log.Fatalf("smol-query: -store requires -video (the media store ingests and serves video streams)")
	case *lowres != "" && *video == "":
		log.Fatalf("smol-query: -lowres requires -video (it supplies a low-resolution rendition of that stream)")
	case *lowres != "" && *storeDir != "":
		log.Fatalf("smol-query: -lowres cannot be combined with -store (the media store ingests only the -video stream; serve the rendition without -store)")
	case *selectQ && *video == "":
		log.Fatalf("smol-query: -select requires -video (selection queries run over a video stream)")
	case *selectQ && *storeDir == "":
		log.Fatalf("smol-query: -select requires -store (the cascade's score sidecar and GOP pushdown live in the media store)")
	}

	switch *qtype {
	case "classify":
		if *selectQ {
			videoSelect(*video, *storeDir, *dataset, *selClass, *selLimit, *stride, *execPar,
				*zoo, *useInt8, *noSeek, *noCascade, *selMinConf, *minAcc, *explain)
		} else if *video != "" {
			videoClassify(*video, *lowres, *storeDir, *dataset, *stride, *execPar, *roiDecode,
				*zoo, *useInt8, *noSeek, *minAcc, *explain)
		} else {
			serveClassify(*dataset, *requests, *execPar, *roiDecode, *zoo, *useInt8, *minAcc, *explain)
		}
	case "aggregate":
		aggregate(*dataset, *errTarget)
	default:
		log.Fatalf("unknown query type %q", *qtype)
	}
}

// trainServingRuntime generates the synthetic image dataset, trains a
// single resnet-a (or a multi-entry zoo, with useZoo), and builds the
// serving runtime from cfg — the setup shared by the image and -video
// modes, so runtime flags (-execpar, -roidecode) behave identically in both.
func trainServingRuntime(dataset string, useZoo, useInt8 bool, cfg smol.RuntimeConfig) (*smol.Runtime, data.DatasetSpec, *data.Dataset) {
	spec, err := data.ImageDataset(dataset)
	if err != nil {
		log.Fatal(err)
	}
	ds := data.Generate(spec)
	fmt.Printf("dataset %s: %d classes, %d train / %d test at %dpx\n",
		spec.Name, spec.NumClasses, len(ds.Train), len(ds.Test), spec.FullRes)
	train := make([]smol.LabeledImage, len(ds.Train))
	for i, li := range ds.Train {
		train[i] = smol.LabeledImage{Image: li.Image, Label: li.Label}
	}
	var rt *smol.Runtime
	start := time.Now()
	if useZoo {
		if useInt8 {
			fmt.Println("training model zoo (resnet-b, resnet-a, resnet-a@half) with int8 twins...")
		} else {
			fmt.Println("training model zoo (resnet-b, resnet-a, resnet-a@half)...")
		}
		zoo, err := smol.TrainZoo(train, spec.NumClasses, smol.ZooTrainOptions{Epochs: 3, Seed: 1, Int8: useInt8})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained in %s\n", time.Since(start).Round(time.Second))
		for _, e := range zoo.Entries() {
			fmt.Printf("  zoo entry %-19s [%s] validation accuracy %.3f\n",
				e.Name(), e.PrecisionLabel(), e.Accuracy)
		}
		rt, err = smol.NewZooRuntime(zoo, cfg)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Println("training resnet-a...")
		clf, err := smol.TrainClassifier(train, spec.NumClasses, smol.TrainOptions{Epochs: 3, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trained in %s\n", time.Since(start).Round(time.Second))
		cfg.InputRes = spec.FullRes
		rt, err = smol.NewRuntime(clf.Model, cfg)
		if err != nil {
			log.Fatal(err)
		}
	}
	return rt, spec, ds
}

// serveClassify trains once, brings up a resident streaming server, and
// fires concurrent classification requests that share the warm engine.
// The requests' batches also execute in parallel (up to execPar forwards at
// once) through the compiled inference plan. With
// useZoo a multi-entry model zoo is trained instead and each request is
// routed by the serving planner from the minAcc accuracy floor.
func serveClassify(name string, requests, execPar int, roiDecode, useZoo, useInt8 bool, minAcc float64, explain bool) {
	if requests < 1 {
		requests = 1
	}
	rt, _, ds := trainServingRuntime(name, useZoo, useInt8, smol.RuntimeConfig{
		BatchSize:    32,
		ExecParallel: execPar,
		ROIDecode:    roiDecode,
	})

	inputs := make([]smol.MediaInput, len(ds.Test))
	for i, li := range ds.Test {
		inputs[i] = smol.MediaInput{Codec: smol.CodecJPEG, Data: smol.EncodeJPEG(li.Image, 90)}
	}
	qos := smol.QoS{MinAccuracy: minAcc}
	fmt.Printf("ingest: ROI decode %v\n", roiDecode)
	srv, err := rt.Serve()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	fmt.Printf("serving: %d concurrent requests x %d images against one warm engine\n",
		requests, len(inputs))
	var wg sync.WaitGroup
	results := make([]smol.ClassifyResult, requests)
	errs := make([]error, requests)
	wall := time.Now()
	for r := 0; r < requests; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = srv.ClassifyMedia(context.Background(), inputs, qos)
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(wall)
	for r, err := range errs {
		if err != nil {
			log.Fatalf("request %d: %v", r, err)
		}
	}

	total := 0
	for r, res := range results {
		correct := 0
		for i, p := range res.Predictions {
			if p == ds.Test[i].Label {
				correct++
			}
		}
		total += len(res.Predictions)
		fmt.Printf("request %d: accuracy %.1f%%, %.0f im/s, %d batches, mean latency %s\n",
			r, 100*float64(correct)/float64(len(res.Predictions)),
			res.Stats.Throughput, res.Stats.Batches,
			res.Stats.MeanLatency.Round(time.Microsecond))
		if explain {
			p := res.Plan
			fmt.Printf("  plan: entry %s [%s/%s] (val acc %.3f) on %s\n", p.Entry, p.Precision, p.Kernel, p.Accuracy, p.InputFormat)
			fmt.Printf("  plan: decode 1/%d, preproc %s\n", p.DecodeScale, p.Preproc)
			fmt.Printf("  plan: predicted %.0f im/s (latency %.0fus worst-case), measured %.0f im/s\n",
				p.PredictedThroughput, p.PredictedLatencyUS, res.Stats.Throughput)
		}
	}
	last := results[len(results)-1].Stats
	fmt.Printf("aggregate: %d images in %s (%.0f im/s); pool %d allocs / %d reuses across all requests\n",
		total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), last.PoolAllocs, last.PoolReuses)
}

// videoClassify serves one SVID file through a warm engine: it trains the
// model (or zoo) on the synthetic image dataset, then streams the video's
// sampled frames through the media-generic pipeline, letting the video
// planner jointly pick deblocking, the stored rendition (when -lowres
// supplies one, which main allows only without storeDir), the zoo entry,
// and the preprocessing chain for the -minacc target. With storeDir the
// video is first ingested into the indexed media store there and served
// store-backed: the persisted GOP index lets sampling seek straight to the
// sampled GOPs and fan them across a decoder pool (noSeek forces the
// sequential baseline for comparison).
func videoClassify(path, lowPath, storeDir, dataset string, stride, execPar int, roiDecode,
	useZoo, useInt8, noSeek bool, minAcc float64, explain bool) {
	streamData, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	info, err := smol.ProbeVideo(streamData)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("video %s: %d frames at %dx%d, GOP %d\n", path, info.Frames, info.W, info.H, info.GOP)
	var renditions [][]byte
	if lowPath != "" {
		low, err := os.ReadFile(lowPath)
		if err != nil {
			log.Fatal(err)
		}
		renditions = append(renditions, low)
		if li, err := smol.ProbeVideo(low); err == nil {
			fmt.Printf("low-res rendition %s: %dx%d\n", lowPath, li.W, li.H)
		}
	}
	rt, _, _ := trainServingRuntime(dataset, useZoo, useInt8, smol.RuntimeConfig{
		BatchSize:      32,
		ExecParallel:   execPar,
		ROIDecode:      roiDecode,
		DisableGOPSeek: noSeek,
	})

	srv, err := rt.Serve()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	var sv *smol.StoredVideo
	if storeDir != "" {
		ms, err := smol.OpenMediaStore(storeDir)
		if err != nil {
			log.Fatal(err)
		}
		defer ms.Close()
		name := storeName(path)
		var ok bool
		if sv, ok = ms.Video(name); !ok {
			ingest := time.Now()
			if sv, err = ms.IngestVideo(name, streamData, smol.IngestOptions{}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("ingested %q into %s in %s (GOP index persisted)\n",
				name, storeDir, time.Since(ingest).Round(time.Millisecond))
		} else {
			fmt.Printf("serving %q already ingested in %s\n", name, storeDir)
		}
	}
	wall := time.Now()
	if sv == nil {
		// Raw bytes are indexed per request, inside the timed span.
		if sv, err = smol.IndexVideo(streamData, renditions...); err != nil {
			log.Fatal(err)
		}
	}
	res, err := srv.ClassifyVideoStored(context.Background(), sv, smol.VideoOpts{
		Stride: stride,
		QoS:    smol.QoS{MinAccuracy: minAcc},
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(wall)
	hist := map[int]int{}
	for _, p := range res.Predictions {
		hist[p]++
	}
	fmt.Printf("classified %d frames (stride %d) in %s: %.1f sampled frames/s, %.1f decoded frames/s\n",
		len(res.Predictions), stride, elapsed.Round(time.Millisecond),
		float64(len(res.Predictions))/elapsed.Seconds(),
		float64(res.Decode.FramesDecoded)/elapsed.Seconds())
	fmt.Printf("decode: %d frames decoded, %d bypassed via %d GOP seeks\n",
		res.Decode.FramesDecoded, res.Decode.FramesBypassed, res.Decode.GOPSeeks)
	fmt.Printf("prediction histogram: %v\n", hist)
	if explain {
		p := res.Plan
		fmt.Printf("  plan: %s\n", p)
		fmt.Printf("  plan: rendition %d (%s), deblock %v, preproc %s\n", p.Stream, p.InputFormat, p.Deblock, p.Preproc)
		fmt.Printf("  plan: predicted %.0f im/s (latency %.0fus worst-case)\n", p.PredictedThroughput, p.PredictedLatencyUS)
		fmt.Printf("  decode: %d IDCT blocks, %d deblocked edges, %d inter / %d skipped MBs\n",
			res.Decode.BlocksIDCT, res.Decode.DeblockedEdges, res.Decode.InterMBs, res.Decode.SkippedMBs)
	}
}

// videoSelect answers a LIMIT selection query over an ingested video: the
// planner pairs a cheap proxy (blob counter or a fast zoo entry) with the
// verification plan, the proxy scores every frame (from the persisted
// score sidecar when the video was already queried or ingested with
// scores), and only the highest-confidence candidates are verified through
// the warm engine — seeking just the GOPs they live in and stopping at
// limit confirmations. noCascade verifies every sampled frame instead, the
// equivalence baseline.
func videoSelect(path, storeDir, dataset string, class, limit, stride, execPar int,
	useZoo, useInt8, noSeek, noCascade bool, minConf, minAcc float64, explain bool) {
	streamData, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	info, err := smol.ProbeVideo(streamData)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("video %s: %d frames at %dx%d, GOP %d\n", path, info.Frames, info.W, info.H, info.GOP)
	rt, _, _ := trainServingRuntime(dataset, useZoo, useInt8, smol.RuntimeConfig{
		BatchSize:           32,
		ExecParallel:        execPar,
		DisableGOPSeek:      noSeek,
		DisableProxyCascade: noCascade,
	})
	srv, err := rt.Serve()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	ms, err := smol.OpenMediaStore(storeDir)
	if err != nil {
		log.Fatal(err)
	}
	defer ms.Close()
	name := storeName(path)
	sv, ok := ms.Video(name)
	if !ok {
		ingest := time.Now()
		if sv, err = ms.IngestVideo(name, streamData, smol.IngestOptions{ProxyScores: true}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ingested %q into %s in %s (GOP index + proxy scores persisted)\n",
			name, storeDir, time.Since(ingest).Round(time.Millisecond))
	} else {
		fmt.Printf("serving %q already ingested in %s\n", name, storeDir)
	}

	wall := time.Now()
	res, err := srv.SelectVideo(context.Background(), sv, smol.SelectOpts{
		Class: class, MinConf: minConf, Limit: limit, Stride: stride,
		QoS: smol.QoS{MinAccuracy: minAcc},
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(wall)

	fmt.Printf("select class=%d minconf=%g limit=%d: %d frames in %s\n",
		class, minConf, limit, len(res.Frames), elapsed.Round(time.Millisecond))
	for i, f := range res.Frames {
		fmt.Printf("  frame %6d  proxy confidence %.3f\n", f, res.Scores[i])
		if i == 9 && len(res.Frames) > 10 {
			fmt.Printf("  ... %d more\n", len(res.Frames)-10)
			break
		}
	}
	cachedNote := ""
	if res.ScoresCached {
		cachedNote = " (score sidecar hit)"
	}
	fmt.Printf("cascade: %d proxy invocations%s, %d oracle invocations, %d/%d GOPs touched\n",
		res.ProxyInvocations, cachedNote, res.OracleInvocations, res.GOPsTouched, res.GOPsTotal)
	if explain {
		fmt.Printf("  plan: %s\n", res.Plan)
		fmt.Printf("  decode: %d frames decoded, %d bypassed via %d GOP seeks\n",
			res.Decode.FramesDecoded, res.Decode.FramesBypassed, res.Decode.GOPSeeks)
	}
}

// storeName derives a media-store name from a file path: the base name
// without extension, non-name characters replaced so it satisfies the
// store's [a-zA-Z0-9_-] rule.
func storeName(path string) string {
	base := filepath.Base(path)
	if ext := filepath.Ext(base); ext != "" {
		base = base[:len(base)-len(ext)]
	}
	out := []byte(base)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			out[i] = '_'
		}
	}
	if len(out) == 0 {
		return "video"
	}
	return string(out)
}

func aggregate(name string, errTarget float64) {
	spec, err := data.VideoDataset(name)
	if err != nil {
		log.Fatal(err)
	}
	video := data.GenerateVideo(spec)
	fmt.Printf("video %s: %d frames, true mean %.3f objects/frame\n",
		spec.Name, spec.Frames, video.MeanCount())

	enc, err := smol.EncodeVideo(video.LowResFrames(), 70, 30)
	if err != nil {
		log.Fatal(err)
	}
	frames, err := smol.DecodeVideo(enc, false)
	if err != nil {
		log.Fatal(err)
	}
	counter := blazeit.DefaultCounter(spec.LowW)
	preds := make([]float64, len(frames))
	for i, f := range frames {
		preds[i] = float64(counter.Count(f))
	}
	res, err := blazeit.EstimateMean(preds, func(f int) float64 { return float64(video.Counts[f]) },
		blazeit.Config{ErrTarget: errTarget, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate %.3f +/- %.3f using %d target invocations (of %d frames)\n",
		res.Estimate, res.HalfWidth, res.Samples, len(frames))
	fmt.Printf("true mean %.3f, error %.3f\n", video.MeanCount(), res.Estimate-video.MeanCount())
}
