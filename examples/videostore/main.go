// Videostore: the indexed media store end to end. A synthetic clip is
// ingested ONCE into a MediaStore — the stream is written with a persisted
// per-GOP index (I-frame byte offsets) and a low-resolution rendition is
// materialized alongside — then served many times: ClassifyVideoStored
// seeks straight to the GOPs containing the sampled frames and fans them
// across a pool of resident decoders, and EstimateMeanStored re-decodes
// each sampled frame through the index instead of holding the clip in
// memory. The example runs each query twice, with the GOP index and with
// RuntimeConfig.DisableGOPSeek (the sequential full-decode oracle), and
// prints the decode counters side by side: identical predictions, a
// fraction of the decoded frames.
//
// Compare examples/videoagg, which serves raw []byte streams — the store
// is what turns sampling from O(stream) into O(sampled) decode work.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	"smol"
)

const (
	frameW, frameH = 96, 96
	numFrames      = 300
	gop            = 15
	stride         = 50 // classify every 50th frame
	inputRes       = 32
)

// makeClip renders a deterministic moving-pattern clip with two frame
// classes (object present / absent) so classification is meaningful.
func makeClip(seed int64) ([]*smol.Image, []int) {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]*smol.Image, numFrames)
	labels := make([]int, numFrames)
	for f := range frames {
		m := smol.NewImage(frameW, frameH)
		for y := 0; y < frameH; y++ {
			for x := 0; x < frameW; x++ {
				base := uint8(60 + 40*y/frameH + rng.Intn(8))
				m.Set(x, y, base, base, base+20)
			}
		}
		// Every other 10-frame block carries a bright mover: class 1.
		if (f/10)%2 == 1 {
			cx := (f * 3) % (frameW - 16)
			for dy := 0; dy < 12; dy++ {
				for dx := 0; dx < 16; dx++ {
					m.Set(cx+dx, frameH/3+dy, 235, 220, 150)
				}
			}
			labels[f] = 1
		}
		frames[f] = m
	}
	return frames, labels
}

func main() {
	log.SetFlags(0)
	frames, _ := makeClip(3)
	enc, err := smol.EncodeVideo(frames, 70, gop)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clip: %d frames at %dx%d, GOP %d, %dKB encoded\n",
		numFrames, frameW, frameH, gop, len(enc)/1024)

	// Ingest once. The store writes the stream, scans and persists its GOP
	// index, and materializes a 48px rendition the planner can route
	// relaxed-accuracy requests to. Re-opening the directory later skips
	// all of this — the index is in the sidecar.
	dir, err := os.MkdirTemp("", "videostore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := smol.OpenMediaStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	v, err := store.IngestVideo("clip", enc, smol.IngestOptions{RenditionShortEdges: []int{48}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %q: primary %dx%d + %d rendition(s), GOP index persisted\n",
		v.Name(), v.Info().W, v.Info().H, len(v.Renditions()))

	// Train the classifier on an independently seeded clip.
	trainFrames, trainLabels := makeClip(17)
	train := make([]smol.LabeledImage, len(trainFrames))
	for i := range trainFrames {
		train[i] = smol.LabeledImage{Image: trainFrames[i], Label: trainLabels[i]}
	}
	fmt.Println("training the classifier...")
	clf, err := smol.TrainClassifier(train, 2, smol.TrainOptions{Epochs: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	run := func(label string, disableSeek bool) smol.VideoResult {
		rt, err := smol.NewRuntime(clf.Model, smol.RuntimeConfig{
			InputRes: inputRes, BatchSize: 16, DisableGOPSeek: disableSeek,
		})
		if err != nil {
			log.Fatal(err)
		}
		srv, err := rt.Serve()
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		res, err := srv.ClassifyVideoStored(ctx, v, smol.VideoOpts{Stride: stride, Deblock: smol.DeblockOn})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %d samples, decoded %3d frames, bypassed %3d via %d GOP seeks\n",
			label, len(res.Predictions), res.Decode.FramesDecoded,
			res.Decode.FramesBypassed, res.Decode.GOPSeeks)
		return res
	}

	fmt.Printf("\nClassifyVideoStored at stride %d:\n", stride)
	seek := run("GOP-seek:", false)
	seq := run("sequential:", true)
	for i := range seek.Predictions {
		if seek.Predictions[i] != seq.Predictions[i] {
			log.Fatalf("sample %d: seek predicted %d, sequential %d — paths diverged",
				i, seek.Predictions[i], seq.Predictions[i])
		}
	}
	fmt.Printf("predictions bit-identical; seek path decoded %.1fx fewer frames\n",
		float64(seq.Decode.FramesDecoded)/float64(seek.Decode.FramesDecoded))

	// Aggregation from the store: the cheap proxy sweeps every frame once
	// and keeps the decoded frames for the sampled target pass while they
	// fit the retention budget (this short clip does); longer streams
	// re-decode each sample through the GOP index, one GOP prefix apiece.
	rt, err := smol.NewRuntime(clf.Model, smol.RuntimeConfig{InputRes: inputRes, BatchSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	agg, err := srv.EstimateMeanStored(ctx, v, smol.AggregateOpts{ErrTarget: 0.05, Seed: 7, Deblock: smol.DeblockOn})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nEstimateMeanStored: %.3f +/- %.3f using %d target invocations (of %d frames), %d frames decoded\n",
		agg.Estimate, agg.HalfWidth, agg.TargetInvocations, agg.Frames, agg.Decode.FramesDecoded)
}
