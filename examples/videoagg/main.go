// Videoagg: a BlazeIt-style aggregation query ("mean objects per frame")
// answered end to end through the public serving API. A synthetic
// fixed-camera video is encoded with the real H.264-like codec at two
// natively-stored resolutions; a small classifier is trained so that its
// predicted class is the per-frame object count; and
// Server.EstimateMeanStored runs the control-variate estimator — a cheap connected-components proxy
// on every decoded frame, the trained model (through the warm engine) only
// on the sampled frames the confidence interval demands.
//
// Compare examples/zoo (still-image planner) and examples/streaming (warm
// concurrent serving); this example is the video workload: IndexVideo
// turns the raw bytes of both renditions into one handle, then
// ClassifyVideoStored gives per-frame predictions with a jointly planned
// decode fidelity, and EstimateMeanStored aggregates at a fraction of the
// target-model cost.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"smol"
)

const (
	// Square frames so the same clips can train the counting classifier.
	frameW, frameH = 64, 64
	lowW, lowH     = 32, 32
	numFrames      = 240
	maxObjects     = 3 // classes 0..3 = object count
	inputRes       = 32
)

// drawScene renders a road scene with bright square movers at the given
// horizontal positions.
func drawScene(rng *rand.Rand, xs []float64) *smol.Image {
	m := smol.NewImage(frameW, frameH)
	for y := 0; y < frameH; y++ {
		for x := 0; x < frameW; x++ {
			base := uint8(70 + 50*y/frameH + rng.Intn(6))
			m.Set(x, y, base, base, base+15)
		}
	}
	for i, cx := range xs {
		lane := frameH/4 + i*frameH/5
		for dy := -4; dy <= 4; dy++ {
			for dx := -6; dx <= 6; dx++ {
				x, y := int(cx)+dx, lane+dy
				if x >= 0 && x < frameW && y >= 0 && y < frameH {
					m.Set(x, y, 230, 220, 160)
				}
			}
		}
	}
	return m
}

// makeVideo renders a deterministic clip of movers crossing the scene and
// returns the frames with their ground-truth visible-object counts.
func makeVideo(seed int64) ([]*smol.Image, []int) {
	rng := rand.New(rand.NewSource(seed))
	type mover struct {
		enter int
		speed float64
	}
	var movers []mover
	for f := 0; f < numFrames; f++ {
		if rng.Float64() < 0.04 && len(movers) < 64 {
			movers = append(movers, mover{enter: f, speed: 1 + rng.Float64()*2})
		}
	}
	frames := make([]*smol.Image, numFrames)
	counts := make([]int, numFrames)
	for f := 0; f < numFrames; f++ {
		var xs []float64
		for _, mv := range movers {
			if f < mv.enter {
				continue
			}
			x := float64(f-mv.enter) * mv.speed
			if x < frameW && len(xs) < maxObjects {
				xs = append(xs, x)
			}
		}
		frames[f] = drawScene(rng, xs)
		counts[f] = len(xs)
	}
	return frames, counts
}

// downsample produces the natively-stored low-resolution rendition.
func downsample(frames []*smol.Image) []*smol.Image {
	out := make([]*smol.Image, len(frames))
	for i, f := range frames {
		out[i] = f.ResizeBilinear(lowW, lowH)
	}
	return out
}

func main() {
	log.SetFlags(0)
	frames, counts := makeVideo(3)
	trueMean := 0.0
	for _, c := range counts {
		trueMean += float64(c)
	}
	trueMean /= float64(len(counts))
	fmt.Printf("synthetic clip: %d frames at %dx%d, true mean %.3f objects/frame\n",
		numFrames, frameW, frameH, trueMean)

	// Train a counting classifier (class = object count) on frames from an
	// independently seeded clip, so the query video is unseen.
	trainFrames, trainCounts := makeVideo(17)
	train := make([]smol.LabeledImage, len(trainFrames))
	for i := range trainFrames {
		train[i] = smol.LabeledImage{Image: trainFrames[i], Label: trainCounts[i]}
	}
	fmt.Println("training the counting model...")
	clf, err := smol.TrainClassifier(train, maxObjects+1, smol.TrainOptions{Epochs: 3, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Store the clip at two native resolutions, as a serving stack would.
	full, err := smol.EncodeVideo(frames, 70, 30)
	if err != nil {
		log.Fatal(err)
	}
	low, err := smol.EncodeVideo(downsample(frames), 70, 30)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored renditions: full %dKB, low-res %dKB\n", len(full)/1024, len(low)/1024)

	rt, err := smol.NewRuntime(clf.Model, smol.RuntimeConfig{InputRes: inputRes, BatchSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	video, err := smol.IndexVideo(full, low)
	if err != nil {
		log.Fatal(err)
	}

	// Per-frame classification with the planner choosing decode fidelity.
	res, err := srv.ClassifyVideoStored(ctx, video, smol.VideoOpts{Stride: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nClassifyVideoStored (stride 5): %d frames classified, plan: %s\n",
		len(res.Predictions), res.Plan)
	fmt.Printf("  rendition %d, deblock %v, decoder did %d IDCT blocks / %d deblocked edges\n",
		res.Plan.Stream, res.Plan.Deblock, res.Decode.BlocksIDCT, res.Decode.DeblockedEdges)

	// Aggregation: estimate the model's mean count without running it on
	// every frame.
	for _, errTarget := range []float64{0.30, 0.15} {
		agg, err := srv.EstimateMeanStored(ctx, video, smol.AggregateOpts{
			ErrTarget: errTarget,
			Seed:      9,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nEstimateMeanStored (err target %.2f): estimate %.3f +/- %.3f objects/frame\n",
			errTarget, agg.Estimate, agg.HalfWidth)
		fmt.Printf("  %d of %d target-model invocations (%.0f%% saved), true mean %.3f\n",
			agg.TargetInvocations, agg.Frames,
			100*(1-float64(agg.TargetInvocations)/float64(agg.Frames)), trueMean)
	}
	fmt.Println("\nthe cheap proxy runs on every frame; the trained model only on the sampled")
	fmt.Println("frames the confidence interval demands — the better the proxy tracks the")
	fmt.Println("model, the fewer expensive invocations the query needs (§3.2, §8.4)")
}
