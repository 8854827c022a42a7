package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"smol"
	"smol/internal/codec/jpeg"
	"smol/internal/codec/spng"
	"smol/internal/data"
	"smol/internal/img"
	"smol/internal/nn"
)

// Inputs are made here, from the seed alone; the program under test only
// ever sees the encoded bytes. Model weights are part of a workload's
// definition, not of its inputs, so their seeds are fixed.

// digestOf fingerprints generated inputs, so a report can show that two
// runs measured the same bytes.
func digestOf(blobs ...[]byte) string {
	h := sha256.New()
	for _, b := range blobs {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rngFor derives an independent stream per (seed, purpose, index).
func rngFor(seed int64, purpose, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(purpose)*10_007 + int64(i)))
}

// photoJPEG renders one class-`i%10` scene at a quarter of the target size,
// upscales it to w x h (as the repo's HD benchmarks do) and encodes it as a
// 4:2:0 quality-90 JPEG.
func photoJPEG(rng *rand.Rand, i, w, h int) []byte {
	m := data.RenderImage(rng, i%10, 10, h/2).ResizeBilinear(w, h)
	return jpeg.Encode(m, jpeg.EncodeOptions{Quality: 90, Subsampling: jpeg.Sub420})
}

// thumbPNG renders one 160x160 thumbnail and encodes it losslessly.
func thumbPNG(rng *rand.Rand, i int) []byte {
	return spng.Encode(data.RenderImage(rng, i%10, 10, 160), 0)
}

// movingClip encodes a square clip with three blobs moving over a textured
// background, so P-frames carry real motion (the content of the repo's
// benchClip, with seed-dependent phases).
func movingClip(rng *rand.Rand, frames, res, gop, quality int) ([]byte, error) {
	phase := [3]int{rng.Intn(res), rng.Intn(res), rng.Intn(res)}
	imgs := make([]*img.Image, frames)
	for f := range imgs {
		m := img.New(res, res)
		for y := 0; y < res; y++ {
			for x := 0; x < res; x++ {
				m.Set(x, y, uint8(60+x%160), uint8(70+y%150), uint8(90+((x+y)&63)))
			}
		}
		for k := 0; k < 3; k++ {
			cx := (f*(5+2*k) + phase[k]) % res
			cy := res/4 + k*res/4
			for dy := -5; dy <= 5; dy++ {
				for dx := -8; dx <= 8; dx++ {
					if x, y := cx+dx, cy+dy; x >= 0 && x < res && y >= 0 && y < res {
						m.Set(x, y, 240, uint8(200+rng.Intn(40)), 150)
					}
				}
			}
		}
		imgs[f] = m
	}
	return smol.EncodeVideo(imgs, quality, gop)
}

// blobFrame draws a dark noisy frame, optionally with one bright blob the
// blob-counter proxy and the presence classifier can both spot (the scene
// of the repo's selection benchmark).
func blobFrame(rng *rand.Rand, res int, blob bool) *img.Image {
	m := img.New(res, res)
	for y := 0; y < res; y++ {
		for x := 0; x < res; x++ {
			m.Set(x, y, uint8(36+rng.Intn(8)), uint8(36+rng.Intn(8)), uint8(56+rng.Intn(8)))
		}
	}
	if blob {
		r := max(res/10, 1)
		cx := res/4 + rng.Intn(res/2)
		cy := res/4 + rng.Intn(res/2)
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				if x, y := cx+dx, cy+dy; x >= 0 && x < res && y >= 0 && y < res {
					m.Set(x, y, 240, 240, uint8(190+rng.Intn(20)))
				}
			}
		}
	}
	return m
}

// blobClip encodes a clip in which selPct percent of the frames, evenly
// spaced, show exactly one blob. Which frames carry a blob is fixed (from
// mid-period on), because a seek costs its frame's distance into its GOP:
// the seed varies what the frames look like, never how much work a query is.
func blobClip(rng *rand.Rand, frames, res, gop, quality, selPct int) ([]byte, error) {
	period := 100 / selPct
	offset := period / 2
	imgs := make([]*img.Image, frames)
	for f := range imgs {
		imgs[f] = blobFrame(rng, res, f%period == offset)
	}
	return smol.EncodeVideo(imgs, quality, gop)
}

// zooSpec is one untrained zoo entry with a pinned accuracy: only geometry
// matters for throughput, and a fixed weight seed keeps predictions
// reproducible.
type zooSpec struct {
	variant string
	res     int
	acc     float64
}

// buildZoo instantiates the entries with weights drawn from weightSeed.
func buildZoo(specs []zooSpec, classes int, weightSeed int64) (*smol.Zoo, error) {
	zoo := smol.NewZoo()
	for _, e := range specs {
		cfg, err := nn.VariantConfig(e.variant, classes, e.res)
		if err != nil {
			return nil, err
		}
		model, err := nn.NewResNet(rand.New(rand.NewSource(weightSeed)), cfg)
		if err != nil {
			return nil, err
		}
		if err := zoo.Add(smol.ZooEntry{Variant: e.variant, InputRes: e.res, Accuracy: e.acc,
			Model: model, Config: cfg}); err != nil {
			return nil, err
		}
	}
	return zoo, nil
}

// presenceClassifier trains the small blob-presence detector the selection
// workload verifies with (class 1 = one bright blob), exactly as the repo's
// selection benchmark does. Training is deterministic.
func presenceClassifier() (*smol.Classifier, error) {
	rng := rand.New(rand.NewSource(11))
	train := make([]smol.LabeledImage, 192)
	for i := range train {
		train[i] = smol.LabeledImage{Image: blobFrame(rng, 16, i%2 == 1), Label: i % 2}
	}
	return smol.TrainClassifier(train, 2, smol.TrainOptions{Epochs: 5, Seed: 3})
}
