package smol

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"smol/internal/nn"
)

// benchClip renders and encodes a clip with real motion at the given square
// resolution.
func benchClip(b *testing.B, frames, res, gop int) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	imgs := make([]*Image, frames)
	for f := range imgs {
		m := NewImage(res, res)
		for y := 0; y < res; y++ {
			for x := 0; x < res; x++ {
				m.Set(x, y, uint8(60+x%160), uint8(70+y%150), uint8(90+((x+y)&63)))
			}
		}
		for k := 0; k < 3; k++ {
			cx := (f*(5+2*k) + k*res/3) % res
			cy := res/4 + k*res/4
			for dy := -5; dy <= 5; dy++ {
				for dx := -8; dx <= 8; dx++ {
					x, y := cx+dx, cy+dy
					if x >= 0 && x < res && y >= 0 && y < res {
						m.Set(x, y, 240, uint8(200+rng.Intn(40)), 150)
					}
				}
			}
		}
		imgs[f] = m
	}
	enc, err := EncodeVideo(imgs, 70, gop)
	if err != nil {
		b.Fatal(err)
	}
	return enc
}

// benchVideoZoo builds a two-entry zoo with pinned accuracies (untrained
// weights — only geometry matters for throughput).
func benchVideoZoo(b *testing.B) *Zoo {
	b.Helper()
	zoo := NewZoo()
	for _, e := range []struct {
		variant string
		res     int
		acc     float64
	}{
		{"resnet-a", 64, 0.95},
		{"resnet-a", 32, 0.80},
	} {
		cfg, err := nn.VariantConfig(e.variant, 4, e.res)
		if err != nil {
			b.Fatal(err)
		}
		model, err := nn.NewResNet(rand.New(rand.NewSource(2)), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := zoo.Add(ZooEntry{Variant: e.variant, InputRes: e.res, Accuracy: e.acc,
			Model: model, Config: cfg}); err != nil {
			b.Fatal(err)
		}
	}
	return zoo
}

// BenchmarkVideoServe sweeps the video planner's fidelity levers through a
// warm server: deblock on/off and the natively-stored resolution variant,
// each forced in isolation, then the accuracy floors that let the planner
// choose jointly. The frames/s metric (sampled frames classified per
// second, decode included) is the number tracked in BENCH_video.json.
func BenchmarkVideoServe(b *testing.B) {
	full := benchClip(b, 24, 256, 8)
	low := benchClip(b, 24, 128, 8)
	rt, err := NewZooRuntime(benchVideoZoo(b), RuntimeConfig{BatchSize: 8})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	// Each request indexes its raw bytes (primary stream, then renditions)
	// inside the timed loop, as a raw-bytes request must.
	classify := func(streams [][]byte, opts VideoOpts) (VideoResult, error) {
		v, err := IndexVideo(streams[0], streams[1:]...)
		if err != nil {
			return VideoResult{}, err
		}
		return srv.ClassifyVideoStored(ctx, v, opts)
	}
	cases := []struct {
		name    string
		streams [][]byte
		opts    VideoOpts
	}{
		{"deblock-on/res-full", [][]byte{full}, VideoOpts{Stride: 2, Deblock: DeblockOn}},
		{"deblock-off/res-full", [][]byte{full}, VideoOpts{Stride: 2, Deblock: DeblockOff}},
		{"deblock-on/res-low", [][]byte{low}, VideoOpts{Stride: 2, Deblock: DeblockOn}},
		{"deblock-off/res-low", [][]byte{low}, VideoOpts{Stride: 2, Deblock: DeblockOff}},
		{"floor-strict", [][]byte{full, low}, VideoOpts{Stride: 2, QoS: QoS{MinAccuracy: 0.95}}},
		{"floor-relaxed", [][]byte{full, low}, VideoOpts{Stride: 2}},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			res, err := classify(bc.streams, bc.opts) // warm pools + plan caches
			if err != nil {
				b.Fatal(err)
			}
			frames := len(res.Predictions)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := classify(bc.streams, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*frames)/b.Elapsed().Seconds(), "frames/s")
		})
	}
}

// BenchmarkEstimateMeanSavings measures the aggregation query and reports
// the target-model invocations it saved against the exhaustive
// classify-every-frame baseline — BlazeIt's headline number (§8.4).
func BenchmarkEstimateMeanSavings(b *testing.B) {
	clip := benchClip(b, 120, 64, 12)
	rt, err := NewZooRuntime(benchVideoZoo(b), RuntimeConfig{BatchSize: 8})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	var last AggregateResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := IndexVideo(clip)
		if err != nil {
			b.Fatal(err)
		}
		last, err = srv.EstimateMeanStored(ctx, v, AggregateOpts{ErrTarget: 0.5, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(last.TargetInvocations), "target-invocations")
	b.ReportMetric(float64(last.Frames-last.TargetInvocations), "invocations-saved")
}

// BenchmarkStoreSampling sweeps sampled classification over a store-backed
// clip: the GOP-seek fan-out (default) against the sequential full-decode
// path (DisableGOPSeek) at each stride. Seek decode work scales with the
// sample count — at stride 100 the sequential path decodes ~301 frames per
// request against the fan-out's handful, which is the >=10x the store
// exists for. frames/s counts sampled frames classified per second, decode
// included.
func BenchmarkStoreSampling(b *testing.B) {
	clip := benchClip(b, 360, 128, 20)
	ms, err := OpenMediaStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer ms.Close()
	v, err := ms.IngestVideo("clip", clip, IngestOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"seek", false}, {"sequential", true}} {
		rt, err := NewZooRuntime(benchVideoZoo(b), RuntimeConfig{BatchSize: 8, DisableGOPSeek: mode.disable})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := rt.Serve()
		if err != nil {
			b.Fatal(err)
		}
		for _, stride := range []int{10, 100} {
			opts := VideoOpts{Stride: stride, Deblock: DeblockOn}
			b.Run(fmt.Sprintf("stride-%d/%s", stride, mode.name), func(b *testing.B) {
				res, err := srv.ClassifyVideoStored(ctx, v, opts) // warm pools + plan caches
				if err != nil {
					b.Fatal(err)
				}
				frames := len(res.Predictions)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := srv.ClassifyVideoStored(ctx, v, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N*frames)/b.Elapsed().Seconds(), "frames/s")
			})
		}
		srv.Close()
	}
}
