package smol

import (
	"fmt"
	"math/rand"
	"testing"

	"smol/internal/analysis/alloctest"
	"smol/internal/codec/jpeg"
	"smol/internal/data"
	"smol/internal/engine"
	"smol/internal/img"
	"smol/internal/preproc"
	"smol/internal/tensor"
)

// renderLargeInputs draws class-bearing images well above the model's
// input resolution, the regime where the ingest planner should choose a
// reduced decode scale.
func renderLargeInputs(n, res int) ([]MediaInput, []*img.Image) {
	rng := rand.New(rand.NewSource(77))
	inputs := make([]MediaInput, n)
	images := make([]*img.Image, n)
	for i := range inputs {
		m := data.RenderImage(rng, i%2, 2, res)
		images[i] = m
		inputs[i] = MediaInput{Codec: CodecJPEG, Data: EncodeJPEG(m, 95)}
	}
	return inputs, images
}

// TestIngestPlanSelectsScale: the runtime's compiled ingest plan must pick
// the largest decode scale whose decoded short edge covers the input
// resolution, and full decode when scaling is disabled or the input is
// small.
func TestIngestPlanSelectsScale(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16})
	if err != nil {
		t.Fatal(err)
	}
	// 160x120 to 16px target: 1/8 gives short edge 15 (< 16), so 1/4 (30)
	// is the largest legal scale.
	ip, err := rt.ingestFor(160, 120, 8, CodecJPEG, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ip.scale != 4 {
		t.Fatalf("160x120 -> 16px chose scale 1/%d (%q), want 1/4", ip.scale, ip.full.Name)
	}
	if ip.roi != nil {
		t.Fatal("ROI set without ROIDecode")
	}
	if len(ip.resid.Ops) != len(ip.full.Ops)-1 {
		t.Fatalf("residual chain should drop exactly the decode op: %d vs %d ops",
			len(ip.resid.Ops), len(ip.full.Ops))
	}
	// 16x16 input: no reduced scale is legal.
	ip, err = rt.ingestFor(16, 16, 8, CodecJPEG, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ip.scale != 1 {
		t.Fatalf("16x16 input chose scale 1/%d", ip.scale)
	}
	// PNG inputs never scale (the codec cannot).
	ip, err = rt.ingestFor(160, 120, 0, CodecPNG, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ip.scale != 1 || ip.full.DecodeScale() != 1 {
		t.Fatalf("PNG ingest chose scale 1/%d", ip.scale)
	}
	// No reduced scales offered: full decode regardless of geometry.
	rtFull, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16})
	if err != nil {
		t.Fatal(err)
	}
	rtFull.jpegScales = nil
	ip, err = rtFull.ingestFor(160, 120, 8, CodecJPEG, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ip.scale != 1 {
		t.Fatalf("full-decode runtime chose scale 1/%d", ip.scale)
	}
}

// TestStillPlanMatchesIngestPlan: the still planner costs the decode scale
// and preprocessing chain the ingest compiler then executes, for JPEG (4:2:0,
// the 16px MCU the planner assumes under ROI decode) and PNG inputs on the
// default, ROI and full-decode runtimes — the scale decision lives in one
// place, so the prediction and the execution cannot disagree.
func TestStillPlanMatchesIngestPlan(t *testing.T) {
	z, _ := quantizedTinyZoo(t)
	for _, c := range []struct {
		name      string
		roi, full bool
	}{{"default", false, false}, {"roi", true, false}, {"full", false, true}} {
		r := pinnedPlanRuntime(t, z, RuntimeConfig{ROIDecode: c.roi})
		if c.full {
			r.jpegScales = nil
		}
		for _, size := range [][2]int{{1920, 1080}, {1280, 720}, {160, 160}} {
			m := img.New(size[0], size[1])
			for _, in := range []MediaInput{
				{Codec: CodecJPEG, Data: jpeg.Encode(m, jpeg.EncodeOptions{Quality: 90, Subsampling: jpeg.Sub420})},
				{Codec: CodecPNG, Data: EncodePNG(m)},
			} {
				mcu := 0
				if in.Codec == CodecJPEG {
					var dec jpeg.Decoder
					if _, _, err := dec.Parse(in.Data); err != nil {
						t.Fatal(err)
					}
					if mcu = dec.MCUSize(); mcu != 16 {
						t.Fatalf("4:2:0 JPEG has a %dpx MCU, want 16", mcu)
					}
				}
				for _, floor := range []float64{0, 0.95} {
					where := fmt.Sprintf("%s %s %dx%d floor %v", c.name, in.Codec, size[0], size[1], floor)
					_, p, err := r.planFor([]MediaInput{in}, QoS{MinAccuracy: floor})
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					ip, err := r.ingestFor(size[0], size[1], mcu, in.Codec, p.InputRes)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if p.DecodeScale != ip.full.DecodeScale() || p.Preproc != ip.full.Describe() {
						t.Fatalf("%s: planned decode 1/%d %q, ingest executes 1/%d %q",
							where, p.DecodeScale, p.Preproc, ip.full.DecodeScale(), ip.full.Describe())
					}
				}
			}
		}
	}
}

// TestIngestPlanROIGeometry: with ROIDecode the compiled plan precomputes
// the MCU-aligned region once, and its residual chain geometry matches
// what the decoder actually produces for both subsampling modes.
func TestIngestPlanROIGeometry(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, ROIDecode: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	m := data.RenderImage(rng, 0, 2, 120) // 120x120, above the 16px target
	for _, sub := range []jpeg.Subsampling{jpeg.Sub444, jpeg.Sub420} {
		enc := jpeg.Encode(m, jpeg.EncodeOptions{Quality: 92, Subsampling: sub})
		var dec jpeg.Decoder
		w, h, err := dec.Parse(enc)
		if err != nil {
			t.Fatal(err)
		}
		ip, err := rt.ingestFor(w, h, dec.MCUSize(), CodecJPEG, 16)
		if err != nil {
			t.Fatal(err)
		}
		if ip.roi == nil {
			t.Fatal("ROIDecode plan carries no ROI")
		}
		out, region, _, err := dec.Decode(jpeg.DecodeOptions{ROI: ip.roi, Scale: ip.scale})
		if err != nil {
			t.Fatal(err)
		}
		wantW, wantH := img.ScaledDims(region.W(), region.H(), ip.scale)
		if out.W != wantW || out.H != wantH {
			t.Fatalf("sub %v: decoded %dx%d, plan geometry %dx%d", sub, out.W, out.H, wantW, wantH)
		}
		// The residual chain must accept exactly this geometry.
		ex := preproc.NewExecutor()
		dst := tensor.New(3, 16, 16)
		if err := ex.Execute(ip.resid, out, dst); err != nil {
			t.Fatalf("sub %v: residual chain rejects decoded image: %v", sub, err)
		}
	}
}

// TestCompiledIngestMatchesNaivePath: the compiled ingest path (single
// header parse, pooled decode buffers, cached plans, scaled decode) must
// produce predictions identical to naively decoding each image with the
// same options through the one-shot codec API and running the residual
// chain with a fresh executor — the lowering changes execution strategy,
// never semantics.
func TestCompiledIngestMatchesNaivePath(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	for _, c := range []struct {
		roi, full bool
	}{{false, false}, {true, false}, {false, true}} {
		rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2, ROIDecode: c.roi})
		if err != nil {
			t.Fatal(err)
		}
		if c.full {
			rt.jpegScales = nil
		}
		inputs, _ := renderLargeInputs(24, 96)
		res, err := classifyOnce(rt, inputs, QoS{})
		if err != nil {
			t.Fatal(err)
		}
		// Naive reference: one-shot decode per image with the plan's
		// options, fresh executor, reference model forward.
		for i, in := range inputs {
			var dec jpeg.Decoder
			w, h, err := dec.Parse(in.Data)
			if err != nil {
				t.Fatal(err)
			}
			ip, err := rt.ingestFor(w, h, dec.MCUSize(), CodecJPEG, 16)
			if err != nil {
				t.Fatal(err)
			}
			m, _, _, err := jpeg.DecodeWithOptions(in.Data, jpeg.DecodeOptions{ROI: ip.roi, Scale: ip.scale})
			if err != nil {
				t.Fatal(err)
			}
			batch := tensor.New(1, 3, 16, 16)
			one := tensor.New(3, 16, 16)
			if err := preproc.NewExecutor().Execute(ip.resid, m, one); err != nil {
				t.Fatal(err)
			}
			copy(batch.Data, one.Data)
			want := clf.Model.Predict(batch)[0]
			if res.Predictions[i] != want {
				t.Fatalf("roi=%v full=%v image %d: engine predicted %d, naive path %d",
					c.roi, c.full, i, res.Predictions[i], want)
			}
		}
	}
}

// TestScaledIngestPreservesAccuracy: serving with reduced-resolution
// decode must classify the (trivially separable) large test images as
// accurately as full decode.
func TestScaledIngestPreservesAccuracy(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	inputs, _ := renderLargeInputs(40, 128)
	labels := make([]int, len(inputs))
	for i := range labels {
		labels[i] = i % 2
	}
	acc := func(full bool) float64 {
		rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		if full {
			rt.jpegScales = nil
		}
		res, err := classifyOnce(rt, inputs, QoS{})
		if err != nil {
			t.Fatal(err)
		}
		correct := 0
		for i, p := range res.Predictions {
			if p == labels[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(inputs))
	}
	full := acc(true)
	scaled := acc(false)
	if scaled < full-0.05 {
		t.Fatalf("scaled ingest accuracy %.2f vs full-decode %.2f", scaled, full)
	}
}

// TestIngestWarmPathAllocates0: one warm prep invocation — header parse,
// scaled decode into the pooled image, residual chain into the pooled
// tensor — must perform zero heap allocations. This is the allocs/op
// regression guard for the serving-mode ingest hot path.
func TestIngestWarmPathAllocates0(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	for _, cfg := range []RuntimeConfig{
		{InputRes: 16},
		{InputRes: 16, ROIDecode: true},
	} {
		rt, err := NewRuntime(clf.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		inputs, _ := renderLargeInputs(1, 96)
		prep := rt.prepFunc()
		ws := &engine.WorkerState{}
		job := engine.Job{Index: 0, Tag: &classifyReq{inputs: inputs, preds: make([]int, 1), entry: rt.entries[0]}}
		out := tensor.New(3, 16, 16)
		run := func() {
			if err := prep(ws, job, out); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the decoder, executor scratch and plan cache
		alloctest.Run(t, "smol.Runtime.prepJob", 0, run,
			"smol/internal/codec/jpeg.Decoder.Parse", "smol/internal/codec/jpeg.Decoder.Decode")
	}
}
