package smol

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"smol/internal/data"
	"smol/internal/nn"
	"smol/internal/tensor"
)

func paperDNNs() []DNNChoice {
	return []DNNChoice{
		{Name: "resnet-18", InputRes: 224, Accuracy: 0.682},
		{Name: "resnet-34", InputRes: 224, Accuracy: 0.719},
		{Name: "resnet-50", InputRes: 224, Accuracy: 0.7434},
	}
}

func paperFormats() []Format {
	return []Format{
		{Name: "full-jpeg", Kind: FormatJPEG, W: 500, H: 375, Quality: 90},
		{Name: "thumb-png", Kind: FormatPNG, W: 215, H: 161, Lossless: true},
	}
}

func TestOptimizeReturnsFrontier(t *testing.T) {
	front, err := Optimize(paperDNNs(), paperFormats(), DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(front); i++ {
		if front[i].Throughput <= front[i-1].Throughput {
			t.Fatal("frontier not sorted by throughput")
		}
	}
}

func TestSelectWithConstraint(t *testing.T) {
	sel, err := Select(paperDNNs(), paperFormats(), DefaultEnv(), Constraint{MinAccuracy: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Accuracy < 0.7 {
		t.Fatalf("selected plan accuracy %v", sel.Accuracy)
	}
	if _, err := Select(paperDNNs(), paperFormats(), DefaultEnv(), Constraint{MinAccuracy: 0.999}); err == nil {
		t.Fatal("infeasible constraint should error")
	}
}

func TestEstimateThroughput(t *testing.T) {
	front, err := Optimize(paperDNNs(), paperFormats(), DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	tput, err := EstimateThroughput(front[0].Plan, DefaultEnv())
	if err != nil {
		t.Fatal(err)
	}
	if tput <= 0 {
		t.Fatalf("throughput %v", tput)
	}
}

func TestCodecFacades(t *testing.T) {
	m := NewImage(48, 40)
	for y := 0; y < 40; y++ {
		for x := 0; x < 48; x++ {
			m.Set(x, y, uint8(x*5), uint8(y*6), 100)
		}
	}
	// JPEG round trip.
	dec, err := DecodeJPEG(EncodeJPEG(m, 90))
	if err != nil {
		t.Fatal(err)
	}
	if dec.W != 48 || dec.H != 40 {
		t.Fatalf("jpeg dims %dx%d", dec.W, dec.H)
	}
	// ROI decode.
	part, region, stats, err := DecodeJPEGROI(EncodeJPEG(m, 90), Rect{X0: 8, Y0: 8, X1: 24, Y1: 24})
	if err != nil {
		t.Fatal(err)
	}
	if part.W != region.W() || stats.BlocksIDCT >= stats.BlocksTotal {
		t.Fatalf("ROI decode did not skip work: %+v", stats)
	}
	// PNG round trip is lossless.
	pdec, err := DecodePNG(EncodePNG(m))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pdec.Pix, m.Pix) {
		t.Fatal("png not lossless")
	}
	// Video round trip.
	frames := []*Image{m, m.Clone(), m.Clone()}
	enc, err := EncodeVideo(frames, 80, 2)
	if err != nil {
		t.Fatal(err)
	}
	vdec, err := DecodeVideo(enc, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(vdec) != 3 {
		t.Fatalf("decoded %d frames", len(vdec))
	}
}

// trainTinyClassifier builds a 2-class dataset and classifier quickly.
// Training is deterministic (fixed seeds), so the result is memoized and
// shared by every test that needs a trained model.
var (
	tinyOnce sync.Once
	tinyClf  *Classifier
	tinyTest []LabeledImage
	tinyErr  error
)

func trainTinyClassifier(t *testing.T) (*Classifier, []LabeledImage) {
	t.Helper()
	tinyOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		var train []LabeledImage
		for i := 0; i < 192; i++ {
			c := i % 2
			train = append(train, LabeledImage{Image: data.RenderImage(rng, c, 2, 16), Label: c})
		}
		for i := 0; i < 40; i++ {
			c := i % 2
			tinyTest = append(tinyTest, LabeledImage{Image: data.RenderImage(rng, c, 2, 16), Label: c})
		}
		tinyClf, tinyErr = TrainClassifier(train, 2, TrainOptions{Epochs: 6, Seed: 2})
	})
	if tinyErr != nil {
		t.Fatal(tinyErr)
	}
	return tinyClf, tinyTest
}

func TestTrainEvaluateSaveLoad(t *testing.T) {
	clf, test := trainTinyClassifier(t)
	acc := clf.Evaluate(test)
	if acc < 0.8 {
		t.Fatalf("accuracy %v on a trivial 2-class task", acc)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Evaluate(test); got != acc {
		t.Fatalf("loaded accuracy %v != %v", got, acc)
	}
}

func TestTrainClassifierValidation(t *testing.T) {
	if _, err := TrainClassifier(nil, 2, TrainOptions{}); err == nil {
		t.Fatal("empty training set should error")
	}
	bad := []LabeledImage{{Image: NewImage(8, 8), Label: 5}}
	if _, err := TrainClassifier(bad, 2, TrainOptions{}); err == nil {
		t.Fatal("out-of-range label should error")
	}
}

func TestRuntimeClassifyEndToEnd(t *testing.T) {
	clf, test := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Encode the test set as JPEGs and classify through the real engine.
	inputs := make([]MediaInput, len(test))
	labels := make([]int, len(test))
	for i, li := range test {
		inputs[i] = MediaInput{Codec: CodecJPEG, Data: EncodeJPEG(li.Image, 95)}
		labels[i] = li.Label
	}
	res, err := classifyOnce(rt, inputs, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != len(test) {
		t.Fatalf("%d predictions", len(res.Predictions))
	}
	correct := 0
	for i, p := range res.Predictions {
		if p == labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(test))
	if acc < 0.75 {
		t.Fatalf("end-to-end accuracy %v (JPEG artifacts should cost little)", acc)
	}
	if res.Stats.Throughput <= 0 || res.Stats.Batches == 0 {
		t.Fatalf("stats %+v", res.Stats)
	}
}

// TestRuntimeLeavesKernelTierAlone: the f32 GEMM kernel tier is
// process-wide state owned by its setter (smol-query -nosimd, SMOL_NOSIMD,
// a test oracle), so building a runtime must not flip it back on. On a
// build or host without the AVX2 kernel (-tags noasm, another
// architecture, or SMOL_NOSIMD set) the tier is off already and this test
// passes without testing anything.
func TestRuntimeLeavesKernelTierAlone(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	prev := tensor.SetF32SIMD(false)
	defer tensor.SetF32SIMD(prev)
	if _, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16}); err != nil {
		t.Fatal(err)
	}
	if tensor.F32SIMDActive() {
		t.Fatal("NewRuntime switched the AVX2 f32 kernel tier back on")
	}
}

func TestRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(nil, RuntimeConfig{InputRes: 16}); err == nil {
		t.Fatal("nil model should error")
	}
	clf, _ := trainTinyClassifier(t)
	if _, err := NewRuntime(clf.Model, RuntimeConfig{}); err == nil {
		t.Fatal("missing InputRes should error")
	}
}

// TestRuntimeRejectsUncompilableModel: every served model executes through
// a compiled plan, so a layer nn.Compile does not cover is a construction
// error that names the zoo entry, not a fallback to a serialized path.
func TestRuntimeRejectsUncompilableModel(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	layers := append([]nn.Layer{clf.Model.Layers[0], &nn.MaxPool2{}}, clf.Model.Layers[1:]...)
	_, err := NewRuntime(&nn.Model{Layers: layers}, RuntimeConfig{InputRes: 16})
	if err == nil || !strings.Contains(err.Error(), "model@16") {
		t.Fatalf("uncompilable model: got error %v, want one naming entry model@16", err)
	}
}

func TestLatencyAPI(t *testing.T) {
	env := DefaultEnv()
	front, err := Optimize(paperDNNs(), paperFormats(), env)
	if err != nil {
		t.Fatal(err)
	}
	p := front[0].Plan
	lat, err := EstimateLatency(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 {
		t.Fatalf("latency %v", lat)
	}
	batch, tput, err := BatchForLatency(p, env, lat*2)
	if err != nil {
		t.Fatal(err)
	}
	if batch != env.BatchSize {
		t.Fatalf("loose target should keep batch %d, got %d", env.BatchSize, batch)
	}
	if tput <= 0 {
		t.Fatalf("throughput %v", tput)
	}
	// A latency-capped Select only returns plans under the cap.
	sel, err := Select(paperDNNs(), paperFormats(), env, Constraint{MaxLatencyUS: lat * 10})
	if err != nil {
		t.Fatal(err)
	}
	if sel.LatencyUS > lat*10 {
		t.Fatalf("selected latency %v above cap %v", sel.LatencyUS, lat*10)
	}
}
