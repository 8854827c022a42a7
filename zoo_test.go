package smol

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"smol/internal/data"
	"smol/internal/hw"
)

// trainTinyZoo builds a two-entry zoo from the shared tiny dataset: the
// memoized accurate classifier at 16px (accuracy pinned at 0.95) plus a
// cheap 8px resnet-a (accuracy pinned at 0.60), so planner tests have a
// deterministic accuracy ordering regardless of measured timings.
var (
	tinyZooOnce sync.Once
	tinyZoo     *Zoo
	tinyZooErr  error
)

func trainTinyZoo(t *testing.T) (*Zoo, []LabeledImage) {
	t.Helper()
	clf, test := trainTinyClassifier(t)
	tinyZooOnce.Do(func() {
		rng := rand.New(rand.NewSource(9))
		var train []LabeledImage
		for i := 0; i < 96; i++ {
			c := i % 2
			train = append(train, LabeledImage{Image: data.RenderImage(rng, c, 2, 8), Label: c})
		}
		cheap, err := TrainClassifier(train, 2, TrainOptions{Epochs: 2, Seed: 4})
		if err != nil {
			tinyZooErr = err
			return
		}
		z := NewZoo()
		if err := z.AddClassifier(clf, "resnet-a", 0.95); err != nil {
			tinyZooErr = err
			return
		}
		if err := z.AddClassifier(cheap, "resnet-a", 0.60); err != nil {
			tinyZooErr = err
			return
		}
		tinyZoo = z
	})
	if tinyZooErr != nil {
		t.Fatal(tinyZooErr)
	}
	return tinyZoo, test
}

func encodeTestSet(test []LabeledImage) []MediaInput {
	inputs := make([]MediaInput, len(test))
	for i, li := range test {
		inputs[i] = MediaInput{Codec: CodecJPEG, Data: EncodeJPEG(li.Image, 95)}
	}
	return inputs
}

// TestZooRegistry: Add validation, Best, and the save/load round trip
// (weights, variant names, and measured accuracies all survive).
func TestZooRegistry(t *testing.T) {
	zoo, test := trainTinyZoo(t)
	if zoo.Len() != 2 {
		t.Fatalf("zoo has %d entries", zoo.Len())
	}
	best, ok := zoo.Best()
	if !ok || best.Name() != "resnet-a@16" || best.Accuracy != 0.95 {
		t.Fatalf("best entry %+v", best)
	}
	z2 := NewZoo()
	if err := z2.Add(ZooEntry{Variant: "x", InputRes: 16}); err == nil {
		t.Fatal("entry without model should be rejected")
	}
	if err := z2.Add(zoo.Entries()[0]); err != nil {
		t.Fatal(err)
	}
	if err := z2.Add(zoo.Entries()[0]); err == nil {
		t.Fatal("duplicate entry should be rejected")
	}

	var buf bytes.Buffer
	if err := zoo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadZoo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != zoo.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), zoo.Len())
	}
	for i, e := range loaded.Entries() {
		orig := zoo.Entries()[i]
		if e.Name() != orig.Name() || e.Accuracy != orig.Accuracy {
			t.Fatalf("entry %d: %s acc %v, want %s acc %v", i, e.Name(), e.Accuracy, orig.Name(), orig.Accuracy)
		}
	}
	// The loaded accurate entry must predict identically to the original.
	rtOrig, err := NewRuntime(zoo.Entries()[0].Model, RuntimeConfig{InputRes: 16, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	rtLoaded, err := NewRuntime(loaded.Entries()[0].Model, RuntimeConfig{InputRes: 16, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	inputs := encodeTestSet(test)
	a, err := classifyOnce(rtOrig, inputs, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := classifyOnce(rtLoaded, inputs, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Predictions {
		if a.Predictions[i] != b.Predictions[i] {
			t.Fatalf("loaded zoo prediction %d differs", i)
		}
	}
}

// TestPlannerStrictFloorMatchesSingleModel: with the accuracy floor set to
// the best entry's accuracy, only that entry is feasible, and the planner
// path must produce bit-identical predictions to today's single-model
// runtime across batch sizes — plan selection changes routing, never
// semantics.
func TestPlannerStrictFloorMatchesSingleModel(t *testing.T) {
	zoo, test := trainTinyZoo(t)
	best, _ := zoo.Best()
	inputs := encodeTestSet(test)
	for _, batch := range []int{1, 8, 32} {
		single, err := NewRuntime(best.Model, RuntimeConfig{InputRes: 16, BatchSize: batch, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := classifyOnce(single, inputs, QoS{})
		if err != nil {
			t.Fatal(err)
		}
		zr, err := NewZooRuntime(zoo, RuntimeConfig{BatchSize: batch, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := classifyOnce(zr, inputs, QoS{MinAccuracy: best.Accuracy})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Entry != best.Name() {
			t.Fatalf("batch %d: strict floor routed to %s, want %s", batch, res.Plan.Entry, best.Name())
		}
		if len(res.Predictions) != len(ref.Predictions) {
			t.Fatalf("batch %d: %d predictions", batch, len(res.Predictions))
		}
		for i := range ref.Predictions {
			if res.Predictions[i] != ref.Predictions[i] {
				t.Fatalf("batch %d image %d: planner predicted %d, single-model %d",
					batch, i, res.Predictions[i], ref.Predictions[i])
			}
		}
	}
}

// TestPlannerQoSRouting: an infeasible floor must fail loudly; a relaxed
// floor must succeed and report a plan whose entry meets it; the planner
// decision must carry predicted throughput for observability.
func TestPlannerQoSRouting(t *testing.T) {
	zoo, test := trainTinyZoo(t)
	zr, err := NewZooRuntime(zoo, RuntimeConfig{BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	inputs := encodeTestSet(test)
	if _, err := classifyOnce(zr, inputs, QoS{MinAccuracy: 0.99}); err == nil {
		t.Fatal("floor above every entry's accuracy should fail")
	}
	res, err := classifyOnce(zr, inputs, QoS{MinAccuracy: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Accuracy < 0.5 {
		t.Fatalf("relaxed floor chose %+v", res.Plan)
	}
	if res.Plan.PredictedThroughput <= 0 || res.Plan.DecodeScale < 1 || res.Plan.Preproc == "" {
		t.Fatalf("incomplete serve plan %+v", res.Plan)
	}
}

// TestServerMixedQoSConcurrent: 8 goroutines serving alternating QoS
// targets through one warm Server. Strict-floor requests must return the
// accurate entry's exact predictions while max-throughput requests
// interleave in the same pipeline — the mixed-QoS race scenario for the
// planner-aware serving mode (run under -race in CI).
func TestServerMixedQoSConcurrent(t *testing.T) {
	zoo, test := trainTinyZoo(t)
	best, _ := zoo.Best()
	inputs := encodeTestSet(test)

	single, err := NewRuntime(best.Model, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := classifyOnce(single, inputs, QoS{})
	if err != nil {
		t.Fatal(err)
	}

	zr, err := NewZooRuntime(zoo, RuntimeConfig{BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := zr.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const callers = 8
	var wg sync.WaitGroup
	results := make([]ClassifyResult, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		qos := QoS{} // even callers: max throughput
		if c%2 == 1 {
			qos = QoS{MinAccuracy: best.Accuracy} // odd callers: strict floor
		}
		wg.Add(1)
		go func(c int, qos QoS) {
			defer wg.Done()
			results[c], errs[c] = srv.ClassifyMedia(context.Background(), inputs, qos)
		}(c, qos)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		if len(results[c].Predictions) != len(inputs) {
			t.Fatalf("caller %d: %d predictions", c, len(results[c].Predictions))
		}
		if c%2 == 1 {
			if results[c].Plan.Entry != best.Name() {
				t.Fatalf("caller %d: strict floor routed to %s", c, results[c].Plan.Entry)
			}
			for i, p := range results[c].Predictions {
				if p != ref.Predictions[i] {
					t.Fatalf("caller %d image %d: %d, single-model %d", c, i, p, ref.Predictions[i])
				}
			}
		}
	}
}

// TestIngestPlanCacheLRU: adversarially varied input resolutions must not
// disable plan caching — the cache stays bounded, the hottest classes stay
// resident, and evicted classes recompile on next sight with identical
// plans.
func TestIngestPlanCacheLRU(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16})
	if err != nil {
		t.Fatal(err)
	}
	rt.ingest.init(4)
	hot := ingestKey{w: 160, h: 120, mcu: 8, res: 16}
	if _, err := rt.ingestFor(hot.w, hot.h, hot.mcu, CodecJPEG, 16); err != nil {
		t.Fatal(err)
	}
	// An adversarial sweep of distinct resolutions, touching the hot class
	// between evictions so recency protects it.
	for i := 0; i < 40; i++ {
		w := 64 + 8*i
		if _, err := rt.ingestFor(w, w, 8, CodecJPEG, 16); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.ingestFor(hot.w, hot.h, hot.mcu, CodecJPEG, 16); err != nil {
			t.Fatal(err)
		}
	}
	if n := rt.ingest.len(); n > 4 {
		t.Fatalf("cache grew to %d entries past its cap of 4", n)
	}
	// The hot class must still be resident (a get hit, not a recompile).
	if _, ok := rt.ingest.get(hot); !ok {
		t.Fatal("recently used class was evicted")
	}
	// Cold classes were evicted but remain servable, with the same plan a
	// fresh runtime would compile.
	ip, err := rt.ingestFor(64, 64, 8, CodecJPEG, 16)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.ingestFor(64, 64, 8, CodecJPEG, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ip.scale != want.scale || ip.full.Name != want.full.Name {
		t.Fatalf("recompiled plan %q/1-%d, fresh runtime %q/1-%d",
			ip.full.Name, ip.scale, want.full.Name, want.scale)
	}
}

// TestTrainZoo: the training helper must hold out a validation split,
// measure real accuracies, and produce a servable zoo.
func TestTrainZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two models")
	}
	rng := rand.New(rand.NewSource(11))
	var images []LabeledImage
	for i := 0; i < 160; i++ {
		c := i % 2
		images = append(images, LabeledImage{Image: data.RenderImage(rng, c, 2, 16), Label: c})
	}
	zoo, err := TrainZoo(images, 2, ZooTrainOptions{
		Specs:  []ZooSpec{{Variant: "resnet-a"}, {Variant: "resnet-a", InputRes: 8}},
		Epochs: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if zoo.Len() != 2 {
		t.Fatalf("%d entries", zoo.Len())
	}
	for _, e := range zoo.Entries() {
		if e.Accuracy < 0 || e.Accuracy > 1 {
			t.Fatalf("entry %s accuracy %v", e.Name(), e.Accuracy)
		}
	}
	if zoo.Entries()[0].Accuracy < 0.8 {
		t.Fatalf("native-res entry accuracy %v on a trivial task", zoo.Entries()[0].Accuracy)
	}
	zr, err := NewZooRuntime(zoo, RuntimeConfig{BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]MediaInput, 8)
	for i := range inputs {
		inputs[i] = MediaInput{Codec: CodecJPEG, Data: EncodeJPEG(images[i].Image, 95)}
	}
	res, err := classifyOnce(zr, inputs, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != len(inputs) {
		t.Fatalf("%d predictions", len(res.Predictions))
	}
}

// TestPlannerEmptyRequest: an empty ClassifyMedia request must stay a successful no-op
// (no calibration pass, no fabricated input class), while an
// unsatisfiable accuracy floor still fails.
func TestPlannerEmptyRequest(t *testing.T) {
	zoo, _ := trainTinyZoo(t)
	zr, err := NewZooRuntime(zoo, RuntimeConfig{BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := zr.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.ClassifyMedia(context.Background(), nil, QoS{MaxLatencyUS: 1})
	if err != nil {
		t.Fatalf("empty request failed: %v", err)
	}
	if len(res.Predictions) != 0 || res.Plan.Entry == "" {
		t.Fatalf("empty request result %+v", res)
	}
	if _, err := srv.ClassifyMedia(context.Background(), nil, QoS{MinAccuracy: 0.99}); err == nil {
		t.Fatal("unsatisfiable floor on empty request should fail")
	}
}

// TestPlannerROICosting: with ROIDecode the planner must price the
// MCU-aligned central-crop decode the runtime actually executes, so its
// throughput prediction on decode-bound inputs beats the full-frame
// prediction. Calibration is pinned so the comparison is deterministic.
func TestPlannerROICosting(t *testing.T) {
	zoo, _ := trainTinyZoo(t)
	pin := &hw.Calibration{
		ExecUS:       map[string]float64{"resnet-a@16": 50, "resnet-a@8": 20},
		PreprocScale: 1,
	}
	sel := func(roi bool) ServePlan {
		zr, err := NewZooRuntime(zoo, RuntimeConfig{BatchSize: 8, Workers: 2, ROIDecode: roi})
		if err != nil {
			t.Fatal(err)
		}
		// Full decode isolates the ROI effect from scale selection.
		zr.jpegScales = nil
		zr.calOnce.Do(func() { zr.cal = pin })
		// A wide input whose central crop covers a small fraction.
		s, err := zr.selectPlan(selKey{w: 1280, h: 240, qos: QoS{MinAccuracy: 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		return s.plan
	}
	full := sel(false)
	roi := sel(true)
	if roi.PredictedThroughput <= full.PredictedThroughput {
		t.Fatalf("ROI-decode prediction %.0f im/s not above full-frame %.0f im/s",
			roi.PredictedThroughput, full.PredictedThroughput)
	}
}
