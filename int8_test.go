package smol

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"smol/internal/hw"
	"smol/internal/nn"
)

// quantizedTinyZoo builds a fresh copy of the shared tiny zoo and appends
// int8 twins calibrated and scored on the held-out test split. A copy, not
// the memoized zoo itself, so tests that count entries stay independent.
func quantizedTinyZoo(t *testing.T) (*Zoo, []LabeledImage) {
	t.Helper()
	zoo, test := trainTinyZoo(t)
	z := NewZoo()
	for _, e := range zoo.Entries() {
		if err := z.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := QuantizeZoo(z, test); err != nil {
		t.Fatal(err)
	}
	return z, test
}

// TestQuantizeZoo: every compilable entry gains an int8 twin whose name
// carries the precision suffix, whose accuracy is measured (strictly below
// the parent's, so exact floors stay f32) and within two points of the f32
// plan's own accuracy on the same held-out split.
func TestQuantizeZoo(t *testing.T) {
	zoo, test := trainTinyZoo(t)
	z, _ := quantizedTinyZoo(t)
	if z.Len() != 2*zoo.Len() {
		t.Fatalf("quantized zoo has %d entries, want %d", z.Len(), 2*zoo.Len())
	}
	for _, parent := range zoo.Entries() {
		var twin ZooEntry
		found := false
		for _, e := range z.Entries() {
			if e.Int8() && e.Variant == parent.Variant && e.InputRes == parent.InputRes {
				twin, found = e, true
			}
		}
		if !found {
			t.Fatalf("no int8 twin for %s", parent.Name())
		}
		if twin.Name() != parent.Name()+"/int8" {
			t.Fatalf("twin name %s, want %s/int8", twin.Name(), parent.Name())
		}
		if twin.Accuracy >= parent.Accuracy {
			t.Fatalf("twin %s accuracy %v not strictly below parent %v",
				twin.Name(), twin.Accuracy, parent.Accuracy)
		}
		if len(twin.Calib.ActScales) == 0 || twin.Calib.InputScale <= 0 {
			t.Fatalf("twin %s has no calibration", twin.Name())
		}

		// The acceptance bound: the int8 tier's real held-out accuracy is
		// within 2 points of the f32 plan's on the same split. Measure both
		// through the same batches (the parent's stored Accuracy is pinned
		// by the test fixture, not measured, so compare plan vs plan).
		plan, err := nn.Compile(parent.Model)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := nn.Quantize(plan, twin.Calib)
		if err != nil {
			t.Fatal(err)
		}
		batches, labels := labeledBatches(resizeLabeled(test, parent.InputRes), 32)
		f32Correct, int8Correct, total := 0, 0, 0
		for bi, b := range batches {
			fp := plan.Predict(b)
			ip := qp.Predict(b)
			for i := range fp {
				if fp[i] == labels[bi][i] {
					f32Correct++
				}
				if ip[i] == labels[bi][i] {
					int8Correct++
				}
				total++
			}
		}
		f32Acc := float64(f32Correct) / float64(total)
		int8Acc := float64(int8Correct) / float64(total)
		if math.Abs(f32Acc-int8Acc) > 0.02 {
			t.Fatalf("%s: int8 held-out accuracy %.3f drifts more than 2 points from f32 %.3f",
				twin.Name(), int8Acc, f32Acc)
		}
	}
}

// TestInt8ZooSaveLoad: precision tags and activation calibrations survive
// the zoo round trip, and the reloaded int8 entries predict bit-identically
// (weight scales are recomputed from the f32 weights, activation scales
// come from the persisted calibration — nothing else feeds the plan).
func TestInt8ZooSaveLoad(t *testing.T) {
	z, test := quantizedTinyZoo(t)
	var buf bytes.Buffer
	if err := z.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadZoo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != z.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), z.Len())
	}
	for i, e := range loaded.Entries() {
		orig := z.Entries()[i]
		if e.Name() != orig.Name() || e.Precision != orig.Precision || e.Accuracy != orig.Accuracy {
			t.Fatalf("entry %d round-tripped to %s/%q acc %v, want %s/%q acc %v",
				i, e.Name(), e.Precision, e.Accuracy, orig.Name(), orig.Precision, orig.Accuracy)
		}
		if !reflect.DeepEqual(e.Calib, orig.Calib) {
			t.Fatalf("entry %s calibration did not round-trip", e.Name())
		}
	}
	inputs := encodeTestSet(test)
	a := classifyThroughInt8(t, z, inputs)
	b := classifyThroughInt8(t, loaded, inputs)
	if a.Plan.Entry != b.Plan.Entry {
		t.Fatalf("loaded zoo routed to %s, original to %s", b.Plan.Entry, a.Plan.Entry)
	}
	for i := range a.Predictions {
		if a.Predictions[i] != b.Predictions[i] {
			t.Fatalf("loaded zoo prediction %d differs", i)
		}
	}
}

// classifyThroughInt8 serves one request through a runtime whose planner is
// pinned to make the int8 twins strictly cheaper, so the relaxed floor
// deterministically routes to the quantized tier.
func classifyThroughInt8(t *testing.T, z *Zoo, inputs []MediaInput) ClassifyResult {
	t.Helper()
	zr, err := NewZooRuntime(z, RuntimeConfig{BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	zr.calOnce.Do(func() { zr.cal = pinnedInt8Calibration(z) })
	res, err := classifyOnce(zr, inputs, QoS{MinAccuracy: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Precision != PrecisionInt8 {
		t.Fatalf("pinned-cost relaxed floor served %s at %s, want int8",
			res.Plan.Entry, res.Plan.Precision)
	}
	return res
}

// pinnedInt8Calibration prices every int8 entry at a quarter of its f32
// sibling's execution cost, removing timing noise from routing tests.
func pinnedInt8Calibration(z *Zoo) *hw.Calibration {
	cal := &hw.Calibration{ExecUS: make(map[string]float64), PreprocScale: 1}
	for _, e := range z.Entries() {
		us := 100.0
		if e.Int8() {
			us = 25.0
		}
		cal.ExecUS[e.Name()] = us
	}
	return cal
}

// TestInt8StrictFloorBitIdentical: with the accuracy floor set exactly to
// the best f32 entry's accuracy, the int8 twins (capped strictly below it)
// are infeasible, the plan reports fp32, and predictions are bit-identical
// to the single-model runtime — even when the pinned cost model makes int8
// look four times faster.
func TestInt8StrictFloorBitIdentical(t *testing.T) {
	z, test := quantizedTinyZoo(t)
	best, _ := z.Best()
	if best.Int8() {
		t.Fatalf("best entry %s is int8; caps should keep f32 on top", best.Name())
	}
	inputs := encodeTestSet(test)
	single, err := NewRuntime(best.Model, RuntimeConfig{InputRes: best.InputRes, BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := classifyOnce(single, inputs, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	zr, err := NewZooRuntime(z, RuntimeConfig{BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	zr.calOnce.Do(func() { zr.cal = pinnedInt8Calibration(z) })
	res, err := classifyOnce(zr, inputs, QoS{MinAccuracy: best.Accuracy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Entry != best.Name() || res.Plan.Precision != PrecisionFP32 {
		t.Fatalf("strict floor routed to %s [%s], want %s [fp32]",
			res.Plan.Entry, res.Plan.Precision, best.Name())
	}
	for i := range ref.Predictions {
		if res.Predictions[i] != ref.Predictions[i] {
			t.Fatalf("image %d: strict-floor prediction %d, single-model %d",
				i, res.Predictions[i], ref.Predictions[i])
		}
	}
}

// TestInt8RelaxedFloorRoutesToInt8: under a pinned cost model where the
// quantized twins are strictly cheaper, a floor below the twins' measured
// accuracy must route to the int8 tier and still serve correct-length,
// deterministic predictions end to end through the real pipeline.
func TestInt8RelaxedFloorRoutesToInt8(t *testing.T) {
	z, test := quantizedTinyZoo(t)
	inputs := encodeTestSet(test)
	res := classifyThroughInt8(t, z, inputs)
	if len(res.Predictions) != len(inputs) {
		t.Fatalf("%d predictions for %d inputs", len(res.Predictions), len(inputs))
	}
	if !strings.HasSuffix(res.Plan.Entry, "/int8") {
		t.Fatalf("int8 plan entry %s lacks the precision suffix", res.Plan.Entry)
	}
	again := classifyThroughInt8(t, z, inputs)
	for i := range res.Predictions {
		if res.Predictions[i] != again.Predictions[i] {
			t.Fatalf("int8 serving nondeterministic at image %d", i)
		}
	}
}

// TestInt8ServerConcurrent: 8 goroutines hammer one warm Server pinned to
// the int8 tier. Integer accumulation is exact, so every request must
// return the same predictions; under -race this is the quantized serving
// reentrancy proof.
func TestInt8ServerConcurrent(t *testing.T) {
	z, test := quantizedTinyZoo(t)
	inputs := encodeTestSet(test)
	zr, err := NewZooRuntime(z, RuntimeConfig{BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	zr.calOnce.Do(func() { zr.cal = pinnedInt8Calibration(z) })
	srv, err := zr.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	want, err := srv.ClassifyMedia(context.Background(), inputs, QoS{MinAccuracy: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if want.Plan.Precision != PrecisionInt8 {
		t.Fatalf("warm-up request served at %s, want int8", want.Plan.Precision)
	}
	const callers = 8
	var wg sync.WaitGroup
	results := make([]ClassifyResult, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = srv.ClassifyMedia(context.Background(), inputs, QoS{MinAccuracy: 0.5})
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		if results[c].Plan.Precision != PrecisionInt8 {
			t.Fatalf("caller %d served at %s", c, results[c].Plan.Precision)
		}
		for i, p := range results[c].Predictions {
			if p != want.Predictions[i] {
				t.Fatalf("caller %d image %d: %d, want %d", c, i, p, want.Predictions[i])
			}
		}
	}
}

// TestInt8EntryValidation: int8 entries without a calibration are rejected
// at Add time, before any runtime could try to quantize them.
func TestInt8EntryValidation(t *testing.T) {
	zoo, _ := trainTinyZoo(t)
	e := zoo.Entries()[0]
	e.Precision = PrecisionInt8
	if err := NewZoo().Add(e); err == nil {
		t.Fatal("int8 entry without calibration should be rejected")
	}
}
