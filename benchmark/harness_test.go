package main

import (
	"context"
	"errors"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	// The highest percentile a sample supports leaves ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0}, {20, 0.5}, {99, 89.0 / 99}, {100, 0.9}, {1000, 0.99}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if p := highestPercentile(99); p >= 0.9 {
		t.Errorf("99 samples must not support p90, got p%v", 100*p)
	}
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if got := percentile(lat, 100, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(lat, 100, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	// Ten samples lie beyond the highest supported percentile.
	p := highestPercentile(len(lat))
	if beyond := 100 - int(math.Ceil(p*100)); beyond != 10 {
		t.Errorf("%d samples beyond p%v, want 10", beyond, 100*p)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSeedDeterminism(t *testing.T) {
	digest := func(seed int64) string {
		w := &stillWorkload{name: "still-thumb", mix: []int{0}}
		if err := w.gen(seed); err != nil {
			t.Fatal(err)
		}
		clip, err := kit{seed}.clip()
		if err != nil {
			t.Fatal(err)
		}
		return w.digest() + digestOf(clip, kit{seed}.jpeg())
	}
	a, b, c := digest(1), digest(1), digest(2)
	if a != b {
		t.Errorf("same seed gave different inputs: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("different seeds gave the same inputs: %s", a)
	}
}

func TestFailureAccounting(t *testing.T) {
	// Every fourth request errors and every fourth is served below its
	// floor: both count as failed and miss every latency percentile.
	do := func(_ context.Context, req int) outcome {
		o := outcome{items: 8, accuracy: 0.9, floor: 0.5, checked: 8}
		switch req % 4 {
		case 1:
			o.err = errors.New("injected")
		case 3:
			o.accuracy = 0.4
		}
		return o
	}
	r := runLoop(context.Background(), 1, 20*time.Millisecond, do, nil)
	if r.attempted < 8 {
		t.Fatalf("only %d requests in the window", r.attempted)
	}
	if r.failed == 0 || r.failed*2 < r.attempted-2 || r.failed*2 > r.attempted+2 {
		t.Errorf("failed %d of %d, want about half", r.failed, r.attempted)
	}
	if len(r.latMS) != r.attempted-r.failed {
		t.Errorf("%d latencies recorded for %d successes", len(r.latMS), r.attempted-r.failed)
	}
	if r.items != 8*(r.attempted-r.failed) {
		t.Errorf("failed requests contributed items: %d", r.items)
	}
	v := endToEndValues(r, 1, 1)
	if v["ok_ratio"] >= 0.6 || v["ok_ratio"] <= 0.4 {
		t.Errorf("ok_ratio = %v, want about 0.5", v["ok_ratio"])
	}
	if !math.IsInf(v["req_p90_ms"], 1) {
		t.Errorf("p90 with half the requests failed = %v, want +Inf", v["req_p90_ms"])
	}
	if r.firstErr == nil {
		t.Error("the injected error was not kept")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "b", Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: "b", Start: 20, End: 50},   // overlaps span 2
		{ID: 4, Parent: 1, Layer: "c", Start: 90, End: 120},  // sticks out of its parent
		{ID: 5, Parent: 3, Layer: "c", Start: 25, End: 45},   // grandchild: only span 3's business
		{ID: 6, Parent: 0, Layer: "a", Start: 200, End: 201}, // no children
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20, 6: 1} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byLayer := layerSelfMS(spans)
	if got := byLayer["a"]; got != 51e-6 {
		t.Errorf("layer a self = %v ms, want 51e-6", got)
	}
	if got := byLayer["c"]; got != 50e-6 {
		t.Errorf("layer c self = %v ms, want 50e-6", got)
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the harness naming the
// same workloads and metrics with the same units.
func TestBenchmarkJSONInStep(t *testing.T) {
	spec, err := readBenchmarkJSON("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloadNames[i])
		}
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end to end, %d/%d per layer",
			len(spec.EndToEnd), len(endToEnd), len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: %s [%s] vs %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: %s [%s] vs %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	// Every value the harness computes is one it declares, and the reverse.
	values := layerValues(&layerRun{tr: newTracer(), rp: &replayer{}}, loopResult{elapsed: 1}, loopResult{elapsed: 1}, 0)
	if len(values) != len(perLayer) {
		t.Errorf("layerValues computes %d metrics, %d declared", len(values), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := values[d.name]; !ok {
			t.Errorf("layerValues does not compute %s", d.name)
		}
	}
}

// TestBrokenReferenceIsCaught runs a whole (short) workload with one
// reference prediction flipped: the run must come back incorrect, which
// main turns into a non-zero exit.
func TestBrokenReferenceIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("serves a real workload for a few seconds")
	}
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(dir)
	for _, broken := range []bool{false, true} {
		res, err := runOne("video-select", 1, 0.5, false, broken)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct == broken {
			t.Errorf("broken reference %v: run reported correct=%v", broken, res.Correct)
		}
	}
}
