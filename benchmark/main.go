// Command benchmark is the repo's benchmark: it drives a warm smol.Server
// in a closed loop over four named serving workloads, reports the
// end-to-end metrics of BENCHMARK.json, and — in a separate traced run —
// replays the same inputs through each layer's public functions for the
// per-layer budget. README.md in this directory is the manual.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"smol/internal/tensor"
)

const (
	// buildDir holds everything a run leaves behind except traces; the
	// launcher builds into it and runs keep their stores under it.
	buildDir = ".bench_build"
	traceDir = "benchmark/out"
	// setupRuns is how often a timed run sets the system up; setup_s is the
	// median, which is far steadier than one sample of fsync-heavy ingest.
	setupRuns = 3
)

// metricValue and result are the last line of a run's standard output.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
	seed := flag.Int64("seed", 1, "input seed; seed 2 is the hold-out a later claim must also hold on")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets back to back and compare them against the bounds in BENCHMARK.json")
	runs := flag.Int("runs", 10, "runs per workload in each selfcheck set, each with another seed")
	breakRef := flag.Bool("break-reference", false, "corrupt one reference output: the run must then report incorrect and exit non-zero (self-test of the oracle)")
	flag.Parse()

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(*runs, *seconds))
	case *workloadName == "":
		os.Exit(runAll(*seed, *seconds))
	}
	res, err := runOne(*workloadName, *seed, *seconds, *trace != 0, *breakRef)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runOne runs one workload once, in this process: gen -> setup -> reference
// -> timed window -> check -> report.
func runOne(name string, seed int64, seconds float64, traced, breakRef bool) (result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return result{}, err
	}
	scratch := filepath.Join(buildDir, fmt.Sprintf("run-%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	printEnvironment(name, seed, seconds, w.clients())

	start := time.Now()
	if err := w.gen(seed); err != nil {
		return result{}, fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Printf("gen_s %.3f (informational)  input digest %s\n", time.Since(start).Seconds(), w.digest())
	n := setupRuns
	if traced {
		n = 1
	}
	var setups []float64
	for k := 0; k < n; k++ {
		if k > 0 {
			w.teardown()
		}
		start = time.Now()
		if err := w.setup(filepath.Join(scratch, fmt.Sprintf("setup-%d", k))); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.teardown()
	start = time.Now()
	if err := w.reference(); err != nil {
		return result{}, fmt.Errorf("computing the reference: %w", err)
	}
	fmt.Printf("setup_s %v (median reported)  ref_s %.3f (informational)\n", setups, time.Since(start).Seconds())
	if breakRef {
		w.breakReference()
	}

	ctx := context.Background()
	window := time.Duration(seconds * float64(time.Second))
	if !traced {
		loop := runLoop(ctx, w.clients(), window, w.do, nil)
		values := endToEndValues(loop, median(setups), retainedHeapMB())
		printLoop(loop)
		return report(endToEnd, values, loop), nil
	}

	// Traced run: the same loop untraced and with a span per Server call
	// (their ratio is the tracing overhead), then the serial layer replay.
	tr := newTracer()
	debug.FreeOSMemory()
	rss := startRSSSampler()
	plain := runLoop(ctx, w.clients(), window*2/5, w.do, nil)
	withSpans := runLoop(ctx, w.clients(), window*2/5, w.do, func(client, req int) func() {
		id := tr.begin(0, req, client, layerSmol, "serve.request")
		return func() { tr.end(id) }
	})
	peakMB := rss.peakMB()
	lr := &layerRun{tr: tr, dir: filepath.Join(scratch, "probe-store"), seed: seed}
	if err := w.layers(lr); err != nil {
		return result{}, fmt.Errorf("layer replay: %w", err)
	}
	values := layerValues(lr, plain, withSpans, peakMB)
	all := plain
	for _, r := range []loopResult{withSpans, lr.census} {
		all.attempted += r.attempted
		all.failed += r.failed
		all.checked += r.checked
		all.mismatch += r.mismatch
	}
	path := filepath.Join(traceDir, "trace-"+name+".json")
	g := lr.rp.gemm
	meta := map[string]any{"workload": name, "seed": seed, "gemm_shape": fmt.Sprintf("%dx%dx%d", g.m, g.k, g.n)}
	if err := tr.write(path, meta); err != nil {
		return result{}, err
	}
	fmt.Printf("tensor.gemm shape (m x k x n) %dx%dx%d: %.0f MACs, %.0f bytes moved — both computed from the shape, not measured\n",
		g.m, g.k, g.n, g.macs(), g.bytes())
	fmt.Printf("layer self time (ms) over %d spans, written to %s:\n", len(tr.spans), path)
	printSorted(layerSelfMS(tr.spans), "  %-12s %10.2f\n")
	return report(perLayer, values, all), nil
}

// retainedHeapMB is the live heap after two forced collections: what the
// process holds on to once the window's garbage and everything parked in a
// sync.Pool (which survives exactly one collection) are gone — models,
// engine pools, worker scratch, caches, stores. Unlike resident-set peaks,
// which depend on when GC cycles happen to run and do not repeat within a
// tenth, it repeats to a fraction of a percent.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// report prints the metrics by name with their units and packs the result
// line. A run is correct when nothing failed and nothing mismatched.
func report(defs []metricDef, values map[string]float64, r loopResult) result {
	res := result{Correct: r.failed == 0 && r.mismatch == 0 && r.checked > 0,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = math.MaxFloat64 // JSON has no Inf; a percentile reached into failed requests
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-32s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Printf("fail_ratio %d/%d  mismatch_ratio %d/%d\n", r.failed, r.attempted, r.mismatch, r.checked)
	if r.firstErr != nil {
		fmt.Println("first error:", r.firstErr)
	}
	return res
}

// printLoop states the sample counts behind the latency percentiles.
func printLoop(r loopResult) {
	n := len(r.latMS)
	fmt.Printf("window %.2fs: %d requests, %d items; latency percentiles over %d samples\n",
		r.elapsed.Seconds(), r.attempted, r.items, n)
	if p := highestPercentile(n); p > 0 {
		fmt.Printf("  highest percentile with >= 10 samples beyond it: p%.1f = %.3f ms\n",
			100*p, percentile(r.latMS, r.attempted, p))
	}
	if n < 100 {
		fmt.Printf("  note: req_p90_ms rests on fewer than 100 samples (%d)\n", n)
	}
	items, dur, _ := r.slices()
	fmt.Print("  items/s in each tenth of the completions (median reported):")
	for i, n := range items {
		fmt.Printf(" %.1f", float64(n)/dur[i].Seconds())
	}
	fmt.Println()
	for plan, items := range r.planItems {
		fmt.Printf("  plan %s: %d items, predicted %.1f items/s\n", plan, items, r.planTput[plan])
	}
}

func printSorted(m map[string]float64, format string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf(format, k, m[k])
	}
}

// printEnvironment records where and how the numbers were taken.
func printEnvironment(name string, seed int64, seconds float64, clients int) {
	fmt.Printf("workload %s  seed %d  window %gs  closed loop, %d client(s)\n", name, seed, seconds, clients)
	fmt.Printf("nproc %d  GOMAXPROCS %d  %s  cpu %q  f32 kernel %s  commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), tensor.F32KernelName(), commit())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit asks git for the checkout's revision; the acceptance driver's
// checkouts are not repositories, hence the fallback.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
