package main

import (
	"context"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"smol/internal/codec/vid"
	"smol/internal/engine"
)

// outcome is what one served request reports back to the loop: how much
// work it completed, whether it failed, how its outputs compared with the
// reference, and the result-struct counters the traced run aggregates.
type outcome struct {
	items int
	err   error
	// accuracy is the plan's effective accuracy, floor the one requested: a
	// request served below its floor counts as failed.
	accuracy, floor float64
	// checked outputs were compared with the reference; mismatched differed.
	checked, mismatched int

	plan                string // identity of the plan that served the request
	predTput, predLatUS float64
	stats               engine.Stats
	decode              vid.DecodeStats
	sel                 selectCounts
}

// selectCounts are SelectResult's exact work counters.
type selectCounts struct {
	oracle, results, gopsTouched, gopsTotal, proxy int
}

func (s *selectCounts) add(o selectCounts) {
	s.oracle += o.oracle
	s.results += o.results
	s.gopsTouched += o.gopsTouched
	s.gopsTotal += o.gopsTotal
	s.proxy += o.proxy
}

func (o outcome) failed() bool { return o.err != nil || o.accuracy < o.floor }

// loopResult aggregates one closed-loop window.
type loopResult struct {
	elapsed           time.Duration
	attempted, failed int
	items             int
	checked, mismatch int
	firstErr          error
	latMS             []float64 // successful requests, ascending
	// done has one entry per completed request, in completion order: when
	// it completed, how many items it carried and the process CPU consumed
	// so far. Throughput and CPU cost are medians over loopSlices equal
	// runs of completions, so a brief stall (a neighbour on the box, a GC
	// cycle) moves them far less than it moves the window's totals.
	done []completion

	// Result-struct counters over successful requests.
	images, batches int
	inflight        time.Duration // sum of per-image mean latency x images
	maxLatErr       []float64     // |predicted - max latency| / max latency, per request
	last            engine.Stats  // latest pipeline-lifetime counters
	decode          vid.DecodeStats
	sel             selectCounts
	planItems       map[string]int     // items served per plan
	planTput        map[string]float64 // predicted im/s per plan
}

// completion is one finished request as the slicing sees it.
type completion struct {
	at, cpu time.Duration // since the window opened
	items   int
}

// loopSlices is how many runs of completions a window is cut into.
const loopSlices = 10

// slices cuts the completions into loopSlices consecutive runs of equal
// length and returns each run's items, duration and CPU.
func (r loopResult) slices() (items []int, dur, cpu []time.Duration) {
	prev := completion{}
	for k := 1; k <= loopSlices; k++ {
		lo, hi := (k-1)*len(r.done)/loopSlices, k*len(r.done)/loopSlices
		if hi == lo {
			continue
		}
		n := 0
		for _, c := range r.done[lo:hi] {
			n += c.items
		}
		last := r.done[hi-1]
		items, dur, cpu = append(items, n), append(dur, last.at-prev.at), append(cpu, last.cpu-prev.cpu)
		prev = last
	}
	return items, dur, cpu
}

// itemsPerS is the median slice's completion rate.
func (r loopResult) itemsPerS() float64 {
	items, dur, _ := r.slices()
	var rates []float64
	for i, n := range items {
		if dur[i] > 0 {
			rates = append(rates, float64(n)/dur[i].Seconds())
		}
	}
	return median(rates)
}

// cpuMSPerItem is the median, over the slices that completed anything, of
// process CPU per completed item.
func (r loopResult) cpuMSPerItem() float64 {
	items, _, cpu := r.slices()
	var costs []float64
	for i, n := range items {
		if n > 0 {
			costs = append(costs, float64(cpu[i])/1e6/float64(n))
		}
	}
	return median(costs)
}

// runLoop drives `clients` callers in a closed loop for the window: each
// caller blocks on its reply and only then sends its next request, which is
// how callers of a library API behave. Request numbers interleave across
// clients (client c issues c, c+clients, ...), so the sequence each client
// sees depends only on the seed. A request is started only while the window
// is open and always runs to completion; elapsed is measured to the last
// completion. span, when non-nil, observes each request (traced runs).
func runLoop(ctx context.Context, clients int, window time.Duration,
	do func(ctx context.Context, req int) outcome,
	span func(client, req int) (done func())) loopResult {

	res := loopResult{planItems: map[string]int{}, planTput: map[string]float64{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for req := c; time.Now().Before(deadline) && ctx.Err() == nil; req += clients {
				var done func()
				if span != nil {
					done = span(c, req)
				}
				t := time.Now()
				o := do(ctx, req)
				lat := time.Since(t)
				if done != nil {
					done()
				}
				mu.Lock()
				res.add(o, lat)
				n := 0
				if !o.failed() {
					n = o.items
				}
				res.done = append(res.done, completion{at: time.Since(start), cpu: processCPU() - cpu0, items: n})
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Float64s(res.latMS)
	return res
}

// add folds one request into the window's totals.
func (r *loopResult) add(o outcome, lat time.Duration) {
	r.attempted++
	if o.failed() {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = o.err
		}
		return
	}
	r.items += o.items
	r.checked += o.checked
	r.mismatch += o.mismatched
	r.latMS = append(r.latMS, float64(lat)/1e6)
	r.images += o.stats.Images
	r.batches += o.stats.Batches
	r.inflight += o.stats.MeanLatency * time.Duration(o.stats.Images)
	if o.stats.MaxLatency > 0 && o.predLatUS > 0 {
		got := float64(o.stats.MaxLatency) / 1e3
		r.maxLatErr = append(r.maxLatErr, math.Abs(o.predLatUS-got)/got)
	}
	r.last = o.stats
	r.decode.Add(o.decode)
	r.sel.add(o.sel)
	r.planItems[o.plan] += o.items
	r.planTput[o.plan] = o.predTput
}

// rssSampler tracks the peak resident set size of this process from the
// moment it starts, by polling /proc/self/statm. getrusage's high-water
// mark cannot be reset, so it would also cover input generation, set-up and
// the reference computation.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.peak = residentBytes()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if b := residentBytes(); b > s.peak {
					s.peak = b
				}
			}
		}
	}()
	return s
}

// peakMB stops the sampler and returns the peak in MiB.
func (s *rssSampler) peakMB() float64 {
	close(s.stop)
	<-s.done
	if b := residentBytes(); b > s.peak {
		s.peak = b
	}
	return float64(s.peak) / (1 << 20)
}

// residentBytes reads the current resident set size (0 if unreadable).
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
