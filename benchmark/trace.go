package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 = none). Times are
// nanoseconds since the tracer started. CPU is the process CPU consumed
// over the interval; it is only recorded on the serial replay, where
// nothing else runs, so it belongs to the call the span wraps.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Client int    `json:"client"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. It lives entirely in
// the benchmark: spans wrap the calls into each layer from outside. A nil
// tracer records nothing, so reference computations reuse the replay code
// untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(parent, req, client int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req,
		Client: client, Layer: layer, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call wraps one serial call into a layer in a child span of parent,
// recording wall and process CPU time.
func (t *tracer) call(parent int, layer, name string, f func()) {
	if t == nil {
		f()
		return
	}
	req := 0
	if parent > 0 {
		req = t.spans[parent-1].Req
	}
	id := t.begin(parent, req, 0, layer, name)
	cpu := processCPU()
	f()
	cpu = processCPU() - cpu
	t.end(id)
	t.spans[id-1].CPU = int64(cpu)
}

// named returns the spans with the given name.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanUS is the mean wall duration, in microseconds, of the spans with the
// given name (0 when there are none).
func (t *tracer) meanUS(name string) float64 {
	spans := t.named(name)
	if len(spans) == 0 {
		return 0
	}
	var sum int64
	for _, s := range spans {
		sum += s.End - s.Start
	}
	return float64(sum) / float64(len(spans)) / 1e3
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover (children may overlap each other and
// may stick out of the parent; only the covered part of the parent counts).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerSelfMS sums self time per layer, in milliseconds.
func layerSelfMS(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += float64(self[s.ID]) / 1e6
	}
	return out
}

// traceFile is what a traced run leaves in benchmark/out.
type traceFile struct {
	Meta        map[string]any     `json:"meta"`
	LayerSelfMS map[string]float64 `json:"layer_self_ms"`
	Spans       []span             `json:"spans"`
}

// write dumps the spans, with the per-layer self-time roll-up, to path.
func (t *tracer) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Meta: meta, LayerSelfMS: layerSelfMS(t.spans), Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// processCPU returns the user+system CPU time this process has consumed.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
