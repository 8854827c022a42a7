package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smol/internal/tensor"
)

// ErrPipelineClosed is returned by Process calls issued against a closed
// pipeline, and by requests interrupted when the pipeline shuts down.
var ErrPipelineClosed = errors.New("engine: pipeline closed")

// Ref identifies one sample of an assembled batch back to its submitter:
// the job's Index plus the opaque Tag the job carried. Streaming exec
// callbacks use Refs to route per-sample results to the right concurrent
// request — a batch may interleave samples from several requests.
type Ref struct {
	Index int
	Tag   any
}

// BatchFunc consumes an assembled batch in streaming mode: batch is
// (n, C, H, W) and refs identifies each sample in batch order. It is called
// from multiple stream goroutines concurrently.
type BatchFunc func(batch *tensor.Tensor, refs []Ref) error

// Source yields the jobs of one request, one at a time. Next returns
// ok=false when the stream ends, or a non-nil error to abort the request.
// Next must honour the cancellation of the context its request was
// submitted with (return promptly once the context is done) — SliceSource
// never blocks, and ChanSource binds the context for exactly this reason.
type Source interface {
	Next() (job Job, ok bool, err error)
}

// sliceSource streams a fixed slice of jobs.
type sliceSource struct {
	jobs []Job
	i    int
}

// SliceSource adapts a slice of jobs into a Source.
func SliceSource(jobs []Job) Source { return &sliceSource{jobs: jobs} }

func (s *sliceSource) Next() (Job, bool, error) {
	if s.i >= len(s.jobs) {
		return Job{}, false, nil
	}
	j := s.jobs[s.i]
	s.i++
	return j, true, nil
}

// chanSource streams jobs from a channel until it is closed or ctx is done.
type chanSource struct {
	ctx context.Context
	ch  <-chan Job
}

// ChanSource adapts a receive channel into a Source. Pass the same context
// that is given to Process so Next unblocks when the request is cancelled;
// otherwise close ch to end the stream.
func ChanSource(ctx context.Context, ch <-chan Job) Source {
	return &chanSource{ctx: ctx, ch: ch}
}

func (s *chanSource) Next() (Job, bool, error) {
	select {
	case j, ok := <-s.ch:
		return j, ok, nil
	case <-s.ctx.Done():
		return Job{}, false, s.ctx.Err()
	}
}

// task is one submitted job bound to its originating request.
type task struct {
	job Job
	req *request
}

// request tracks one Process call: its completion accounting, first error,
// and per-request statistics. Items of many requests interleave freely in
// the shared pipeline; the request pointer rides along on each item.
type request struct {
	ctx context.Context

	mu         sync.Mutex
	err        error
	pending    int // submitted but not yet executed or dropped
	feedDone   bool
	doneClosed bool

	// Per-request statistics, guarded by mu.
	submitted int
	executed  int
	batches   int
	latSum    time.Duration
	latMax    time.Duration

	done chan struct{}
}

func newRequest(ctx context.Context) *request {
	return &request{ctx: ctx, done: make(chan struct{})}
}

// fail records the request's first error. Later errors are dropped.
func (r *request) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

func (r *request) firstErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// abandoned reports whether in-flight work for this request should be
// dropped: the request was cancelled or has already failed. A cancelled
// request records the context error here, so dropping work can never be
// mistaken for successful completion.
func (r *request) abandoned() bool {
	if err := r.ctx.Err(); err != nil {
		r.fail(err)
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err != nil
}

// add accounts for one submitted job.
func (r *request) add() {
	r.mu.Lock()
	r.pending++
	r.submitted++
	r.mu.Unlock()
}

// finish accounts for one job leaving the pipeline. executed jobs record
// their end-to-end latency; dropped jobs (abandoned or failed) do not.
func (r *request) finish(executed bool, lat time.Duration) {
	r.mu.Lock()
	r.pending--
	if executed {
		r.executed++
		r.latSum += lat
		if lat > r.latMax {
			r.latMax = lat
		}
	}
	r.maybeCloseLocked()
	r.mu.Unlock()
}

// feedFinished marks that no more jobs will be submitted.
func (r *request) feedFinished() {
	r.mu.Lock()
	r.feedDone = true
	r.maybeCloseLocked()
	r.mu.Unlock()
}

func (r *request) maybeCloseLocked() {
	if r.feedDone && r.pending == 0 && !r.doneClosed {
		r.doneClosed = true
		close(r.done)
	}
}

// Pipeline is the long-lived streaming engine core: resident preprocessing
// workers, batch-assembly streams, tensor pool, and pinned staging arena,
// all shared by every concurrent Process call. One pipeline serves many
// requests; per-request results are routed through each job's Ref.
//
// A Pipeline starts its goroutines lazily on the first Process call and
// runs until Close.
type Pipeline struct {
	cfg  Config
	prep PrepFunc
	exec BatchFunc

	// pools, arenas and queues are parallel to cfg.Shapes. Jobs name their
	// class via Job.Class, and each class gets its own batch-assembly
	// streams, so batches never mix sample shapes and every class keeps an
	// allocation-free warm path.
	pools  []*TensorPool
	arenas []*PinnedArena
	queues []*MPMCQueue[item]
	subs   chan task
	stop   chan struct{}

	startOnce sync.Once
	started   atomic.Bool
	closeOnce sync.Once
	wgWorkers sync.WaitGroup
	wgStreams sync.WaitGroup

	// mu/closed/feeders coordinate shutdown with in-flight Process calls:
	// Close waits for every registered feeder to stop submitting before it
	// drains the submission channel, so no task can slip in after the drain
	// and strand its request.
	mu      sync.Mutex
	closed  bool
	feeders sync.WaitGroup

	batches atomic.Int64 // lifetime batches dispatched
}

// NewPipeline constructs a streaming pipeline. prep runs on the resident
// worker goroutines; exec consumes assembled batches and routes per-sample
// results via refs.
func NewPipeline(cfg Config, prep PrepFunc, exec BatchFunc) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if prep == nil || exec == nil {
		return nil, fmt.Errorf("engine: prep and exec functions are required")
	}
	if len(cfg.Shapes) == 0 {
		return nil, fmt.Errorf("engine: no shape classes declared")
	}
	// Own the shape list so a caller reusing its slice cannot reshape a
	// running pipeline.
	cfg.Shapes = append([][3]int(nil), cfg.Shapes...)
	queueCap := 4 * cfg.BatchSize
	p := &Pipeline{
		cfg:  cfg,
		prep: prep,
		exec: exec,
		subs: make(chan task, queueCap),
		stop: make(chan struct{}),
	}
	for i, s := range cfg.Shapes {
		if s[0] <= 0 || s[1] <= 0 || s[2] <= 0 {
			return nil, fmt.Errorf("engine: invalid sample shape %v (class %d)", s, i)
		}
		p.pools = append(p.pools, NewTensorPool(s[:], queueCap+cfg.Workers+cfg.Streams*cfg.BatchSize))
		p.arenas = append(p.arenas, NewPinnedArena(cfg.Streams+1, cfg.BatchSize*s[0]*s[1]*s[2]))
		p.queues = append(p.queues, NewMPMCQueue[item](queueCap))
	}
	return p, nil
}

// start spawns the resident workers and per-class streams exactly once.
func (p *Pipeline) start() {
	p.startOnce.Do(func() {
		p.started.Store(true)
		for w := 0; w < p.cfg.Workers; w++ {
			p.wgWorkers.Add(1)
			go p.runWorker(w)
		}
		for c := range p.cfg.Shapes {
			for s := 0; s < p.cfg.Streams; s++ {
				p.wgStreams.Add(1)
				go p.runStream(c)
			}
		}
	})
}

// addFeeder registers a Process call as an active submitter. It fails once
// Close has begun.
func (p *Pipeline) addFeeder() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.feeders.Add(1)
	return true
}

// Close shuts the pipeline down: feeders stop submitting, workers finish
// their current job, the queue drains through the streams, and all resident
// goroutines exit. Close blocks until shutdown completes. Jobs that were
// submitted but never picked up fail their requests with ErrPipelineClosed;
// jobs already preprocessed still execute.
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.stop)
		p.feeders.Wait()
		if p.started.Load() {
			p.wgWorkers.Wait()
			// Fail tasks the workers never picked up.
			for {
				select {
				case t := <-p.subs:
					t.req.fail(ErrPipelineClosed)
					t.req.finish(false, 0)
					continue
				default:
				}
				break
			}
			for _, q := range p.queues {
				q.Close()
			}
			p.wgStreams.Wait()
		}
	})
}

// newBuf fetches a sample buffer from one shape class's pool. The caller
// owns the buffer and must hand it back through recycle on every path.
//
//smol:owns
//smol:acquire tensorbuf
func (p *Pipeline) newBuf(class int) *tensor.Tensor {
	return p.pools[class].Get()
}

// recycle returns a sample buffer to its class pool.
//
//smol:release tensorbuf
func (p *Pipeline) recycle(class int, buf *tensor.Tensor) {
	p.pools[class].Put(buf)
}

// poolStats sums allocation/reuse counters across the class pools.
func (p *Pipeline) poolStats() (allocs, reuses int) {
	for _, pool := range p.pools {
		a, r := pool.Stats()
		allocs += a
		reuses += r
	}
	return allocs, reuses
}

// queueStalls sums full-queue Put stalls across the class queues.
func (p *Pipeline) queueStalls() int {
	total := 0
	for _, q := range p.queues {
		total += q.PutStalls()
	}
	return total
}

func (p *Pipeline) runWorker(id int) {
	defer p.wgWorkers.Done()
	ws := &WorkerState{ID: id}
	for {
		select {
		case <-p.stop:
			return
		case t := <-p.subs:
			p.prepOne(ws, t)
		}
	}
}

// prepOne preprocesses one submitted job and enqueues it for batching.
// Failures are confined to the job's request: the pipeline keeps serving
// other requests. A successfully enqueued item carries its buffer's
// ownership to the class stream, which recycles it after batch assembly.
//
//smol:owns
func (p *Pipeline) prepOne(ws *WorkerState, t task) {
	req := t.req
	if req.abandoned() {
		req.finish(false, 0)
		return
	}
	class := t.job.Class
	prepStart := time.Now()
	buf := p.newBuf(class)
	if err := p.prep(ws, t.job, buf); err != nil {
		p.recycle(class, buf)
		req.fail(fmt.Errorf("engine: job %d: %w", t.job.Index, err))
		req.finish(false, 0)
		return
	}
	it := item{index: t.job.Index, tag: t.job.Tag, buf: buf, start: prepStart, req: req}
	if err := p.queues[class].Put(it); err != nil {
		// Pipeline shutting down underneath the request.
		p.recycle(class, buf)
		req.fail(ErrPipelineClosed)
		req.finish(false, 0)
	}
}

// runStream assembles and executes batches for one shape class. Per-class
// streams mean a batch only ever carries samples of its class's geometry.
func (p *Pipeline) runStream(class int) {
	defer p.wgStreams.Done()
	batchSize := p.cfg.BatchSize
	shape := p.cfg.Shapes[class]
	sampleLen := shape[0] * shape[1] * shape[2]
	queue := p.queues[class]
	arena := p.arenas[class]
	items := make([]item, batchSize)
	refs := make([]Ref, batchSize)
	for {
		n := queue.TakeUpTo(items, batchSize)
		if n == 0 {
			return // closed and drained
		}
		// Drop items whose requests were cancelled or already failed,
		// returning their buffers to the pool.
		m := 0
		for i := 0; i < n; i++ {
			if items[i].req.abandoned() {
				p.recycle(class, items[i].buf)
				items[i].req.finish(false, 0)
				items[i].buf = nil
				continue
			}
			items[m] = items[i]
			m++
		}
		if m == 0 {
			continue
		}
		// Stage the batch in a reused arena buffer: one copy per sample,
		// no allocation.
		staging := arena.Acquire()
		for i := 0; i < m; i++ {
			copy(staging[i*sampleLen:], items[i].buf.Data)
		}
		for i := 0; i < m; i++ {
			refs[i] = Ref{Index: items[i].index, Tag: items[i].tag}
			p.recycle(class, items[i].buf)
			items[i].buf = nil
		}
		batch := tensor.FromData(staging[:m*sampleLen], m, shape[0], shape[1], shape[2])
		err := p.exec(batch, refs[:m])
		arena.Release(staging)
		p.batches.Add(1)
		done := time.Now()
		if err != nil {
			// An exec failure poisons every request with a sample in this
			// batch, but the pipeline itself keeps serving.
			wrapped := fmt.Errorf("engine: exec: %w", err)
			for i := 0; i < m; i++ {
				items[i].req.fail(wrapped)
			}
			for i := 0; i < m; i++ {
				items[i].req.finish(false, 0)
			}
			continue
		}
		// Count each distinct request once per batch, then complete items.
		for i := 0; i < m; i++ {
			first := true
			for j := 0; j < i; j++ {
				if items[j].req == items[i].req {
					first = false
					break
				}
			}
			if first {
				items[i].req.mu.Lock()
				items[i].req.batches++
				items[i].req.mu.Unlock()
			}
		}
		for i := 0; i < m; i++ {
			items[i].req.finish(true, done.Sub(items[i].start))
		}
	}
}

// Process streams one request's jobs through the shared pipeline and blocks
// until every job has executed, the context is cancelled, or a stage fails.
// Many Process calls may run concurrently against one pipeline; they share
// the warm workers, tensor pool, and staging arena, and their samples may
// share batches.
//
// On cancellation Process returns promptly with the context's error;
// already-submitted jobs are dropped at the next pipeline stage and their
// buffers returned to the pool.
func (p *Pipeline) Process(ctx context.Context, src Source) (Stats, error) {
	if !p.addFeeder() {
		return Stats{}, ErrPipelineClosed
	}
	p.start()

	req := newRequest(ctx)
	start := time.Now()

feed:
	for {
		job, ok, err := src.Next()
		if err != nil {
			req.fail(err)
			break
		}
		if !ok {
			break
		}
		if job.Class < 0 || job.Class >= len(p.cfg.Shapes) {
			req.fail(fmt.Errorf("engine: job %d: shape class %d out of range [0,%d)",
				job.Index, job.Class, len(p.cfg.Shapes)))
			break
		}
		req.add()
		select {
		case p.subs <- task{job: job, req: req}:
		case <-ctx.Done():
			req.finish(false, 0) // never submitted
			req.fail(ctx.Err())
			break feed
		case <-p.stop:
			req.finish(false, 0)
			req.fail(ErrPipelineClosed)
			break feed
		}
		if req.firstErr() != nil {
			break // a stage already failed; stop feeding
		}
	}
	req.feedFinished()
	p.feeders.Done()

	select {
	case <-req.done:
	case <-ctx.Done():
		req.fail(ctx.Err())
	}
	if err := req.firstErr(); err != nil {
		return Stats{}, err
	}

	elapsed := time.Since(start)
	allocs, reuses := p.poolStats()
	req.mu.Lock()
	st := Stats{
		Images:          req.submitted,
		Elapsed:         elapsed,
		Batches:         req.batches,
		QueueFullStalls: p.queueStalls(),
		PoolAllocs:      allocs,
		PoolReuses:      reuses,
		MaxLatency:      req.latMax,
	}
	if req.executed > 0 {
		st.MeanLatency = req.latSum / time.Duration(req.executed)
	}
	executed := req.executed
	req.mu.Unlock()
	if elapsed > 0 {
		st.Throughput = float64(executed) / elapsed.Seconds()
	}
	return st, nil
}
