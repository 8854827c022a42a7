package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smol/internal/tensor"
)

// streamCfg is a small topology used across the streaming tests.
func streamCfg() Config {
	return Config{Workers: 4, Streams: 2, BatchSize: 8, Shapes: [][3]int{{3, 4, 4}}}
}

// tagPrep writes the job index into the buffer so exec can check routing.
func tagPrep(ws *WorkerState, job Job, out *tensor.Tensor) error {
	for i := range out.Data {
		out.Data[i] = float32(job.Index)
	}
	return nil
}

// routeExec writes batch contents back through each sample's Tag, which
// must be a *[]int32 result slice owned by the submitting request.
func routeExec(batch *tensor.Tensor, refs []Ref) error {
	sampleLen := batch.Len() / batch.Shape[0]
	for i, r := range refs {
		res := r.Tag.(*results)
		got := batch.Data[i*sampleLen]
		if got != float32(r.Index) {
			return fmt.Errorf("batch slot %d carries %v, want %d", i, got, r.Index)
		}
		res.mu.Lock()
		res.preds[r.Index] = int(got) + res.offset
		res.mu.Unlock()
	}
	return nil
}

// results is one request's output buffer.
type results struct {
	mu     sync.Mutex
	preds  []int
	offset int
}

func tagJobs(n int, res *results) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Index: i, Tag: res}
	}
	return jobs
}

func TestPipelineConcurrentRequestsShareWarmEngine(t *testing.T) {
	p, err := NewPipeline(streamCfg(), tagPrep, routeExec)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const callers, perCaller = 4, 100
	var wg sync.WaitGroup
	resSlices := make([]*results, callers)
	statsOut := make([]Stats, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		resSlices[c] = &results{preds: make([]int, perCaller), offset: c * 1000}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			statsOut[c], errs[c] = p.Process(context.Background(),
				SliceSource(tagJobs(perCaller, resSlices[c])))
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		if statsOut[c].Images != perCaller {
			t.Fatalf("caller %d: images %d", c, statsOut[c].Images)
		}
		for i, got := range resSlices[c].preds {
			if got != i+c*1000 {
				t.Fatalf("caller %d job %d routed to %d", c, i, got)
			}
		}
	}
	// All four requests ran through one warm pool: the pool never allocated
	// per-image (4 x 100 images >> pipeline depth).
	allocs, reuses := p.poolStats()
	if reuses == 0 {
		t.Fatal("warm pipeline never reused a buffer")
	}
	if allocs > 200 {
		t.Fatalf("shared pipeline allocated %d buffers for %d images", allocs, callers*perCaller)
	}
}

func TestPipelineWarmAcrossSequentialRequests(t *testing.T) {
	p, err := NewPipeline(streamCfg(), tagPrep, routeExec)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	res1 := &results{preds: make([]int, 300)}
	st1, err := p.Process(context.Background(), SliceSource(tagJobs(300, res1)))
	if err != nil {
		t.Fatal(err)
	}
	res2 := &results{preds: make([]int, 300)}
	st2, err := p.Process(context.Background(), SliceSource(tagJobs(300, res2)))
	if err != nil {
		t.Fatal(err)
	}
	// The second request must ride the warm pool: no fresh allocations
	// beyond (at most a sliver of) what the first request provoked.
	grown := st2.PoolAllocs - st1.PoolAllocs
	if grown*2 > st1.PoolAllocs {
		t.Fatalf("second request allocated %d new buffers (first run total %d)", grown, st1.PoolAllocs)
	}
	if st2.PoolReuses <= st1.PoolReuses {
		t.Fatalf("reuses did not grow across requests: %d -> %d", st1.PoolReuses, st2.PoolReuses)
	}
}

func TestPipelineChanSourceStreams(t *testing.T) {
	p, err := NewPipeline(streamCfg(), tagPrep, routeExec)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 50
	res := &results{preds: make([]int, n)}
	for i := range res.preds {
		res.preds[i] = -1
	}
	ch := make(chan Job)
	go func() {
		for i := 0; i < n; i++ {
			ch <- Job{Index: i, Tag: res}
			if i%10 == 0 {
				time.Sleep(time.Millisecond) // trickle, not batch-aligned
			}
		}
		close(ch)
	}()
	st, err := p.Process(context.Background(), ChanSource(context.Background(), ch))
	if err != nil {
		t.Fatal(err)
	}
	if st.Images != n {
		t.Fatalf("images %d", st.Images)
	}
	for i, got := range res.preds {
		if got != i {
			t.Fatalf("job %d routed to %d", i, got)
		}
	}
}

func TestPipelineCancellationStopsInFlightStream(t *testing.T) {
	cfg := streamCfg()
	cfg.Workers = 2
	var prepped atomic.Int64
	slowPrep := func(ws *WorkerState, job Job, out *tensor.Tensor) error {
		prepped.Add(1)
		time.Sleep(2 * time.Millisecond)
		return nil
	}
	p, err := NewPipeline(cfg, slowPrep, func(b *tensor.Tensor, refs []Ref) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// An endless source: the request can only end via cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan Job)
	go func() {
		for i := 0; ; i++ {
			select {
			case ch <- Job{Index: i}:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var procErr error
	go func() {
		_, procErr = p.Process(ctx, ChanSource(ctx, ch))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Process did not return (deadlock)")
	}
	if !errors.Is(procErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", procErr)
	}
	// The pipeline survives the cancelled request and serves the next one.
	res := &results{preds: make([]int, 20)}
	jobs := make([]Job, 20)
	for i := range jobs {
		jobs[i] = Job{Index: i, Tag: res}
	}
	if _, err := p.Process(context.Background(), SliceSource(jobs)); err != nil {
		t.Fatalf("request after cancellation: %v", err)
	}
}

func TestPipelinePrepErrorConfinedToRequest(t *testing.T) {
	boom := errors.New("bad image")
	prep := func(ws *WorkerState, job Job, out *tensor.Tensor) error {
		if res, ok := job.Tag.(*results); ok && res.offset == -1 && job.Index == 5 {
			return boom
		}
		return tagPrep(ws, job, out)
	}
	p, err := NewPipeline(streamCfg(), prep, routeExec)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	bad := &results{preds: make([]int, 200), offset: -1}
	good := &results{preds: make([]int, 200)}
	var wg sync.WaitGroup
	var badErr, goodErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, badErr = p.Process(context.Background(), SliceSource(tagJobs(200, bad)))
	}()
	go func() {
		defer wg.Done()
		_, goodErr = p.Process(context.Background(), SliceSource(tagJobs(200, good)))
	}()
	wg.Wait()
	if !errors.Is(badErr, boom) {
		t.Fatalf("bad request err = %v, want boom", badErr)
	}
	if goodErr != nil {
		t.Fatalf("good request failed alongside: %v", goodErr)
	}
	// The offset==-1 sentinel collides with routeExec's offset math only if
	// results were routed for the failed request; the good request must be
	// complete and correct.
	for i, got := range good.preds {
		if got != i {
			t.Fatalf("good request job %d routed to %d", i, got)
		}
	}
}

func TestPipelineExecErrorFailsRequestNotPipeline(t *testing.T) {
	boom := errors.New("exec boom")
	exec := func(batch *tensor.Tensor, refs []Ref) error {
		for _, r := range refs {
			if res, ok := r.Tag.(*results); ok && res.offset == -1 {
				return boom
			}
		}
		return routeExec(batch, refs)
	}
	p, err := NewPipeline(streamCfg(), tagPrep, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	bad := &results{preds: make([]int, 50), offset: -1}
	if _, err := p.Process(context.Background(), SliceSource(tagJobs(50, bad))); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want exec boom", err)
	}
	good := &results{preds: make([]int, 50)}
	if _, err := p.Process(context.Background(), SliceSource(tagJobs(50, good))); err != nil {
		t.Fatalf("pipeline did not survive exec failure: %v", err)
	}
}

// TestPipelineErrorReturnsPooledBuffers: after a failed request fully
// drains, every pooled buffer the pipeline handed out must be back on the
// free list — error paths may not leak tensors.
func TestPipelineErrorReturnsPooledBuffers(t *testing.T) {
	boom := errors.New("boom")
	prep := func(ws *WorkerState, job Job, out *tensor.Tensor) error {
		if job.Index == 37 {
			return boom
		}
		return tagPrep(ws, job, out)
	}
	p, err := NewPipeline(streamCfg(), prep, routeExec)
	if err != nil {
		t.Fatal(err)
	}
	res := &results{preds: make([]int, 300)}
	if _, err := p.Process(context.Background(), SliceSource(tagJobs(300, res))); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	p.Close()
	allocs, _ := p.poolStats()
	if free := p.pools[0].Free(); free != allocs {
		t.Fatalf("pool leaked buffers after failed run: %d free of %d allocated", free, allocs)
	}
}

func TestPipelineProcessAfterCloseFails(t *testing.T) {
	p, err := NewPipeline(streamCfg(), tagPrep, routeExec)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Process(context.Background(), SliceSource(tagJobs(1, &results{preds: make([]int, 1)}))); !errors.Is(err, ErrPipelineClosed) {
		t.Fatalf("err = %v, want ErrPipelineClosed", err)
	}
}

// TestMPMCCloseUnblocksConcurrentPuts: many producers blocked on a full
// queue must all fail out with ErrClosed when the queue closes — the
// shutdown path the streaming pipeline leans on.
func TestMPMCCloseUnblocksConcurrentPuts(t *testing.T) {
	q := NewMPMCQueue[int](1)
	if err := q.Put(0); err != nil {
		t.Fatal(err)
	}
	const blocked = 8
	errs := make(chan error, blocked)
	for i := 0; i < blocked; i++ {
		go func(i int) { errs <- q.Put(i) }(i)
	}
	// Let every producer reach the full-queue wait.
	time.Sleep(20 * time.Millisecond)
	q.Close()
	for i := 0; i < blocked; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("blocked Put returned %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("blocked Put did not unblock on Close")
		}
	}
	// The element enqueued before Close still drains.
	if v, ok := q.Take(); !ok || v != 0 {
		t.Fatalf("drain after close: v=%d ok=%v", v, ok)
	}
	if _, ok := q.Take(); ok {
		t.Fatal("empty closed queue reported ok")
	}
}

// TestPipelineMultiShapeClasses: a pipeline declaring several shape classes
// must route every job to a batch of its own class's geometry, never mixing
// shapes, while concurrent requests of different classes share the warm
// workers.
func TestPipelineMultiShapeClasses(t *testing.T) {
	cfg := Config{
		Workers: 4, Streams: 2, BatchSize: 8,
		Shapes: [][3]int{{3, 4, 4}, {3, 6, 6}, {1, 2, 2}},
	}
	sampleLens := []int{3 * 4 * 4, 3 * 6 * 6, 1 * 2 * 2}
	exec := func(batch *tensor.Tensor, refs []Ref) error {
		n := batch.Shape[0]
		sampleLen := batch.Len() / n
		class := -1
		for c, l := range sampleLens {
			if l == sampleLen {
				class = c
			}
		}
		if class < 0 {
			return fmt.Errorf("batch with unknown sample length %d", sampleLen)
		}
		if n > cfg.BatchSize {
			return fmt.Errorf("class %d batch of %d exceeds the batch size %d", class, n, cfg.BatchSize)
		}
		for i, r := range refs {
			res := r.Tag.(*results)
			if res.offset != class {
				return fmt.Errorf("class %d batch carries a job of class %d", class, res.offset)
			}
			got := batch.Data[i*sampleLen]
			if got != float32(r.Index) {
				return fmt.Errorf("batch slot %d carries %v, want %d", i, got, r.Index)
			}
			res.mu.Lock()
			res.preds[r.Index] = int(got)
			res.mu.Unlock()
		}
		return nil
	}
	p, err := NewPipeline(cfg, tagPrep, exec)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const perClass = 100
	var wg sync.WaitGroup
	resSlices := make([]*results, len(sampleLens))
	errs := make([]error, len(sampleLens))
	for c := range sampleLens {
		// offset doubles as the request's class marker for exec above.
		resSlices[c] = &results{preds: make([]int, perClass), offset: c}
		jobs := make([]Job, perClass)
		for i := range jobs {
			jobs[i] = Job{Index: i, Tag: resSlices[c], Class: c}
		}
		wg.Add(1)
		go func(c int, jobs []Job) {
			defer wg.Done()
			_, errs[c] = p.Process(context.Background(), SliceSource(jobs))
		}(c, jobs)
	}
	wg.Wait()
	for c := range sampleLens {
		if errs[c] != nil {
			t.Fatalf("class %d: %v", c, errs[c])
		}
		for i, got := range resSlices[c].preds {
			if got != i {
				t.Fatalf("class %d job %d routed to %d", c, i, got)
			}
		}
	}
}

// TestPipelineRejectsInvalidClass: a job naming a shape class the pipeline
// does not have must fail its own request without wedging the pipeline.
func TestPipelineRejectsInvalidClass(t *testing.T) {
	p, err := NewPipeline(streamCfg(), tagPrep, routeExec)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	res := &results{preds: make([]int, 2)}
	jobs := []Job{{Index: 0, Tag: res}, {Index: 1, Tag: res, Class: 3}}
	if _, err := p.Process(context.Background(), SliceSource(jobs)); err == nil {
		t.Fatal("out-of-range shape class should fail the request")
	}
	good := &results{preds: make([]int, 8)}
	if _, err := p.Process(context.Background(), SliceSource(tagJobs(8, good))); err != nil {
		t.Fatalf("pipeline did not survive the invalid job: %v", err)
	}
}
