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

func TestMPMCBasicFIFO(t *testing.T) {
	q := NewMPMCQueue[int](4)
	for i := 0; i < 4; i++ {
		if err := q.Put(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Take()
		if !ok || v != i {
			t.Fatalf("take %d: got %d ok=%v", i, v, ok)
		}
	}
	q.Close()
	if _, ok := q.Take(); ok {
		t.Fatal("closed empty queue should report !ok")
	}
	if err := q.Put(9); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
}

func TestMPMCBlockingPut(t *testing.T) {
	q := NewMPMCQueue[int](1)
	if err := q.Put(1); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		q.Put(2) // must block until a Take
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Put should have blocked on a full queue")
	case <-time.After(20 * time.Millisecond):
	}
	if v, _ := q.Take(); v != 1 {
		t.Fatalf("got %d", v)
	}
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Put did not unblock")
	}
	if q.PutStalls() != 1 {
		t.Fatalf("stalls = %d", q.PutStalls())
	}
}

func TestMPMCConcurrentStress(t *testing.T) {
	const producers, consumers, perProducer = 8, 4, 500
	q := NewMPMCQueue[int](16)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.Put(p*perProducer + i); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	var seen sync.Map
	var count atomic.Int64
	var cg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, ok := q.Take()
				if !ok {
					return
				}
				if _, dup := seen.LoadOrStore(v, true); dup {
					t.Errorf("duplicate value %d", v)
				}
				count.Add(1)
			}
		}()
	}
	wg.Wait()
	q.Close()
	cg.Wait()
	if count.Load() != producers*perProducer {
		t.Fatalf("consumed %d of %d", count.Load(), producers*perProducer)
	}
}

func TestMPMCTakeUpTo(t *testing.T) {
	q := NewMPMCQueue[int](8)
	for i := 0; i < 5; i++ {
		q.Put(i)
	}
	dst := make([]int, 8)
	n := q.TakeUpTo(dst, 3)
	if n != 3 || dst[0] != 0 || dst[2] != 2 {
		t.Fatalf("n=%d dst=%v", n, dst)
	}
	n = q.TakeUpTo(dst, 8)
	if n != 2 || dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("n=%d dst=%v", n, dst)
	}
	q.Close()
	if n := q.TakeUpTo(dst, 8); n != 0 {
		t.Fatalf("drained closed queue returned %d", n)
	}
}

func TestTensorPoolReuse(t *testing.T) {
	p := NewTensorPool([]int{3, 4, 4}, 2)
	a := p.Get()
	b := p.Get()
	c := p.Get() // beyond warm: fresh allocation
	if a == b || b == c {
		t.Fatal("pool returned the same tensor twice")
	}
	p.Put(a)
	d := p.Get()
	if d != a {
		t.Fatal("pool did not reuse returned tensor")
	}
	allocs, reuses := p.Stats()
	if allocs != 3 || reuses != 3 {
		t.Fatalf("allocs=%d reuses=%d", allocs, reuses)
	}
	// Wrong-shape tensors are rejected silently.
	p.Put(tensor.New(1, 2))
	if got := p.Get(); got == nil || got.Len() != 3*4*4 {
		t.Fatal("foreign tensor leaked into pool")
	}
}

func TestPinnedArenaBlocksWhenExhausted(t *testing.T) {
	a := NewPinnedArena(1, 16)
	buf := a.Acquire()
	acquired := make(chan []float32)
	go func() { acquired <- a.Acquire() }()
	select {
	case <-acquired:
		t.Fatal("Acquire should have blocked")
	case <-time.After(20 * time.Millisecond):
	}
	a.Release(buf)
	select {
	case b := <-acquired:
		if len(b) != 16 {
			t.Fatalf("buffer len %d", len(b))
		}
	case <-time.After(time.Second):
		t.Fatal("Acquire did not unblock")
	}
}

func TestPinnedArenaRejectsForeignBuffer(t *testing.T) {
	a := NewPinnedArena(1, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Release(make([]float32, 4))
}

// runOnce streams jobs through a fresh pipeline as one request and closes
// the pipeline again: the one-shot use the tests below share.
func runOnce(cfg Config, prep PrepFunc, exec BatchFunc, jobs []Job) (Stats, error) {
	p, err := NewPipeline(cfg, prep, exec)
	if err != nil {
		return Stats{}, err
	}
	defer p.Close()
	return p.Process(context.Background(), SliceSource(jobs))
}

// indexJobs returns n jobs numbered 0..n-1.
func indexJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Index: i}
	}
	return jobs
}

// runEngine pushes n jobs through a pipeline whose prep writes a marker and
// whose exec records every index it sees.
func runEngine(t *testing.T, cfg Config, n int) (Stats, *sync.Map) {
	t.Helper()
	cfg.Shapes = [][3]int{{3, 8, 8}}
	var seen sync.Map
	prep := func(ws *WorkerState, job Job, out *tensor.Tensor) error {
		for i := range out.Data {
			out.Data[i] = float32(job.Index)
		}
		return nil
	}
	exec := func(batch *tensor.Tensor, refs []Ref) error {
		for bi, r := range refs {
			idx := r.Index
			// Verify the batch content matches the job that produced it.
			if batch.Data[bi*3*8*8] != float32(idx) {
				return fmt.Errorf("batch slot %d has %v, want %d", bi, batch.Data[bi*3*8*8], idx)
			}
			if _, dup := seen.LoadOrStore(idx, true); dup {
				return fmt.Errorf("index %d executed twice", idx)
			}
		}
		return nil
	}
	st, err := runOnce(cfg, prep, exec, indexJobs(n))
	if err != nil {
		t.Fatal(err)
	}
	return st, &seen
}

func TestEngineProcessesAllJobsExactlyOnce(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 4, Streams: 2, BatchSize: 16},
		{Workers: 1, Streams: 1, BatchSize: 4},
		{Workers: 1, Streams: 2, BatchSize: 8},
	} {
		n := 257 // deliberately not a batch multiple
		st, seen := runEngine(t, cfg, n)
		if st.Images != n {
			t.Fatalf("cfg %+v: images %d", cfg, st.Images)
		}
		count := 0
		seen.Range(func(k, v any) bool { count++; return true })
		if count != n {
			t.Fatalf("cfg %+v: executed %d of %d", cfg, count, n)
		}
		if st.Batches < n/cfg.BatchSize {
			t.Fatalf("cfg %+v: too few batches %d", cfg, st.Batches)
		}
		if st.Throughput <= 0 {
			t.Fatalf("cfg %+v: bad throughput", cfg)
		}
	}
}

func TestEngineMemReuseReducesAllocations(t *testing.T) {
	cfgReuse := Config{Workers: 4, Streams: 2, BatchSize: 16}
	stReuse, _ := runEngine(t, cfgReuse, 2000)
	if stReuse.PoolReuses == 0 {
		t.Fatal("pooled engine never reused a buffer")
	}
	// Pool allocations should be bounded by pipeline depth, not image count.
	if stReuse.PoolAllocs > 300 {
		t.Fatalf("pooled engine allocated %d buffers for 2000 images", stReuse.PoolAllocs)
	}
}

func TestEnginePrepErrorAborts(t *testing.T) {
	cfg := Config{Workers: 2, Streams: 1, BatchSize: 4, Shapes: [][3]int{{3, 4, 4}}}
	boom := errors.New("boom")
	prep := func(ws *WorkerState, job Job, out *tensor.Tensor) error {
		if job.Index == 10 {
			return boom
		}
		return nil
	}
	exec := func(batch *tensor.Tensor, refs []Ref) error { return nil }
	if _, err := runOnce(cfg, prep, exec, indexJobs(100)); !errors.Is(err, boom) {
		t.Fatalf("expected boom, got %v", err)
	}
}

func TestEngineExecErrorAborts(t *testing.T) {
	cfg := Config{Workers: 2, Streams: 2, BatchSize: 4, Shapes: [][3]int{{3, 4, 4}}}
	boom := errors.New("exec boom")
	prep := func(ws *WorkerState, job Job, out *tensor.Tensor) error { return nil }
	var calls atomic.Int64
	exec := func(batch *tensor.Tensor, refs []Ref) error {
		if calls.Add(1) == 3 {
			return boom
		}
		return nil
	}
	if _, err := runOnce(cfg, prep, exec, indexJobs(200)); !errors.Is(err, boom) {
		t.Fatalf("expected exec boom, got %v", err)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewPipeline(Config{Shapes: [][3]int{{3, 4, 4}}}, nil, nil); err == nil {
		t.Fatal("nil funcs should be rejected")
	}
	prep := func(ws *WorkerState, job Job, out *tensor.Tensor) error { return nil }
	exec := func(batch *tensor.Tensor, refs []Ref) error { return nil }
	if _, err := NewPipeline(Config{Shapes: [][3]int{{0, 4, 4}}}, prep, exec); err == nil {
		t.Fatal("invalid shape should be rejected")
	}
	if _, err := NewPipeline(Config{}, prep, exec); err == nil {
		t.Fatal("a pipeline without shape classes should be rejected")
	}
}

func TestEngineWorkerStateIsolation(t *testing.T) {
	cfg := Config{Workers: 4, Streams: 1, BatchSize: 8, Shapes: [][3]int{{3, 4, 4}}}
	// Each worker sets up its counter lazily on its first job, as
	// Runtime.prepJob does with its ingest scratch, and then increments
	// only its own counter: no locking needed, which -race checks.
	var counters sync.Map // worker ID -> *int
	prep := func(ws *WorkerState, job Job, out *tensor.Tensor) error {
		n, _ := ws.Scratch.(*int)
		if n == nil {
			n = new(int)
			ws.Scratch = n
			if _, dup := counters.LoadOrStore(ws.ID, n); dup {
				return fmt.Errorf("worker %d set up its scratch twice", ws.ID)
			}
		}
		*n++
		return nil
	}
	exec := func(batch *tensor.Tensor, refs []Ref) error { return nil }
	const jobs = 500
	if _, err := runOnce(cfg, prep, exec, indexJobs(jobs)); err != nil {
		t.Fatal(err)
	}
	// Close has joined the workers, so their counters are safe to read.
	total := 0
	counters.Range(func(_, v any) bool { total += *v.(*int); return true })
	if total != jobs {
		t.Fatalf("worker counters sum to %d, want %d", total, jobs)
	}
}

func TestEngineLatencyTracked(t *testing.T) {
	prep := func(ws *WorkerState, job Job, out *tensor.Tensor) error {
		time.Sleep(200 * time.Microsecond)
		return nil
	}
	exec := func(batch *tensor.Tensor, refs []Ref) error {
		time.Sleep(100 * time.Microsecond)
		return nil
	}
	st, err := runOnce(Config{Workers: 2, Streams: 2, BatchSize: 8,
		Shapes: [][3]int{{3, 4, 4}}}, prep, exec, indexJobs(64))
	if err != nil {
		t.Fatal(err)
	}
	if st.MeanLatency <= 0 || st.MaxLatency <= 0 {
		t.Fatalf("latency not tracked: %+v", st)
	}
	if st.MeanLatency > st.MaxLatency {
		t.Fatalf("mean %v exceeds max %v", st.MeanLatency, st.MaxLatency)
	}
	// Every image at least pays its own preprocessing plus its batch's
	// execution; the max cannot exceed the whole run.
	if st.MeanLatency < 300*time.Microsecond {
		t.Fatalf("mean latency %v below single-image floor", st.MeanLatency)
	}
	if st.MaxLatency > st.Elapsed {
		t.Fatalf("max latency %v exceeds elapsed %v", st.MaxLatency, st.Elapsed)
	}
}

// TestEngineGreedyBatchingBoundsLatency: unlike a strict full-batch
// assembler (what the simulator and the worst-case estimator model), the
// engine's TakeUpTo consumers dispatch whatever is ready. Per-image latency
// must therefore stay far below the full-batch fill time — greedy batching
// is why the analytic estimate is a safe upper bound for the real engine.
func TestEngineGreedyBatchingBoundsLatency(t *testing.T) {
	const prepDelay = 150 * time.Microsecond
	prep := func(ws *WorkerState, job Job, out *tensor.Tensor) error {
		time.Sleep(prepDelay)
		return nil
	}
	exec := func(b *tensor.Tensor, refs []Ref) error { return nil }
	const batch = 64
	st, err := runOnce(Config{Workers: 2, Streams: 1, BatchSize: batch,
		Shapes: [][3]int{{3, 4, 4}}}, prep, exec, indexJobs(256))
	if err != nil {
		t.Fatal(err)
	}
	// A strict assembler would hold the first image of each batch for
	// batch/workers prep times (~4.8ms here); greedy dispatch should stay
	// well under half of that.
	fill := time.Duration(batch/2) * prepDelay
	if st.MeanLatency >= fill/2 {
		t.Fatalf("mean latency %v suggests full-batch waiting (fill %v)", st.MeanLatency, fill)
	}
}
