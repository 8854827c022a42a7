package engine

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"smol/internal/tensor"
)

// TestQuickMPMCConservation: for arbitrary producer/consumer counts,
// capacities, and item counts, every item put is taken exactly once and
// nothing is invented — the queue conserves elements under concurrency.
func TestQuickMPMCConservation(t *testing.T) {
	f := func(seed uint32) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		producers := 1 + rng.Intn(4)
		consumers := 1 + rng.Intn(4)
		capacity := 1 + rng.Intn(16)
		perProducer := 1 + rng.Intn(200)
		total := producers * perProducer

		q := NewMPMCQueue[int](capacity)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					if err := q.Put(p*perProducer + i); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}(p)
		}
		go func() {
			wg.Wait()
			q.Close()
		}()

		seen := make([]bool, total)
		var mu sync.Mutex
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
					mu.Lock()
					if v < 0 || v >= total || seen[v] {
						t.Errorf("item %d out of range or duplicated", v)
					} else {
						seen[v] = true
					}
					mu.Unlock()
				}
			}()
		}
		cg.Wait()
		for i, s := range seen {
			if !s {
				t.Logf("seed %d: item %d lost", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMPMCSingleThreadFIFO: with one producer and one consumer the
// queue is strictly FIFO for any interleaving of puts and takes.
func TestQuickMPMCSingleThreadFIFO(t *testing.T) {
	f := func(seed uint32) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		capacity := 1 + rng.Intn(8)
		q := NewMPMCQueue[int](capacity)
		next := 0   // next value to put
		expect := 0 // next value we must take
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 && q.Len() < capacity {
				if err := q.Put(next); err != nil {
					return false
				}
				next++
			} else if q.Len() > 0 {
				v, ok := q.Take()
				if !ok || v != expect {
					t.Logf("seed %d: took %d want %d", seed, v, expect)
					return false
				}
				expect++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEngineProcessesEveryJob: for arbitrary worker/stream/batch
// configurations the pipelined engine preprocesses and executes each job
// exactly once, in any order — the engine-level conservation property.
func TestQuickEngineProcessesEveryJob(t *testing.T) {
	f := func(seed uint32) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		workers := 1 + rng.Intn(4)
		streams := 1 + rng.Intn(3)
		batch := 1 + rng.Intn(16)
		jobs := indexJobs(1 + rng.Intn(150))

		var mu sync.Mutex
		counts := make([]int, len(jobs))
		prep := func(ws *WorkerState, job Job, out *tensor.Tensor) error {
			for i := range out.Data {
				out.Data[i] = float32(job.Index)
			}
			return nil
		}
		exec := func(b *tensor.Tensor, refs []Ref) error {
			mu.Lock()
			defer mu.Unlock()
			for _, r := range refs {
				counts[r.Index]++
			}
			return nil
		}
		if _, err := runOnce(Config{Workers: workers, Streams: streams, BatchSize: batch,
			Shapes: [][3]int{{3, 8, 8}}}, prep, exec, jobs); err != nil {
			t.Logf("seed %d: run: %v", seed, err)
			return false
		}
		for i, c := range counts {
			if c != 1 {
				t.Logf("seed %d: job %d executed %d times", seed, i, c)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}
