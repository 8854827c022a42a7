package engine

import (
	"runtime"
	"time"

	"smol/internal/tensor"
)

// Config describes the pipeline topology.
type Config struct {
	// Workers is the number of preprocessing goroutines; zero means
	// GOMAXPROCS (the paper's producers == vCPUs heuristic).
	Workers int
	// Streams is the number of batch-assembly consumers (CUDA streams) per
	// shape class; zero means 2.
	Streams int
	// BatchSize is the execution batch size of every shape class; zero
	// means 32. Each class's bounded queue holds 4x this many samples.
	BatchSize int
	// Shapes declares the pipeline's shape classes, each a (C, H, W)
	// sample shape: every job names one via Job.Class, and the pipeline
	// keeps a tensor pool, staging arena, bounded queue, and batch-assembly
	// streams per class. Batches never mix classes, so a multi-variant
	// model zoo can share one warm pipeline while each variant keeps its
	// own input geometry.
	Shapes [][3]int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Streams <= 0 {
		c.Streams = 2
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	return c
}

// Job is one unit of input: an encoded image plus its position in the
// input order. Tag is an opaque per-job payload the engine threads through
// to the execution stage's Refs; streaming callers use it to route results
// back to the submitting request.
type Job struct {
	Index int
	Data  []byte
	Tag   any
	// Class is the job's shape class (an index into Config.Shapes); leave 0
	// for single-shape pipelines.
	Class int
}

// PrepFunc decodes and preprocesses one job into out, which has the shape
// of the job's class. It runs concurrently on many workers;
// implementations must confine mutable state to the worker (the engine
// passes a distinct WorkerState to each).
type PrepFunc func(ws *WorkerState, job Job, out *tensor.Tensor) error

// WorkerState carries per-worker scratch so PrepFuncs can reuse memory
// without synchronization.
type WorkerState struct {
	// ID is the worker index.
	ID int
	// Scratch is an arbitrary per-worker value. It starts nil; a PrepFunc
	// sets it up lazily on the worker's first job and reuses it after.
	Scratch any
}

// Stats summarizes one request streamed through a Pipeline by Process.
type Stats struct {
	Images          int
	Elapsed         time.Duration
	Throughput      float64 // images/sec
	Batches         int
	QueueFullStalls int
	PoolAllocs      int
	PoolReuses      int
	// MeanLatency and MaxLatency measure per-image latency from the start
	// of an image's preprocessing to the completion of the batch that
	// carried it — the real-engine counterpart of the simulator's latency
	// tracking and the quantity Constraint.MaxLatencyUS caps.
	//
	// On a long-lived Pipeline, QueueFullStalls, PoolAllocs and PoolReuses
	// are cumulative over the pipeline's lifetime; the other fields are
	// per-request.
	MeanLatency time.Duration
	MaxLatency  time.Duration
}

// item is a preprocessed sample flowing through the queue. Only the pointer
// crosses goroutines, avoiding copies (§6.1: "Smol only passes pointers
// between workers"). req binds the sample to the request that submitted it
// so results, errors, and latency route per request.
type item struct {
	index int
	tag   any
	buf   *tensor.Tensor
	// start is when the item's preprocessing began, for latency tracking.
	start time.Time
	req   *request
}
