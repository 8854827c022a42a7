package smol

import (
	"context"

	"smol/internal/engine"
)

// Server is a long-lived serving frontend over one warm engine pipeline:
// the preprocessing workers, per-variant tensor pools, and pinned staging
// arenas come up once and stay resident, and any number of concurrent
// requests share them (the latency-constrained deployment mode of
// §3.1). Each request is routed by the serving planner: its QoS target
// (accuracy floor, latency ceiling, or max throughput) picks a zoo entry,
// decode scale, and preprocessing chain jointly, and the engine keeps a
// shape class per entry so requests with different targets share the warm
// pipeline without sharing batches. Every entry's batches execute through
// its reentrant compiled inference plan (see nn.Compile), so different
// engine streams run model forwards in parallel up to
// RuntimeConfig.ExecParallel. Samples from different requests with the
// same chosen entry may share accelerator batches; results, per-image
// decode/preprocess errors, and cancellation stay confined to their own
// request. The one shared failure domain is batch execution: if the model
// forward fails, every request with a sample in that batch fails, while
// the server itself keeps serving later requests.
//
// A Server answers each query kind through one method: ClassifyMedia for
// still images, ClassifyVideoStored for sampled video classification,
// EstimateMeanStored for aggregation, and SelectVideo for LIMIT selection
// through a two-stage proxy cascade with store-level predicate pushdown.
// The three video methods take a StoredVideo, from a MediaStore or from raw
// bytes through IndexVideo, and sample it through its GOP index.
//
// Create a Server with Runtime.Serve and release it with Close.
type Server struct {
	rt   *Runtime
	pipe *engine.Pipeline
}

// Serve brings up a resident streaming pipeline for this runtime and
// returns the Server fronting it. The returned Server is safe for
// concurrent use; Close it to release the engine's goroutines.
func (r *Runtime) Serve() (*Server, error) {
	pipe, err := engine.NewPipeline(r.engineConfig(), r.prepFunc(), r.execFunc())
	if err != nil {
		return nil, err
	}
	return &Server{rt: r, pipe: pipe}, nil
}

// ClassifyMedia streams one request's encoded still images (each tagged
// with its codec) through the shared warm engine and blocks until every
// prediction is ready, ctx is cancelled, or a stage fails. The planner
// selects the zoo entry, decode scale and preprocessing chain for this
// request alone from qos, so one warm Server serves an accuracy-floor
// request and a max-throughput request back to back. Concurrent calls
// interleave in the pipeline and may share batches; each call only ever
// sees its own predictions.
//
// On cancellation ClassifyMedia returns ctx's error promptly; the request's
// in-flight samples are dropped inside the engine without disturbing other
// requests. Video streams are whole requests, not single samples: index
// them with IndexVideo and serve them through ClassifyVideoStored.
func (s *Server) ClassifyMedia(ctx context.Context, inputs []MediaInput, qos QoS) (ClassifyResult, error) {
	ent, plan, err := s.rt.planFor(inputs, qos)
	if err != nil {
		return ClassifyResult{}, err
	}
	cr := &classifyReq{inputs: inputs, preds: make([]int, len(inputs)), entry: ent}
	jobs := make([]engine.Job, len(inputs))
	for i := range jobs {
		jobs[i] = engine.Job{Index: i, Tag: cr, Class: ent.class}
	}
	stats, err := s.pipe.Process(ctx, engine.SliceSource(jobs))
	if err != nil {
		return ClassifyResult{}, err
	}
	return ClassifyResult{Predictions: cr.preds, Plan: plan, Stats: stats}, nil
}

// Close tears the pipeline down, waiting for resident goroutines to exit.
// Requests still in flight fail with engine.ErrPipelineClosed.
func (s *Server) Close() {
	s.pipe.Close()
}
