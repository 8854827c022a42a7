// Streaming: serve many concurrent classification requests from one warm
// engine. Runtime.Serve brings the pipeline — tensor pools, pinned staging
// arenas, worker goroutines — up once and keeps it resident, so a stream
// of requests shares it: the serving posture the paper's
// latency-constrained deployment mode (§3.1) assumes.
//
// Serve also executes batches in parallel: the runtime compiles the model
// into a reentrant inference plan (folded batch-norm, fused GEMM
// epilogues, recycled activation arenas), so batches from different
// streams run model forwards concurrently — bounded by
// RuntimeConfig.ExecParallel — instead of serializing behind one lock.
//
// The walkthrough trains a tiny classifier, then demonstrates
//  1. concurrent requests interleaving in one pipeline (their samples may
//     share accelerator batches and execute in parallel),
//  2. warm-pool reuse across sequential requests, and
//  3. context cancellation stopping an in-flight request without
//     disturbing its neighbours.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"smol"
	"smol/internal/data"
)

func main() {
	// 1. Train a small 2-class model (see examples/quickstart for details).
	rng := rand.New(rand.NewSource(7))
	const res, classes = 16, 2
	var train, test []smol.LabeledImage
	for i := 0; i < 240; i++ {
		c := i % classes
		train = append(train, smol.LabeledImage{Image: data.RenderImage(rng, c, classes, res), Label: c})
	}
	for i := 0; i < 64; i++ {
		c := i % classes
		test = append(test, smol.LabeledImage{Image: data.RenderImage(rng, c, classes, res), Label: c})
	}
	fmt.Println("training classifier...")
	clf, err := smol.TrainClassifier(train, classes, smol.TrainOptions{Epochs: 6, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	inputs := make([]smol.MediaInput, len(test))
	for i, li := range test {
		inputs[i] = smol.MediaInput{Codec: smol.CodecJPEG, Data: smol.EncodeJPEG(li.Image, 90)}
	}
	var maxThroughput smol.QoS // the zero target: fastest plan, no floor

	// 2. Bring up the warm server once; all requests below share it.
	rt, err := smol.NewRuntime(clf.Model, smol.RuntimeConfig{InputRes: res, BatchSize: 16})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// 3. Fire concurrent requests. Each gets only its own predictions even
	// though their samples interleave in the shared queue and batches.
	const callers = 3
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resu, err := srv.ClassifyMedia(context.Background(), inputs, maxThroughput)
			if err != nil {
				log.Fatalf("request %d: %v", c, err)
			}
			correct := 0
			for i, p := range resu.Predictions {
				if p == test[i].Label {
					correct++
				}
			}
			fmt.Printf("request %d: accuracy %.1f%%, %.0f im/s, %d batches\n",
				c, 100*float64(correct)/float64(len(test)),
				resu.Stats.Throughput, resu.Stats.Batches)
		}(c)
	}
	wg.Wait()

	// 4. A follow-up request rides the warm pool: no new allocations, only
	// reuses (PoolAllocs/PoolReuses are cumulative over the server's life).
	warm, err := srv.ClassifyMedia(context.Background(), inputs, maxThroughput)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm request: pool %d allocs / %d reuses so far\n",
		warm.Stats.PoolAllocs, warm.Stats.PoolReuses)

	// 5. Cancellation: a huge request is cut off mid-stream; the server
	// keeps serving everyone else.
	big := make([]smol.MediaInput, 20000)
	for i := range big {
		big[i] = inputs[i%len(inputs)]
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err = srv.ClassifyMedia(ctx, big, maxThroughput)
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Println("big request cancelled mid-stream, as intended")
	case err == nil:
		fmt.Println("big request finished before the deadline (fast machine!)")
	default:
		log.Fatal(err)
	}
	if _, err := srv.ClassifyMedia(context.Background(), inputs, maxThroughput); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server healthy after cancellation")
}
