package smol

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// classifyOnce serves one still-image request on a Server brought up for
// it alone: the cold, single-request reference warm servers are compared
// against.
func classifyOnce(rt *Runtime, inputs []MediaInput, qos QoS) (ClassifyResult, error) {
	srv, err := rt.Serve()
	if err != nil {
		return ClassifyResult{}, err
	}
	defer srv.Close()
	return srv.ClassifyMedia(context.Background(), inputs, qos)
}

// TestServerConcurrentClassify: several simultaneous ClassifyMedia calls must
// share one warm engine and each get back exactly its own predictions —
// the acceptance scenario for the streaming serving mode.
func TestServerConcurrentClassify(t *testing.T) {
	clf, test := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]MediaInput, len(test))
	for i, li := range test {
		inputs[i] = MediaInput{Codec: CodecJPEG, Data: EncodeJPEG(li.Image, 95)}
	}
	// Reference predictions from the one-shot path.
	ref, err := classifyOnce(rt, inputs, QoS{})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const callers = 3
	var wg sync.WaitGroup
	results := make([]ClassifyResult, callers)
	errs := make([]error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Each caller classifies a distinct rotation of the test set so
			// cross-request routing mistakes cannot cancel out.
			rot := make([]MediaInput, len(inputs))
			for i := range inputs {
				rot[i] = inputs[(i+c)%len(inputs)]
			}
			results[c], errs[c] = srv.ClassifyMedia(context.Background(), rot, QoS{})
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		if len(results[c].Predictions) != len(inputs) {
			t.Fatalf("caller %d: %d predictions", c, len(results[c].Predictions))
		}
		for i, p := range results[c].Predictions {
			if want := ref.Predictions[(i+c)%len(inputs)]; p != want {
				t.Fatalf("caller %d slot %d: predicted %d, one-shot says %d", c, i, p, want)
			}
		}
	}
	// A warm follow-up request must reuse pooled buffers from the earlier
	// traffic rather than allocating a fresh pipeline.
	again, err := srv.ClassifyMedia(context.Background(), inputs, QoS{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.PoolReuses == 0 {
		t.Fatal("warm server shows no buffer reuse")
	}
}

// TestServerCancellation: cancelling a ClassifyMedia request must return promptly with
// the context error and leave the server healthy for later requests.
func TestServerCancellation(t *testing.T) {
	clf, test := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A large request so cancellation lands mid-stream.
	big := make([]MediaInput, 5000)
	enc := EncodeJPEG(test[0].Image, 95)
	for i := range big {
		big[i] = MediaInput{Codec: CodecJPEG, Data: enc}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.ClassifyMedia(ctx, big, QoS{})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ClassifyMedia returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled ClassifyMedia did not return (deadlock)")
	}

	// The server survives and still produces correct-shaped results.
	small := big[:16]
	res, err := srv.ClassifyMedia(context.Background(), small, QoS{})
	if err != nil {
		t.Fatalf("request after cancellation: %v", err)
	}
	if len(res.Predictions) != len(small) {
		t.Fatalf("%d predictions after cancellation", len(res.Predictions))
	}
}

// TestServerClassifyAfterCloseFails documents the shutdown contract.
func TestServerClassifyAfterCloseFails(t *testing.T) {
	clf, test := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	_, err = srv.ClassifyMedia(context.Background(), []MediaInput{{Codec: CodecJPEG, Data: EncodeJPEG(test[0].Image, 90)}}, QoS{})
	if err == nil {
		t.Fatal("ClassifyMedia on a closed server should error")
	}
}
