package smol

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"smol/internal/analysis/alloctest"
	"smol/internal/codec/vid"
	"smol/internal/img"
)

// openTestStore ingests one clip into a fresh store and returns its handle.
func openTestStore(t *testing.T, enc []byte, opts IngestOptions) (*MediaStore, *StoredVideo) {
	t.Helper()
	ms, err := OpenMediaStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	v, err := ms.IngestVideo("clip", enc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ms, v
}

// indexTestVideo indexes raw stream bytes (and renditions) into an
// unpersisted StoredVideo.
func indexTestVideo(t testing.TB, stream []byte, renditions ...[]byte) *StoredVideo {
	t.Helper()
	v, err := IndexVideo(stream, renditions...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestClassifyVideoStoredMatchesSequential is the store-path acceptance
// equivalence: the parallel per-GOP fan-out must predict bit-identically to
// the sequential full-decode oracle (DisableGOPSeek over the same stored
// stream) at every stride, including strides that cross GOP boundaries
// mid-group and strides aligned to the GOP interval.
func TestClassifyVideoStoredMatchesSequential(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	frames, _ := renderClassVideo(t, 53, 48)
	const gop = 6
	enc := encodeClassVideo(t, frames, 85, gop)
	_, v := openTestStore(t, enc, IngestOptions{})
	ctx := context.Background()

	run := func(disable bool, workers, stride int) VideoResult {
		t.Helper()
		rt, err := NewRuntime(clf.Model, RuntimeConfig{
			InputRes: 16, BatchSize: 8, Workers: 2, DisableGOPSeek: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		if workers > 0 {
			rt.decodeWorkers = workers
		}
		srv, err := rt.Serve()
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		res, err := srv.ClassifyVideoStored(ctx, v, VideoOpts{Stride: stride, Deblock: DeblockOn})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, stride := range []int{1, 4, gop, 7, 13, 2 * gop, 60} {
		seq := run(true, 0, stride)
		for _, workers := range []int{1, 3} {
			par := run(false, workers, stride)
			if len(par.Predictions) != len(seq.Predictions) {
				t.Fatalf("stride %d workers %d: %d predictions vs sequential %d",
					stride, workers, len(par.Predictions), len(seq.Predictions))
			}
			for i := range par.Predictions {
				if par.Predictions[i] != seq.Predictions[i] {
					t.Fatalf("stride %d workers %d sample %d (frame %d): parallel predicted %d, sequential %d",
						stride, workers, i, par.FrameIndices[i], par.Predictions[i], seq.Predictions[i])
				}
			}
			// Every sample costs at most its intra-GOP prefix; nothing
			// outside the sampled GOPs is ever decoded, and the frames no
			// worker decoded are exactly the request's bypass.
			span := (len(seq.Predictions)-1)*stride + 1
			if got := par.Decode.FramesDecoded + par.Decode.FramesBypassed; got != span || par.Decode.FramesDecoded > span {
				t.Fatalf("stride %d workers %d: decoded %d bypassed %d over a %d-frame span",
					stride, workers, par.Decode.FramesDecoded, par.Decode.FramesBypassed, span)
			}
			if stride%gop == 0 && par.Decode.FramesDecoded != len(par.Predictions) {
				// GOP-aligned samples land on I-frames: one decode each.
				t.Fatalf("stride %d workers %d: decoded %d frames for %d GOP-aligned samples",
					stride, workers, par.Decode.FramesDecoded, len(par.Predictions))
			}
		}
	}
}

// TestClassifyVideoStoredRenditions: the planner must route a store-backed
// request to an ingested low-resolution rendition exactly as it would to a
// request-supplied variant, under a relaxed accuracy floor.
func TestClassifyVideoStoredRenditions(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	frames, _ := renderClassVideo(t, 24, 96)
	enc := encodeClassVideo(t, frames, 85, 6)
	_, v := openTestStore(t, enc, IngestOptions{RenditionShortEdges: []int{48}})
	if got := len(v.Renditions()); got != 1 {
		t.Fatalf("%d renditions, want 1", got)
	}
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := srv.ClassifyVideoStored(context.Background(), v, VideoOpts{Stride: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Stream != 1 {
		t.Fatalf("relaxed-floor plan served stream %d, want the 48px rendition (1)", res.Plan.Stream)
	}
	if len(res.Predictions) != 6 {
		t.Fatalf("%d predictions, want 6", len(res.Predictions))
	}
}

// TestClassifyVideoStoredConcurrent hammers one stored video from several
// goroutines (run under -race): requests share the runtime's planner memo
// and engine but each owns its decoder pool, so answers must stay
// deterministic.
func TestClassifyVideoStoredConcurrent(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	frames, _ := renderClassVideo(t, 36, 48)
	enc := encodeClassVideo(t, frames, 85, 5)
	_, v := openTestStore(t, enc, IngestOptions{})
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.decodeWorkers = 2
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	want, err := srv.ClassifyVideoStored(ctx, v, VideoOpts{Stride: 3, Deblock: DeblockOn})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	var wg sync.WaitGroup
	errs := make([]error, callers)
	preds := make([][]int, callers)
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			res, err := srv.ClassifyVideoStored(ctx, v, VideoOpts{Stride: 3, Deblock: DeblockOn})
			errs[c], preds[c] = err, res.Predictions
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		for i := range want.Predictions {
			if preds[c][i] != want.Predictions[i] {
				t.Fatalf("caller %d sample %d: predicted %d, want %d", c, i, preds[c][i], want.Predictions[i])
			}
		}
	}
}

// TestClassifyVideoStoredCancel: cancelling a fan-out request, before it
// starts or while its workers decode, must return the context's error
// without hanging on a worker or the feeder, and leave the server serving.
func TestClassifyVideoStoredCancel(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	frames, _ := renderClassVideo(t, 60, 48)
	enc := encodeClassVideo(t, frames, 85, 4)
	_, v := openTestStore(t, enc, IngestOptions{})
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.decodeWorkers = 3
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	opts := VideoOpts{Stride: 1, Deblock: DeblockOn}
	want, err := srv.ClassifyVideoStored(context.Background(), v, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, delay := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		if delay == 0 {
			cancel()
		} else {
			time.AfterFunc(delay, cancel)
		}
		_, err := srv.ClassifyVideoStored(ctx, v, opts)
		cancel()
		if delay == 0 && !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled request returned %v", err)
		}
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("request cancelled after %v returned %v", delay, err)
		}
	}
	got, err := srv.ClassifyVideoStored(context.Background(), v, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Predictions, want.Predictions) {
		t.Fatal("predictions changed after cancelled requests")
	}
}

// TestOrderedGOPSourceCancelled: the feeder closes the ordered queue early
// when a request is cancelled, so a closed queue under a cancelled context
// must end the source with the context's error, never as a complete stream
// (which would return the unfilled slots as predictions).
func TestOrderedGOPSourceCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ordered := make(chan *gopTask)
	close(ordered)
	src := &orderedGOPSource{ctx: ctx, ordered: ordered}
	for i := 0; i < 32; i++ {
		if _, ok, err := src.Next(); ok || !errors.Is(err, context.Canceled) {
			t.Fatalf("call %d: Next returned ok=%v err=%v, want context.Canceled", i, ok, err)
		}
	}
}

// TestClassifyVideoRawMatchesStored: IndexVideo serves raw bytes as an
// unpersisted stored video, so a request over that handle and over the same
// bytes after IngestVideo must agree on everything the result reports —
// predictions, frame indices, plan and decoder work — with and without a
// low-resolution rendition, on both sides of DisableGOPSeek, and with a
// multi-worker fan-out, whose Decode counters are per request, not per
// worker schedule.
func TestClassifyVideoRawMatchesStored(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	frames, _ := renderClassVideo(t, 41, 96)
	const gop = 6
	enc := encodeClassVideo(t, frames, 85, gop)
	_, plain := openTestStore(t, enc, IngestOptions{})
	_, withLow := openTestStore(t, enc, IngestOptions{RenditionShortEdges: []int{48}})
	// The raw handle carries the ingested rendition's bytes as its rendition.
	low := withLow.v.Renditions[0].Data
	ctx := context.Background()

	for _, disable := range []bool{false, true} {
		rt, err := NewRuntime(clf.Model, RuntimeConfig{
			InputRes: 16, BatchSize: 8, Workers: 2, DisableGOPSeek: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.decodeWorkers = 3
		srv, err := rt.Serve()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name        string
			stored, raw *StoredVideo
		}{
			{"primary", plain, indexTestVideo(t, enc)},
			{"rendition", withLow, indexTestVideo(t, enc, low)},
		} {
			for _, stride := range []int{1, 4, gop, 13} {
				stored, err := srv.ClassifyVideoStored(ctx, c.stored, VideoOpts{Stride: stride})
				if err != nil {
					t.Fatal(err)
				}
				raw, err := srv.ClassifyVideoStored(ctx, c.raw, VideoOpts{Stride: stride})
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("DisableGOPSeek=%v %s stride %d", disable, c.name, stride)
				if !reflect.DeepEqual(raw.Predictions, stored.Predictions) || !reflect.DeepEqual(raw.FrameIndices, stored.FrameIndices) {
					t.Fatalf("%s: raw predicted %v at %v, stored %v at %v",
						where, raw.Predictions, raw.FrameIndices, stored.Predictions, stored.FrameIndices)
				}
				if raw.Plan != stored.Plan {
					t.Fatalf("%s: raw plan %+v, stored plan %+v", where, raw.Plan, stored.Plan)
				}
				if c.stored == withLow && raw.Plan.Stream != 1 {
					t.Fatalf("%s: relaxed-floor plan served stream %d, want the 48px rendition (1)", where, raw.Plan.Stream)
				}
				if raw.Decode != stored.Decode {
					t.Fatalf("%s: raw decode %+v, stored decode %+v", where, raw.Decode, stored.Decode)
				}
			}
		}
		srv.Close()
	}
}

// TestEstimateMeanStoredMatchesRaw: IndexVideo aggregates raw bytes as an
// unpersisted stored video, so the raw and store-backed queries share one
// retention policy and must agree on the estimate and on the decode work —
// both under the default budget, which retains this short clip, and under a
// budget forced below it, where both seek every sampled frame through the
// GOP index.
func TestEstimateMeanStoredMatchesRaw(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	frames, _ := renderClassVideo(t, 48, 48)
	enc := encodeClassVideo(t, frames, 85, 8)
	_, v := openTestStore(t, enc, IngestOptions{})
	rawV := indexTestVideo(t, enc)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	query := func(budget string) (raw, stored AggregateResult) {
		t.Helper()
		opts := AggregateOpts{ErrTarget: 1e-9, Deblock: DeblockOn, Seed: 7}
		raw, err := srv.EstimateMeanStored(ctx, rawV, opts)
		if err != nil {
			t.Fatal(err)
		}
		stored, err = srv.EstimateMeanStored(ctx, v, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(stored.Estimate-raw.Estimate) > 1e-12 || stored.TargetInvocations != raw.TargetInvocations {
			t.Fatalf("%s budget: stored query answered %.6f (%d invocations), raw %.6f (%d)",
				budget, stored.Estimate, stored.TargetInvocations, raw.Estimate, raw.TargetInvocations)
		}
		if stored.Decode != raw.Decode {
			t.Fatalf("%s budget: stored decode %+v, raw %+v", budget, stored.Decode, raw.Decode)
		}
		return raw, stored
	}
	retained, _ := query("default")
	if retained.Decode.GOPSeeks != 0 || retained.Decode.FramesDecoded != len(frames) {
		t.Fatalf("default budget: decoded %d frames with %d seeks, want one pass of %d retained frames",
			retained.Decode.FramesDecoded, retained.Decode.GOPSeeks, len(frames))
	}

	defer func(n int) { aggRetainBytes = n }(aggRetainBytes)
	aggRetainBytes = 8 * 48 * 48 * 3
	raw, stored := query("forced-small")
	if raw.Decode.GOPSeeks == 0 || stored.Decode.GOPSeeks == 0 {
		t.Fatalf("re-decode path never used the GOP index (raw %d seeks, stored %d)", raw.Decode.GOPSeeks, stored.Decode.GOPSeeks)
	}
	if raw.Estimate != retained.Estimate {
		t.Fatalf("re-decode path answered %.6f, retained path %.6f", raw.Estimate, retained.Estimate)
	}
	if _, err := srv.EstimateMeanStored(ctx, v, AggregateOpts{}); err == nil {
		t.Fatal("zero error target should error")
	}
}

// TestGOPTasksPartition: the fan-out planner must partition the sampled
// frames into per-GOP groups with contiguous slots, never splitting or
// reordering a group.
func TestGOPTasksPartition(t *testing.T) {
	index := []vid.GOPEntry{
		{FirstFrame: 0, Frames: 5},
		{FirstFrame: 5, Frames: 5},
		{FirstFrame: 10, Frames: 5},
		{FirstFrame: 15, Frames: 2},
	}
	for _, stride := range []int{1, 2, 3, 5, 7, 16, 17, 40} {
		tasks := gopTasks(index, 17, stride)
		slot := 0
		prevFrame := -1
		for _, task := range tasks {
			if task.firstSlot != slot {
				t.Fatalf("stride %d: task starts at slot %d, want %d", stride, task.firstSlot, slot)
			}
			if len(task.frames) == 0 {
				t.Fatalf("stride %d: empty task", stride)
			}
			g := -1
			for _, f := range task.frames {
				if f <= prevFrame || f%stride != 0 {
					t.Fatalf("stride %d: frame %d out of order or off-stride", stride, f)
				}
				prevFrame = f
				fg := f / 5
				if fg > 3 {
					fg = 3
				}
				if g == -1 {
					g = fg
				} else if fg != g {
					t.Fatalf("stride %d: task mixes GOPs %d and %d", stride, g, fg)
				}
				slot++
			}
		}
		if wantSlots := (17 + stride - 1) / stride; slot != wantSlots {
			t.Fatalf("stride %d: tasks cover %d samples, want %d", stride, slot, wantSlots)
		}
	}
}

// TestGOPWorkerWarmPathAllocates pins the decode fan-out's warm path: a
// worker re-running tasks over a warm decoder and frame pool must not
// allocate per frame.
func TestGOPWorkerWarmPathAllocates(t *testing.T) {
	frames, _ := renderClassVideo(t, 30, 32)
	enc := encodeClassVideo(t, frames, 85, 5)
	dec, err := vid.NewDecoder(enc, vid.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	index, err := vid.IndexGOPs(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetGOPIndex(index); err != nil {
		t.Fatal(err)
	}
	cr := &classifyReq{frames: make([]*img.Image, 6), framePool: &sync.Pool{}}
	w := &gopWorker{dec: dec, cr: cr}
	tasks := gopTasks(index, 30, 5)
	ti := 0
	step := func() {
		task := tasks[ti%len(tasks)]
		if err := w.decodeTask(task); err != nil {
			t.Fatal(err)
		}
		for i := range task.frames {
			slot := task.firstSlot + i
			cr.framePool.Put(cr.frames[slot])
			cr.frames[slot] = nil
		}
		ti++
	}
	step() // warm the decoder, pool, and flate reader
	alloctest.Run(t, "smol.gopWorker.decodeTask", 1, step)
}
