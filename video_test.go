package smol

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"smol/internal/data"
)

// renderClassVideo draws frames carrying the tiny classifier's class
// patterns (alternating per frame), so video predictions are meaningful and
// comparable against still-image classification of the same pixels.
func renderClassVideo(t testing.TB, n, res int) ([]*Image, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	frames := make([]*Image, n)
	labels := make([]int, n)
	for i := range frames {
		c := i % 2
		frames[i] = data.RenderImage(rng, c, 2, res)
		labels[i] = c
	}
	return frames, labels
}

func encodeClassVideo(t testing.TB, frames []*Image, quality, gop int) []byte {
	t.Helper()
	enc, err := EncodeVideo(frames, quality, gop)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestClassifyVideoMatchesOfflineDecode is the acceptance equivalence: with
// the deblocking filter forced on, ClassifyVideoStored's per-frame
// predictions must be bit-identical to decoding each sampled frame offline
// and pushing it through ClassifyMedia (losslessly PNG-encoded, so the only difference is
// the serving path itself: resident decoder, frame recycling, shared
// batches).
func TestClassifyVideoMatchesOfflineDecode(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	frames, _ := renderClassVideo(t, 24, 48)
	enc := encodeClassVideo(t, frames, 85, 6)
	const stride = 3
	res, err := srv.ClassifyVideoStored(context.Background(), indexTestVideo(t, enc), VideoOpts{Stride: stride, Deblock: DeblockOn})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Deblock {
		t.Fatal("ForceDeblock plan reports deblocking off")
	}
	wantN := (len(frames) + stride - 1) / stride
	if len(res.Predictions) != wantN || len(res.FrameIndices) != wantN {
		t.Fatalf("%d predictions / %d indices, want %d", len(res.Predictions), len(res.FrameIndices), wantN)
	}
	// Offline baseline: full-fidelity decode, lossless PNG, still path.
	decoded, err := DecodeVideo(enc, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, fi := range res.FrameIndices {
		if fi != i*stride {
			t.Fatalf("sample %d maps to frame %d, want %d", i, fi, i*stride)
		}
		still, err := srv.ClassifyMedia(context.Background(), []MediaInput{{Codec: CodecPNG, Data: EncodePNG(decoded[fi])}}, QoS{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Predictions[i] != still.Predictions[0] {
			t.Fatalf("frame %d: video path predicted %d, offline still path %d",
				fi, res.Predictions[i], still.Predictions[0])
		}
	}
	// The resident decoder stops after the last sampled frame: frames past
	// it are never needed as references. With GOP seek (the default) whole
	// groups between samples are bypassed outright, so decoded + bypassed
	// must exactly tile the prefix up to the last sample, and the decoded
	// share can only shrink.
	span := (wantN-1)*stride + 1
	if got := res.Decode.FramesDecoded + res.Decode.FramesBypassed; got != span {
		t.Fatalf("decoded %d + bypassed %d = %d frames, want the sampled prefix %d",
			res.Decode.FramesDecoded, res.Decode.FramesBypassed, got, span)
	}
	if res.Decode.FramesDecoded > span {
		t.Fatalf("decoder reports %d frames decoded, more than the sampled prefix %d", res.Decode.FramesDecoded, span)
	}
}

// TestClassifyVideoSeekMatchesSequential is the raw-stream A/B: the
// GOP-seek serving path (default) and the sequential full-decode path
// (DisableGOPSeek, the equivalence oracle) must emit bit-identical
// predictions while the seek path decodes strictly fewer frames whenever a
// stride jumps over whole GOPs. With one decode worker or three, the seek
// path's decoded + bypassed frames tile the sampled span exactly: the
// fan-out reports the request's bypass, not each worker's.
func TestClassifyVideoSeekMatchesSequential(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	frames, _ := renderClassVideo(t, 47, 48)
	enc := encodeClassVideo(t, frames, 85, 5)
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
		res, err := srv.ClassifyVideoStored(ctx, indexTestVideo(t, enc), VideoOpts{Stride: stride, Deblock: DeblockOn})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, stride := range []int{1, 3, 5, 11, 20} {
		seq := run(true, 1, stride)
		span := (len(seq.Predictions)-1)*stride + 1
		if seq.Decode.FramesDecoded != span || seq.Decode.FramesBypassed != 0 {
			t.Fatalf("stride %d: sequential path decoded %d (bypassed %d), want %d (0)",
				stride, seq.Decode.FramesDecoded, seq.Decode.FramesBypassed, span)
		}
		for _, workers := range []int{1, 3} {
			seek := run(false, workers, stride)
			if len(seek.Predictions) != len(seq.Predictions) {
				t.Fatalf("stride %d workers %d: %d seek predictions vs %d sequential",
					stride, workers, len(seek.Predictions), len(seq.Predictions))
			}
			for i := range seek.Predictions {
				if seek.Predictions[i] != seq.Predictions[i] {
					t.Fatalf("stride %d workers %d sample %d: seek predicted %d, sequential %d",
						stride, workers, i, seek.Predictions[i], seq.Predictions[i])
				}
			}
			if got := seek.Decode.FramesDecoded + seek.Decode.FramesBypassed; got != span {
				t.Fatalf("stride %d workers %d: seek path decoded %d + bypassed %d != span %d",
					stride, workers, seek.Decode.FramesDecoded, seek.Decode.FramesBypassed, span)
			}
			if stride > 5 && seek.Decode.FramesDecoded >= seq.Decode.FramesDecoded {
				// Strides beyond the GOP interval must jump over whole groups.
				t.Fatalf("stride %d workers %d: seek path decoded %d frames, sequential %d — no savings",
					stride, workers, seek.Decode.FramesDecoded, seq.Decode.FramesDecoded)
			}
		}
	}
}

// TestVideoDeblockDriftBound: reduced-fidelity decode (deblocking off) may
// shift individual predictions, but on trivially separable content the
// drift against full-fidelity decode must stay small — the §6.4 lever
// trades bounded accuracy for decode speed.
func TestVideoDeblockDriftBound(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	frames, _ := renderClassVideo(t, 30, 48)
	enc := encodeClassVideo(t, frames, 85, 6)
	ctx := context.Background()
	on, err := srv.ClassifyVideoStored(ctx, indexTestVideo(t, enc), VideoOpts{Deblock: DeblockOn})
	if err != nil {
		t.Fatal(err)
	}
	off, err := srv.ClassifyVideoStored(ctx, indexTestVideo(t, enc), VideoOpts{Deblock: DeblockOff})
	if err != nil {
		t.Fatal(err)
	}
	if off.Plan.Deblock {
		t.Fatal("DeblockOff plan reports deblocking on")
	}
	if off.Decode.DeblockedEdges != 0 {
		t.Fatalf("deblock-off decode still filtered %d edges", off.Decode.DeblockedEdges)
	}
	drift := 0
	for i := range on.Predictions {
		if on.Predictions[i] != off.Predictions[i] {
			drift++
		}
	}
	if frac := float64(drift) / float64(len(on.Predictions)); frac > 0.2 {
		t.Fatalf("deblock-off drift %d/%d = %.2f exceeds 0.2", drift, len(on.Predictions), frac)
	}
}

// TestVideoPlannerJointChoice: the video planner must trade fidelity for
// throughput exactly like the still planner trades zoo entries — a strict
// accuracy floor pins full fidelity (deblocking on, full-resolution
// rendition, accurate entry), while an unconstrained request routes to the
// cheap rendition and the cheap entry.
func TestVideoPlannerJointChoice(t *testing.T) {
	zoo, _ := trainTinyZoo(t)
	rt, err := NewZooRuntime(zoo, RuntimeConfig{BatchSize: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	frames, _ := renderClassVideo(t, 12, 96)
	full := encodeClassVideo(t, frames, 85, 6)
	low := make([]*Image, len(frames))
	for i, f := range frames {
		low[i] = f.ResizeBilinear(12, 12) // below the 16px entry's resize target
	}
	lowEnc := encodeClassVideo(t, low, 85, 6)
	ctx := context.Background()

	withLow := indexTestVideo(t, full, lowEnc)
	strict, err := srv.ClassifyVideoStored(ctx, withLow, VideoOpts{QoS: QoS{MinAccuracy: 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Plan.Entry != "resnet-a@16" || !strict.Plan.Deblock || strict.Plan.Stream != 0 {
		t.Fatalf("strict floor chose %+v, want resnet-a@16 / deblock on / stream 0", strict.Plan)
	}
	relaxed, err := srv.ClassifyVideoStored(ctx, withLow, VideoOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Unconstrained, the cheap rendition and the cheap entry win.
	// (Deblocking may legitimately stay on when it is not the bottleneck —
	// the planner only trades fidelity that buys throughput.)
	if relaxed.Plan.Stream != 1 || relaxed.Plan.Entry != "resnet-a@8" {
		t.Fatalf("unconstrained request chose %+v, want resnet-a@8 on low-res stream 1", relaxed.Plan)
	}
	// An unsatisfiable floor fails loudly.
	if _, err := srv.ClassifyVideoStored(ctx, indexTestVideo(t, full), VideoOpts{QoS: QoS{MinAccuracy: 0.99}}); err == nil {
		t.Fatal("unsatisfiable accuracy floor should error")
	}
	// A rendition with a different frame count is not the same content on
	// the same timeline; routing to it would silently reindex results, so
	// IndexVideo refuses it.
	short := encodeClassVideo(t, frames[:6], 85, 6)
	if _, err := IndexVideo(full, short); err == nil || !strings.Contains(err.Error(), "timeline") {
		t.Fatalf("frame-count-mismatched rendition: got %v, want a timeline error", err)
	}
}

// TestIngestPlansNeverSharedAcrossCodecs: same-dimension inputs of
// different codecs must compile distinct ingest plans — the regression the
// codec-tagged ingestKey exists to prevent (a JPEG plan carries a decode
// scale its codec implements; a PNG or video frame plan must not inherit
// it).
func TestIngestPlansNeverSharedAcrossCodecs(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16})
	if err != nil {
		t.Fatal(err)
	}
	jp, err := rt.ingestFor(64, 64, 8, CodecJPEG, 16)
	if err != nil {
		t.Fatal(err)
	}
	pn, err := rt.ingestFor(64, 64, 0, CodecPNG, 16)
	if err != nil {
		t.Fatal(err)
	}
	vd, err := rt.ingestFor(64, 64, 0, CodecVideo, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rt.ingest.len() != 3 {
		t.Fatalf("3 codecs share %d cached plans", rt.ingest.len())
	}
	if jp == pn || jp == vd || pn == vd {
		t.Fatal("plans shared across codecs")
	}
	if jp.scale != 4 {
		t.Fatalf("64x64 JPEG to 16px should decode at 1/4, got 1/%d", jp.scale)
	}
	if pn.scale != 1 || vd.scale != 1 {
		t.Fatalf("PNG/video plans carry decode scales 1/%d and 1/%d", pn.scale, vd.scale)
	}
	// Same dims and codec but different MCU geometry also stay distinct.
	if jp420, err := rt.ingestFor(64, 64, 16, CodecJPEG, 16); err != nil {
		t.Fatal(err)
	} else if jp420 == jp {
		t.Fatal("different MCU geometries share a plan")
	}
}

// TestVideoStillMixedRace: eight concurrent callers — video streams and
// still images interleaved — share one warm server; every caller must get
// exactly its own predictions back. Run under -race this is the shared
// per-class pool/batch-stream safety check for the media-generic pipeline.
func TestVideoStillMixedRace(t *testing.T) {
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
	ctx := context.Background()

	frames, _ := renderClassVideo(t, 18, 48)
	enc := encodeClassVideo(t, frames, 85, 6)
	stills := encodeTestSet(test)
	v := indexTestVideo(t, enc)
	videoRef, err := srv.ClassifyVideoStored(ctx, v, VideoOpts{Stride: 2, Deblock: DeblockOn})
	if err != nil {
		t.Fatal(err)
	}
	stillRef, err := srv.ClassifyMedia(ctx, stills, QoS{})
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	bad := make([]string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c%2 == 0 {
				res, err := srv.ClassifyVideoStored(ctx, v, VideoOpts{Stride: 2, Deblock: DeblockOn})
				if err != nil {
					errs[c] = err
					return
				}
				for i := range res.Predictions {
					if res.Predictions[i] != videoRef.Predictions[i] {
						bad[c] = "video predictions diverged across concurrent callers"
						return
					}
				}
			} else {
				res, err := srv.ClassifyMedia(ctx, stills, QoS{})
				if err != nil {
					errs[c] = err
					return
				}
				for i := range res.Predictions {
					if res.Predictions[i] != stillRef.Predictions[i] {
						bad[c] = "still predictions diverged across concurrent callers"
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < callers; c++ {
		if errs[c] != nil {
			t.Fatalf("caller %d: %v", c, errs[c])
		}
		if bad[c] != "" {
			t.Fatalf("caller %d: %s", c, bad[c])
		}
	}
}

// TestEstimateMeanServing: the control-variate aggregation through the
// warm server must (a) reproduce the exact mean of the target model's
// predictions when the error target forces exhaustive sampling, and (b)
// spend fewer target invocations under a looser target.
func TestEstimateMeanServing(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
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

	frames, _ := renderClassVideo(t, 64, 48)
	enc := encodeClassVideo(t, frames, 85, 8)

	// Exact target mean from classifying every frame through the same
	// fidelity (deblock forced on in both paths).
	all, err := srv.ClassifyVideoStored(ctx, indexTestVideo(t, enc), VideoOpts{Deblock: DeblockOn})
	if err != nil {
		t.Fatal(err)
	}
	var exact float64
	for _, p := range all.Predictions {
		exact += float64(p)
	}
	exact /= float64(len(all.Predictions))

	exhaustive, err := srv.EstimateMeanStored(ctx, indexTestVideo(t, enc), AggregateOpts{
		ErrTarget: 1e-9, Deblock: DeblockOn, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if exhaustive.Frames != len(frames) || exhaustive.TargetInvocations != len(frames) {
		t.Fatalf("exhaustive query used %d/%d invocations", exhaustive.TargetInvocations, exhaustive.Frames)
	}
	if math.Abs(exhaustive.Estimate-exact) > 1e-9 {
		t.Fatalf("exhaustive estimate %.6f != exact mean %.6f", exhaustive.Estimate, exact)
	}
	loose, err := srv.EstimateMeanStored(ctx, indexTestVideo(t, enc), AggregateOpts{
		ErrTarget: 0.5, Deblock: DeblockOn, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loose.TargetInvocations >= exhaustive.TargetInvocations {
		t.Fatalf("loose target used %d invocations, exhaustive %d", loose.TargetInvocations, exhaustive.TargetInvocations)
	}
	if loose.HalfWidth > 0.5 {
		t.Fatalf("loose query stopped at half-width %.3f > target 0.5", loose.HalfWidth)
	}
	if _, err := srv.EstimateMeanStored(ctx, indexTestVideo(t, enc), AggregateOpts{}); err == nil {
		t.Fatal("zero error target should error")
	}
	// A cancelled context aborts the query during the decode pass.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := srv.EstimateMeanStored(cctx, indexTestVideo(t, enc), AggregateOpts{ErrTarget: 0.5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled EstimateMeanStored returned %v", err)
	}

	// Past the retention budget EstimateMeanStored re-decodes sampled frames
	// instead of keeping the whole stream resident; the decode is
	// deterministic, so the answer must be identical.
	defer func(n int) { aggRetainBytes = n }(aggRetainBytes)
	aggRetainBytes = 8 * 48 * 48 * 3
	bounded, err := srv.EstimateMeanStored(ctx, indexTestVideo(t, enc), AggregateOpts{
		ErrTarget: 1e-9, Deblock: DeblockOn, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Estimate != exhaustive.Estimate || bounded.TargetInvocations != exhaustive.TargetInvocations {
		t.Fatalf("re-decode path answered %.6f (%d invocations), retained path %.6f (%d)",
			bounded.Estimate, bounded.TargetInvocations, exhaustive.Estimate, exhaustive.TargetInvocations)
	}
}

// TestClassifyRejectsVideoInputs documents the routing contract: a video
// stream is one request, not one sample, so the still-image entry point
// refuses it.
func TestClassifyRejectsVideoInputs(t *testing.T) {
	clf, _ := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, RuntimeConfig{InputRes: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	frames, _ := renderClassVideo(t, 4, 32)
	enc := encodeClassVideo(t, frames, 85, 4)
	_, err = srv.ClassifyMedia(context.Background(), []MediaInput{{Codec: CodecVideo, Data: enc}}, QoS{})
	if err == nil {
		t.Fatal("ClassifyMedia accepted a video stream")
	}
	// Unknown codecs are rejected at planning time, not deep in a worker.
	_, err = srv.ClassifyMedia(context.Background(), []MediaInput{{Codec: Codec(7), Data: enc}}, QoS{})
	if err == nil {
		t.Fatal("ClassifyMedia accepted an unknown codec")
	}
}
