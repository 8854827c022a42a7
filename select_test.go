package smol

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"smol/internal/analysis/alloctest"
	"smol/internal/codec/vid"
	"smol/internal/img"
)

// selectServer builds a warm server over the shared tiny classifier with
// the cascade enabled or disabled.
func selectServer(t *testing.T, cfg RuntimeConfig) *Server {
	t.Helper()
	clf, _ := trainTinyClassifier(t)
	rt, err := NewRuntime(clf.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rt.Serve()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// assertSelectEqual fails unless two selection results returned the same
// frames with the same proxy confidences.
func assertSelectEqual(t *testing.T, label string, got, want SelectResult) {
	t.Helper()
	if len(got.Frames) != len(want.Frames) {
		t.Fatalf("%s: cascade returned %d frames %v, full scan %d %v",
			label, len(got.Frames), got.Frames, len(want.Frames), want.Frames)
	}
	for i := range want.Frames {
		if got.Frames[i] != want.Frames[i] {
			t.Fatalf("%s: frame %d is %d, full scan %d", label, i, got.Frames[i], want.Frames[i])
		}
		if got.Scores[i] != want.Scores[i] {
			t.Fatalf("%s: frame %d scored %g, full scan %g — cached and live proxy diverge",
				label, want.Frames[i], got.Scores[i], want.Scores[i])
		}
	}
}

// TestSelectMatchesFullScan is the cascade's acceptance equivalence: the
// proxy cascade (score sidecar, GOP pruning, ranked batched verification,
// early termination) must return exactly the frame set of the
// DisableProxyCascade full scan — which verifies every sampled frame and
// then applies the same predicate and top-K — across strides that cross
// GOP boundaries, LIMITs below/above/without the match count, absent
// classes, and confidence floors.
func TestSelectMatchesFullScan(t *testing.T) {
	frames, _ := renderClassVideo(t, 53, 48)
	const gop = 6
	enc := encodeClassVideo(t, frames, 85, gop)
	_, v := openTestStore(t, enc, IngestOptions{})
	ctx := context.Background()
	base := RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2}
	cascadeCfg := base
	fullCfg := base
	fullCfg.DisableProxyCascade = true
	cascade := selectServer(t, cascadeCfg)
	full := selectServer(t, fullCfg)

	for _, stride := range []int{1, 3, 5, 7} {
		for _, limit := range []int{1, 5, 0} {
			for _, class := range []int{0, 1, 3} {
				for _, minConf := range []float64{0, 0.6} {
					label := fmt.Sprintf("stride=%d limit=%d class=%d minconf=%g", stride, limit, class, minConf)
					opts := SelectOpts{Class: class, MinConf: minConf, Limit: limit, Stride: stride, Deblock: DeblockOn}
					want, err := full.SelectVideo(ctx, v, opts)
					if err != nil {
						t.Fatalf("%s: full scan: %v", label, err)
					}
					got, err := cascade.SelectVideo(ctx, v, opts)
					if err != nil {
						t.Fatalf("%s: cascade: %v", label, err)
					}
					assertSelectEqual(t, label, got, want)
					if limit > 0 && len(got.Frames) > limit {
						t.Fatalf("%s: %d frames over the limit", label, len(got.Frames))
					}
					samples := (len(frames) + stride - 1) / stride
					if want.OracleInvocations != samples {
						t.Fatalf("%s: full scan verified %d frames, want every sample (%d)",
							label, want.OracleInvocations, samples)
					}
					if got.OracleInvocations > want.OracleInvocations {
						t.Fatalf("%s: cascade verified %d frames, more than the full scan's %d",
							label, got.OracleInvocations, want.OracleInvocations)
					}
					if got.GOPsTouched > got.GOPsTotal || want.GOPsTouched > want.GOPsTotal {
						t.Fatalf("%s: GOPs touched (%d, %d) above total %d",
							label, got.GOPsTouched, want.GOPsTouched, got.GOPsTotal)
					}
				}
			}
		}
	}
}

// TestSelectRenditions: with a strict accuracy floor the undersized
// rendition is excluded from verification (primary stream only) while the
// proxy still reads the cheapest rendition — and the cascade stays
// equivalent to the full scan under that split plan.
func TestSelectRenditions(t *testing.T) {
	frames, _ := renderClassVideo(t, 24, 48)
	enc := encodeClassVideo(t, frames, 85, 6)
	_, v := openTestStore(t, enc, IngestOptions{RenditionShortEdges: []int{12}})
	if len(v.Renditions()) != 1 {
		t.Fatalf("%d renditions, want 1", len(v.Renditions()))
	}
	ctx := context.Background()
	base := RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2}
	fullCfg := base
	fullCfg.DisableProxyCascade = true
	cascade := selectServer(t, base)
	full := selectServer(t, fullCfg)
	for _, limit := range []int{2, 0} {
		for _, minConf := range []float64{0, 0.6} {
			label := fmt.Sprintf("limit=%d minconf=%g", limit, minConf)
			opts := SelectOpts{
				Class: 1, MinConf: minConf, Limit: limit,
				QoS: QoS{MinAccuracy: 1}, Deblock: DeblockOn,
			}
			want, err := full.SelectVideo(ctx, v, opts)
			if err != nil {
				t.Fatalf("%s: full scan: %v", label, err)
			}
			got, err := cascade.SelectVideo(ctx, v, opts)
			if err != nil {
				t.Fatalf("%s: cascade: %v", label, err)
			}
			if got.Plan.Verify.Stream != 0 {
				t.Fatalf("%s: strict floor verified on stream %d, want the primary", label, got.Plan.Verify.Stream)
			}
			if got.Plan.ProxyStream != 1 {
				t.Fatalf("%s: proxy reads stream %d, want the cheap rendition (1)", label, got.Plan.ProxyStream)
			}
			assertSelectEqual(t, label, got, want)
		}
	}
}

// TestSelectVideoRawMatchesStored: SelectVideo over an IndexVideo handle
// has no store to read or persist proxy score tables, so it scores live and
// summarizes GOPs itself (gopScoreBounds). It must return the frames,
// scores, plan and counters of a first query over the same bytes ingested
// with the same rendition, in the cascade and in the full scan, and a
// repeat query must score live again.
func TestSelectVideoRawMatchesStored(t *testing.T) {
	frames, _ := renderClassVideo(t, 41, 48)
	enc := encodeClassVideo(t, frames, 85, 6)
	ctx := context.Background()
	for _, disable := range []bool{false, true} {
		srv := selectServer(t, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2, DisableProxyCascade: disable})
		for _, opts := range []SelectOpts{
			{Class: 1, Limit: 3, Deblock: DeblockOn},
			{Class: 1, MinConf: 0.6, Stride: 3},
			{Class: 0, Stride: 5},
			{Class: 1, Limit: 2, QoS: QoS{MinAccuracy: 1}},
		} {
			label := fmt.Sprintf("DisableProxyCascade=%v %+v", disable, opts)
			// A fresh store per query: its first query finds no persisted
			// table, so it plans and scores exactly as a storeless handle.
			_, stored := openTestStore(t, enc, IngestOptions{RenditionShortEdges: []int{24}})
			raw := indexTestVideo(t, enc, stored.v.Renditions[0].Data)
			want, err := srv.SelectVideo(ctx, stored, opts)
			if err != nil {
				t.Fatalf("%s: stored: %v", label, err)
			}
			for call := 1; call <= 2; call++ {
				got, err := srv.SelectVideo(ctx, raw, opts)
				if err != nil {
					t.Fatalf("%s call %d: raw: %v", label, call, err)
				}
				where := fmt.Sprintf("%s call %d", label, call)
				assertSelectEqual(t, where, got, want)
				if got.Plan != want.Plan {
					t.Fatalf("%s: raw plan %+v, stored plan %+v", where, got.Plan, want.Plan)
				}
				if got.ScoresCached || got.ProxyInvocations == 0 {
					t.Fatalf("%s: raw query reports cached scores (%v, %d proxy invocations)",
						where, got.ScoresCached, got.ProxyInvocations)
				}
				if got.ProxyInvocations != want.ProxyInvocations || got.OracleInvocations != want.OracleInvocations ||
					got.GOPsTouched != want.GOPsTouched || got.GOPsTotal != want.GOPsTotal {
					t.Fatalf("%s: raw counters (proxy %d, oracle %d, GOPs %d/%d), stored (%d, %d, %d/%d)",
						where, got.ProxyInvocations, got.OracleInvocations, got.GOPsTouched, got.GOPsTotal,
						want.ProxyInvocations, want.OracleInvocations, want.GOPsTouched, want.GOPsTotal)
				}
			}
		}
	}
}

// TestSelectConcurrent: concurrent selection queries with different
// parameters through one warm server must each match their own
// sequentially-computed baseline.
func TestSelectConcurrent(t *testing.T) {
	frames, _ := renderClassVideo(t, 48, 48)
	enc := encodeClassVideo(t, frames, 85, 6)
	_, v := openTestStore(t, enc, IngestOptions{ProxyScores: true})
	ctx := context.Background()
	srv := selectServer(t, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})

	queries := []SelectOpts{
		{Class: 0, Limit: 3, Deblock: DeblockOn},
		{Class: 1, Limit: 1, Stride: 2, Deblock: DeblockOn},
		{Class: 1, MinConf: 0.6, Limit: 0, Deblock: DeblockOn},
		{Class: 0, Limit: 8, Stride: 3, Deblock: DeblockOn},
	}
	baselines := make([]SelectResult, len(queries))
	for i, q := range queries {
		res, err := srv.SelectVideo(ctx, v, q)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		baselines[i] = res
	}
	var wg sync.WaitGroup
	results := make([]SelectResult, len(queries))
	errs := make([]error, len(queries))
	for i, q := range queries {
		wg.Add(1)
		go func(i int, q SelectOpts) {
			defer wg.Done()
			results[i], errs[i] = srv.SelectVideo(ctx, v, q)
		}(i, q)
	}
	wg.Wait()
	for i := range queries {
		if errs[i] != nil {
			t.Fatalf("concurrent query %d: %v", i, errs[i])
		}
		assertSelectEqual(t, fmt.Sprintf("concurrent query %d", i), results[i], baselines[i])
	}
}

// TestSelectScoreSidecarLifecycle: ingest-time score materialization must
// serve the first query from the sidecar; a corrupted sidecar must degrade
// to a live proxy pass (same answer, ScoresCached=false) that re-persists
// for the query after it.
func TestSelectScoreSidecarLifecycle(t *testing.T) {
	frames, _ := renderClassVideo(t, 36, 48)
	enc := encodeClassVideo(t, frames, 85, 6)
	dir := t.TempDir()
	ms, err := OpenMediaStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms.IngestVideo("clip", enc, IngestOptions{ProxyScores: true}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	srv := selectServer(t, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	opts := SelectOpts{Class: 1, Limit: 4, Deblock: DeblockOn}

	v, _ := ms.Video("clip")
	first, err := srv.SelectVideo(ctx, v, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !first.ScoresCached || first.ProxyInvocations != 0 {
		t.Fatalf("ingest-materialized scores not used: cached=%v, %d proxy invocations",
			first.ScoresCached, first.ProxyInvocations)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "clip.scr")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ms2, err := OpenMediaStore(dir)
	if err != nil {
		t.Fatalf("corrupt score sidecar failed the store open: %v", err)
	}
	defer ms2.Close()
	v2, ok := ms2.Video("clip")
	if !ok {
		t.Fatal("video lost alongside its score sidecar")
	}
	second, err := srv.SelectVideo(ctx, v2, opts)
	if err != nil {
		t.Fatalf("query after sidecar corruption: %v", err)
	}
	if second.ScoresCached || second.ProxyInvocations == 0 {
		t.Fatalf("corrupt sidecar did not fall back to a live proxy pass: cached=%v, %d invocations",
			second.ScoresCached, second.ProxyInvocations)
	}
	assertSelectEqual(t, "after corruption", second, first)
	// The live pass re-persisted: the next query is cached again.
	third, err := srv.SelectVideo(ctx, v2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !third.ScoresCached {
		t.Fatal("live pass did not re-persist the score table")
	}
	assertSelectEqual(t, "after re-persist", third, first)
}

// TestSelectValidation: malformed queries fail before any planning or
// decoding.
func TestSelectValidation(t *testing.T) {
	frames, _ := renderClassVideo(t, 12, 48)
	enc := encodeClassVideo(t, frames, 85, 6)
	_, v := openTestStore(t, enc, IngestOptions{})
	srv := selectServer(t, RuntimeConfig{InputRes: 16, BatchSize: 8, Workers: 2})
	ctx := context.Background()
	if _, err := srv.SelectVideo(ctx, nil, SelectOpts{Class: 1}); err == nil {
		t.Fatal("nil video accepted")
	}
	if _, err := srv.SelectVideo(ctx, v, SelectOpts{Class: -1}); err == nil {
		t.Fatal("negative class accepted")
	}
	if _, err := srv.SelectVideo(ctx, v, SelectOpts{Class: 1, MinConf: 1.5}); err == nil {
		t.Fatal("confidence floor above 1 accepted")
	}
}

// TestSelectVerifierWarmPathAllocates pins the verification stage's decode
// hot path: re-seeking and decoding ranked candidates over a warm decoder
// and frame pool must not allocate per candidate.
func TestSelectVerifierWarmPathAllocates(t *testing.T) {
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
	cr := &classifyReq{frames: make([]*img.Image, 1), framePool: &sync.Pool{}}
	ver := &selectVerifier{dec: dec, cr: cr}
	// Candidates in ranked (non-monotonic) frame order, spanning GOPs both
	// forward and backward — the cascade's actual access pattern.
	cands := []int{14, 2, 27, 9, 21, 4}
	ci := 0
	step := func() {
		if err := ver.decodeCandidate(0, cands[ci%len(cands)]); err != nil {
			t.Fatal(err)
		}
		cr.framePool.Put(cr.frames[0])
		cr.frames[0] = nil
		ci++
	}
	for range cands {
		step() // warm the decoder, every target GOP, and the frame pool
	}
	alloctest.Run(t, "smol.selectVerifier.decodeCandidate", 1, step)
}
