package main

import "math"

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units (a test keeps the two in step); bounds and directions live only
// there.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a caller of the library sees, reported for every
// workload by an untraced run.
var endToEnd = []metricDef{
	{"items_per_s", "1/s"},
	{"req_p50_ms", "ms"},
	{"req_p90_ms", "ms"},
	{"cpu_ms_per_item", "ms"},
	{"retained_heap_mb", "MB"},
	{"setup_s", "s"},
	// 1 - fail_ratio and 1 - mismatch_ratio: the driver's contract wants
	// metrics that are never 0, so the two ratios that must stay 0 are
	// reported as their complements, which must stay 1.
	{"ok_ratio", "ratio"},
	{"match_ratio", "ratio"},
}

// perLayer are the single-layer metrics, reported by a traced run.
var perLayer = []metricDef{
	{"jpeg.parse_us", "us"},
	{"jpeg.decode_us", "us"},
	{"jpeg.entropy_floor_us", "us"},
	{"jpeg.entropy_mb_s", "MB/s"},
	{"jpeg.idct_samples_per_image", "count"},
	{"spng.decode_us", "us"},
	{"preproc.execute_us", "us"},
	{"preproc.optimize_us", "us"},
	{"nn.forward_us_per_image", "us"},
	{"nn.forward_b1_us", "us"},
	{"tensor.gemm_gmacs", "GMAC/s"},
	{"engine.job_overhead_us", "us"},
	{"engine.batch_fill", "ratio"},
	{"engine.queue_full_stalls", "count"},
	{"engine.pool_reuse_ratio", "ratio"},
	{"engine.inflight_mean_ms", "ms"},
	{"engine.wait_ms", "ms"},
	{"serve.overhead_cpu_ms_per_item", "ms"},
	{"serve.single_image_ms", "ms"},
	{"serve.plans_seen", "count"},
	{"costmodel.throughput_err", "ratio"},
	{"costmodel.latency_err", "ratio"},
	{"vid.frame_decode_us", "us"},
	{"vid.seek_us", "us"},
	{"vid.frames_decoded_per_sample", "count"},
	{"vid.frames_bypassed_ratio", "ratio"},
	{"vid.index_gops_us", "us"},
	{"store.ingest_ms_per_clip", "ms"},
	{"store.ingest_mb_s", "MB/s"},
	{"store.open_ms", "ms"},
	{"store.scores_get_us", "us"},
	{"store.put_scores_us", "us"},
	{"blazeit.blob_score_us", "us"},
	{"blazeit.rank_us", "us"},
	{"select.oracle_per_result", "count"},
	{"select.gops_touched_ratio", "ratio"},
	{"select.proxy_invocations", "count"},
	{"replay.cpu_share", "ratio"},
	{"process.peak_rss_mb", "MB"},
	{"trace.overhead_ratio", "ratio"},
}

// endToEndValues turns a timed window into the end-to-end metrics.
func endToEndValues(r loopResult, setupS, retainedMB float64) map[string]float64 {
	match := 1.0
	if r.checked > 0 {
		match = 1 - float64(r.mismatch)/float64(r.checked)
	}
	return map[string]float64{
		"items_per_s":      r.itemsPerS(),
		"req_p50_ms":       percentile(r.latMS, r.attempted, 0.50),
		"req_p90_ms":       percentile(r.latMS, r.attempted, 0.90),
		"cpu_ms_per_item":  r.cpuMSPerItem(),
		"retained_heap_mb": retainedMB,
		"setup_s":          setupS,
		"ok_ratio":         1 - float64(r.failed)/float64(max(r.attempted, 1)),
		"match_ratio":      match,
	}
}

// prepSpans are the replay calls that make up one image's preprocessing as
// the engine times it (engine.Stats latency starts when a worker picks the
// job up; video frames reach the worker already decoded).
var prepSpans = map[string]bool{"jpeg.parse": true, "jpeg.decode": true, "spng.decode": true, "preproc.execute": true}

// layerValues derives the per-layer metrics from the spans, the serial
// pass's counters, and the untraced (plain) and traced windows.
func layerValues(t *layerRun, plain, traced loopResult, peakRSSMB float64) map[string]float64 {
	tr := t.tr
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	sumS := func(name string) float64 {
		var ns int64
		for _, s := range tr.named(name) {
			ns += s.End - s.Start
		}
		return float64(ns) / 1e9
	}
	medianMS := func(name string) float64 {
		var ms []float64
		for _, s := range tr.named(name) {
			ms = append(ms, float64(s.End-s.Start)/1e6)
		}
		return median(ms)
	}

	// What the hand replay of the census requests spent, per item.
	byID := make(map[int]span, len(tr.spans))
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	var replayCPU, prepNS, fwdNS int64
	var execs, fwds int
	for _, s := range tr.spans {
		if byID[s.Parent].Name != "replay.request" {
			continue
		}
		replayCPU += s.CPU
		if prepSpans[s.Name] {
			prepNS += s.End - s.Start
		}
		if s.Name == "preproc.execute" {
			execs++
		}
		if s.Name == "nn.forward" {
			fwdNS += s.End - s.Start
			fwds++
		}
	}
	replayCPUMS := ratio(float64(replayCPU)/1e6, float64(t.replayItems))
	replayedMS := ratio(float64(prepNS)/1e6, float64(execs)) + ratio(float64(fwdNS)/1e6, float64(fwds))
	inflightMS := ratio(float64(traced.inflight)/1e6, float64(traced.images))

	// The cost model's throughput for the mix actually served: plans
	// combine by the time they take, i.e. harmonically by item share.
	var invPred float64
	for plan, items := range plain.planItems {
		invPred += ratio(float64(items)/float64(plain.items), plain.planTput[plan])
	}
	plans := map[string]bool{}
	for _, r := range []loopResult{plain, traced, t.census} {
		for plan := range r.planItems {
			plans[plan] = true
		}
	}
	dec, sel, rp := t.census.decode, t.census.sel, t.rp

	return map[string]float64{
		"jpeg.parse_us":                  tr.meanUS("jpeg.parse"),
		"jpeg.decode_us":                 tr.meanUS("jpeg.decode"),
		"jpeg.entropy_floor_us":          tr.meanUS("jpeg.entropy_floor"),
		"jpeg.entropy_mb_s":              ratio(float64(rp.floorBytes)/1e6, sumS("jpeg.entropy_floor")),
		"jpeg.idct_samples_per_image":    ratio(float64(rp.idctSamples), float64(rp.jpegImages)),
		"spng.decode_us":                 tr.meanUS("spng.decode"),
		"preproc.execute_us":             tr.meanUS("preproc.execute"),
		"preproc.optimize_us":            tr.meanUS("preproc.optimize"),
		"nn.forward_us_per_image":        tr.meanUS("nn.forward_b8") / engineBatch,
		"nn.forward_b1_us":               tr.meanUS("nn.forward_b1"),
		"tensor.gemm_gmacs":              ratio(rp.gemm.macs()/1e9, tr.meanUS("tensor.gemm")/1e6),
		"engine.job_overhead_us":         tr.meanUS("engine.noop_jobs") / noopJobs,
		"engine.batch_fill":              ratio(float64(traced.images), float64(traced.batches*engineBatch)),
		"engine.queue_full_stalls":       float64(traced.last.QueueFullStalls),
		"engine.pool_reuse_ratio":        ratio(float64(traced.last.PoolReuses), float64(traced.last.PoolAllocs+traced.last.PoolReuses)),
		"engine.inflight_mean_ms":        inflightMS,
		"engine.wait_ms":                 inflightMS - replayedMS,
		"serve.overhead_cpu_ms_per_item": plain.cpuMSPerItem() - replayCPUMS,
		"serve.single_image_ms":          medianMS("serve.minimal") - medianMS("replay.minimal"),
		"serve.plans_seen":               float64(len(plans)),
		"costmodel.throughput_err":       ratio(math.Abs(ratio(1, invPred)-plain.itemsPerS()), plain.itemsPerS()),
		"costmodel.latency_err":          median(plain.maxLatErr),
		"vid.frame_decode_us":            tr.meanUS("vid.decode"),
		"vid.seek_us":                    tr.meanUS("vid.seek"),
		"vid.frames_decoded_per_sample":  ratio(float64(dec.FramesDecoded), float64(t.census.images)),
		"vid.frames_bypassed_ratio":      ratio(float64(dec.FramesBypassed), float64(dec.FramesBypassed+dec.FramesDecoded)),
		"vid.index_gops_us":              tr.meanUS("vid.index_gops"),
		"store.ingest_ms_per_clip":       tr.meanUS("store.ingest") / 1e3,
		"store.ingest_mb_s":              ratio(float64(rp.ingestBytes)/1e6, sumS("store.ingest")),
		"store.open_ms":                  tr.meanUS("store.open") / 1e3,
		"store.scores_get_us":            tr.meanUS("store.scores_get"),
		"store.put_scores_us":            tr.meanUS("store.put_scores"),
		"blazeit.blob_score_us":          tr.meanUS("blazeit.blob_score"),
		"blazeit.rank_us":                tr.meanUS("blazeit.rank"),
		"select.oracle_per_result":       ratio(float64(sel.oracle), float64(sel.results)),
		"select.gops_touched_ratio":      ratio(float64(sel.gopsTouched), float64(sel.gopsTotal)),
		"select.proxy_invocations":       float64(sel.proxy),
		"replay.cpu_share":               ratio(replayCPUMS, plain.cpuMSPerItem()),
		"process.peak_rss_mb":            peakRSSMB,
		"trace.overhead_ratio":           ratio(traced.itemsPerS(), plain.itemsPerS()),
	}
}
