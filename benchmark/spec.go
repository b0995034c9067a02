package main

// This file is the registry BENCHMARK.json mirrors: every workload and
// every metric the command can emit, by its final name. spec_test.go holds
// the two in step, so a name cited by a later issue cannot drift.

// metricSpec names one metric. Bound is the share of the parent's median an
// end-to-end metric may worsen by before it counts as a regression;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees, emitted by the untraced
// run. The driver's contract wants every one of them from every workload,
// so the names are generic and README.md says what each means per
// workload (throughput_per_s on scan-zone is records per second, and so
// on).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer is what the traced run emits: one layer each, named
// "<layer>.<what>". A workload that never enters a layer reports 0 for it.
var perLayer = []metricSpec{
	{Name: "snapfmt.open_us", Unit: "us", Better: "lower"},
	{Name: "snapfmt.visit_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "snapfmt.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "snapfmt.bytes_per_rec", Unit: "B", Better: "lower"},

	{Name: "squat.build_ms", Unit: "ms", Better: "lower"},
	{Name: "squat.match_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "squat.match_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "squat.match_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "squat.match_idn_ns", Unit: "ns", Better: "lower"},
	{Name: "squat.allocs_per_rec", Unit: "count", Better: "lower"},
	{Name: "squat.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "squat.match_string_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "squat.lm_delta_ns_per_rec", Unit: "ns", Better: "lower"},

	{Name: "domlm.train_ms", Unit: "ms", Better: "lower"},
	{Name: "domlm.score_ns_per_label", Unit: "ns", Better: "lower"},

	{Name: "core.scan_mrec_per_s", Unit: "Mrec/s", Better: "higher"},
	{Name: "core.scan_serial_mrec_per_s", Unit: "Mrec/s", Better: "higher"},
	{Name: "core.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "core.residual_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "core.segment_skew", Unit: "ratio", Better: "lower"},

	{Name: "dnsx.generate_mrec_per_s", Unit: "Mrec/s", Better: "higher"},
	{Name: "dnsx.add_ns", Unit: "ns", Better: "lower"},
	{Name: "dnsx.range_shard_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "dnsx.checksums_us", Unit: "us", Better: "lower"},

	{Name: "deltascan.cold_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "deltascan.warm_nochange_us", Unit: "us", Better: "lower"},
	{Name: "deltascan.epoch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "deltascan.epoch_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "deltascan.shard_skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "deltascan.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "deltascan.records_walked", Unit: "count", Better: "lower"},
	{Name: "deltascan.walk_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "deltascan.warm_speedup", Unit: "x", Better: "higher"},
	{Name: "deltascan.save_ms", Unit: "ms", Better: "lower"},
	{Name: "deltascan.load_ms", Unit: "ms", Better: "lower"},
	{Name: "deltascan.spill_bytes", Unit: "B", Better: "lower"},
	{Name: "deltascan.spill_roundtrip_ms", Unit: "ms", Better: "lower"},

	{Name: "serve.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.lookup_unknown_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.batch_ns_per_domain", Unit: "ns", Better: "lower"},
	{Name: "serve.apply_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.warm_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handler_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_bulk_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_update_us", Unit: "us", Better: "lower"},
	{Name: "serve.closed_rps", Unit: "1/s", Better: "higher"},
	{Name: "serve.lookup_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.lookup_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.lookup_p999_us", Unit: "us", Better: "lower"},
	{Name: "serve.update_p99_us", Unit: "us", Better: "lower"},
	{Name: "serve.bulk_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.http_errors", Unit: "count", Better: "lower"},
	{Name: "serve.degraded", Unit: "count", Better: "lower"},

	{Name: "obs.http_tax_us", Unit: "us", Better: "lower"},
	{Name: "obs.stopwatch_ns", Unit: "ns", Better: "lower"},

	{Name: "squatd.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "squatd.shutdown_ms", Unit: "ms", Better: "lower"},

	{Name: "loadgen.achieved_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.queued_at_end", Unit: "count", Better: "lower"},

	{Name: "crawler.capture_ms", Unit: "ms", Better: "lower"},
	{Name: "crawler.fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "htmlx.extract_us", Unit: "us", Better: "lower"},
	{Name: "render.page_ms", Unit: "ms", Better: "lower"},
	{Name: "ocr.recognize_ms", Unit: "ms", Better: "lower"},
	{Name: "features.tokens_ms", Unit: "ms", Better: "lower"},
	{Name: "features.vector_ms", Unit: "ms", Better: "lower"},
	{Name: "ml.predict_us", Unit: "us", Better: "lower"},
	{Name: "ml.fit_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ground_truth_s", Unit: "s", Better: "lower"},
	{Name: "core.train_s", Unit: "s", Better: "lower"},
	{Name: "core.detect_pages_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.detect_flagged", Unit: "count", Better: "higher"},
	{Name: "core.detect_confirmed", Unit: "count", Better: "higher"},

	{Name: "bench.build_s", Unit: "s", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// workloadSpec names one workload. New builds a fresh instance; the sizes
// it runs at are frozen in the workload's own file.
type workloadSpec struct {
	Name string
	Why  string
	New  func() workload
}

var workloads = []workloadSpec{
	{
		"scan-zone",
		"Headline job: scan a zone snapshot of over 99.6% misses with the full brand universe and no LM; snapfmt iteration and the squat miss path do the work.",
		func() workload { return &scanWorkload{} },
	},
	{
		"scan-zone-lm",
		"Same scan code on a hard mix (xn-- labels, near-threshold negatives, planted and generated squats) with the domlm gate attached; LM, hit and IDN paths show here only.",
		func() workload { return &scanWorkload{lm: true} },
	},
	{
		"rescan-delta",
		"Daily re-scan and restart: in-place churn of a sharded store, warm deltascan epochs and spill save/load; dnsx shard walking, checksums and the verdict cache do the work.",
		func() workload { return &rescanWorkload{} },
	},
	{
		"serve-mixed",
		"A real squatd over loopback HTTP: 90% lookups, 5% bulk, 5% updates, open loop at a fixed rate then closed loop; the only workload that crosses a socket.",
		func() workload { return &serveWorkload{} },
	},
	{
		"detect-pages",
		"The paper's back half: uncached web+mobile crawl, render, OCR, feature vectors and forest scoring of every live page; ocr/features/render work nowhere else.",
		func() workload { return &detectWorkload{} },
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
