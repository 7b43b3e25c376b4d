package main

// metricDef names one reported metric and its unit; BENCHMARK.json lists
// the same names, units and better-directions.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one of them (NOTES.md defines each per workload).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"success_rate", "ratio"},
	{"alloc_bytes_per_op", "B"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"goodput_rps", "1/s"},
	{"slo_rate_rps", "1/s"},
}

// perLayerMetrics come from the traced run. A layer a workload does not
// exercise reports 0.
var perLayerMetrics = []metricDef{
	{"parser.parse_us_p50", "us"},
	{"rewrite.normalize_us_p50", "us"},
	{"translate.translate_us_p50", "us"},
	{"translate.plan_nodes", "count"},
	{"translate.division_nodes", "count"},
	{"planopt.share_us_p50", "us"},
	{"planopt.shared_nodes", "count"},
	{"core.prepare_us_p50", "us"},
	{"core.frontend_share", "ratio"},
	{"core.run_ms_p50", "ms"},
	{"exec.self_ms_p50", "ms"},
	{"exec.base_tuples_read_per_op", "count"},
	{"exec.comparisons_per_op", "count"},
	{"exec.hash_inserts_per_op", "count"},
	{"exec.intermediate_tuples_per_op", "count"},
	{"exec.materializations_per_op", "count"},
	{"exec.output_tuples_per_op", "count"},
	{"exec.reads_per_output_row", "ratio"},
	{"exec.batches_emitted_per_op", "count"},
	{"exec.avg_batch_fill", "count"},
	{"exec.memo_hit_ratio", "ratio"},
	{"exec.memo_tuples_replayed_per_op", "count"},
	{"exec.memo_tuples_spooled_per_op", "count"},
	{"exec.memo_spools_abandoned", "count"},
	{"exec.memo_entries", "count"},
	{"exec.memo_tuples_cached", "count"},
	{"integrity.insert_accepted_ms_p50", "ms"},
	{"integrity.insert_rejected_ms_p50", "ms"},
	{"integrity.check_all_ms_p50", "ms"},
	{"integrity.reject_ratio", "ratio"},
	{"storage.writes_per_op", "count"},
	{"storage.write_us_p50", "us"},
	{"service.queue_wait_ms_p50", "ms"},
	{"service.queue_wait_ms_p99", "ms"},
	{"service.plan_ms_p50", "ms"},
	{"service.exec_ms_p50", "ms"},
	{"service.exec_ms_p99", "ms"},
	{"service.handler_overhead_us_p50", "us"},
	{"service.batch_size_mean", "count"},
	{"service.flight_share_ratio", "ratio"},
	{"service.request_cache_hit_ratio", "ratio"},
	{"service.sheds", "count"},
	{"service.deadline_exceeded", "count"},
	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.distinct_keys", "count"},
	{"trace.overhead_pct", "%"},
}

// closedLoopLimitMS is the latency limit of the closed-loop workloads:
// goodput counts ops within it, and slo_rate_rps is the highest rate at
// which the single-server replay keeps p99 within it.
const closedLoopLimitMS = 2000

// closedLoopLadder is the rate ladder of that replay: 4 ops/s upwards in
// 10% steps.
var closedLoopLadder = geometricLadder(4, 1.1, 50)

// closedLoopE2E fills the end-to-end metrics shared by the two closed-loop
// workloads from the per-op latencies of the measured window. Throughput is
// ops over the time spent inside operations, so the answer checks between
// operations do not count against it.
func closedLoopE2E(out *outcome, lat samples, ok []bool, seed int64) {
	window := totalDur(lat).Seconds()
	limit := float64(closedLoopLimitMS)
	ladder := closedLoopLadder
	good := 0
	for i, d := range lat {
		if ok[i] && ms(d) <= limit {
			good++
		}
	}
	succeeded := 0
	for _, v := range ok {
		if v {
			succeeded++
		}
	}
	out.endToEnd["throughput_ops_s"] = float64(len(lat)) / window
	out.endToEnd["latency_p50_ms"] = lat.quantile(0.50)
	out.endToEnd["latency_p90_ms"] = lat.quantile(0.90)
	out.endToEnd["latency_p99_ms"] = lat.quantile(0.99)
	out.endToEnd["success_rate"] = float64(succeeded) / float64(max(len(lat), 1))
	out.endToEnd["goodput_rps"] = float64(good) / window
	out.endToEnd["slo_rate_rps"] = sloRate(lat, ladder, msDur(limit), seed)
	out.info["latency_samples"] = len(lat)
	out.info["latency_samples_beyond_p99"] = len(lat) / 100
	out.info["latency_limit_ms"] = limit
}
