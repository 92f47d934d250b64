package main

// The metric catalogue. BENCHMARK.json at the repository root lists the
// same names, units, directions and bounds; a test keeps the two equal.

// metricDef names one metric. Bound is the share of the baseline median
// by which an end-to-end metric may get worse before a change counts as
// a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"proof_p50_ms", "ms", "lower", 0.25},
	{"proof_p90_ms", "ms", "lower", 0.25},
	{"proofs_per_s", "1/s", "higher", 0.25},
	{"verify_mean_ms", "ms", "lower", 0.25},
	{"cpu_s_per_proof", "s", "lower", 0.25},
	{"alloc_mb_per_proof", "MB", "lower", 0.15},
}

// perLayer is what the traced pass reports, one layer at a time.
var perLayer = []metricDef{
	{Name: "spec.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.submit_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.compute_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.verify_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.node_max_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.node_total_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.balance", Unit: "ratio", Better: "higher"},
	{Name: "plan.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.eval_us_per_point", Unit: "us", Better: "lower"},
	{Name: "plan.points_per_proof", Unit: "count", Better: "lower"},
	{Name: "rs.code_build_ms", Unit: "ms", Better: "lower"},
	{Name: "rs.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "rs.decode_clean_ms", Unit: "ms", Better: "lower"},
	{Name: "rs.decode_errors_ms", Unit: "ms", Better: "lower"},
	{Name: "rs.decode_erasures_ms", Unit: "ms", Better: "lower"},
	{Name: "rs.decodes_per_proof", Unit: "count", Better: "lower"},
	{Name: "poly.ntt_mul_ms", Unit: "ms", Better: "lower"},
	{Name: "poly.evalmany_ms", Unit: "ms", Better: "lower"},
	{Name: "poly.interpolate_ms", Unit: "ms", Better: "lower"},
	{Name: "ff.mulvec_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "ff.lagrange_at_us", Unit: "us", Better: "lower"},
	{Name: "par.decode_speedup", Unit: "ratio", Better: "higher"},
	{Name: "transport.bus_round_us", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_round_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.codec_encode_us", Unit: "us", Better: "lower"},
	{Name: "transport.codec_decode_us", Unit: "us", Better: "lower"},
	{Name: "transport.frame_bytes", Unit: "bytes", Better: "lower"},
	{Name: "ctrl.run_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "ctrl.vs_bus_ratio", Unit: "ratio", Better: "lower"},
	{Name: "verify.point_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.batch_ms", Unit: "ms", Better: "lower"},
	{Name: "verify.over_node", Unit: "ratio", Better: "lower"},
	{Name: "encode.marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "encode.unmarshal_ms", Unit: "ms", Better: "lower"},
	{Name: "encode.proof_bytes", Unit: "bytes", Better: "lower"},
	{Name: "serve.submit_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.result_hit_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.refused", Unit: "count", Better: "lower"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "budget.other_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}
