package main

// metricDef is one metric of the final JSON line, as BENCHMARK.json
// declares it. bound (end-to-end metrics only) is the share of the
// parent's median by which the metric may worsen before a change counts
// as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the untraced run's metrics, for every workload; the times
// are host time scaled to host speed 1 (refspeed.go).
// Throughput counts the workload's unit (def.unit) and latency times one
// work item (def.latency). The tail is the highest of p99/p95/p90 with at
// least ten samples beyond it; the run prints which and over how many.
// The latency bounds are wider than throughput's because their measured
// run-to-run spread is (README.md, First measurements).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.10},
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"latency_tail_ms", "ms", "lower", 0.20},
	{"max_rss_mb", "MB", "lower", 0.10},
}

// perLayer are the traced run's metrics. Counts from the replay are
// exact; times are host time.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.cycles", "cycles", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"machine.proc_ops", "count", "lower", 0},
	{"machine.ops_per_event", "ratio", "higher", 0},
	{"machine.handshake_ns", "ns", "lower", 0},
	{"exper.points", "count", "lower", 0},
	{"exper.slot_builds", "count", "lower", 0},
	{"exper.setup_us_p50", "us", "lower", 0},
	{"exper.run_us_p50", "us", "lower", 0},
	{"exper.run_us_tail", "us", "lower", 0},
	{"core.requests", "count", "lower", 0},
	{"core.local_hits", "count", "higher", 0},
	{"core.naks", "count", "lower", 0},
	{"core.retries", "count", "lower", 0},
	{"core.invals", "count", "lower", 0},
	{"core.updates", "count", "lower", 0},
	{"core.nak_ratio", "ratio", "lower", 0},
	{"mem.queue_wait_cycles", "cycles", "lower", 0},
	{"mesh.messages", "count", "lower", 0},
	{"mesh.flits", "count", "lower", 0},
	{"mesh.inject_wait_cycles", "cycles", "lower", 0},
	{"mesh.eject_wait_cycles", "cycles", "lower", 0},
	{"mesh.ns_per_msg", "ns", "lower", 0},
	{"report.collect_us_p50", "us", "lower", 0},
	{"report.encode_us_p50", "us", "lower", 0},
	{"serve.hits", "count", "higher", 0},
	{"serve.misses", "count", "lower", 0},
	{"serve.coalesced", "count", "higher", 0},
	{"serve.runs", "count", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"serve.evictions", "count", "lower", 0},
	{"serve.hit_ratio", "ratio", "higher", 0},
	{"serve.hit_us_p50", "us", "lower", 0},
	{"fleet.hits", "count", "higher", 0},
	{"fleet.misses", "count", "lower", 0},
	{"fleet.peer_fills", "count", "higher", 0},
	{"fleet.replications", "count", "lower", 0},
	{"fleet.coalesced", "count", "higher", 0},
	{"fleet.hit_ratio", "ratio", "higher", 0},
	{"fleet.backend_calls_per_req", "ratio", "lower", 0},
	{"ledger.residual_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}
