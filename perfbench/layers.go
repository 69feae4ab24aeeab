package main

// perLayer is every metric the traced run reports, in BENCHMARK.json order.
// A workload that does not exercise a layer reports 0 for it. README.md maps
// each one to the end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	// Host time by layer, from the CPU profile of the timed phase.
	{"mem.self_share", "ratio"},
	{"mem.mshr.self_share", "ratio"},
	{"mem.cache.self_share", "ratio"},
	{"smx.self_share", "ratio"},
	{"isa.self_share", "ratio"},
	{"core.self_share", "ratio"},
	{"gpu.self_share", "ratio"},
	{"exp.self_share", "ratio"},
	{"kernels.self_share", "ratio"},
	{"spec.self_share", "ratio"},
	{"serve.self_share", "ratio"},
	{"trace.self_share", "ratio"},
	{"telemetry.self_share", "ratio"},
	{"gpu.simulate.cum_share", "ratio"},
	{"serve.cache_put.cum_share", "ratio"},
	{"serve.cache_read.cum_share", "ratio"},
	{"serve.respond_json.cum_share", "ratio"},
	{"trace.encode.cum_share", "ratio"},

	// TB scheduler, timed by a wrapper around each cell's scheduler.
	{"core.select_ns.rr", "ns"},
	{"core.select_ns.tb-pri", "ns"},
	{"core.select_ns.smx-bind", "ns"},
	{"core.select_ns.adaptive-bind", "ns"},
	{"core.select_ns.work-steal", "ns"},
	{"core.select_calls", "count"},
	{"core.enqueue_calls", "count"},

	// Engine throughput and outcome per launch model.
	{"gpu.cycles_per_s.cdp", "1/s"},
	{"gpu.cycles_per_s.dtbl", "1/s"},
	{"gpu.cycles_per_s.pmk", "1/s"},
	{"gpu.deadlocks.cdp", "count"},
	{"gpu.deadlocks.dtbl", "count"},
	{"gpu.deadlocks.pmk", "count"},

	// Launch path: TraceQueue episodes and Result backpressure counters.
	{"gpu.launch.kmu_stall_episodes", "count"},
	{"gpu.launch.agg_stall_episodes", "count"},
	{"gpu.launch.agg_overflows", "count"},
	{"gpu.launch.taskq_stall_episodes", "count"},
	{"gpu.launch.stall_cycles", "count"},
	{"gpu.launch.child_wait_cycles_mean", "cycles"},
	{"gpu.launch.peak_kmu_pending", "count"},

	// Modelled work, deterministic: a speed-only change leaves these equal.
	{"mem.l1_hit_ratio", "ratio"},
	{"mem.l2_hit_ratio", "ratio"},
	{"mem.dram_txn", "count"},
	{"smx.warp_insts", "count"},
	{"smx.mem_stall_events", "count"},

	// Modelled design beside the paper (not gated).
	{"model.ipc_over_rr.cdp.tb-pri", "ratio"},
	{"model.ipc_over_rr.cdp.smx-bind", "ratio"},
	{"model.ipc_over_rr.cdp.adaptive-bind", "ratio"},
	{"model.ipc_over_rr.dtbl.tb-pri", "ratio"},
	{"model.ipc_over_rr.dtbl.smx-bind", "ratio"},
	{"model.ipc_over_rr.dtbl.adaptive-bind", "ratio"},

	// Experiment pool and set-up.
	{"exp.pool.busy_ratio", "ratio"},
	{"exp.cell_s_p50", "s"},
	{"exp.cell_s_p90", "s"},
	{"kernels.build_s", "s"},

	// Go runtime over the timed phase.
	{"runtime.gc_share", "ratio"},
	{"runtime.alloc_mb_per_op", "MB"},

	// Service: server telemetry and client-side spans.
	{"serve.cells_expanded", "count"},
	{"serve.cells_deduped", "count"},
	{"serve.cells_scheduled", "count"},
	{"serve.cache_written_mb", "MB"},
	{"serve.queue_wait_s_mean", "s"},
	{"serve.job_run_s_mean", "s"},
	{"serve.fair.finish_gap_s", "s"},
	{"serve.submit_s_p50", "s"},
	{"serve.artifact_s_p50", "s"},
	{"serve.cache_read_kb_per_op", "KiB"},
	{"serve.http_s_mean.runs_submit", "s"},
	{"serve.http_s_mean.run_status", "s"},
	{"serve.http_s_mean.artifact", "s"},
	{"serve.http_s_mean.sweeps_submit", "s"},
	{"serve.http_s_mean.sweep_status", "s"},
	{"serve.http_s_mean.sweep_artifact", "s"},
	{"spec.expand_ms", "ms"},
	{"spec.hash_us", "us"},

	// Traced ÷ untraced value of each end-to-end timing metric.
	{"trace.overhead.throughput_per_s", "ratio"},
	{"trace.overhead.latency_s_p50", "ratio"},
}
