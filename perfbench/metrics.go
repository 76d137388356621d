package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatchesTables).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the service sees, reported by the
// untraced run (--trace 0). error_rate is carried by the result line's
// attempted/failed counts and printed, but is not listed here: it is 0 on
// a healthy run, and a bound relative to a median of 0 is meaningless.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s", "higher"},
	{"tasks_per_s", "1/s", "higher"},
	{"virt_s_per_host_s", "ratio", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"mem_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's (--trace 1) metrics, named by module.
var perLayer = []metricDef{
	{"server.submit_ms", "ms", "lower"},
	{"server.queue_wait_ms", "ms", "lower"},
	{"server.run_ms", "ms", "lower"},
	{"server.overhead_ms", "ms", "lower"},
	{"server.polls_per_job", "count", "lower"},
	{"server.refused", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.captures", "count", "lower"},
	{"cache.disk_hits", "count", "higher"},
	{"cache.disk_writes", "count", "lower"},
	{"cache.evictions", "count", "lower"},
	{"bench.capture_ms", "ms", "lower"},
	{"replay.encode_ms", "ms", "lower"},
	{"replay.load_ms", "ms", "lower"},
	{"replay.to_dag_ms", "ms", "lower"},
	{"replay.frame_bytes", "bytes", "lower"},
	{"replay.run_ms", "ms", "lower"},
	{"replay.tasks_per_s", "1/s", "higher"},
	{"trace.fingerprint_ms", "ms", "lower"},
	{"trace.json_ms", "ms", "lower"},
	{"trace.json_bytes", "bytes", "lower"},
	{"trace.fetch_ms", "ms", "lower"},
	{"sched.direct_ms", "ms", "lower"},
	{"sched.tasks_per_s", "1/s", "higher"},
	{"sched.fp_divergent_specs", "count", "lower"},
	{"perf.front_handoffs_per_task", "1/task", "lower"},
	{"perf.quiescence_parks_per_task", "1/task", "lower"},
	{"perf.spurious_wakeups_per_task", "1/task", "lower"},
	{"journal.append_sync_ms", "ms", "lower"},
	{"journal.records_per_job", "count", "lower"},
	{"bench.sweep_capture_ms", "ms", "lower"},
	{"bench.sweep_replay_ms", "ms", "lower"},
	{"cluster.overhead_ms", "ms", "lower"},
	{"cluster.parts_per_job", "count", "higher"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.mismatches", "count", "lower"},
	{"error_rate", "ratio", "lower"},
	{"latency_tail_pct", "%", "higher"},
	{"latency_samples", "count", "higher"},
	{"trace.overhead_ms", "ms", "lower"},
	{"host.slowdown", "ratio", "lower"},
	{"self.job_ms", "ms", "lower"},
	{"self.http_submit_ms", "ms", "lower"},
	{"self.http_poll_ms", "ms", "lower"},
	{"self.http_trace_ms", "ms", "lower"},
}

// selfSpans are the per-job spans whose self time the traced run reports
// per job (self.<name>_ms, dots as underscores).
var selfSpans = []string{"job", "http.submit", "http.poll", "http.trace"}
