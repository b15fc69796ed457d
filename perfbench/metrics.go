package main

// metricSpec names one reported metric as BENCHMARK.json lists it.
type metricSpec struct {
	name, unit, better string
}

// endToEndMetrics are reported by untraced runs.
var endToEndMetrics = []metricSpec{
	{"host_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// perLayerMetrics are reported by traced runs. A metric that does not
// apply to a workload (dlio.* on a traffic run, group.speedup off
// traffic-sharded) reads 0.
func perLayerMetrics() []metricSpec {
	var out []metricSpec
	for _, op := range opNames {
		p := "fsapi." + op + "."
		out = append(out,
			metricSpec{p + "count", "count", "lower"},
			metricSpec{p + "bytes", "B", "lower"},
			metricSpec{p + "sim_p50_us", "us", "lower"},
			metricSpec{p + "sim_p99_us", "us", "lower"},
			metricSpec{p + "host_self_us", "us", "lower"},
			metricSpec{p + "yield_frac", "ratio", "lower"},
		)
	}
	for _, l := range layers {
		out = append(out, metricSpec{"host_share." + l, "ratio", "lower"})
	}
	return append(out,
		metricSpec{"fabric.top_pipe_util", "ratio", "higher"},
		metricSpec{"traffic.offered", "count", "higher"},
		metricSpec{"traffic.completed", "count", "higher"},
		metricSpec{"traffic.shed_admission", "count", "lower"},
		metricSpec{"traffic.shed_brownout", "count", "lower"},
		metricSpec{"traffic.shed_breaker", "count", "lower"},
		metricSpec{"traffic.deadline_miss", "count", "lower"},
		metricSpec{"traffic.inflight_end", "count", "lower"},
		metricSpec{"traffic.useful_ratio", "ratio", "higher"},
		metricSpec{"traffic.host_us_per_req", "us", "lower"},
		metricSpec{"resilience.retries", "count", "lower"},
		metricSpec{"resilience.hedges", "count", "lower"},
		metricSpec{"resilience.hedge_wins", "count", "higher"},
		metricSpec{"resilience.hedge_win_ratio", "ratio", "higher"},
		metricSpec{"resilience.breaker_transitions", "count", "lower"},
		metricSpec{"group.speedup", "ratio", "higher"},
		metricSpec{"group.cpu_per_wall", "ratio", "lower"},
		metricSpec{"group.outcomes_observed", "count", "higher"},
		metricSpec{"dlio.samples", "count", "higher"},
		metricSpec{"dlio.sim_io_s", "s", "lower"},
		metricSpec{"dlio.sim_nonoverlap_s", "s", "lower"},
		metricSpec{"ior.transfers", "count", "higher"},
		metricSpec{"ior.sim_write_gbps", "GB/s", "higher"},
		metricSpec{"ior.sim_read_gbps", "GB/s", "higher"},
		metricSpec{"gc.cycles", "count", "lower"},
		metricSpec{"gc.pause_ms", "ms", "lower"},
		metricSpec{"gc.leaked_goroutines", "count", "lower"},
		metricSpec{"trace_overhead_frac", "ratio", "lower"},
	)
}
