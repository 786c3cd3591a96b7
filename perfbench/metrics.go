package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what an untraced run (--trace 0) reports, on every workload.
var endToEnd = []metricDef{
	{Name: "decisions_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "latency_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_decision", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer is what the traced run (--trace 1) reports, on every workload;
// a metric whose layer a workload does not exercise reads 0 there (see
// README.md for where each one applies).
var perLayer = []metricDef{
	{Name: "gen.lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "gen.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "wire.codec_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "server.replay_decisions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.read_batch_reqs", Unit: "count", Better: "higher"},
	{Name: "server.stage_decode_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_queue_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_execute_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.stage_write_p99_us", Unit: "us", Better: "lower"},
	{Name: "pipeline.ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "pipeline.reqs_per_batch", Unit: "count", Better: "higher"},
	{Name: "pipeline.combine_p99_us", Unit: "us", Better: "lower"},
	{Name: "dist.ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "dist.msgs_per_req", Unit: "count", Better: "lower"},
	{Name: "dist.msgs_per_change", Unit: "count", Better: "lower"},
	{Name: "tree.nodes", Unit: "count", Better: "lower"},
	{Name: "persist.commit_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "persist.reqs_per_fsync", Unit: "count", Better: "higher"},
	{Name: "persist.fsync_p99_us", Unit: "us", Better: "lower"},
	{Name: "persist.bytes_per_req", Unit: "B", Better: "lower"},
	{Name: "persist.snapshots", Unit: "count", Better: "lower"},
	{Name: "persist.recover_s", Unit: "s", Better: "lower"},
	{Name: "proc.read_syscalls_per_req", Unit: "count", Better: "lower"},
	{Name: "proc.write_syscalls_per_req", Unit: "count", Better: "lower"},
	{Name: "proc.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "rung.pipeline.ratio", Unit: "x", Better: "lower"},
	{Name: "rung.codec.ratio", Unit: "x", Better: "lower"},
	{Name: "rung.server_replay.ratio", Unit: "x", Better: "lower"},
	{Name: "rung.persist.ratio", Unit: "x", Better: "lower"},
	{Name: "trace.decisions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.latency_p99_us", Unit: "us", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics map of defs from vals; a def without a value is
// an error in the benchmark itself, as is a value without a def.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := map[string]metricValue{}
	var problems []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			problems = append(problems, "metric "+d.Name+" was not measured")
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			problems = append(problems, "metric "+name+" is not declared")
		}
	}
	return out, problems
}
