package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json at
// the repo root repeats the names, units, directions and bounds; the
// package's test fails when the two drift apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// For per-layer metrics: the end-to-end metrics this one should
	// move, the workloads where it should, and the workloads where it
	// should leave them flat. Written down before measuring, so a gain
	// that shows up elsewhere than predicted is a finding.
	Moves, On, FlatOn string
}

// endToEnd are the metrics a user of the system would see, in print
// order. Each is the median over a run's untraced passes. Wall-clock
// metrics carry the widest bound the contract allows: on the shared
// 2-vCPU host the medians of two sets of ten runs differ by up to 21 %
// between its faster and slower stretches (README, "Two sets of runs").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "decompose_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "persist_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "serve_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "serve_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "serve_p99_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "pipeline_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	// Counters of the simulated cluster: the same input gives the same
	// value to the last digit, so any worsening is a real one. sim_s is
	// in simulated seconds (the paper's modelled running time), not
	// wall seconds, hence its own unit.
	{Name: "shuffle_mb", Unit: "MB", Better: "lower", Bound: 0.01},
	{Name: "sim_s", Unit: "sim_s", Better: "lower", Bound: 0.01},
}

const (
	dense   = "dense_parafac dense_tucker"
	allWork = "dense_parafac dense_tucker tall_parafac proc_parafac"
)

// perLayer are the metrics of single layers, from the traced pass; the
// layer is the name's prefix. They carry no bound.
var perLayer = []metricDef{
	{Name: "gen.build_s", Unit: "s", Better: "lower", Moves: "setup_s", On: allWork},
	{Name: "tensor.readcoo_s", Unit: "s", Better: "lower", FlatOn: allWork},

	{Name: "core.stage_s", Unit: "s", Better: "lower", Moves: "decompose_s pipeline_s", On: allWork},
	{Name: "core.contract_s", Unit: "s", Better: "lower", Moves: "decompose_s pipeline_s peak_rss_mb", On: dense, FlatOn: "proc_parafac"},
	{Name: "core.contract_share", Unit: "ratio", Better: "lower", Moves: "decompose_s", On: allWork},
	{Name: "core.contract_allocs", Unit: "count", Better: "lower", Moves: "decompose_s", On: "dense_tucker", FlatOn: "dense_parafac tall_parafac proc_parafac"},
	{Name: "core.contract_alloc_mb", Unit: "MB", Better: "lower", Moves: "decompose_s peak_rss_mb", On: dense},
	{Name: "core.encode_ns_rec", Unit: "ns", Better: "lower", Moves: "decompose_s pipeline_s peak_rss_mb", On: dense, FlatOn: "proc_parafac"},
	{Name: "core.decode_ns_rec", Unit: "ns", Better: "lower", Moves: "decompose_s pipeline_s peak_rss_mb", On: dense, FlatOn: "proc_parafac"},
	{Name: "core.block_bytes_rec", Unit: "B", Better: "lower", Moves: "shuffle_mb sim_s", On: allWork},
	{Name: "core.matenc_ns_rec", Unit: "ns", Better: "lower", Moves: "decompose_s", On: "tall_parafac", FlatOn: dense},
	{Name: "core.matdec_ns_rec", Unit: "ns", Better: "lower", Moves: "decompose_s", On: "tall_parafac", FlatOn: dense},

	{Name: "mr.jobs", Unit: "count", Better: "lower", Moves: "sim_s", On: allWork},
	{Name: "mr.shuffle_records", Unit: "count", Better: "lower", Moves: "shuffle_mb sim_s", On: allWork},
	{Name: "mr.input_mb", Unit: "MB", Better: "lower", Moves: "sim_s", On: allWork},
	{Name: "mr.output_mb", Unit: "MB", Better: "lower", Moves: "sim_s", On: allWork},
	{Name: "mr.engine_ns_rec", Unit: "ns", Better: "lower", Moves: "decompose_s pipeline_s peak_rss_mb", On: dense, FlatOn: "proc_parafac"},
	{Name: "mr.engine_allocs_rec", Unit: "count", Better: "lower", Moves: "decompose_s pipeline_s peak_rss_mb", On: dense, FlatOn: "proc_parafac"},

	{Name: "dfs.read_mb", Unit: "MB", Better: "lower", Moves: "sim_s", On: allWork},
	{Name: "dfs.write_mb", Unit: "MB", Better: "lower", Moves: "sim_s", On: allWork},
	{Name: "dfs.files_created", Unit: "count", Better: "lower", Moves: "decompose_s", On: "tall_parafac"},
	{Name: "dfs.write_ns_rec", Unit: "ns", Better: "lower", Moves: "decompose_s persist_s", On: "tall_parafac", FlatOn: dense},
	{Name: "dfs.read_ns_rec", Unit: "ns", Better: "lower", Moves: "decompose_s persist_s", On: "tall_parafac", FlatOn: dense},

	{Name: "matrix.update_s", Unit: "s", Better: "lower", Moves: "decompose_s", On: "tall_parafac dense_tucker", FlatOn: "dense_parafac"},
	{Name: "matrix.update_share", Unit: "ratio", Better: "lower", Moves: "decompose_s", On: "tall_parafac dense_tucker"},
	{Name: "matrix.gram_s", Unit: "s", Better: "lower", Moves: "decompose_s", On: "tall_parafac", FlatOn: dense},
	{Name: "matrix.pinv_s", Unit: "s", Better: "lower", Moves: "decompose_s", On: "tall_parafac", FlatOn: dense},
	{Name: "matrix.mul_s", Unit: "s", Better: "lower", Moves: "decompose_s", On: "tall_parafac", FlatOn: dense},
	{Name: "matrix.llsv_s", Unit: "s", Better: "lower", Moves: "decompose_s", On: "dense_tucker", FlatOn: "dense_parafac tall_parafac proc_parafac"},
	{Name: "matrix.qr_s", Unit: "s", Better: "lower", Moves: "decompose_s", On: "dense_tucker", FlatOn: "dense_parafac tall_parafac proc_parafac"},
	{Name: "matrix.mulbt_gflops", Unit: "GFLOP/s", Better: "higher", Moves: "serve_qps serve_p99_us", On: "tall_parafac", FlatOn: dense},

	{Name: "mrproc.partitions", Unit: "count", Better: "lower", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},
	{Name: "mrproc.partition_mb", Unit: "MB", Better: "lower", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},
	{Name: "mrproc.chunk_mb", Unit: "MB", Better: "lower", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},
	{Name: "mrproc.dedupe_share", Unit: "ratio", Better: "higher", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},
	{Name: "mrproc.heartbeat_misses", Unit: "count", Better: "lower", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},
	{Name: "mrproc.transport_share", Unit: "ratio", Better: "lower", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},
	{Name: "mrproc.part_rtt_us", Unit: "us", Better: "lower", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},
	{Name: "mrproc.part_mbps", Unit: "MB/s", Better: "higher", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},
	{Name: "mrproc.shipfile_mbps", Unit: "MB/s", Better: "higher", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},
	{Name: "wire.encode_ns_rec", Unit: "ns", Better: "lower", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},
	{Name: "wire.decode_ns_rec", Unit: "ns", Better: "lower", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},
	{Name: "wire.bytes_rec", Unit: "B", Better: "lower", Moves: "decompose_s", On: "proc_parafac", FlatOn: "dense_parafac dense_tucker tall_parafac"},

	{Name: "obs.sim_map_share", Unit: "ratio", Better: "lower", Moves: "sim_s", On: allWork},
	{Name: "obs.sim_shuffle_share", Unit: "ratio", Better: "lower", Moves: "shuffle_mb sim_s", On: allWork},
	{Name: "obs.sim_reduce_share", Unit: "ratio", Better: "lower", Moves: "sim_s", On: allWork},
	{Name: "obs.tracer_overhead_pct", Unit: "%", Better: "lower", FlatOn: allWork},

	{Name: "persist.save_s", Unit: "s", Better: "lower", Moves: "persist_s pipeline_s", On: "tall_parafac", FlatOn: dense},
	{Name: "persist.load_s", Unit: "s", Better: "lower", Moves: "persist_s pipeline_s", On: "tall_parafac", FlatOn: dense},
	{Name: "persist.model_mb", Unit: "MB", Better: "lower", Moves: "persist_s", On: "tall_parafac", FlatOn: dense},

	{Name: "serve.new_s", Unit: "s", Better: "lower", Moves: "pipeline_s", On: "tall_parafac"},
	{Name: "serve.hit_rate", Unit: "ratio", Better: "higher", Moves: "serve_qps serve_p50_us", On: dense, FlatOn: "tall_parafac proc_parafac"},
	{Name: "serve.batch_occupancy", Unit: "count", Better: "higher", Moves: "serve_qps", On: "proc_parafac tall_parafac"},
	{Name: "serve.coalesced", Unit: "count", Better: "higher", Moves: "serve_qps", On: dense},
	{Name: "serve.hit_ns", Unit: "ns", Better: "lower", Moves: "serve_qps serve_p50_us", On: dense, FlatOn: "tall_parafac proc_parafac"},
	{Name: "serve.miss_us", Unit: "us", Better: "lower", Moves: "serve_qps serve_p99_us", On: "tall_parafac proc_parafac"},
	{Name: "serve.kernel_us", Unit: "us", Better: "lower", Moves: "serve_qps serve_p99_us", On: "tall_parafac", FlatOn: "proc_parafac"},
	{Name: "serve.dispatch_us", Unit: "us", Better: "lower", Moves: "serve_qps serve_p99_us", On: "proc_parafac", FlatOn: "tall_parafac"},

	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower", FlatOn: allWork},
	{Name: "par.decompose_speedup", Unit: "ratio", Better: "higher"},
	{Name: "par.serve_qps_ratio", Unit: "ratio", Better: "higher"},
	// Demoted from end-to-end: on the pinned random inputs the fit is
	// near zero and moves with the seed by far more than any bound.
	{Name: "model.fit", Unit: "ratio", Better: "higher"},
}
