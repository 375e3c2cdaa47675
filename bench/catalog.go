package main

import (
	"fmt"
	"sort"
)

// metricSpec names one metric and its unit. BENCHMARK.json repeats the
// same names with their direction and regression bound; bench_test.go
// keeps the two lists equal.
type metricSpec struct {
	name, unit string
}

// Workload names are stable: later issues cite them.
var workloadNames = []string{"region_index", "value_subvol", "hot_repeat", "routed_mix", "ingest_build"}

// requestKinds are the 13 request shapes the query workloads send, in
// the order kind.<kind>.p50_ms is reported.
var requestKinds = []string{
	"sel0.1", "sel0.25", "sel1", "sel5",
	"col_full", "iso_full", "isa_full", "col_plod2", "s3d_full",
	"hot_full", "hot_plod3",
	"routed_region", "routed_subvol",
}

// endToEndSpecs are what a caller of the service sees. Every workload
// reports every one of them (error rate travels as failed/attempted).
var endToEndSpecs = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"virt_s_per_op", "s"},
	{"resp_kb_per_op", "kB"},
	{"alloc_mb_per_op", "MB"},
	{"build_mb_per_s", "MB/s"},
	{"stored_bytes_per_raw_byte", "ratio"},
}

// perLayerSpecs are the single-layer metrics, module name first. A
// workload that does not exercise a layer reports 0 for it.
var perLayerSpecs = buildPerLayerSpecs()

func buildPerLayerSpecs() []metricSpec {
	specs := []metricSpec{
		{"loadgen.serial_ops_per_s", "1/s"},
		{"loadgen.concurrency_gain", "ratio"},
		{"loadgen.latency_p99_ms", "ms"},
		{"loadgen.trace_overhead_ratio", "ratio"},
	}
	for _, k := range requestKinds {
		specs = append(specs, metricSpec{"loadgen.kind." + k + ".p50_ms", "ms"})
	}
	specs = append(specs,
		metricSpec{"server.handler_ms_p50", "ms"},
		metricSpec{"server.parse_us_per_op", "us"},
		metricSpec{"server.build_result_us_per_op", "us"},
		metricSpec{"server.encode_us_per_op", "us"},
		metricSpec{"server.encode_ns_per_match", "ns"},
		metricSpec{"server.other_ms_per_op", "ms"},
		metricSpec{"server.queue_wait_ms_per_op", "ms"},
		metricSpec{"server.shed_total", "count"},
		metricSpec{"http.client_overhead_ms_per_op", "ms"},

		metricSpec{"core.query_ms_per_op", "ms"},
		metricSpec{"core.explain_us_per_op", "us"},
		metricSpec{"core.virt_io_s_per_op", "s"},
		metricSpec{"core.virt_decompress_s_per_op", "s"},
		metricSpec{"core.virt_reconstruct_s_per_op", "s"},
		metricSpec{"core.matches_per_op", "count"},
		metricSpec{"core.bins_accessed_per_op", "count"},
		metricSpec{"core.bins_pruned_per_op", "count"},
		metricSpec{"core.bins_covered_per_op", "count"},
		metricSpec{"core.index_nodes_per_op", "count"},
		metricSpec{"core.blocks_read_per_op", "count"},
		metricSpec{"core.bytes_read_per_match", "B"},
		metricSpec{"core.open_ms", "ms"},
		metricSpec{"core.build_s.col", "s"},
		metricSpec{"core.build_s.iso", "s"},
		metricSpec{"core.build_s.isa", "s"},
		metricSpec{"core.build_s.s3d", "s"},

		metricSpec{"cache.hit_ratio", "ratio"},
		metricSpec{"cache.evictions_per_op", "count"},
		metricSpec{"cache.suppressed_per_op", "count"},
		metricSpec{"cache.resident_mb", "MB"},
		metricSpec{"cache.get_hit_ns", "ns"},
		metricSpec{"cache.miss_insert_evict_ns", "ns"},

		metricSpec{"pfs.bytes_read_per_op", "B"},
		metricSpec{"pfs.reads_per_op", "count"},
		metricSpec{"pfs.seeks_per_op", "count"},
		metricSpec{"pfs.opens_per_op", "count"},
		metricSpec{"pfs.bytes_written_per_build", "B"},
		metricSpec{"pfs.readat_4k_ns", "ns"},
		metricSpec{"pfs.measurecpu_scaling_2g", "ratio"},
	)
	for _, c := range []string{"zlib", "isobar", "isabela"} {
		specs = append(specs,
			metricSpec{"compress." + c + ".decode_mb_s", "MB/s"},
			metricSpec{"compress." + c + ".encode_mb_s", "MB/s"},
			metricSpec{"compress." + c + ".decode_unit_us", "us"},
			metricSpec{"compress." + c + ".ratio", "ratio"},
		)
	}
	return append(specs,
		metricSpec{"plod.split_mb_s", "MB/s"},
		metricSpec{"plod.assemble_l7_mb_s", "MB/s"},
		metricSpec{"plod.assemble_l2_mb_s", "MB/s"},

		metricSpec{"bitmap.wah_compress_mb_s", "MB/s"},
		metricSpec{"bitmap.wah_decompress_mb_s", "MB/s"},
		metricSpec{"bitmap.wah_iter_ns_per_bit", "ns"},
		metricSpec{"bitmap.wah_ratio", "ratio"},
		metricSpec{"binning.tree_select_us", "us"},
		metricSpec{"binning.binof_ns", "ns"},
		metricSpec{"binning.build_ms", "ms"},
		metricSpec{"grid.overlapping_chunks_us", "us"},
		metricSpec{"sfc.hilbert_index_ns", "ns"},
		metricSpec{"mpi.run4_us", "us"},

		metricSpec{"router.handler_ms_p50", "ms"},
		metricSpec{"router.self_ms_per_op", "ms"},
		metricSpec{"router.shards_per_op", "count"},
		metricSpec{"router.fanout_skew_ms", "ms"},
		metricSpec{"router.decode_us_per_op", "us"},
		metricSpec{"router.trace_bytes_per_op", "B"},
		metricSpec{"router.hedges_total", "count"},
		metricSpec{"router.degraded_total", "count"},
		metricSpec{"query.merge_us_per_kmatch", "us"},
		metricSpec{"query.sort_us_per_kmatch", "us"},
		metricSpec{"shardmap.owners_ns", "ns"},

		metricSpec{"obs.trace_span_ns", "ns"},
		metricSpec{"obs.hist_observe_ns", "ns"},
		metricSpec{"obs.querylog_append_ns", "ns"},
		metricSpec{"obs.trace_wire_encode_us", "us"},

		metricSpec{"runtime.gc_pause_ms_total", "ms"},
		metricSpec{"runtime.num_gc", "count"},
		metricSpec{"runtime.heap_sys_mb", "MB"},
		metricSpec{"runtime.mallocs_per_op", "count"},
		metricSpec{"runtime.goroutines_end", "count"},
	)
}

// metric is one measured value. Samples is how many observations the
// value summarizes (0 when the value is a plain counter or ratio).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects the metrics of one workload run by name.
type metricSet map[string]metric

// fill returns the metrics named by specs, in a fresh set. A per-layer
// metric the workload did not measure reads 0; an end-to-end metric
// must have been measured. Anything in the set but not in either
// catalogue is a harness bug and is reported.
func (m metricSet) fill(specs []metricSpec, required bool) (metricSet, error) {
	out := make(metricSet, len(specs))
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			if required {
				return nil, fmt.Errorf("metric %s was not measured", s.name)
			}
			v = metric{}
		}
		v.Unit = s.unit
		out[s.name] = v
	}
	return out, nil
}

// checkKnown reports the first recorded metric absent from both
// catalogues.
func (m metricSet) checkKnown() error {
	known := make(map[string]bool, len(endToEndSpecs)+len(perLayerSpecs))
	for _, s := range endToEndSpecs {
		known[s.name] = true
	}
	for _, s := range perLayerSpecs {
		known[s.name] = true
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !known[name] {
			return fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return nil
}

func (m metricSet) set(name string, value float64, samples int) {
	m[name] = metric{Value: value, Samples: samples}
}
