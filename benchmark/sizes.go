package main

import (
	"time"

	temporalir "repro"
)

// Frozen sizes. Every number here was chosen once on the sizing box
// (README.md, "Sizing") and is never derived from a measurement at run
// time; BENCHMARK.json's schema has no room for them, so they live here.
const (
	// runSeconds mirrors BENCHMARK.json run_seconds: the window counts
	// below are cut for it, and -seconds scales them (never below
	// minWindows measured windows per epoch).
	runSeconds = 12
	// epochs is E: child processes per run, strictly sequential. A
	// traced run spends one of them on the onion replay.
	epochs     = 3
	minWindows = 4

	checkOps  = 256 // verification subset replayed after every window
	topK      = 10
	tlBuckets = 10
	batchRows = 8

	// The onion replay issues every probeStride-th read of the
	// workload's list, at most probeCap of them.
	probeStride = 16
	probeCap    = 512
)

// lateLimit is the open-loop reply deadline, counted from an
// operation's due time. A variable only so that the smoke test can lift
// it on a loaded box.
var lateLimit = 250 * time.Millisecond

// sizes is one workload's frozen shape.
type sizes struct {
	name string
	// scale multiplies the paper's Table 4 defaults (1M objects, 128M
	// time units, 100k dictionary) in gen.Synthetic.
	scale float64
	// methods are the engines built and queried; more than one only on
	// lib_methods.
	methods []temporalir.Method
	// mixedHalf draws every second query from gen.MixedPool instead of
	// the default shape; mixedAll draws all of them from it.
	mixedHalf, mixedAll bool
	// reads is the number of distinct read operations in a window's
	// list (issued to every method on lib_methods); ops is the cycle
	// length on http_mixed, reads and writes together.
	reads, ops int
	// burst is B: inserts per window, and deletes of the previous
	// window's inserts.
	burst   int
	windows int // measured windows per epoch at runSeconds
	conns   int // HTTP connections; 0 runs the embedded engine
	shards  int // 0 builds an Engine, otherwise a Sharded of this width
	// maxShare, when set, leaves out candidate queries expected to match
	// more than this share of the corpus.
	maxShare float64
	// rate is the open-loop base arrival rate in operations per second;
	// the last fifth of a cycle's schedule runs at twice that.
	rate float64
}

var allMethods = append(append([]temporalir.Method{temporalir.TIF}, temporalir.Methods()...), temporalir.Routed)

var workloads = []sizes{
	{
		name: "lib_point", scale: 0.1,
		methods: []temporalir.Method{temporalir.IRHintPerf},
		reads:   20480, burst: 1024, windows: 4,
	},
	{
		name: "lib_methods", scale: 0.03,
		methods: allMethods, mixedHalf: true,
		reads: 512, burst: 256, windows: 4,
	},
	{
		name: "http_point", scale: 0.1,
		methods: []temporalir.Method{temporalir.IRHintPerf},
		reads:   16384, burst: 64, windows: 4, conns: 2,
	},
	{
		name: "http_mixed", scale: 0.1,
		methods: []temporalir.Method{temporalir.IRHintPerf}, mixedAll: true,
		ops: 2400, windows: 4, conns: 2, shards: 4,
		rate: 1400, maxShare: 0.05,
	},
}

func workloadByName(name string) (sizes, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return sizes{}, false
}

// The open-loop mix, in operations per hundred.
const (
	mixSearch   = 60
	mixTopK     = 15
	mixTimeline = 10
	mixBatch    = 5
	mixInsert   = 8
	mixDelete   = 2
)

// metricDef names one reported metric; the tables below must match
// BENCHMARK.json (smoke_test.go checks it).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"write_p50_us", "us"},
	{"compact_ms", "ms"},
	{"bytes_per_object", "B"},
}

// methodSlug is the metric-name spelling of a method.
func methodSlug(m temporalir.Method) string {
	b := []byte(m)
	for i, c := range b {
		if c == '+' || c == '/' {
			b[i] = '_'
		}
	}
	return string(b)
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, m := range allMethods {
		s := "index." + methodSlug(m)
		out = append(out, metricDef{s + ".query_us", "us"}, metricDef{s + ".build_s", "s"}, metricDef{s + ".bytes_per_object", "B"})
	}
	return append(out, []metricDef{
		{"engine.search_us", "us"}, {"engine.self_us", "us"}, {"engine.topk_us", "us"},
		{"engine.timeline_us", "us"}, {"engine.batch_row_us", "us"}, {"engine.insert_us", "us"},
		{"engine.delete_us", "us"}, {"engine.refresh_scorer_ms", "ms"},
		{"engine.stage.plan_us", "us"}, {"engine.stage.postings_us", "us"},
		{"engine.stage.intersect_us", "us"}, {"engine.stage.filter_us", "us"},
		{"engine.stage.sort_us", "us"}, {"engine.stage.rank_us", "us"}, {"engine.stage.agg_us", "us"},
		{"maint.compact_copy_ms", "ms"}, {"maint.compact_build_ms", "ms"}, {"maint.compact_swap_ms", "ms"},
		{"maint.memtable_tax_us", "us"}, {"maint.tombstone_tax_us", "us"},
		{"shard.search_us", "us"}, {"shard.overhead_us", "us"}, {"shard.n1_overhead_us", "us"},
		{"shard.scatter_us", "us"}, {"shard.merge_us", "us"}, {"shard.pruned_share", "ratio"},
		{"exec.maps_per_query", "count"}, {"exec.helpers_per_map", "count"},
		{"server.search_handler_us", "us"}, {"server.self_us", "us"}, {"server.insert_handler_us", "us"},
		{"server.batch_handler_us", "us"}, {"server.resp_bytes_per_hit", "B"}, {"server.rejected_share", "ratio"},
		{"tenant.get_ns", "ns"},
		{"http.socket_us", "us"}, {"http.floor_us", "us"},
		{"persist.save_ms", "ms"}, {"persist.load_ms", "ms"}, {"persist.bytes_per_object", "B"},
		{"client.sched_lag_p99_us", "us"}, {"client.self_us", "us"}, {"client.lat_p999_us", "us"}, {"client.prep_s", "s"},
		{"proc.cpu_us_per_op", "us"}, {"proc.heap_bytes_per_object", "B"}, {"proc.gc_cycles", "count"}, {"proc.gc_pause_ms", "ms"},
		{"run.window_iqr_pct", "%"}, {"run.epoch_range_pct", "%"}, {"trace.overhead_pct", "%"},
	}...)
}
