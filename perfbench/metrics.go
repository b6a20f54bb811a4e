package main

import "slices"

// The metric catalogue. BENCHMARK.json mirrors the name, unit, better
// and bound of every entry (TestBenchmarkJSONMatchesCatalogue keeps
// them equal); moves records, before any change is measured, which
// end-to-end metric a per-layer metric should move, on which workload.

// metricDef is one catalogue entry.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: allowed relative worsening
	Moves  string  // per-layer only
}

// endToEndMetrics are measured untraced on every workload.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "allocs_k_per_op", Unit: "k", Better: "lower", Bound: 0.05},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// layerMoves says what a module's CPU or allocation share should move.
var layerMoves = map[string]string{
	"sim":      "ops_per_s and allocs_k_per_op on weakscale and mechanisms",
	"topology": "ops_per_s and peak_heap_mb on weakscale",
	"machine":  "ops_per_s on weakscale",
	"fabric":   "ops_per_s on weakscale (flow path); ops_per_s on mechanisms via E09/E10 (packet path)",
	"cbp":      "ops_per_s on mechanisms",
	"mpi":      "ops_per_s on mechanisms; miss_p50_ms on deepd-mix a little",
	"offload":  "ops_per_s on mechanisms",
	"ompss":    "ops_per_s on mechanisms",
	"apps":     "ops_per_s on mechanisms; miss_p50_ms on deepd-mix",
	"linalg":   "ops_per_s on mechanisms",
	"resource": "ops_per_s on mechanisms",
	"resil":    "ops_per_s on mechanisms",
	"energy":   "ops_per_s on mechanisms",
	"obs":      "ops_per_s on mechanisms",
	"expt":     "ops_per_s on weakscale and mechanisms",
	"core":     "ops_per_s on mechanisms",
	"rng":      "ops_per_s on mechanisms",
	"stats":    "ops_per_s on mechanisms",
	"deep":     "op_p50_ms on deepd-mix (content hashing)",
	"serve":    "op_p50_ms on deepd-mix",
	"store":    "op_p50_ms on deepd-mix; setup_s on deepd-mix",
	"other":    "op_p50_ms on deepd-mix (net/http)",
	"bench":    "nothing: the benchmark's own client code",
}

// perLayerMetrics lists every per-layer metric, reported by every
// traced run (zero where a workload does not load the layer).
func perLayerMetrics() []metricDef {
	var out []metricDef
	add := func(name, unit, better, moves string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better, Moves: moves})
	}
	for _, m := range slices.Concat(modules, []string{layerOther, layerBench}) {
		add(m+".cpu_share", "fraction", "lower", layerMoves[m])
		add(m+".alloc_share", "fraction", "lower", layerMoves[m])
	}
	add("runtime.gc_share", "fraction", "lower", "ops_per_s and alloc_mb_per_op on weakscale")
	add("runtime.gc_cycles", "count/op", "lower", "alloc_mb_per_op and ops_per_s on weakscale")
	add("runtime.gc_pause_ms", "ms/op", "lower", "alloc_mb_per_op and ops_per_s on weakscale")

	const kernel = "ops_per_s and allocs_k_per_op on mechanisms"
	add("sim.events", "count", "lower", kernel)
	add("sim.events_per_s", "1/s", "higher", kernel)
	add("sim.max_queue_depth", "count", "lower", kernel)
	const cluster = "ops_per_s on mechanisms; nothing on weakscale or deepd-mix"
	add("sim.cluster.windows", "count", "lower", cluster)
	add("sim.cluster.blocked_frac", "fraction", "lower", cluster)
	add("sim.cluster.cross_events", "count", "lower", cluster)
	add("machine.booster_fabric_ms", "ms", "lower", "ops_per_s and peak_heap_mb on weakscale; nothing on mechanisms")

	for _, id := range experimentIDs {
		moves := "ops_per_s on mechanisms"
		switch id {
		case "E15":
			moves = "ops_per_s on weakscale"
		case "E09", "E10":
			moves = "ops_per_s on mechanisms (packet fabric); nothing on weakscale"
		}
		add("expt."+id+".ms", "ms", "lower", moves)
	}
	add("deep.new_machine_ms", "ms", "lower", "ops_per_s on mechanisms")
	for _, kind := range sdkKinds {
		add("deep.run."+kind+".ms", "ms", "lower", "ops_per_s on mechanisms")
	}

	const mpi = "ops_per_s on mechanisms; miss_p50_ms on deepd-mix a little; nothing on weakscale"
	add("mpi.messages", "count", "lower", mpi)
	add("mpi.bytes", "B", "lower", mpi)
	add("mpi.goroutines_peak", "count", "lower", mpi)
	add("mpi.world_ms", "ms", "lower", mpi)
	add("mpi.partitioned_ms", "ms", "lower", mpi)

	const hits, misses = "hit_p50_ms and op_p50_ms on deepd-mix", "miss_p50_ms on deepd-mix"
	add("serve.submit_ms", "ms", "lower", hits)
	add("serve.wait_ms", "ms", "lower", misses)
	add("serve.fetch_ms", "ms", "lower", hits)
	add("serve.restart_ms", "ms", "lower", "hit_p50_ms in the restart phase of deepd-mix")
	add("serve.drain_ms", "ms", "lower", "miss_p99_ms on deepd-mix")
	add("store.open_ms", "ms", "lower", "setup_s and hit_p50_ms on deepd-mix")
	add("serve.cache_hit_ratio", "fraction", "higher", hits)
	add("serve.store_hits", "count", "higher", "hit_p50_ms in the restart phase of deepd-mix")
	add("serve.coalesced", "count", "higher", misses)
	add("serve.evictions", "count", "lower", hits)
	add("store.entries", "count", "lower", "miss_p50_ms on deepd-mix (store writes)")
	add("store.disk_mb", "MB", "lower", "miss_p50_ms on deepd-mix (store writes)")
	add("store.live_ratio", "fraction", "higher", "hit_p50_ms on deepd-mix (store reads)")

	const latency = "a deepd-mix request latency measured traced; the untraced value is in the result file"
	for _, name := range []string{"req_p99_ms", "hit_p50_ms", "hit_p99_ms", "miss_p50_ms", "miss_p99_ms"} {
		add(name, "ms", "lower", latency)
	}
	add("bench.trace_overhead", "fraction", "lower", "nothing: 1 - traced ops_per_s / untraced ops_per_s")
	return out
}
