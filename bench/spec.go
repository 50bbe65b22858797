package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The benchmark's declarations — workloads, metric names, units, directions
// and bounds — are BENCHMARK.json at the repository root, the file the driver
// reads; loadSpec reads it too, so there is one copy. What the driver's
// format has no field for lives here: which end-to-end metric each per-layer
// metric should move, on which workload (moves), and which end-to-end metrics
// are pure functions of the seed (virtualClock).

// workloadSpec names a workload and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec declares one metric. Bound, on end-to-end metrics only, is the
// share of the parent's median by which the metric may worsen before a
// change is a regression; README.md says how each was chosen.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Set by loadSpec. endToEnd is measured with tracing off, perLayer by the
// traced run; both carry the same names on every workload.
var (
	workloads []workloadSpec
	endToEnd  []metricSpec
	perLayer  []metricSpec
)

// loadSpec reads the declarations and refuses a file whose per-layer metrics
// and the moves table name different things.
func loadSpec(path string) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f struct {
		Workloads []workloadSpec `json:"workloads"`
		EndToEnd  []metricSpec   `json:"end_to_end"`
		PerLayer  []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(text, &f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range f.PerLayer {
		if moves[m.Name] == "" {
			return fmt.Errorf("%s declares per-layer metric %s, which spec.go's moves table lacks", path, m.Name)
		}
	}
	if len(f.PerLayer) != len(moves) {
		return fmt.Errorf("%s declares %d per-layer metrics, spec.go's moves table has %d", path, len(f.PerLayer), len(moves))
	}
	workloads, endToEnd, perLayer = f.Workloads, f.EndToEnd, f.PerLayer
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// Virtual-clock times carry the unit sim_ms, not ms: they are the cost
// model's milliseconds, identical on every run of one seed, and must not be
// mistaken for measured time.

// virtualClock names the end-to-end metrics that are pure functions of the
// seed: two runs of one commit must agree on them exactly (-repeat checks).
var virtualClock = map[string]bool{
	"hit_rate_pct": true, "sim_speedup_x": true, "sim_resp_ms_p50": true, "sim_resp_ms_p99": true,
}

// moves says, for each per-layer metric of the traced run, which end-to-end
// metric it should move, on which workload; -all prints it beside the value.
var moves = map[string]string{
	"trace.overhead_pct": "none: traced vs untraced queries_per_s of the same run",
	"trace.coverage_pct": "none: share of op wall time explained from outside",

	"dataset.generate_s": "setup_s on all",

	"workload.generate_ms_per_seq": "setup_s on all",

	"rtree.bulk_load_s":                 "setup_s on all",
	"rtree.query_pages.us_per_query":    "queries_per_s, cpu_ms_per_query on explore, explore_sharded",
	"rtree.query_pages.calls_per_query": "queries_per_s on explore",
	"rtree.nodes_visited_per_call":      "queries_per_s on explore, explore_sharded",
	"rtree.pages_per_call":              "queries_per_s on explore",

	"flatindex.build_s":                      "setup_s on all",
	"flatindex.query_pages_from.us_per_call": "op_wall_ms_p90 on explore (gap walks are its slow ops)",

	"core.scout.observe.us_per_query":    "queries_per_s, op_wall_ms_p50 on explore; setup_s on serve_*",
	"core.scoutopt.observe.us_per_query": "op_wall_ms_p90 on explore",
	"core.plan.requests_per_query":       "queries_per_s on explore",
	"core.scout.delta_build_pct":         "queries_per_s, allocs_per_query on explore",
	"core.sim.graph_build_ms_per_query":  "none: modelled CPU cost, reported beside the real one",
	"core.sim.prediction_ms_per_query":   "sim_speedup_x on explore (it eats the prefetch window)",

	"sgraph.build.us_per_query":     "core.scout.observe, then queries_per_s on explore",
	"sgraph.advance.us_per_query":   "core.scout.observe, then queries_per_s on explore",
	"sgraph.crossings.us_per_query": "core.scout.observe, then queries_per_s on explore",
	"sgraph.vertices_per_query":     "none: input size of the three above",
	"sgraph.edges_per_query":        "none: input size of the three above",
	"sgraph.memory_kb":              "peak_rss_mb on explore, serve_* set-up",

	"prefetch.straightline.observe.us_per_query": "none: proves core is bypassed on explore_file, explore_sharded",

	"cache.lru.lookup.ns_per_op":              "queries_per_s on explore; op_wall_ms_p50 on serve_flat private cells",
	"cache.lru.insert.ns_per_op":              "queries_per_s on explore; op_wall_ms_p50 on serve_flat private cells",
	"cache.sharded.lookup.ns_per_op":          "op_wall_ms_p50 on serve_flat shared cells",
	"cache.sharded.insert.ns_per_op":          "op_wall_ms_p50 on serve_flat shared cells",
	"cache.sharded.mixed.ns_per_op_contended": "none yet: no path drives one cache from several goroutines",
	"cache.hit_pct":                           "hit_rate_pct on all",
	"cache.evictions_per_query":               "hit_rate_pct on serve_flat shared cells",

	"pagestore.disk.read_pages.ns_per_page":  "cpu_ms_per_query on explore",
	"pagestore.disk.read_batch.ns_per_page":  "cpu_ms_per_query on explore_file, explore_sharded, serve_*",
	"pagestore.disk.cold_cost.ns_per_page":   "cpu_ms_per_query on explore, explore_file",
	"pagestore.disk.seeks_per_query":         "sim_resp_ms_p50, sim_speedup_x on all",
	"pagestore.disk.pages_read_per_query":    "sim_resp_ms_p50 on all",
	"pagestore.disk.bridged_pages_per_query": "sim_resp_ms_p50 on batched paths",
	"pagestore.disk.fault_retries":           "sim_resp_ms_p99 on explore_sharded, serve_sharded",
	"pagestore.disk.timed_out_reads":         "sim.slo_miss_pct on explore_sharded, serve_sharded",
	"pagestore.store.relayout_ms":            "setup_s on the hilbert workloads",
	"pagestore.partition.shard_of.ns_per_op": "cpu_ms_per_query on explore_sharded, serve_sharded",

	"pagestore.filestore.read_page.us_per_page":        "queries_per_s, op_wall_ms_p90, cpu_ms_per_query on explore_file only",
	"pagestore.filestore.read_page.off.us_per_page":    "queries_per_s on explore_file (the pread floor)",
	"pagestore.filestore.read_page.verify.us_per_page": "queries_per_s on explore_file (pread + CRC64)",
	"pagestore.filestore.read_page.repair.us_per_page": "op_wall_ms_p90 on explore_file",
	"pagestore.filestore.detected_pages":               "none: must equal the damage applied",
	"pagestore.filestore.repaired_pages":               "none: must equal detected_pages",
	"pagestore.filestore.silent_pages":                 "failed on explore_file (must stay 0)",
	"pagestore.filestore.scrub.pages_per_s":            "none: background work between ops",
	"pagestore.filestore.create.mb_per_s":              "setup_s on explore_file",
	"pagestore.filestore.relayout_ms":                  "none: maintenance between ops of explore_file",
	"pagestore.filestore.open_recover_ms":              "none: maintenance between ops of explore_file",
	"pagestore.filestore.bytes_per_user_byte":          "setup_s on explore_file",

	"fault.injector.roll.ns_per_op": "cpu_ms_per_query on explore_sharded, serve_sharded (expect small)",

	"engine.run_sequence.self_us_per_query": "queries_per_s on explore, explore_file",
	"engine.sharded.self_us_per_query":      "queries_per_s on explore_sharded",
	"engine.shardset.do.us_per_barrier_s1":  "queries_per_s on explore_sharded, serve_sharded",
	"engine.shardset.do.us_per_barrier_s8":  "queries_per_s, op_wall_ms_p90 on explore_sharded, serve_sharded",
	"engine.router.split.ns_per_page":       "cpu_ms_per_query on explore_sharded, serve_sharded",
	"engine.router.fanout_mean":             "op_wall_ms_p90 on explore_sharded (a result waits for its slowest shard)",
	"engine.router.routed_pages_per_query":  "sim_resp_ms_p50 on explore_sharded, serve_sharded",
	"engine.ha.failed_over_pages":           "sim_resp_ms_p99 on explore_sharded, serve_sharded",
	"engine.ha.outage_probes":               "sim_resp_ms_p99 on explore_sharded, serve_sharded",
	"engine.ha.hedge_windows":               "hit_rate_pct on explore_sharded",
	"engine.ha.hedge_wins":                  "hit_rate_pct on explore_sharded",
	"engine.ha.trips":                       "sim_resp_ms_p99 on explore_sharded, serve_sharded",

	"engine.plan_sessions.wall_ms_per_session": "setup_s on serve_*",
	"engine.plan_sessions.cpu_ms_per_session":  "setup_s on serve_*",
	"engine.plan_sessions.parallel_efficiency": "setup_s on serve_flat",
	"engine.commit.flat.us_per_query":          "queries_per_s, op_wall_ms_p50/p90 on serve_flat",
	"engine.commit.sharded.us_per_query":       "queries_per_s, op_wall_ms_p50/p90 on serve_sharded",
	"engine.commit.flat.scaling_exp":           "queries_per_s on serve_flat (1 = linear in sessions)",
	"engine.arbiter.grant.ns_per_call_k8":      "queries_per_s on serve_flat",
	"engine.arbiter.grant.ns_per_call_k64":     "queries_per_s on serve_flat",
	"engine.arbiter.grant.ns_per_call_k255":    "queries_per_s on serve_flat",
	"engine.arbiter.record.ns_per_call":        "queries_per_s on serve_flat",
	"engine.serve.rejected_sessions":           "failed on serve_sharded (must stay 0)",
	"engine.serve.degraded_sessions":           "sim.slo_miss_pct on serve_sharded",
	"engine.serve.abandoned_sessions":          "failed on serve_sharded (must stay 0)",
	"engine.serve.lost_queries":                "failed on serve_sharded (must stay 0)",
	"engine.serve.shed_prefetches":             "hit_rate_pct on serve_sharded",
	"engine.serve.breaker_trips":               "hit_rate_pct on serve_sharded",
	"engine.serve.interference_ms":             "sim_resp_ms_p50 on serve_flat",
	"engine.serve.max_rate_x_within_slo":       "sim.slo_miss_pct on serve_sharded",

	"sim.slo_miss_pct": "none: counted queries over the 25 ms limit; moves 13 % from seed to seed on explore_file, too much for a bound",
}
