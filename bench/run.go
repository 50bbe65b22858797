package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the object the driver reads from the
// last line of standard output. Samples, the count behind each metric, is
// printed on a line of its own before it, for -all and -repeat.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"-"`
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// traits is what the per-layer report must know about a workload.
type traits struct {
	op            string // root span name of its operations
	sharded       bool   // operations cross the ShardSet barrier and the router
	serve         bool   // operations are commits; decorators fire in set-up's plan phase
	batched       bool   // reads are priced as elevator batches
	faults        bool   // a fault injector is armed
	plannedPerRun int64  // serve: queries the plan phase resolved
}

// timedPasses runs rounds of identical passes — one pass per recorder in
// recs, in turn — until about seconds have gone by (and at least minRounds),
// checking each pass against the first one's fingerprint. It returns the
// passes of each recorder. The traced run hands it {nil, rec}, so untraced
// and traced passes alternate and see the same machine.
func timedPasses(b bench, recs []*recorder, seconds float64, minRounds int) ([][]passResult, error) {
	passes := make([][]passResult, len(recs))
	var first uint64
	start := time.Now()
	for round := 0; ; round++ {
		var elapsed time.Duration
		for i, rec := range recs {
			p, err := b.pass(rec, false)
			if err != nil {
				return nil, err
			}
			if round == 0 && i == 0 {
				first = p.fingerprint
			}
			if p.fingerprint != first {
				fmt.Fprintf(os.Stderr, "check failed: round %d pass %d fingerprint %x differs from the first pass's %x\n",
					round, i, p.fingerprint, first)
				p.failed = p.attempted
			}
			passes[i] = append(passes[i], p)
			elapsed += p.elapsed
		}
		// Stop where the next round would overshoot by more than it undershoots.
		if round+1 >= minRounds && time.Since(start).Seconds()+elapsed.Seconds()/2 >= seconds {
			return passes, nil
		}
	}
}

// steadyOps returns one sample per operation of a pass: the median, over the
// passes, of that operation's wall time, CPU time and allocations. The
// passes are identical, so they are repeated measurements of the same
// operations, and the per-operation median drops what hit one repeat only (a
// descheduled thread, a collection cycle started by the previous operation)
// without touching how the operations differ from each other.
func steadyOps(passes []passResult) []opSample {
	out := make([]opSample, len(passes[0].ops))
	col := make([]float64, len(passes))
	over := func(i int, field func(opSample) float64) float64 {
		for p := range passes {
			col[p] = field(passes[p].ops[i])
		}
		return median(col)
	}
	for i := range out {
		out[i] = opSample{
			wall:    time.Duration(over(i, func(o opSample) float64 { return float64(o.wall) })),
			cpu:     time.Duration(over(i, func(o opSample) float64 { return float64(o.cpu) })),
			mallocs: uint64(over(i, func(o opSample) float64 { return float64(o.mallocs) })),
			bytes:   uint64(over(i, func(o opSample) float64 { return float64(o.bytes) })),
			queries: passes[0].ops[i].queries,
		}
	}
	return out
}

// totals sums operation samples.
func totals(ops []opSample) (t opSample) {
	for _, o := range ops {
		t.wall += o.wall
		t.cpu += o.cpu
		t.mallocs += o.mallocs
		t.bytes += o.bytes
		t.queries += o.queries
	}
	return t
}

// queriesPerSecond is the queries served per second of operation wall time
// (maintenance between operations is not an operation).
func queriesPerSecond(passes []passResult) float64 {
	t := totals(steadyOps(passes))
	return float64(t.queries) / t.wall.Seconds()
}

// runUntraced measures the end-to-end metrics: set-up several times, one
// warm-up pass, then identical timed passes with tracing off.
func runUntraced(name string, opt options) (runResult, error) {
	b, err := newBench(name, opt)
	if err != nil {
		return runResult{}, err
	}
	defer b.close()

	var setups []float64
	for i := 0; i < opt.sz.Setups; i++ {
		t0 := time.Now()
		if err := b.setup(nil); err != nil {
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC() // the previous set-up's dataset is garbage now
	}
	if _, err := b.pass(nil, true); err != nil {
		return runResult{}, fmt.Errorf("warm-up: %w", err)
	}
	minPasses := max(2, (opt.sz.MinOps+b.opsPerPass()-1)/b.opsPerPass())
	timed, err := timedPasses(b, []*recorder{nil}, opt.seconds, minPasses)
	if err != nil {
		return runResult{}, err
	}
	passes := timed[0]

	res := runResult{Metrics: map[string]metricValue{}, Samples: map[string]int{}}
	ops := steadyOps(passes)
	sum := totals(ops)
	q := float64(sum.queries)
	// Every timed operation of every pass is one sample of the percentiles.
	var walls []float64
	for _, p := range passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
		for _, o := range p.ops {
			walls = append(walls, ms(o.wall))
		}
	}
	v := passes[0].v
	resp := make([]float64, len(v.resp))
	for i, d := range v.resp {
		resp[i] = ms(d)
	}
	type measured struct {
		name  string
		value float64
		n     int
		err   error
	}
	pct := func(name string, samples []float64, p float64) measured {
		v, err := percentile(samples, p, opt.sz.MinBeyond)
		return measured{name, v, len(samples), err}
	}
	table := []measured{
		{"setup_s", median(setups), len(setups), nil},
		{"queries_per_s", q / sum.wall.Seconds(), len(walls), nil},
		{"op_wall_ms_p50", median(walls), len(walls), nil},
		pct("op_wall_ms_p90", walls, 90),
		{"cpu_ms_per_query", ms(sum.cpu) / q, len(walls), nil},
		{"allocs_per_query", float64(sum.mallocs) / q, len(walls), nil},
		{"alloc_kb_per_query", float64(sum.bytes) / 1024 / q, len(walls), nil},
		{"peak_rss_mb", peakRSSMB(), 1, nil},
		{"hit_rate_pct", 100 * ratio(float64(v.hit), float64(v.total)), len(resp), nil},
		{"sim_speedup_x", ratio(float64(v.cold), float64(max(v.resid, time.Nanosecond))), len(resp), nil},
		{"sim_resp_ms_p50", median(resp), len(resp), nil},
		pct("sim_resp_ms_p99", resp, 99),
	}
	values := map[string]measured{}
	for _, m := range table {
		if m.err != nil {
			return res, fmt.Errorf("%s: %w", m.name, m.err)
		}
		values[m.name] = m
	}
	for _, m := range endToEnd {
		got, ok := values[m.Name]
		if !ok || math.IsNaN(got.value) || math.IsInf(got.value, 0) {
			return res, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricValue{got.value, m.Unit}
		res.Samples[m.Name] = got.n
	}
	if len(values) != len(endToEnd) {
		return res, fmt.Errorf("measured %d end-to-end metrics, %d are declared", len(values), len(endToEnd))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// runTraced measures the per-layer metrics: one traced set-up, a warm-up,
// untraced and traced passes in turn (their ratio is the tracing overhead),
// then the replay probes. The span file goes to traceOut
// when that is set.
func runTraced(name string, opt options, traceOut string) (runResult, error) {
	b, err := newBench(name, opt)
	if err != nil {
		return runResult{}, err
	}
	defer b.close()
	rec := newRecorder()
	if err := b.setup(rec); err != nil {
		return runResult{}, fmt.Errorf("set-up: %w", err)
	}
	if _, err := b.pass(nil, true); err != nil {
		return runResult{}, fmt.Errorf("warm-up: %w", err)
	}
	timed, err := timedPasses(b, []*recorder{nil, rec}, opt.seconds, 1)
	if err != nil {
		return runResult{}, err
	}
	plain, traced := timed[0], timed[1]

	res := runResult{Metrics: map[string]metricValue{}, Samples: map[string]int{}}
	counters := map[string]float64{}
	var queries float64
	for _, p := range append(plain, traced...) {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	for _, p := range traced {
		queries += float64(p.queries())
		for k, v := range p.counters {
			counters[k] += v
		}
	}

	values := layerReport(b, b.traits(), rec, counters, queries, float64(len(traced)),
		replayProbes(b.base(), rec, opt, b.base().store.NumPages()*4/33))
	values["trace.overhead_pct"] = 100 * (1 - ratio(queriesPerSecond(traced), queriesPerSecond(plain)))
	// Too unsteady from seed to seed for an end-to-end bound (README.md).
	values["sim.slo_miss_pct"] = 100 * ratio(float64(traced[0].v.sloMiss), float64(len(traced[0].v.resp)))
	own, err := b.probe(rec)
	if err != nil {
		return res, fmt.Errorf("layer probe: %w", err)
	}
	for k, v := range own {
		values[k] = v
	}

	// A declared metric nothing above measured belongs to a layer this
	// workload never reaches, and reads 0 with no samples behind it: the
	// bypass claim in numbers.
	for _, m := range perLayer {
		val, measured := values[m.Name]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return res, fmt.Errorf("per-layer metric %s is %g", m.Name, val)
		}
		res.Metrics[m.Name] = metricValue{val, m.Unit}
		if measured {
			res.Samples[m.Name] = int(queries)
		}
		delete(values, m.Name)
	}
	for k := range values {
		return res, fmt.Errorf("per-layer metric %s is measured but not declared", k)
	}
	if traceOut != "" {
		if err := rec.writeSpans(traceOut); err != nil {
			return res, fmt.Errorf("writing spans: %w", err)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// layerReport turns spans, in-situ counters and probe results into the
// per-layer metrics every workload measures the same way.
// queries is what the traced passes served, passes how many there were.
func layerReport(b bench, tr traits, rec *recorder, c map[string]float64, queries, passes float64, probes map[string]float64) map[string]float64 {
	base := b.base()
	totals := rec.spanTotals()
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	// Decorators fire inside the operations on the explore workloads, inside
	// set-up's plan phase on the serve workloads.
	layerQ := queries
	if tr.serve {
		layerQ = float64(tr.plannedPerRun)
	}
	perObserve := func(name string) float64 { return ratio(us(totals[name].d), float64(totals[name].n)) }
	rt := totals["rtree.query_pages"]
	opWall, opSelf := rec.rootSelf(tr.op)
	// An operation the workload does not run has no spans and reads 0.
	perQuery := func(root string, self bool) float64 {
		wall, own := rec.rootSelf(root)
		if self {
			wall = own
		}
		return ratio(us(wall), queries)
	}

	out := map[string]float64{
		"dataset.generate_s":           base.generate.Seconds(),
		"workload.generate_ms_per_seq": ratio(ms(base.walkGen), float64(base.walks)),
		"rtree.bulk_load_s":            base.bulkLoad.Seconds(),
		"flatindex.build_s":            base.flatBuild.Seconds(),

		"rtree.query_pages.us_per_query":    ratio(us(rt.d), layerQ),
		"rtree.query_pages.calls_per_query": ratio(float64(rt.n), layerQ),
		"rtree.nodes_visited_per_call":      ratio(c["rtree.nodes_visited"], float64(rt.n)),
		"rtree.pages_per_call":              ratio(float64(rec.indexPages["rtree.query_pages"]), float64(rt.n)),

		"core.scout.observe.us_per_query":    perObserve("core.scout.observe"),
		"core.scoutopt.observe.us_per_query": perObserve("core.scoutopt.observe"),
		"core.plan.requests_per_query":       ratio(float64(rec.requests), float64(rec.plans)),
		"core.scout.delta_build_pct":         100 * ratio(c["scout.delta_builds"], c["scout.builds"]),
		"core.sim.graph_build_ms_per_query":  ratio(ms(rec.graphBuild), float64(rec.plans)),
		"core.sim.prediction_ms_per_query":   ratio(ms(rec.prediction), float64(rec.plans)),

		"prefetch.straightline.observe.us_per_query": perObserve("prefetch.straightline.observe"),

		"cache.hit_pct":             100 * ratio(c["cache.hits"], c["cache.lookups"]),
		"cache.evictions_per_query": ratio(c["cache.evictions"], queries),

		"pagestore.disk.seeks_per_query":         ratio(c["disk.seeks"], queries),
		"pagestore.disk.pages_read_per_query":    ratio(c["disk.pages_read"], queries),
		"pagestore.disk.bridged_pages_per_query": ratio(c["disk.bridged"], queries),
		"pagestore.disk.fault_retries":           c["disk.fault_retries"] / passes,
		"pagestore.disk.timed_out_reads":         c["disk.timed_out"] / passes,

		"pagestore.filestore.read_page.us_per_page": ratio(c["disk.wall_read_ns"]/1e3, c["disk.pages_read"]),
		"pagestore.filestore.detected_pages":        c["fs.detected"] / passes,
		"pagestore.filestore.repaired_pages":        c["fs.repaired"] / passes,
		"pagestore.filestore.silent_pages":          c["fs.silent"] / passes,

		"engine.run_sequence.self_us_per_query": perQuery("engine.run_sequence", true),
		"engine.sharded.self_us_per_query":      perQuery("engine.sharded.run_sequence", true),
		"engine.commit.flat.us_per_query":       perQuery("engine.commit.flat", false),
		"engine.commit.sharded.us_per_query":    perQuery("engine.commit.sharded", false),

		"engine.router.routed_pages_per_query": ratio(c["routed_pages"], queries),
		"engine.ha.failed_over_pages":          c["ha.failed_over_pages"] / passes,
		"engine.ha.outage_probes":              c["ha.outage_probes"] / passes,
		"engine.ha.hedge_windows":              c["ha.hedge_windows"] / passes,
		"engine.ha.hedge_wins":                 c["ha.hedge_wins"] / passes,
		"engine.ha.trips":                      c["ha.trips"] / passes,

		"engine.serve.rejected_sessions":  c["serve.rejected"] / passes,
		"engine.serve.degraded_sessions":  c["serve.degraded"] / passes,
		"engine.serve.abandoned_sessions": c["serve.abandoned"] / passes,
		"engine.serve.lost_queries":       c["serve.lost"] / passes,
		"engine.serve.shed_prefetches":    c["serve.shed"] / passes,
		"engine.serve.breaker_trips":      c["serve.breaker_trips"] / passes,
		"engine.serve.interference_ms":    c["serve.interference_ms"] / passes,
	}
	// The sharded engine has no cache accessor and reports its fan-out per
	// query; elsewhere the fan-out is what the router would have done and
	// the straight-line cost what it would have cost (both replayed).
	if tr.sharded && !tr.serve {
		out["engine.router.fanout_mean"] = ratio(c["fanout_sum"], queries)
		out["cache.evictions_per_query"] = probes["replay.evictions_per_insert"] * ratio(c["prefetched"], queries)
	} else {
		out["engine.router.fanout_mean"] = probes["replay.fanout_mean"]
	}
	if totals["prefetch.straightline.observe"].n == 0 {
		out["prefetch.straightline.observe.us_per_query"] = probes["replay.straightline.us_per_query"]
	}
	for k, v := range probes {
		if !strings.HasPrefix(k, "replay.") {
			out[k] = v
		}
	}

	// Coverage: child spans (what the decorators saw) plus the replayed
	// layers' unit costs times how often the operations used them, over the
	// operations' wall time. The rest is engine-internal glue.
	explained := float64(opWall-opSelf) +
		c["cache.lookups"]*probes["cache.lru.lookup.ns_per_op"] +
		c["cache.lookups"]*probes["pagestore.disk.cold_cost.ns_per_page"] +
		c["disk.wall_read_ns"]
	readNS := probes["pagestore.disk.read_pages.ns_per_page"]
	if tr.batched {
		readNS = probes["pagestore.disk.read_batch.ns_per_page"]
	}
	explained += c["disk.pages_read"] * (readNS + probes["cache.lru.insert.ns_per_op"])
	if tr.faults {
		explained += c["disk.pages_read"] * probes["fault.injector.roll.ns_per_op"]
	}
	if tr.sharded {
		// Two fan-outs per query (demand, prefetch window), each a barrier.
		explained += c["cache.lookups"]*probes["engine.router.split.ns_per_page"] +
			2*queries*probes["engine.shardset.do.us_per_barrier_s8"]*1e3
	}
	if tr.serve {
		explained += queries * (probes["engine.arbiter.grant.ns_per_call_k64"] + probes["engine.arbiter.record.ns_per_call"])
	}
	out["trace.coverage_pct"] = 100 * ratio(explained, float64(opWall))
	return out
}
