package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"time"

	"scout/internal/core"
	"scout/internal/engine"
	"scout/internal/fault"
	"scout/internal/pagestore"
	"scout/internal/prefetch"
	"scout/internal/workload"
)

// interference is mu1's per-contender seek penalty on the shared disk.
const interference = 500 * time.Microsecond

// muParams is the serving walk: Figure 10's first preset, one per session.
func muParams() workload.Params {
	return workload.Params{Queries: 25, Volume: 80_000, Shape: workload.Cube, WindowRatio: 0.8}
}

// cell is one operation of a serve workload's per-pass grid: one commit of
// one planned population under one configuration.
type cell struct {
	name  string
	cfg   engine.ServeConfig
	plans *engine.SessionPlans
	// counted is each session's counted queries: what its served and lost
	// queries must add up to.
	counted []int64
}

// planned is a plan phase's outcome and what it cost.
type planned struct {
	plans     *engine.SessionPlans
	wall, cpu time.Duration
	// Per-layer values only the plan phase can report on a serve workload.
	nodesVisited, deltaBuilds, builds float64
}

// planSessions runs the plan phase, decorated when traced, inside an
// "engine.plan_sessions" operation span. Sessions predict with SCOUT, or —
// scout false — with the straight-line baseline, which takes core out of
// the plan phase the way explore_sharded takes it out of its operations.
func planSessions(b *base, seqs []workload.Sequence, classes []int, scout bool, rec *recorder, workers int) planned {
	w := make([]engine.SessionWorkload, len(seqs))
	var scouts []*core.Scout
	for i, s := range seqs {
		if scout {
			sc := core.New(b.store, b.ds.Adjacency, core.DefaultConfig())
			scouts = append(scouts, sc)
			w[i].Prefetcher = tracePrefetcher(sc, "core.scout.observe", rec)
		} else {
			w[i].Prefetcher = tracePrefetcher(prefetch.NewStraightLine(s.Params.Volume), "prefetch.straightline.observe", rec)
		}
		w[i].Sequences = []workload.Sequence{s}
		if classes != nil {
			w[i].Class = classes[i]
		}
	}
	b.tree.ResetNodesVisited()
	rec.beginOp("engine.plan_sessions")
	t0, c0 := time.Now(), cpuTime()
	p := planned{plans: engine.PlanSessions(b.store, traceIndex(b.tree, "rtree.query_pages", rec), w, engine.DefaultConfig().Cost, workers)}
	p.wall, p.cpu = time.Since(t0), cpuTime()-c0
	rec.endOp()
	p.nodesVisited = float64(b.tree.NodesVisited())
	for _, sc := range scouts {
		st := sc.Session()
		p.deltaBuilds += float64(st.DeltaBuilds)
		p.builds += float64(st.DeltaBuilds + st.FullBuilds)
	}
	return p
}

// planReport is the per-layer values a serve workload takes from its plan
// phase: the decorators fired there, not in the timed commits.
func (p planned) planReport(rec *recorder, sessions int) map[string]float64 {
	return map[string]float64{
		"engine.plan_sessions.wall_ms_per_session": ms(p.wall) / float64(sessions),
		"engine.plan_sessions.cpu_ms_per_session":  ms(p.cpu) / float64(sessions),
		"rtree.nodes_visited_per_call":             ratio(p.nodesVisited, float64(rec.spanTotals()["rtree.query_pages"].n)),
		"core.scout.delta_build_pct":               100 * ratio(p.deltaBuilds, p.builds),
	}
}

// plannedQueries is how many queries a plan phase resolves.
func plannedQueries(seqs []workload.Sequence) int64 {
	var n int64
	for _, s := range seqs {
		n += int64(len(s.Queries))
	}
	return n
}

// timeCells is the serve workloads' operation loop: one timed commit per
// grid cell, checked against the reference commit of the same cell.
func timeCells(rec *recorder, opName string, cells []cell, ref []engine.ServeResult, res *passResult) []engine.ServeResult {
	out := make([]engine.ServeResult, len(cells))
	for i, c := range cells {
		rec.beginOp(opName)
		t := startOp()
		sr := c.plans.Serve(c.cfg)
		op := t.stop(sr.Queries)
		rec.endOp()
		out[i] = sr

		var lost int64
		ok := true
		for s, sess := range sr.Sessions {
			lost += sess.LostQueries
			if int64(len(sess.Responses))+sess.LostQueries != c.counted[s] {
				fmt.Fprintf(os.Stderr, "check failed: %s session %d: served %d + lost %d != planned %d\n",
					c.name, s, len(sess.Responses), sess.LostQueries, c.counted[s])
				ok = false
			}
			// The session's own response samples (residual plus injected
			// stalls) are the virtual response times; its sequence results
			// carry the page and cost sums.
			for _, d := range sess.Responses {
				res.v.resp = append(res.v.resp, d)
				if d > sloLimit {
					res.v.sloMiss++
				}
			}
			res.v.sloMiss += sess.LostQueries
			for _, seq := range sess.Sequences {
				var sv virt
				sv.addSequence(seq, &res.fingerprint)
				res.v.hit, res.v.total = res.v.hit+sv.hit, res.v.total+sv.total
				res.v.cold, res.v.resid = res.v.cold+sv.cold, res.v.resid+sv.resid
			}
		}
		if ref != nil && !reflect.DeepEqual(sr, ref[i]) {
			fmt.Fprintf(os.Stderr, "check failed: %s: a re-commit of the same plans differs from the first\n", c.name)
			ok = false
		}
		// Queries the engine ran but does not count (each walk's first) are
		// attempted and served too; lost ones were never executed.
		op.queries = sr.Queries
		res.ops = append(res.ops, op)
		res.attempted += sr.Queries + lost
		res.failed += lost
		if !ok {
			res.failed += sr.Queries
		}

		res.countDisk(sr.Disk)
		res.countHA(sr.HA)
		res.count("cache.lookups", float64(sr.Cache.Hits+sr.Cache.Misses))
		res.count("cache.hits", float64(sr.Cache.Hits))
		res.count("cache.evictions", float64(sr.Cache.Evictions))
		res.count("routed_pages", float64(sr.RoutedPages))
		res.count("serve.rejected", float64(sr.RejectedSessions))
		res.count("serve.degraded", float64(sr.DegradedSessions))
		res.count("serve.abandoned", float64(sr.AbandonedSessions))
		res.count("serve.lost", float64(sr.LostQueries))
		res.count("serve.shed", float64(sr.ShedPrefetches))
		res.count("serve.breaker_trips", float64(sr.BreakerTrips))
		res.count("serve.interference_ms", ms(sr.Interference))
	}
	return out
}

// plannedCounted is each session's counted queries (all but the first of
// its walk): what served + lost must add up to.
func plannedCounted(seqs []workload.Sequence) []int64 {
	out := make([]int64, len(seqs))
	for i, s := range seqs {
		out[i] = int64(len(s.Queries) - 1)
	}
	return out
}

// serveFlat commits pre-planned sessions on the flat path: per pass the
// 16-cell grid policy × cache sharing × I/O path, closed loop (every session
// present at t = 0). Prediction is in set-up; the discrete-event loop, the
// arbiter, cache.Sharded and the shared disk do all the timed work.
type serveFlat struct {
	opt   options
	b     *base
	seqs  []workload.Sequence
	plan  planned
	cells []cell
	ref   []engine.ServeResult
}

func (w *serveFlat) base() *base     { return w.b }
func (w *serveFlat) opsPerPass() int { return len(w.cells) }
func (w *serveFlat) close()          {}
func (w *serveFlat) traits() traits {
	return traits{op: "engine.commit.flat", serve: true, plannedPerRun: plannedQueries(w.seqs)}
}

func (w *serveFlat) setup(rec *recorder) error {
	b, err := buildBase(w.opt, nil)
	if err != nil {
		return err
	}
	w.b, w.ref = b, nil
	if w.seqs, err = b.genWalks(muParams(), w.opt.sz.FlatSessions, w.opt.seed); err != nil {
		return err
	}
	w.plan = planSessions(b, w.seqs, nil, true, rec, 0)
	counted := plannedCounted(w.seqs)

	w.cells = nil
	for _, policy := range engine.Policies() {
		for _, private := range []bool{false, true} {
			for _, batched := range []bool{false, true} {
				cfg := engine.DefaultConfig()
				cfg.BatchedIO = batched
				w.cells = append(w.cells, cell{
					name: fmt.Sprintf("%s/private=%v/batched=%v", policy, private, batched),
					cfg: engine.ServeConfig{
						Engine: cfg, Policy: policy, PrivateCaches: private,
						InterferenceSeek: interference, SLO: sloLimit,
					},
					plans: w.plan.plans, counted: counted,
				})
			}
		}
	}
	return nil
}

func (w *serveFlat) pass(rec *recorder, warm bool) (passResult, error) {
	res := passResult{fingerprint: fnvOffset, counters: map[string]float64{}}
	start := time.Now()
	out := timeCells(rec, "engine.commit.flat", w.cells, w.ref, &res)
	if warm {
		w.ref = out
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// probe measures what only the traced run pays for: the plan phase on one
// worker (parallel efficiency) and commits of smaller plans (how commit
// time scales with the session count).
func (w *serveFlat) probe(rec *recorder) (map[string]float64, error) {
	out := w.plan.planReport(rec, len(w.seqs))
	procs := gomaxprocs()
	sample := w.seqs[:w.opt.sz.ScalingSessions[0]]
	var one, all []float64
	for i := 0; i < 3; i++ { // in turn, so both see the same machine
		one = append(one, float64(planSessions(w.b, sample, nil, true, nil, 1).wall))
		all = append(all, float64(planSessions(w.b, sample, nil, true, nil, procs).wall))
	}
	out["engine.plan_sessions.parallel_efficiency"] = ratio(median(one), median(all)*float64(procs))

	// Log-log slope of commit time over the session count, on the cheapest
	// cell (fair, shared cache, per-page I/O): 1 is linear.
	var xs, ys []float64
	for _, n := range w.opt.sz.ScalingSessions {
		plans := w.plan.plans
		if n != len(w.seqs) {
			plans = planSessions(w.b, w.seqs[:n], nil, true, nil, 0).plans
		}
		ns := nsPerOp(5*time.Duration(w.opt.sz.ProbeMS)*time.Millisecond, 1, func() { plans.Serve(w.cells[0].cfg) })
		xs, ys = append(xs, math.Log(float64(n))), append(ys, math.Log(ns))
	}
	out["engine.commit.flat.scaling_exp"] = slope(xs, ys)
	return out, nil
}

// slope is the least-squares slope of y over x.
func slope(x, y []float64) float64 {
	mx, my := mean(x), mean(y)
	var num, den float64
	for i := range x {
		num += (x[i] - mx) * (y[i] - my)
		den += (x[i] - mx) * (x[i] - mx)
	}
	return ratio(num, den)
}

// serveSharded commits pre-planned sessions on the sharded-HA path, open
// loop in virtual time: per pass the 8-cell grid offered load × faults over
// each of several independent session groups, with load1's mixed classes,
// Poisson arrivals at multiples of each group's closed-loop capacity
// (calibrated in set-up), degrade-admission and the breaker. Sessions
// predict with the straight-line baseline: the workload is about the commit
// loop behind the ShardSet barrier, and cheap plans pay for three groups,
// which is what keeps its numbers steady from seed to seed.
type serveSharded struct {
	opt    options
	b      *base
	groups []sessionGroup
	cells  []cell
	mults  []float64 // offered-load multiple of each cell
	faulty []bool
	ref    []engine.ServeResult
	// last holds the latest pass's results, for max_rate_x_within_slo.
	last []engine.ServeResult
}

// sessionGroup is one independently planned and arriving population.
type sessionGroup struct {
	seqs     []workload.Sequence
	plan     planned
	capacity float64 // closed-loop sessions per virtual second
}

func (w *serveSharded) base() *base     { return w.b }
func (w *serveSharded) opsPerPass() int { return len(w.cells) }
func (w *serveSharded) close()          {}
func (w *serveSharded) traits() traits {
	t := traits{op: "engine.commit.sharded", serve: true, sharded: true, batched: true, faults: true}
	for _, g := range w.groups {
		t.plannedPerRun += plannedQueries(g.seqs)
	}
	return t
}

// loadClasses is load1's mixed population: model builders, scanners and
// teleporters, with its mitigated arbiter weights. Patience is left at 0
// (infinite): the benchmark's workloads must not fail operations, so
// overload shows as response time and SLO misses, not as abandoned walks.
func loadClasses() ([]workload.Params, []engine.ClassSpec) {
	return []workload.Params{
			{Queries: 25, Volume: 20_000, Shape: workload.Cube, WindowRatio: 2.0},
			{Queries: 25, Volume: 160_000, Shape: workload.Cube, WindowRatio: 0.8},
			{Queries: 25, Volume: 80_000, Shape: workload.Cube, Gap: 25, WindowRatio: 1.0},
		}, []engine.ClassSpec{
			{Name: "model", Weight: 3},
			{Name: "scan"},
			{Name: "teleport", Weight: 2},
		}
}

func (w *serveSharded) setup(rec *recorder) error {
	b, err := buildBase(w.opt, pagestore.HilbertLayout())
	if err != nil {
		return err
	}
	w.b, w.ref = b, nil
	params, specs := loadClasses()
	base := engine.ServeConfig{
		Engine: engine.DefaultConfig(), Policy: engine.FairShare,
		InterferenceSeek: interference, SLO: sloLimit,
		Shards: shards, Replicas: 2,
	}
	n := w.opt.sz.ShardedSessions
	w.groups = make([]sessionGroup, w.opt.sz.ShardedGroups)
	for g := range w.groups {
		seqs := make([]workload.Sequence, n)
		classes := make([]int, n)
		for class := range params {
			// One generator call per class, sessions bound round-robin, as load1.
			count := (n - class + len(params) - 1) / len(params)
			walks, err := b.genWalks(params[class], count, w.opt.seed+int64(100*g+class))
			if err != nil {
				return err
			}
			for i, s := range walks {
				seqs[class+i*len(params)], classes[class+i*len(params)] = s, class
			}
		}
		plan := planSessions(b, seqs, classes, false, rec, 0)
		// Capacity is the drain rate with the whole population in flight, so
		// the saturation knee sits near 1× at any scale (load1's calibration).
		closed := plan.plans.Serve(base)
		w.groups[g] = sessionGroup{seqs: seqs, plan: plan, capacity: float64(n) / closed.Makespan.Seconds()}
	}

	plan, err := fault.ParseProfile("shard:flaky", w.opt.faultSeed)
	if err != nil {
		return err
	}
	w.cells, w.mults, w.faulty = nil, nil, nil
	for _, mult := range []float64{0.5, 1, 2, 4} {
		for _, faulty := range []bool{false, true} {
			for g, grp := range w.groups {
				cfg := base
				cfg.Arrivals = engine.ArrivalConfig{
					Enabled: true, Process: engine.Poisson,
					Rate: mult * grp.capacity, Seed: w.opt.seed + int64(g),
				}
				cfg.Classes = specs
				cfg.Breaker = engine.DefaultBreakerConfig()
				cfg.Admission = engine.DefaultAdmissionConfig()
				cfg.Admission.Degrade = true
				profile := "off"
				if faulty {
					cfg.Faults = fault.New(plan)
					profile = "shard:flaky"
				}
				w.cells = append(w.cells, cell{
					name: fmt.Sprintf("%gx/faults=%s/group=%d", mult, profile, g),
					cfg:  cfg, plans: grp.plan.plans, counted: plannedCounted(grp.seqs),
				})
				w.mults, w.faulty = append(w.mults, mult), append(w.faulty, faulty)
			}
		}
	}
	return nil
}

func (w *serveSharded) pass(rec *recorder, warm bool) (passResult, error) {
	res := passResult{fingerprint: fnvOffset, counters: map[string]float64{}}
	start := time.Now()
	w.last = timeCells(rec, "engine.commit.sharded", w.cells, w.ref, &res)
	if warm {
		w.ref = w.last
	}
	res.elapsed = time.Since(start)
	return res, nil
}

func (w *serveSharded) probe(rec *recorder) (map[string]float64, error) {
	var all planned
	sessions := 0
	for _, g := range w.groups {
		all.wall, all.cpu = all.wall+g.plan.wall, all.cpu+g.plan.cpu
		all.nodesVisited += g.plan.nodesVisited
		sessions += len(g.seqs)
	}
	out := all.planReport(rec, sessions)
	// The highest fault-free offered load at which the virtual p99, pooled
	// over the groups, meets the limit with no query lost (0: none did).
	for _, mult := range []float64{0.5, 1, 2, 4} {
		var resp []time.Duration
		var lost int64
		for i, sr := range w.last {
			if w.mults[i] == mult && !w.faulty[i] {
				resp = append(resp, sr.Responses()...)
				lost += sr.LostQueries
			}
		}
		if lost == 0 && engine.Percentile(resp, 99) <= sloLimit {
			out["engine.serve.max_rate_x_within_slo"] = mult
		}
	}
	return out, nil
}
